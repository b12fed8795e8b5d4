// The gossip executor's sparse bookkeeping against brute force.  The
// round loop visits only active tiles, answers tiles_knowing() from a
// per-rumor counter and quiescent() from the active list; these tests
// recompute each of those by scanning every tile, round by round, under
// the all-streams fault scenario, and run the full auditor (whose
// active-set invariant is the same check) through the adapter stack.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "check/invariant_auditor.hpp"
#include "core/engine.hpp"
#include "sim/backends.hpp"

namespace snoc {
namespace {

/// Every injector stream active: crashes, link faults, upsets, forced
/// overflows and clock jitter (so skew deferrals re-enter the ring).
FaultScenario stress_scenario() {
    FaultScenario s;
    s.p_tiles = 0.08;
    s.p_links = 0.05;
    s.p_upset = 0.1;
    s.p_overflow = 0.05;
    s.sigma_synchr = 0.2;
    return s;
}

TrafficTrace corner_trace() {
    TrafficTrace trace;
    TrafficPhase phase;
    phase.messages.push_back({0, 24, 256});
    phase.messages.push_back({4, 20, 256});
    phase.messages.push_back({20, 4, 256});
    phase.messages.push_back({24, 0, 256});
    trace.phases.push_back(phase);
    return trace;
}

TEST(GossipExecutor, AuditorCleanOnStressScenario) {
    for (const std::uint64_t seed : {1ull, 7ull, 42ull}) {
        GossipSpec spec;
        spec.topology = Topology::mesh(5, 5);
        spec.config.forward_p = 0.5;
        spec.config.default_ttl = 40;
        spec.protect = {0, 4, 20, 24};
        spec.drain = true;
        GossipAdapter adapter(std::move(spec), stress_scenario(), seed);
        check::InvariantAuditor auditor;
        auditor.begin_run("test_gossip_executor");
        adapter.set_auditor(&auditor);
        const auto trace = corner_trace();
        const RunReport report = adapter.run(trace, 1000);
        auditor.check_report(report, BackendKind::Gossip, &trace, 1000);
        EXPECT_GT(report.transmissions, 0u) << "seed=" << seed;
        EXPECT_EQ(auditor.violation_count(), 0u) << "seed=" << seed;
    }
}

/// A corner broadcast at start plus a fresh rumor every few rounds, so
/// tiles keep joining and leaving the active list while the run lasts.
class Spreader final : public IpCore {
public:
    void on_start(TileContext& ctx) override {
        ctx.send(kBroadcast, 0xB0, {std::byte{1}});
    }
    void on_round(TileContext& ctx) override {
        if (ctx.round() % 7 == 3 && ctx.round() < 40)
            ctx.send(kBroadcast, 0xB1, {std::byte{2}});
    }
    void on_message(const Message&, TileContext&) override {}
};

TEST(GossipExecutor, SparseBookkeepingMatchesBruteForceEveryRound) {
    GossipConfig config;
    config.forward_p = 0.5;
    config.default_ttl = 30;
    config.send_buffer_capacity = 3; // exercise evictions too
    GossipNetwork net(Topology::mesh(6, 6), config, stress_scenario(), 11);
    net.attach(0, std::make_unique<Spreader>());
    net.protect(0);
    const std::size_t n = net.topology().node_count();

    std::size_t peak_spread = 0;
    bool went_quiet = false;
    for (int round = 0; round < 150; ++round) {
        net.step();
        ASSERT_TRUE(net.active_set_consistent()) << "round " << round;
        // Tile 0 numbers its rumors 0, 1, 2, ...; check every one it made.
        const std::uint32_t made =
            static_cast<std::uint32_t>(net.metrics().messages_created);
        for (std::uint32_t seq = 0; seq < made; ++seq) {
            const MessageId id{0, seq};
            std::size_t knowing = 0;
            for (TileId t = 0; t < n; ++t)
                if (net.tile_alive(t) && net.send_buffer(t).knows(id)) ++knowing;
            ASSERT_EQ(net.tiles_knowing(id), knowing)
                << "round " << round << " rumor " << seq;
            peak_spread = std::max(peak_spread, knowing);
        }
        bool idle = net.in_flight_packets() == 0;
        for (TileId t = 0; t < n; ++t) idle = idle && net.send_buffer(t).empty();
        ASSERT_EQ(net.quiescent(), idle) << "round " << round;
        went_quiet = went_quiet || idle;
    }
    // Guard against a vacuous pass: rumors spread, and the run drained.
    EXPECT_GT(net.metrics().messages_created, 1u);
    EXPECT_GT(net.metrics().overflow_drops, 0u);
    EXPECT_GT(peak_spread, n / 2);
    EXPECT_TRUE(went_quiet);
}

/// Two rumors at start; with capacity 1 the second evicts the first.
class TwoRumors final : public IpCore {
public:
    void on_start(TileContext& ctx) override {
        ctx.send(kBroadcast, 0xC1, {std::byte{1}});
        ctx.send(kBroadcast, 0xC2, {std::byte{2}});
    }
    void on_message(const Message&, TileContext&) override {}
};

/// With p = 0 a held rumor never leaves its tile: the ring is empty, yet
/// the run is not quiescent until the TTL expires.  The eviction keeps
/// the buffer at one entry, and the tile must be listed only once.
TEST(GossipExecutor, HeldRumorWithNothingInFlightIsNotQuiescent) {
    GossipConfig config;
    config.forward_p = 0.0;
    config.default_ttl = 3;
    config.send_buffer_capacity = 1;
    GossipNetwork net(Topology::mesh(3, 3), config, FaultScenario::none(), 1);
    net.attach(4, std::make_unique<TwoRumors>());
    for (int round = 0; round < 2; ++round) {
        net.step();
        EXPECT_EQ(net.in_flight_packets(), 0u);
        EXPECT_EQ(net.send_buffer(4).size(), 1u);
        EXPECT_FALSE(net.quiescent()) << "round " << round;
        EXPECT_TRUE(net.active_set_consistent()) << "round " << round;
    }
    net.step(); // the TTL runs out
    EXPECT_TRUE(net.quiescent());
    EXPECT_EQ(net.tiles_knowing(MessageId{4, 0}), 1u);
    EXPECT_EQ(net.tiles_knowing(MessageId{4, 1}), 1u);
    EXPECT_EQ(net.metrics().overflow_drops, 1u);
}

} // namespace
} // namespace snoc
