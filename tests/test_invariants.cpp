// Property-based conservation laws of the gossip engine, checked through
// the flight recorder under randomized workloads and fault scenarios.
//
//   1. causality    — every Delivered/Transmitted/TtlExpired event refers
//                     to a message that was Created earlier (or at the
//                     same round);
//   2. single shot  — a unicast rumor is delivered at most once;
//   3. closure      — after drain() every created rumor has been garbage-
//                     collected somewhere (TTL expiry is inevitable);
//   4. accounting   — metrics agree with the event stream and with each
//                     other, for any seed and any fault mix.
#include <map>
#include <memory>
#include <set>

#include <gtest/gtest.h>

#include "core/engine.hpp"
#include "sim/trace.hpp"
#include "telemetry/telemetry.hpp"

namespace snoc {
namespace {

/// Sends unicasts to random live-looking destinations at random rounds.
class RandomChatter final : public IpCore {
public:
    explicit RandomChatter(std::size_t tiles) : tiles_(tiles) {}
    void on_round(TileContext& ctx) override {
        if (ctx.round() > 12) return; // bounded workload so drain converges
        if (!ctx.rng().bernoulli(0.3)) return;
        auto dst = static_cast<TileId>(ctx.rng().below(tiles_ - 1));
        if (dst >= ctx.tile()) ++dst;
        ctx.send(dst, 0xCC, {std::byte{1}, std::byte{2}});
    }
    void on_message(const Message&, TileContext&) override {}

private:
    std::size_t tiles_;
};

struct InvariantRun {
    NetworkMetrics metrics;
    Telemetry trace; ///< every event, plus per-kind totals.
};

InvariantRun run_random(std::uint64_t seed, FaultScenario scenario, double p) {
    GossipConfig c;
    c.forward_p = p;
    c.default_ttl = 10;
    GossipNetwork net(Topology::mesh(4, 4), c, scenario, seed);
    InvariantRun out;
    net.set_trace_sink(&out.trace);
    for (TileId t = 0; t < 16; ++t)
        net.attach(t, std::make_unique<RandomChatter>(16));
    for (int i = 0; i < 30; ++i) net.step();
    net.drain(200);
    out.metrics = net.metrics();
    return out;
}

class InvariantSweep
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, double>> {};

TEST_P(InvariantSweep, ConservationLaws) {
    const auto [seed, upset] = GetParam();
    FaultScenario s;
    s.p_upset = upset;
    s.p_tiles = 0.05;
    s.p_overflow = upset / 4.0;
    s.sigma_synchr = 0.1;
    const auto run = run_random(seed, s, 0.5);

    std::map<MessageId, Round> created;
    std::map<MessageId, std::size_t> delivered;
    std::set<MessageId> expired;
    for (const auto& e : run.trace.events()) {
        switch (e.kind) {
        case TraceEventKind::MessageCreated:
            EXPECT_FALSE(created.contains(e.message)) << format_event(e);
            created.emplace(e.message, e.round);
            break;
        case TraceEventKind::Transmitted:
        case TraceEventKind::Delivered:
        case TraceEventKind::TtlExpired:
        case TraceEventKind::DuplicateIgnored:
        case TraceEventKind::SkewDeferral: {
            // 1. causality.
            const auto it = created.find(e.message);
            ASSERT_NE(it, created.end()) << format_event(e);
            EXPECT_GE(e.round, it->second) << format_event(e);
            if (e.kind == TraceEventKind::Delivered) ++delivered[e.message];
            if (e.kind == TraceEventKind::TtlExpired) expired.insert(e.message);
            break;
        }
        default:
            break; // drops carry no id
        }
    }
    // 2. unicast single-shot delivery.
    for (const auto& [id, count] : delivered) EXPECT_EQ(count, 1u) << id.origin;
    // 3. closure: every created rumor was eventually collected somewhere.
    for (const auto& [id, round] : created)
        EXPECT_TRUE(expired.contains(id))
            << "message (" << id.origin << "," << id.sequence << ") never expired";
    // 4. accounting.
    const auto& m = run.metrics;
    EXPECT_EQ(run.trace.count(TraceEventKind::Transmitted), m.packets_sent);
    EXPECT_EQ(run.trace.count(TraceEventKind::Delivered), m.deliveries);
    EXPECT_EQ(run.trace.count(TraceEventKind::MessageCreated), m.messages_created);
    EXPECT_EQ(run.trace.count(TraceEventKind::CrcDrop), m.crc_drops);
    EXPECT_EQ(run.trace.count(TraceEventKind::TtlExpired), m.ttl_expired);
    std::size_t per_round_sum = 0;
    for (auto n : m.packets_per_round) per_round_sum += n;
    EXPECT_EQ(per_round_sum, m.packets_sent);
    std::size_t per_tile_sum = 0;
    for (auto b : m.bits_sent_by_tile) per_tile_sum += b;
    EXPECT_EQ(per_tile_sum, m.bits_sent);
    EXPECT_LE(m.deliveries, m.messages_created);
}

INSTANTIATE_TEST_SUITE_P(
    Mixes, InvariantSweep,
    ::testing::Combine(::testing::Values(1ull, 2ull, 3ull, 4ull, 5ull),
                       ::testing::Values(0.0, 0.3, 0.6)));

TEST(Invariants, FloodingDeliversEverythingOnHealthyChip) {
    // With p = 1 and no faults, every unicast is delivered exactly once.
    const auto run = run_random(11, FaultScenario::none(), 1.0);
    std::size_t created = 0, delivered = 0;
    for (const auto& e : run.trace.events()) {
        if (e.kind == TraceEventKind::MessageCreated) ++created;
        if (e.kind == TraceEventKind::Delivered) ++delivered;
    }
    EXPECT_GT(created, 0u);
    EXPECT_EQ(delivered, created);
}

TEST(Invariants, EnergyNeverNegativeNorFreeLunch) {
    const auto run = run_random(12, FaultScenario::none(), 0.5);
    const auto& m = run.metrics;
    EXPECT_GT(m.bits_sent, 0u);
    // Every delivery costs at least one transmission.
    EXPECT_GE(m.packets_sent, m.deliveries);
    // Average packet size includes header + CRC framing of the 2-byte
    // payload: (30 + 2) * 8 bits.
    EXPECT_DOUBLE_EQ(m.average_packet_bits(), (kWireOverheadBytes + 2) * 8.0);
}

} // namespace
} // namespace snoc
