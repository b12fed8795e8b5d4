#include "wormhole/router.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "common/expect.hpp"
#include "common/rng.hpp"
#include "noc/traffic.hpp"
#include "telemetry/telemetry.hpp"

namespace snoc::wormhole {
namespace {

/// Injection-to-delivery latency of every delivered packet, by packet id.
std::vector<double> latencies(const Network& net) {
    std::vector<double> out;
    for (const auto& rec : net.records())
        if (rec.delivered_cycle)
            out.push_back(static_cast<double>(*rec.delivered_cycle - rec.injected_cycle));
    return out;
}

double mean_latency(const Network& net) {
    const auto all = latencies(net);
    return all.empty() ? 0.0
                       : std::accumulate(all.begin(), all.end(), 0.0) /
                             static_cast<double>(all.size());
}

double max_latency(const Network& net) {
    const auto all = latencies(net);
    return all.empty() ? 0.0 : *std::max_element(all.begin(), all.end());
}

constexpr std::size_t kBits = 256;

/// Kill `tile` alone.
CrashState dead_tile(const Network& net, TileId tile) {
    CrashState crashes{std::vector<bool>(net.topology().node_count(), false), {}};
    crashes.dead_tiles[tile] = true;
    return crashes;
}

void crash(Network& net, TileId tile) { net.apply_crashes(dead_tile(net, tile)); }

Config small_config() {
    Config c;
    c.vcs_per_port = 2;
    c.vc_buffer_flits = 4;
    c.flits_per_packet = 5;
    return c;
}

TEST(WormholeConfig, Validation) {
    Config c = small_config();
    c.vcs_per_port = 0;
    EXPECT_THROW(c.validate(), ContractViolation);
    c = small_config();
    c.vc_buffer_flits = 1;
    EXPECT_THROW(c.validate(), ContractViolation);
    c = small_config();
    c.flits_per_packet = 1;
    EXPECT_THROW(c.validate(), ContractViolation);
}

TEST(Wormhole, SinglePacketIsDelivered) {
    Network net(4, 4, small_config());
    net.inject(0, 15, kBits);
    net.run(200);
    EXPECT_EQ(net.delivered(), 1u);
    EXPECT_EQ(net.in_flight(), 0u);
    ASSERT_TRUE(net.records()[0].delivered_cycle.has_value());
}

TEST(Wormhole, LowLoadLatencyIsHopsPlusSerialization) {
    // One lonely packet: latency ~ hops (switching) + flits (serialisation)
    // + injection/ejection overhead.
    Network net(4, 4, small_config());
    net.inject(0, 15, kBits); // 6 hops
    net.run(200);
    const double latency = mean_latency(net);
    EXPECT_GE(latency, 6.0 + 5.0 - 1.0);
    EXPECT_LE(latency, 6.0 + 5.0 + 10.0);
}

TEST(Wormhole, AdjacentTilesAreFast) {
    Network net(4, 4, small_config());
    net.inject(5, 6, kBits);
    net.run(100);
    ASSERT_EQ(net.delivered(), 1u);
    EXPECT_LE(mean_latency(net), 12.0);
}

TEST(Wormhole, ManyPacketsAllDelivered) {
    Network net(4, 4, small_config());
    for (TileId src = 0; src < 16; ++src)
        for (TileId dst = 0; dst < 16; ++dst)
            if (src != dst) net.inject(src, dst, kBits);
    net.run(5000);
    EXPECT_EQ(net.delivered(), 16u * 15u);
    EXPECT_EQ(net.in_flight(), 0u);
}

TEST(Wormhole, SelfInjectionRejected) {
    Network net(4, 4, small_config());
    EXPECT_THROW(net.inject(3, 3, kBits), ContractViolation);
}

TEST(Wormhole, DeadSourceCrashDropsAtInjection) {
    Network net(4, 4, small_config());
    crash(net, 5);
    const std::uint32_t id = net.inject(5, 0, kBits);
    EXPECT_TRUE(net.records()[id].dropped);
    EXPECT_EQ(net.dropped(), 1u);
    EXPECT_EQ(net.in_flight(), 0u);
    EXPECT_FALSE(net.step()); // nothing was queued
}

TEST(Wormhole, ContentionIncreasesLatency) {
    // Everyone hammers tile 0: serialisation at the hotspot.
    Network quiet(4, 4, small_config());
    quiet.inject(15, 0, kBits);
    quiet.run(300);

    Network busy(4, 4, small_config());
    for (TileId src = 1; src < 16; ++src) busy.inject(src, 0, kBits);
    busy.run(2000);
    ASSERT_EQ(busy.delivered(), 15u);
    EXPECT_GT(max_latency(busy), mean_latency(quiet) * 2);
}

TEST(Wormhole, DeadRouterBlocksWormsForever) {
    // The Ch. 1 claim, at flit granularity: a packet whose XY path crosses
    // a dead router never arrives; everything else still flows.
    Network net(4, 4, small_config());
    crash(net, 5);
    net.inject(4, 6, kBits);  // XY path 4 -> 5 -> 6 crosses the corpse
    net.inject(0, 12, kBits); // column 0: unaffected
    net.run(1000);
    EXPECT_EQ(net.delivered(), 1u);
    EXPECT_EQ(net.in_flight(), 1u);
    EXPECT_TRUE(net.records()[1].delivered_cycle.has_value());
    EXPECT_FALSE(net.records()[0].delivered_cycle.has_value());
}

TEST(Wormhole, BlockedWormBacksUpTheLink) {
    // Head-of-line blocking: a worm stuck behind a dead router clogs its
    // VC; with both VCs of the path saturated, later packets on the same
    // route stall too (they deliver 0 of 4).
    Network net(4, 4, small_config());
    crash(net, 6);
    for (int i = 0; i < 4; ++i) net.inject(4, 7, kBits); // all cross dead tile 6
    net.run(2000);
    EXPECT_EQ(net.delivered(), 0u);
    EXPECT_EQ(net.in_flight(), 4u);
}

TEST(Wormhole, XyAvoidsDeadlockUnderRandomTraffic) {
    // Dimension-ordered routing is deadlock-free: under sustained random
    // load everything injected eventually drains.
    Config c = small_config();
    Network net(4, 4, c);
    RngStream rng(3);
    for (std::size_t cycle = 0; cycle < 600; ++cycle) {
        for (TileId t = 0; t < 16; ++t) {
            if (rng.bernoulli(0.05)) {
                auto dst = static_cast<TileId>(rng.below(15));
                if (dst >= t) ++dst;
                net.inject(t, dst, kBits);
            }
        }
        net.step();
    }
    net.run(3000);
    EXPECT_EQ(net.in_flight(), 0u);
    EXPECT_GT(net.delivered(), 100u);
}

TEST(Wormhole, SaturationCurveShape) {
    // Latency grows with offered load; throughput saturates below 1.
    const auto low = run_uniform_load(4, small_config(), 0.02, 200, 600, 1);
    const auto high = run_uniform_load(4, small_config(), 0.5, 200, 600, 1);
    EXPECT_GT(low.delivered_fraction, 0.95);
    EXPECT_GT(high.avg_latency, low.avg_latency);
    EXPECT_GE(high.throughput, low.throughput * 0.9);
    EXPECT_LT(high.throughput, 1.0);
}

TEST(WormholeWestFirst, DeliversWhereXyIsBlocked) {
    // src (0,1) -> dst (3,2) with tile (1,1) dead: XY's fixed path 4 -> 5
    // dies; west-first adaptively picks the southward minimal hop.
    Config xy = small_config();
    Network blocked(4, 4, xy);
    crash(blocked, 5);
    blocked.inject(4, 11, kBits);
    blocked.run(600);
    EXPECT_EQ(blocked.delivered(), 0u);

    Config wf = small_config();
    wf.routing = Routing::WestFirst;
    Network adaptive(4, 4, wf);
    crash(adaptive, 5);
    adaptive.inject(4, 11, kBits);
    adaptive.run(600);
    EXPECT_EQ(adaptive.delivered(), 1u);
}

TEST(WormholeWestFirst, WestwardTrafficIsStillDeterministic) {
    // Destination strictly west: only the west port is legal, so a dead
    // tile on that row still blocks (the turn-model's price).
    Config wf = small_config();
    wf.routing = Routing::WestFirst;
    Network net(4, 4, wf);
    crash(net, 5);
    net.inject(7, 4, kBits); // (3,1) -> (0,1): pure westward, through dead (1,1)
    net.run(600);
    EXPECT_EQ(net.delivered(), 0u);
}

TEST(WormholeWestFirst, FaultFreeBehaviourMatchesXyLatency) {
    for (auto routing : {Routing::Xy, Routing::WestFirst}) {
        Config c = small_config();
        c.routing = routing;
        Network net(4, 4, c);
        net.inject(0, 15, kBits);
        net.run(200);
        ASSERT_EQ(net.delivered(), 1u) << to_string(routing);
        EXPECT_LE(mean_latency(net), 6.0 + 5.0 + 10.0) << to_string(routing);
    }
}

TEST(WormholeWestFirst, RandomTrafficDrainsDeadlockFree) {
    // Glass-Ni west-first is deadlock-free; sustained random load drains.
    Config c = small_config();
    c.routing = Routing::WestFirst;
    Network net(4, 4, c);
    RngStream rng(9);
    for (std::size_t cycle = 0; cycle < 600; ++cycle) {
        for (TileId t = 0; t < 16; ++t) {
            if (rng.bernoulli(0.05)) {
                auto dst = static_cast<TileId>(rng.below(15));
                if (dst >= t) ++dst;
                net.inject(t, dst, kBits);
            }
        }
        net.step();
    }
    net.run(3000);
    EXPECT_EQ(net.in_flight(), 0u);
}

TEST(Wormhole, SingleFlitTransferPerLinkPerCycle) {
    // Throughput on one link is bounded: two tiles exchanging a long
    // stream deliver at most one flit per cycle.
    Config c = small_config();
    Network net(2, 1, c);
    for (int i = 0; i < 20; ++i) net.inject(0, 1, kBits);
    net.run(400);
    EXPECT_EQ(net.delivered(), 20u);
    // 20 packets * 5 flits = 100 flits over >= 100 cycles of link time.
    const auto& last = net.records().back();
    EXPECT_GE(*last.delivered_cycle, 100u);
}

// --- Fixed-point fast-forward ---------------------------------------------

/// Tile 12 is the centre of the 5x5 mesh; XY worms along row 2 wedge on it.
constexpr TileId kCentre = 12;
constexpr std::size_t kLimit = 3000;

/// Two phases: the first mixes worms that wedge on the dead centre with
/// worms that route around it, so it never completes.
TrafficTrace wedging_trace() {
    TrafficTrace trace;
    trace.phases.resize(2);
    for (const auto& [src, dst] : std::vector<std::pair<TileId, TileId>>{
             {10, 14}, {0, 24}, {14, 10}, {20, 4}, {11, 13}, {3, 3}})
        trace.phases[0].messages.push_back({src, dst, 256});
    trace.phases[1].messages.push_back({0, 4, 256});
    return trace;
}

/// FNV-1a over the recorder's events, in order.
std::uint64_t trace_digest(const Telemetry& recorder) {
    std::ostringstream os;
    for (const TraceEvent& e : recorder.events())
        os << e.round << ',' << static_cast<int>(e.kind) << ',' << e.tile << ','
           << e.peer << ',' << e.message.origin << ',' << e.message.sequence << ';';
    return key_of(os.str());
}

TEST(WormholeFastForward, RunSkipsFrozenCyclesExactly) {
    const auto build = [] {
        auto net = std::make_unique<Network>(5, 5, small_config());
        crash(*net, kCentre);
        for (const auto& phase : wedging_trace().phases)
            for (const auto& m : phase.messages)
                if (m.src != m.dst) net->inject(m.src, m.dst, kBits);
        return net;
    };
    auto fast = build();
    Telemetry fast_trace;
    fast->set_trace_sink(&fast_trace);
    fast->run(kLimit);

    // The reference simulates every cycle: re-applying the same crashes
    // changes no state but clears the frozen skip.
    auto slow = build();
    Telemetry slow_trace;
    slow->set_trace_sink(&slow_trace);
    const CrashState crashes = dead_tile(*slow, kCentre);
    std::size_t frozen_steps = 0;
    for (std::size_t c = 0; c < kLimit; ++c) {
        slow->apply_crashes(crashes);
        if (!slow->step()) ++frozen_steps;
    }
    EXPECT_GT(frozen_steps, kLimit / 2) << "the wedge must freeze most cycles";

    EXPECT_EQ(fast->cycle(), slow->cycle());
    EXPECT_EQ(fast->delivered(), slow->delivered());
    EXPECT_EQ(fast->flit_hops(), slow->flit_hops());
    EXPECT_EQ(latencies(*fast), latencies(*slow));
    EXPECT_EQ(trace_digest(fast_trace), trace_digest(slow_trace));
}

TEST(WormholeFastForward, InjectionAloneIsProgress) {
    // A worm blocked at its source by a dead next hop still streams its
    // flits into a deep local VC; once its tail is in, the next packet
    // starts on the other VC and routes around.  The cycles in between
    // move nothing, but they are not frozen.
    Config c = small_config();
    c.vc_buffer_flits = 8; // the whole blocked worm fits at its source
    const auto run = [&](bool fast) {
        Network net(5, 5, c);
        const CrashState crashes = dead_tile(net, kCentre);
        net.apply_crashes(crashes);
        net.inject(11, 13, kBits); // first hop is the dead centre
        net.inject(11, 1, kBits);  // southward, clear
        if (fast) {
            net.run(kLimit);
        } else {
            for (std::size_t i = 0; i < kLimit; ++i) {
                net.apply_crashes(crashes); // no skip: simulate every cycle
                net.step();
            }
        }
        return std::pair{net.delivered(), latencies(net)};
    };
    const auto fast = run(true);
    EXPECT_EQ(fast.first, 1u);
    EXPECT_EQ(fast, run(false));
}

TEST(WormholeFastForward, AFrozenStepIsAFixedPoint) {
    Network net(5, 5, small_config());
    const CrashState crashes = dead_tile(net, kCentre);
    net.apply_crashes(crashes);
    net.inject(10, 14, kBits); // wedges on the dead centre
    Telemetry recorder;
    net.set_trace_sink(&recorder);
    std::size_t guard = 0;
    while (net.step()) ASSERT_LT(++guard, kLimit) << "never froze";

    const std::size_t cycle = net.cycle();
    const std::size_t hops = net.flit_hops();
    const std::size_t events = recorder.events().size();
    const std::uint64_t digest = trace_digest(recorder);
    const auto expect_unchanged_but_clock = [&](std::size_t steps) {
        EXPECT_EQ(net.cycle(), cycle + steps);
        EXPECT_EQ(net.flit_hops(), hops);
        EXPECT_EQ(net.delivered(), 0u);
        EXPECT_EQ(recorder.events().size(), events);
        EXPECT_EQ(trace_digest(recorder), digest);
    };

    // Re-applying the crashes clears the skip, so this step simulates the
    // frozen state in full: the claim the skip rests on.
    net.apply_crashes(crashes);
    EXPECT_FALSE(net.step()) << "a simulated frozen cycle changes nothing";
    expect_unchanged_but_clock(1);

    // The skip takes the same step without simulating it.
    EXPECT_FALSE(net.step()) << "a frozen network stays frozen";
    expect_unchanged_but_clock(2);

    // A new packet thaws it: the next step simulates again.
    net.inject(0, 4, kBits);
    EXPECT_TRUE(net.step());
}

} // namespace
} // namespace snoc::wormhole
