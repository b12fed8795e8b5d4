// Seeded stress tests for the contended corners of the packet-switched
// zoo (ctest label: router).
//
// Two hazards the unit tests cannot reach at light load:
//
//  * Livelock — a bufferless deflection network under full injection
//    misroutes constantly; the hop budget must bound every packet's
//    wandering, and the drop taxonomy must account for every casualty.
//
//  * Starvation — a rotating arbiter at a saturated switch must grant
//    every persistent requester within (slots - 1) other grants, or a
//    corner flow can be locked out forever by the scan order.
//
// Both run under the InvariantAuditor: a stress test that only checks
// its own assertion would miss the conservation laws bending.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "bus/deflection.hpp"
#include "check/invariant_auditor.hpp"
#include "core/engine.hpp"
#include "router/arbiter.hpp"
#include "router/core.hpp"
#include "sim/backends.hpp"

namespace snoc {
namespace {

// --- The arbiter itself, saturated --------------------------------------

TEST(ArbiterStarvation, SaturatedScanIsRoundRobin) {
    router::RotatingArbiter arb(6);
    const std::vector<bool> all(6, true);
    // Any window of 6 consecutive grants under full request pressure must
    // hit each slot exactly once.
    for (int round = 0; round < 5; ++round) {
        std::vector<std::size_t> before(6);
        for (std::size_t s = 0; s < 6; ++s) before[s] = arb.grants(s);
        for (int i = 0; i < 6; ++i) ASSERT_TRUE(arb.grant(all).has_value());
        for (std::size_t s = 0; s < 6; ++s)
            EXPECT_EQ(arb.grants(s), before[s] + 1) << "slot " << s;
    }
}

TEST(ArbiterStarvation, GrantAmongMatchesAFullScan) {
    // grant_among(mask, pred) must visit the masked slots in the order a
    // full grant() scan reaches them, and pick the same winner, whatever
    // the mask and whichever of its slots accept.
    router::RotatingArbiter full(10);
    router::RotatingArbiter among(10);
    std::uint64_t state = 12345;
    const auto next = [&] {
        state = state * 6364136223846793005ULL + 1442695040888963407ULL;
        return static_cast<std::uint32_t>(state >> 33);
    };
    for (int round = 0; round < 500; ++round) {
        const std::uint64_t mask = next() & 0x3FF;
        const std::uint64_t accept = next() & 0x3FF;
        std::vector<std::size_t> seen_full, seen_among;
        const auto winner_full = full.grant([&](std::size_t slot) {
            if (((mask >> slot) & 1U) == 0) return false;
            seen_full.push_back(slot);
            return ((accept >> slot) & 1U) != 0;
        });
        const auto winner_among = among.grant_among(mask, [&](std::size_t slot) {
            seen_among.push_back(slot);
            return ((accept >> slot) & 1U) != 0;
        });
        ASSERT_EQ(winner_full, winner_among) << "round " << round;
        ASSERT_EQ(seen_full, seen_among) << "round " << round;
    }
    for (std::size_t s = 0; s < 10; ++s) EXPECT_EQ(full.grants(s), among.grants(s));
}

TEST(ArbiterStarvation, PersistentRequesterWaitsAtMostSlotsGrants) {
    // Slot 2 requests forever; the other slots request on an adversarial
    // pattern (every subset the 3-bit counter enumerates).  Between any
    // two grants to slot 2 there can be at most slots-1 other grants.
    router::RotatingArbiter arb(4);
    std::size_t since_last = 0;
    for (std::uint32_t t = 0; t < 200; ++t) {
        std::vector<bool> req(4, false);
        req[2] = true;
        req[0] = (t & 1u) != 0;
        req[1] = (t & 2u) != 0;
        req[3] = (t & 4u) != 0;
        const auto winner = arb.grant(req);
        ASSERT_TRUE(winner.has_value());
        if (*winner == 2) {
            since_last = 0;
        } else {
            ++since_last;
            EXPECT_LT(since_last, 4u) << "slot 2 starved at t=" << t;
        }
    }
    EXPECT_GE(arb.grants(2), 200u / 4u);
}

// --- Deflection under full injection ------------------------------------

// Deterministic all-to-all pattern: tile t's k-th packet heads for a
// tile derived from (t, k) — full injection without an RNG in the test.
TileId scatter_destination(TileId t, std::size_t wave, std::size_t tiles) {
    return static_cast<TileId>((t * 7 + wave * 11 + 5) % tiles);
}

TEST(DeflectionStress, HopBudgetBoundsEveryPacketUnderFullInjection) {
    constexpr std::size_t kSide = 5;
    constexpr std::size_t kTiles = kSide * kSide;
    constexpr std::size_t kWaves = 30;
    deflection::Config config;
    config.max_hops = 96; // tight enough that livelock guard actually fires.
    deflection::Network net(kSide, kSide, config, /*seed=*/17);

    std::size_t injected = 0;
    for (std::size_t wave = 0; wave < kWaves; ++wave) {
        // Full injection: every tile offers a packet every cycle.
        for (TileId t = 0; t < kTiles; ++t) {
            const TileId dst = scatter_destination(t, wave, kTiles);
            if (dst == t) continue;
            net.inject(t, dst, 256);
            ++injected;
        }
        net.step();
    }
    std::size_t guard = 0;
    while (net.in_flight() > 0 && guard++ < 100000) net.step();
    ASSERT_EQ(net.in_flight(), 0u) << "network failed to drain";

    // The livelock guard: no packet ever exceeds the hop budget, and
    // every record has exactly one fate.
    std::size_t max_hops_seen = 0;
    for (const auto& rec : net.records()) {
        EXPECT_LE(rec.hops, config.max_hops) << "packet " << rec.id;
        EXPECT_NE(rec.delivered_cycle.has_value(), rec.dropped)
            << "packet " << rec.id;
        max_hops_seen = std::max(max_hops_seen, rec.hops);
    }
    EXPECT_EQ(net.delivered() + net.dropped(), injected);
    // At this load deflections are guaranteed: somebody wandered well
    // past the 8-hop mesh diameter (else the test isn't stressing).
    EXPECT_GT(max_hops_seen, 2 * (kSide - 1));
    EXPECT_GT(net.delivered(), injected / 2) << "mostly livelocked";
}

TEST(DeflectionStress, AdapterStaysAuditCleanUnderHeavyLoad) {
    // The same flood through the adapter stack, with the auditor watching
    // the report-level conservation laws.
    TrafficTrace trace;
    for (std::size_t wave = 0; wave < 8; ++wave) {
        TrafficPhase phase;
        for (TileId t = 0; t < 25; ++t) {
            const TileId dst = scatter_destination(t, wave, 25);
            if (dst != t) phase.messages.push_back({t, dst, 256});
        }
        trace.phases.push_back(phase);
    }
    for (std::uint64_t seed = 0; seed < 3; ++seed) {
        check::InvariantAuditor auditor;
        SteppedAdapter<DeflectionSpec> adapter(DeflectionSpec{}, FaultScenario::none(), seed);
        adapter.set_auditor(&auditor);
        const RunReport report = adapter.run(trace, 100000);
        EXPECT_TRUE(report.completed) << seed;
        EXPECT_EQ(report.deliveries, trace.message_count()) << seed;
        EXPECT_TRUE(auditor.clean()) << seed << ": " << auditor.summary();
    }
}

// --- The layered router core under full injection ------------------------

TEST(RouterStress, FullInjectionDrainsWithNoStarvation) {
    for (const router::FlowControl flow :
         {router::FlowControl::StoreAndForward, router::FlowControl::CutThrough}) {
        router::RouterConfig config;
        config.flow = flow;
        config.max_hops = 64;
        router::RouterCore core(Topology::mesh(5, 5), config);

        std::size_t injected = 0;
        for (std::size_t wave = 0; wave < 6; ++wave) {
            for (TileId t = 0; t < 25; ++t) {
                const TileId dst = scatter_destination(t, wave, 25);
                if (dst == t) continue;
                core.inject(t, dst, 256);
                ++injected;
            }
        }
        std::size_t guard = 0;
        while (!core.idle() && guard++ < 100000) core.step();
        ASSERT_TRUE(core.idle()) << to_string(flow) << ": failed to drain";

        // Buffered dimension-order routing never misroutes, so the hop
        // budget is irrelevant and contention may only delay: starvation
        // freedom means *every* packet is delivered, from every tile.
        EXPECT_EQ(core.delivered(), injected) << to_string(flow);
        EXPECT_EQ(core.dropped(), 0u) << to_string(flow);
        for (const auto& rec : core.records())
            EXPECT_TRUE(rec.delivered_cycle.has_value())
                << to_string(flow) << " packet " << rec.id << " from "
                << rec.source << " starved";

        check::InvariantAuditor auditor;
        auditor.check_router(core);
        EXPECT_TRUE(auditor.clean()) << to_string(flow) << ": "
                                     << auditor.summary();

        // Fairness observable: at the centre tile every input port that
        // carried traffic won its share of grants somewhere.
        const TileId centre = 12;
        std::size_t centre_grants = 0;
        for (std::size_t out = 0; out < 5; ++out)
            for (std::size_t slot = 0; slot < 5; ++slot)
                centre_grants += core.arbiter(centre, out).grants(slot);
        EXPECT_GT(centre_grants, 0u) << to_string(flow);
    }
}

} // namespace
} // namespace snoc
