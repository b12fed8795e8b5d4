#include "router/core.hpp"

#include <algorithm>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "common/expect.hpp"
#include "common/rng.hpp"
#include "noc/topology.hpp"
#include "telemetry/telemetry.hpp"
#include "router/policy.hpp"
#include "router/ports.hpp"
#include "sim/trace.hpp"

namespace snoc::router {
namespace {

CrashState crashes_none(const Topology& topo) {
    CrashState s;
    s.dead_tiles.assign(topo.node_count(), false);
    s.dead_links.assign(topo.link_count(), false);
    return s;
}

RouterConfig config(FlowControl flow, PolicyKind policy = PolicyKind::DimensionOrder) {
    RouterConfig c;
    c.flow = flow;
    c.policy = policy;
    return c;
}

TEST(RouterCore, StoreAndForwardLonePacketLatency) {
    RouterCore core(Topology::mesh(4, 4), config(FlowControl::StoreAndForward));
    core.inject(0, 3, 160); // 3 hops east
    core.run(1000);
    ASSERT_EQ(core.delivered(), 1u);
    const auto& rec = core.records()[0];
    EXPECT_EQ(rec.hops, 3u);
    // The source packet is wholly resident at injection; after that each
    // hop costs the full serialization time L (flits_per_packet = 5) and
    // ejection happens the cycle the tail is resident: latency = hops * L.
    ASSERT_TRUE(rec.delivered_cycle.has_value());
    EXPECT_EQ(*rec.delivered_cycle - rec.injected_cycle, 3u * 5u);
}

TEST(RouterCore, CutThroughLonePacketIsFaster) {
    RouterCore saf(Topology::mesh(4, 4), config(FlowControl::StoreAndForward));
    RouterCore vct(Topology::mesh(4, 4), config(FlowControl::CutThrough));
    for (RouterCore* core : {&saf, &vct}) {
        core->inject(0, 15, 160);
        core->run(1000);
        ASSERT_EQ(core->delivered(), 1u);
        EXPECT_EQ(core->records()[0].hops, 6u);
    }
    const auto lat = [](const RouterCore& c) {
        return *c.records()[0].delivered_cycle - c.records()[0].injected_cycle;
    };
    // Cut-through pipelines the header ahead of the tail: hops cost one
    // cycle each and the tail streams behind, so the lone-packet latency
    // is hops + L - 1 rather than hops * L.
    EXPECT_EQ(lat(vct), 6u + 5u - 1u);
    EXPECT_EQ(lat(saf), 6u * 5u);
    EXPECT_LT(lat(vct), lat(saf));
}

TEST(RouterCore, DimensionOrderDropsAtDeadHop) {
    const auto topo = Topology::mesh(4, 4);
    auto crashes = crashes_none(topo);
    crashes.dead_tiles[1] = true; // first XY hop of 0 -> 3
    RouterCore core(topo, config(FlowControl::StoreAndForward));
    core.apply_crashes(crashes);
    core.inject(0, 3, 160);
    core.run(1000);
    EXPECT_EQ(core.delivered(), 0u);
    EXPECT_EQ(core.dropped(), 1u);
    EXPECT_TRUE(core.records()[0].dropped);
    EXPECT_EQ(core.metrics().crash_drops, 1u);
    EXPECT_TRUE(core.idle());
}

TEST(RouterCore, AdaptivePolicyDetoursAroundDeadRow) {
    const auto topo = Topology::mesh(4, 4);
    auto crashes = crashes_none(topo);
    crashes.dead_tiles[1] = true;
    crashes.dead_tiles[2] = true; // whole minimal XY path 0 -> 3 blocked
    RouterCore core(topo,
                    config(FlowControl::CutThrough, PolicyKind::FaultAdaptive));
    core.apply_crashes(crashes);
    core.inject(0, 3, 160);
    core.run(1000);
    ASSERT_EQ(core.delivered(), 1u);
    EXPECT_GT(core.records()[0].hops, 3u); // strictly longer than minimal
    EXPECT_EQ(core.dropped(), 0u);
}

TEST(RouterCore, AdaptivePolicyMatchesXyWhenFaultFree) {
    RouterCore core(Topology::mesh(4, 4),
                    config(FlowControl::CutThrough, PolicyKind::FaultAdaptive));
    core.inject(12, 3, 160);
    core.run(1000);
    ASSERT_EQ(core.delivered(), 1u);
    EXPECT_EQ(core.records()[0].hops, 6u); // minimal, XY-tie-broken
}

TEST(RouterCore, WalledInAdaptivePacketCrashDrops) {
    const auto topo = Topology::mesh(3, 3);
    auto crashes = crashes_none(topo);
    crashes.dead_tiles[1] = true;
    crashes.dead_tiles[3] = true; // both ports out of corner 0 dead
    RouterCore core(topo,
                    config(FlowControl::CutThrough, PolicyKind::FaultAdaptive));
    core.apply_crashes(crashes);
    core.inject(0, 8, 160);
    core.run(1000);
    EXPECT_EQ(core.delivered(), 0u);
    EXPECT_EQ(core.dropped(), 1u);
    EXPECT_EQ(core.metrics().crash_drops, 1u);
    EXPECT_TRUE(core.idle());
}

TEST(RouterCore, DeadSourceDropsAtInjection) {
    const auto topo = Topology::mesh(3, 3);
    auto crashes = crashes_none(topo);
    crashes.dead_tiles[0] = true;
    RouterCore core(topo, config(FlowControl::StoreAndForward));
    core.apply_crashes(crashes);
    core.inject(0, 8, 160);
    EXPECT_EQ(core.dropped(), 1u);
    EXPECT_TRUE(core.idle());
    EXPECT_EQ(core.metrics().crash_drops, 1u);
}

TEST(RouterCore, DeadLinkIsAvoidedByAdaptive) {
    const auto topo = Topology::mesh(3, 3);
    auto crashes = crashes_none(topo);
    const auto port = port_to(topo, 0, 1);
    ASSERT_TRUE(port.has_value());
    crashes.dead_links[topo.out_links(0)[*port]] = true; // kill link 0 -> 1
    RouterCore core(topo,
                    config(FlowControl::CutThrough, PolicyKind::FaultAdaptive));
    core.apply_crashes(crashes);
    core.inject(0, 2, 160);
    core.run(1000);
    ASSERT_EQ(core.delivered(), 1u); // detoured via row 1
    EXPECT_GT(core.records()[0].hops, 2u);
}

TEST(RouterCore, LoneAdaptivePacketTakesTheFirstLiveCandidateEveryHop) {
    // Alone in a store-and-forward mesh a packet never meets a busy link
    // (its tail has cleared every link before it moves on) or a full
    // FIFO, so each hop must be the first live port the policy names for
    // that (tile, arrival port): the route cached on arrival has to be
    // the one computed from the port the packet really came in on.
    const auto topo = Topology::mesh(5, 5);
    const auto policy = make_policy(PolicyKind::FaultAdaptive);
    RngStream rng(splitmix64(15));
    std::size_t uturns = 0;
    for (int pattern = 0; pattern < 12; ++pattern) {
        auto crashes = crashes_none(topo);
        for (TileId t = 0; t < topo.node_count(); ++t)
            crashes.dead_tiles[t] = rng.bernoulli(0.3);
        for (TileId src = 0; src < topo.node_count(); src += 3)
            for (TileId dst = 1; dst < topo.node_count(); dst += 4) {
                if (src == dst || crashes.dead_tiles[src] || crashes.dead_tiles[dst])
                    continue;
                RouterConfig c =
                    config(FlowControl::StoreAndForward, PolicyKind::FaultAdaptive);
                c.max_hops = 40;
                RouterCore core(topo, c);
                core.apply_crashes(crashes);
                Telemetry sink;
                core.set_trace_sink(&sink);
                core.inject(src, dst, 160);
                core.run(2000);
                ASSERT_TRUE(core.idle());

                std::vector<TileId> walk; // the expected hop sequence
                for (TileId at = src, from = kNoTile; at != dst && walk.size() < c.max_hops;) {
                    const auto& nbrs = topo.neighbours(at);
                    std::optional<TileId> next;
                    for (const std::size_t p :
                         policy->candidates(topo, at, from, dst, crashes.dead_tiles))
                        if (!crashes.dead_tiles[nbrs[p]]) {
                            next = nbrs[p];
                            break;
                        }
                    if (!next) break;
                    if (*next == from) ++uturns;
                    walk.push_back(*next);
                    from = at;
                    at = *next;
                }
                std::vector<TileId> hops;
                for (const auto& e : sink.events())
                    if (e.kind == TraceEventKind::Transmitted) hops.push_back(e.peer);
                EXPECT_EQ(hops, walk) << "src=" << src << " dst=" << dst
                                      << " pattern=" << pattern;
            }
    }
    EXPECT_GT(uturns, 0u) << "no walk exercised the last-resort u-turn";
}

TEST(RouterCore, ManyToOneAllDeliveredAndCountersAgree) {
    for (const FlowControl flow :
         {FlowControl::StoreAndForward, FlowControl::CutThrough}) {
        RouterCore core(Topology::mesh(4, 4), config(flow));
        std::size_t injected = 0;
        for (TileId t = 0; t < 16; ++t) {
            if (t == 5) continue;
            core.inject(t, 5, 160);
            ++injected;
        }
        core.run(10000);
        EXPECT_EQ(core.delivered(), injected) << to_string(flow);
        EXPECT_TRUE(core.idle());
        const auto& m = core.metrics();
        EXPECT_EQ(m.messages_created, injected);
        EXPECT_EQ(m.deliveries, injected);
        std::size_t hops = 0;
        for (const auto& rec : core.records()) hops += rec.hops;
        EXPECT_EQ(m.packets_sent, hops);
    }
}

TEST(RouterCore, TraceEventsMatchCounters) {
    Telemetry sink;
    RouterCore core(Topology::mesh(4, 4), config(FlowControl::CutThrough));
    core.set_trace_sink(&sink);
    core.inject(0, 15, 160);
    core.inject(15, 0, 160);
    core.run(1000);
    std::size_t created = 0, transmitted = 0, delivered = 0;
    for (const auto& e : sink.events()) {
        if (e.kind == TraceEventKind::MessageCreated) ++created;
        if (e.kind == TraceEventKind::Transmitted) ++transmitted;
        if (e.kind == TraceEventKind::Delivered) ++delivered;
    }
    EXPECT_EQ(created, core.metrics().messages_created);
    EXPECT_EQ(transmitted, core.metrics().packets_sent);
    EXPECT_EQ(delivered, core.metrics().deliveries);
}

TEST(RouterCore, DeterministicAcrossRuns) {
    const auto run_once = [] {
        RouterCore core(Topology::mesh(5, 5), config(FlowControl::CutThrough));
        for (TileId t = 0; t < 25; ++t)
            for (TileId d = 0; d < 25; ++d)
                if (t != d && (t + d) % 3 == 0) core.inject(t, d, 128);
        core.run(20000);
        return core;
    };
    const auto a = run_once();
    const auto b = run_once();
    ASSERT_EQ(a.records().size(), b.records().size());
    for (std::size_t i = 0; i < a.records().size(); ++i) {
        EXPECT_EQ(a.records()[i].delivered_cycle, b.records()[i].delivered_cycle);
        EXPECT_EQ(a.records()[i].hops, b.records()[i].hops);
    }
    EXPECT_EQ(a.cycle(), b.cycle());
}

// --- PortList and the policy candidate lists ------------------------------

TEST(PortList, HoldsAGridTilesPortsInOrderAndRejectsOverflow) {
    PortList list;
    EXPECT_TRUE(list.empty());
    for (const std::size_t p : {3u, 0u, 2u, 1u}) list.push_back(p);
    EXPECT_EQ(list.size(), PortList::kCapacity);
    EXPECT_EQ(std::vector<std::size_t>(list.begin(), list.end()),
              (std::vector<std::size_t>{3, 0, 2, 1}));
    EXPECT_THROW(list.push_back(0), ContractViolation);
    PortList wide;
    EXPECT_THROW(wide.push_back(256), ContractViolation);
}

/// Candidate ports straight from each policy's definition (DESIGN.md §13),
/// written against coordinates and neighbour lists only.
std::vector<std::size_t> reference_candidates(PolicyKind kind, const Topology& topo,
                                              TileId at, TileId from, TileId dst,
                                              const std::vector<bool>& dead) {
    std::vector<std::size_t> out;
    if (at == dst) return out;
    const auto& nbrs = topo.neighbours(at);
    const auto port_of = [&](TileId next) {
        for (std::size_t p = 0; p < nbrs.size(); ++p)
            if (nbrs[p] == next) return p;
        ADD_FAILURE() << "tile " << next << " is not a neighbour of " << at;
        return std::size_t{0};
    };
    const std::size_t x = topo.x_of(at), y = topo.y_of(at);
    const std::size_t dx = topo.x_of(dst), dy = topo.y_of(dst);
    const TileId west = x > 0 ? topo.at(x - 1, y) : kNoTile;
    const TileId east = x + 1 < topo.width() ? topo.at(x + 1, y) : kNoTile;
    const TileId south = y > 0 ? topo.at(x, y - 1) : kNoTile;
    const TileId north = y + 1 < topo.height() ? topo.at(x, y + 1) : kNoTile;
    const TileId x_step = dx < x ? west : dx > x ? east : kNoTile;
    const TileId y_step = dy < y ? south : dy > y ? north : kNoTile;
    switch (kind) {
    case PolicyKind::DimensionOrder:
        out.push_back(port_of(x_step != kNoTile ? x_step : y_step));
        break;
    case PolicyKind::WestFirst:
        if (dx < x) {
            out.push_back(port_of(west));
            break;
        }
        for (const TileId next : {dx > x ? east : kNoTile, dy > y ? north : kNoTile,
                                  dy < y ? south : kNoTile})
            if (next != kNoTile) out.push_back(port_of(next));
        break;
    case PolicyKind::Productive:
        for (std::size_t p = 0; p < nbrs.size(); ++p)
            if (!dead[nbrs[p]] && topo.manhattan(nbrs[p], dst) < topo.manhattan(at, dst))
                out.push_back(p);
        break;
    case PolicyKind::FaultAdaptive: {
        for (const TileId next : {x_step, y_step})
            if (next != kNoTile && !dead[next]) out.push_back(port_of(next));
        const std::vector<std::size_t> minimal = out;
        const auto taken = [&](std::size_t p) {
            return std::find(minimal.begin(), minimal.end(), p) != minimal.end();
        };
        std::optional<std::size_t> uturn;
        for (std::size_t p = 0; p < nbrs.size(); ++p) {
            if (dead[nbrs[p]] || taken(p)) continue;
            if (nbrs[p] == from)
                uturn = p;
            else
                out.push_back(p);
        }
        if (uturn) out.push_back(*uturn);
        break;
    }
    }
    return out;
}

TEST(PortList, EveryPolicyMatchesTheReferenceUnderRandomCrashes) {
    RngStream rng(splitmix64(2003));
    for (const Topology& topo : {Topology::mesh(5, 5), Topology::torus(4, 2)}) {
        for (int pattern = 0; pattern < 8; ++pattern) {
            std::vector<bool> dead(topo.node_count(), false);
            for (TileId t = 0; t < topo.node_count(); ++t) dead[t] = rng.bernoulli(0.25);
            for (std::size_t k = 0; k < kPolicyKinds; ++k) {
                const auto kind = static_cast<PolicyKind>(k);
                const auto policy = make_policy(kind);
                for (TileId at = 0; at < topo.node_count(); ++at) {
                    // Arrival from the source port and from every neighbour.
                    std::vector<TileId> froms{kNoTile};
                    for (const TileId n : topo.neighbours(at)) froms.push_back(n);
                    for (TileId dst = 0; dst < topo.node_count(); ++dst)
                        for (const TileId from : froms) {
                            const PortList got =
                                policy->candidates(topo, at, from, dst, dead);
                            EXPECT_EQ(std::vector<std::size_t>(got.begin(), got.end()),
                                      reference_candidates(kind, topo, at, from, dst,
                                                           dead))
                                << to_string(kind) << " at=" << at << " from=" << from
                                << " dst=" << dst << " pattern=" << pattern;
                        }
                }
            }
        }
    }
}

} // namespace
} // namespace snoc::router
