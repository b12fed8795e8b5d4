#include "bus/broadcast_tree.hpp"

#include <gtest/gtest.h>

#include "telemetry/telemetry.hpp"

namespace snoc {
namespace {

CrashState none(const Topology& topo) {
    CrashState s;
    s.dead_tiles.assign(topo.node_count(), false);
    s.dead_links.assign(topo.link_count(), false);
    return s;
}

TEST(SpanningTree, CoversEveryTileExactlyOnce) {
    const auto topo = Topology::mesh(4, 4);
    const auto parent = spanning_tree(topo, 5);
    EXPECT_EQ(parent[5], 5u);
    for (TileId t = 0; t < 16; ++t) {
        ASSERT_NE(parent[t], kNoTile) << t;
        if (t != 5) {
            // Parent is a real mesh neighbour.
            EXPECT_EQ(topo.manhattan(t, parent[t]), 1u) << t;
        }
    }
}

TEST(SpanningTree, PathsLeadToRoot) {
    const auto topo = Topology::mesh(5, 5);
    const auto parent = spanning_tree(topo, 12);
    for (TileId t = 0; t < 25; ++t) {
        TileId cur = t;
        int hops = 0;
        while (cur != 12 && hops < 30) {
            cur = parent[cur];
            ++hops;
        }
        EXPECT_EQ(cur, 12u) << "tile " << t;
        // BFS tree: hop count equals Manhattan distance to the root.
        EXPECT_EQ(static_cast<std::size_t>(hops), topo.manhattan(t, 12)) << t;
    }
}

TEST(TreeBroadcast, FaultFreeIsOptimal) {
    const auto topo = Topology::mesh(4, 4);
    const auto r = tree_broadcast(topo, 5, none(topo));
    EXPECT_EQ(r.reached, 16u);
    EXPECT_EQ(r.transmissions, 15u); // exactly n - 1
    // Depth equals the root's eccentricity (tile 5 on a 4x4: 4).
    EXPECT_EQ(r.depth, 4u);
}

TEST(TreeBroadcast, DeadTilePrunesItsSubtree) {
    const auto topo = Topology::mesh(4, 4);
    auto crashes = none(topo);
    crashes.dead_tiles[1] = true; // child of root 5 in the BFS tree
    const auto r = tree_broadcast(topo, 5, crashes);
    EXPECT_LT(r.reached, 16u);
    // The dead tile and everything routed through it are lost.
    EXPECT_GE(16u - r.reached, 1u);
}

TEST(TreeBroadcast, DeadRootReachesNobody) {
    const auto topo = Topology::mesh(4, 4);
    auto crashes = none(topo);
    crashes.dead_tiles[5] = true;
    const auto r = tree_broadcast(topo, 5, crashes);
    EXPECT_EQ(r.reached, 0u);
    EXPECT_EQ(r.transmissions, 0u);
}

TEST(TreeBroadcast, SharedAccountingEmitsTraceAndHistograms) {
    const auto topo = Topology::mesh(4, 4);
    auto crashes = none(topo);
    crashes.dead_tiles[10] = true;
    Telemetry sink;
    const auto r = tree_broadcast(topo, 0, crashes, &sink, 64);
    EXPECT_EQ(r.metrics.deliveries, r.reached);
    EXPECT_EQ(r.metrics.packets_sent, r.transmissions);
    EXPECT_EQ(r.metrics.messages_created, 1u);
    EXPECT_EQ(r.metrics.crash_drops, 1u);
    EXPECT_EQ(r.metrics.bits_sent, 64u * r.transmissions);
    std::size_t transmitted = 0, delivered = 0, drops = 0;
    for (const auto& e : sink.events()) {
        if (e.kind == TraceEventKind::Transmitted) ++transmitted;
        if (e.kind == TraceEventKind::Delivered) ++delivered;
        if (e.kind == TraceEventKind::CrashDrop) ++drops;
        EXPECT_EQ(e.message.origin, 0u);
    }
    EXPECT_EQ(transmitted, r.transmissions);
    EXPECT_EQ(delivered, r.reached);
    EXPECT_EQ(drops, 1u);
    // Per-link histogram sums back to the transmission count.
    std::size_t by_link = 0;
    for (const auto c : r.metrics.packets_by_link) by_link += c;
    EXPECT_EQ(by_link, r.transmissions);
}

TEST(TreeBroadcast, LossGrowsWithCrashCount) {
    const auto topo = Topology::mesh(5, 5);
    RngPool pool(3);
    FaultInjector inj(FaultScenario::none(), pool);
    std::size_t reached_1 = 0, reached_6 = 0;
    for (int trial = 0; trial < 20; ++trial) {
        reached_1 += tree_broadcast(topo, 12,
                                    inj.roll_exact_tile_crashes(topo, 1, {12}))
                         .reached;
        reached_6 += tree_broadcast(topo, 12,
                                    inj.roll_exact_tile_crashes(topo, 6, {12}))
                         .reached;
    }
    EXPECT_GT(reached_1, reached_6);
}

} // namespace
} // namespace snoc
