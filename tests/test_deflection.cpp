#include "bus/deflection.hpp"

#include <gtest/gtest.h>

#include "common/expect.hpp"
#include "common/stats.hpp"

namespace snoc::deflection {
namespace {

constexpr std::size_t kBits = 256;

CrashState crashes_none(std::size_t tiles, std::size_t links) {
    CrashState s;
    s.dead_tiles.assign(tiles, false);
    s.dead_links.assign(links, false);
    return s;
}

/// Hop counts of the delivered packets, from the records.
SampleSet delivered_hops(const Network& net) {
    SampleSet hops;
    for (const auto& rec : net.records())
        if (rec.delivered_cycle) hops.add(static_cast<double>(rec.hops));
    return hops;
}

/// Latencies (cycles, injection to arrival inclusive) of the delivered
/// packets, from the records.
SampleSet delivered_latencies(const Network& net) {
    SampleSet latencies;
    for (const auto& rec : net.records())
        if (rec.delivered_cycle)
            latencies.add(
                static_cast<double>(*rec.delivered_cycle - rec.injected_cycle + 1));
    return latencies;
}

TEST(Deflection, SinglePacketTakesShortestPathWhenAlone) {
    Network net(4, 4, Config{}, 1);
    net.inject(0, 15, kBits);
    net.run(100);
    ASSERT_EQ(net.delivered(), 1u);
    EXPECT_EQ(delivered_hops(net).mean(), 6.0); // no contention: no deflection
    EXPECT_EQ(delivered_latencies(net).mean(), 6.0);
}

TEST(Deflection, AdjacentDeliveryInOneCycle) {
    Network net(4, 4, Config{}, 2);
    net.inject(5, 6, kBits);
    net.run(10);
    EXPECT_EQ(net.delivered(), 1u);
    EXPECT_EQ(delivered_latencies(net).mean(), 1.0);
}

TEST(Deflection, ContentionCausesDeflections) {
    Network net(4, 4, Config{}, 3);
    // Many packets through the same column create contention.
    for (int i = 0; i < 12; ++i) net.inject(0, 12, kBits);
    for (int i = 0; i < 12; ++i) net.inject(3, 15, kBits);
    net.run(500);
    EXPECT_EQ(net.delivered(), 24u);
    // Some packet needed more hops than its Manhattan distance.
    EXPECT_GT(delivered_hops(net).max(), 3.0);
}

TEST(Deflection, RoutesAroundDeadRouter) {
    const auto topo = Topology::mesh(4, 4);
    auto crashes = crashes_none(16, topo.link_count());
    crashes.dead_tiles[5] = true;
    crashes.dead_tiles[6] = true; // the whole XY path 4 -> 7 blocked
    Network net(4, 4, Config{}, 4);
    net.apply_crashes(crashes);
    net.inject(4, 7, kBits);
    net.run(300);
    EXPECT_EQ(net.delivered(), 1u); // deflected around the corpses
    EXPECT_GT(delivered_hops(net).mean(), 3.0);
}

TEST(Deflection, HopBudgetGuardsAgainstLivelock) {
    const auto topo = Topology::mesh(3, 3);
    auto crashes = crashes_none(9, topo.link_count());
    // Wall off the destination completely: 4's neighbours all dead except
    // none — kill 1, 3, 5, 7 so the centre is unreachable.
    for (TileId t : {1u, 3u, 5u, 7u}) crashes.dead_tiles[t] = true;
    Network net(3, 3, Config{64}, 5);
    net.apply_crashes(crashes);
    net.inject(0, 4, kBits);
    net.run(1000);
    EXPECT_EQ(net.delivered(), 0u);
    EXPECT_EQ(net.dropped(), 1u);
    EXPECT_EQ(net.in_flight(), 0u);
}

TEST(Deflection, AllToOneEventuallyDrains) {
    Network net(5, 5, Config{512}, 6);
    for (TileId t = 1; t < 25; ++t) net.inject(t, 0, kBits);
    net.run(3000);
    EXPECT_EQ(net.delivered() + net.dropped(), 24u);
    EXPECT_GE(net.delivered(), 20u);
}

TEST(Deflection, InjectionValidation) {
    Network net(4, 4, Config{}, 7);
    EXPECT_THROW(net.inject(3, 3, kBits), ContractViolation);
    const auto topo = Topology::mesh(4, 4);
    auto crashes = crashes_none(16, topo.link_count());
    crashes.dead_tiles[2] = true;
    net.apply_crashes(crashes);
    // A dead source accepts nothing: the packet is crash-dropped at birth.
    const std::uint32_t id = net.inject(2, 5, kBits);
    EXPECT_TRUE(net.records()[id].dropped);
    EXPECT_EQ(net.dropped(), 1u);
    EXPECT_EQ(net.in_flight(), 0u);
}

} // namespace
} // namespace snoc::deflection
