#include "noc/topology.hpp"

#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "common/expect.hpp"

namespace snoc {
namespace {

TEST(Mesh, NodeAndLinkCounts) {
    const auto t = Topology::mesh(4, 4);
    EXPECT_EQ(t.node_count(), 16u);
    // 2 * (w-1)*h + 2 * w*(h-1) directed links.
    EXPECT_EQ(t.link_count(), 2u * 3 * 4 + 2u * 4 * 3);
    EXPECT_TRUE(t.is_grid());
    EXPECT_EQ(t.width(), 4u);
    EXPECT_EQ(t.height(), 4u);
}

TEST(Mesh, CornerEdgeAndInteriorDegrees) {
    const auto t = Topology::mesh(4, 4);
    EXPECT_EQ(t.neighbours(0).size(), 2u);  // corner
    EXPECT_EQ(t.neighbours(1).size(), 3u);  // edge
    EXPECT_EQ(t.neighbours(5).size(), 4u);  // interior
}

TEST(Mesh, NeighboursAreAdjacent) {
    const auto t = Topology::mesh(5, 5);
    for (TileId id = 0; id < t.node_count(); ++id)
        for (TileId nbr : t.neighbours(id)) EXPECT_EQ(t.manhattan(id, nbr), 1u);
}

TEST(Mesh, CoordinateRoundtrip) {
    const auto t = Topology::mesh(5, 3);
    for (std::size_t y = 0; y < 3; ++y)
        for (std::size_t x = 0; x < 5; ++x) {
            const TileId id = t.at(x, y);
            EXPECT_EQ(t.x_of(id), x);
            EXPECT_EQ(t.y_of(id), y);
        }
}

TEST(Mesh, ManhattanDistance) {
    const auto t = Topology::mesh(4, 4);
    // Thesis Fig. 3-3: producer tile 6 (index 5), consumer tile 12 (index 11).
    EXPECT_EQ(t.manhattan(5, 11), 3u);
    EXPECT_EQ(t.manhattan(0, 15), 6u);
    EXPECT_EQ(t.manhattan(7, 7), 0u);
}

TEST(Mesh, OutLinksParallelNeighbours) {
    const auto t = Topology::mesh(4, 4);
    for (TileId id = 0; id < t.node_count(); ++id) {
        const auto& nbrs = t.neighbours(id);
        const auto& links = t.out_links(id);
        ASSERT_EQ(nbrs.size(), links.size());
        for (std::size_t i = 0; i < nbrs.size(); ++i) {
            EXPECT_EQ(t.link(links[i]).from, id);
            EXPECT_EQ(t.link(links[i]).to, nbrs[i]);
        }
    }
}

TEST(FullyConnected, EveryPairLinked) {
    const auto t = Topology::fully_connected(8);
    EXPECT_EQ(t.node_count(), 8u);
    EXPECT_EQ(t.link_count(), 8u * 7);
    EXPECT_FALSE(t.is_grid());
    for (TileId id = 0; id < 8; ++id) {
        EXPECT_EQ(t.neighbours(id).size(), 7u);
        std::set<TileId> nbrs(t.neighbours(id).begin(), t.neighbours(id).end());
        EXPECT_EQ(nbrs.size(), 7u);
        EXPECT_FALSE(nbrs.contains(id));
    }
}

TEST(Torus, UniformDegreeFour) {
    const auto t = Topology::torus(4, 4);
    EXPECT_EQ(t.node_count(), 16u);
    for (TileId id = 0; id < t.node_count(); ++id)
        EXPECT_EQ(t.neighbours(id).size(), 4u);
    EXPECT_EQ(t.link_count(), 64u);
}

TEST(Torus, WrapAroundNeighbours) {
    const auto t = Topology::torus(4, 4);
    const auto& nbrs = t.neighbours(0);
    // (0,0) should see (0,3) and (3,0) via wraparound.
    EXPECT_NE(std::find(nbrs.begin(), nbrs.end(), t.at(0, 3)), nbrs.end());
    EXPECT_NE(std::find(nbrs.begin(), nbrs.end(), t.at(3, 0)), nbrs.end());
}

TEST(FromEdges, BuildsBothDirections) {
    const auto t = Topology::from_edges(3, {{0, 1}, {1, 2}}, "path");
    EXPECT_EQ(t.link_count(), 4u);
    EXPECT_EQ(t.neighbours(1).size(), 2u);
    EXPECT_EQ(t.name(), "path");
    EXPECT_FALSE(t.is_grid());
}

TEST(FromEdges, RejectsSelfLoop) {
    EXPECT_THROW(Topology::from_edges(2, {{0, 0}}), ContractViolation);
}

TEST(GridAccessors, ThrowOnNonGrid) {
    const auto t = Topology::fully_connected(4);
    EXPECT_THROW(t.width(), ContractViolation);
    EXPECT_THROW(t.x_of(0), ContractViolation);
    EXPECT_THROW(t.at(0, 0), ContractViolation);
}

class MeshSizeSweep
    : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>> {};

TEST_P(MeshSizeSweep, LinkCountFormula) {
    const auto [w, h] = GetParam();
    const auto t = Topology::mesh(w, h);
    EXPECT_EQ(t.node_count(), w * h);
    EXPECT_EQ(t.link_count(), 2 * ((w - 1) * h + w * (h - 1)));
    // Total degree equals the number of directed links.
    std::size_t degree_sum = 0;
    for (TileId id = 0; id < t.node_count(); ++id)
        degree_sum += t.neighbours(id).size();
    EXPECT_EQ(degree_sum, t.link_count());
}

INSTANTIATE_TEST_SUITE_P(Sizes, MeshSizeSweep,
                         ::testing::Values(std::pair<std::size_t, std::size_t>{1, 1},
                                           std::pair<std::size_t, std::size_t>{2, 2},
                                           std::pair<std::size_t, std::size_t>{4, 4},
                                           std::pair<std::size_t, std::size_t>{5, 5},
                                           std::pair<std::size_t, std::size_t>{8, 3},
                                           std::pair<std::size_t, std::size_t>{16, 16}));

} // namespace
} // namespace snoc
