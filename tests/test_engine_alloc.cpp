// Per-tile memory of a GossipNetwork and of the mesh it runs on.  No tile
// owns forward-coin state (the coins are counter-based, common/rng.hpp),
// the `app` streams and the forward-capacity, route-filter and clock-scale
// tables exist only once something sets them, and a Topology keeps its
// adjacency as compressed rows.  This binary replaces the global operator
// new with a counting one (it is local to this test executable) to pin
// all of it.
#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <cstdlib>
#include <memory>
#include <new>

#include "core/engine.hpp"

namespace {
std::size_t g_bytes = 0;
std::size_t g_allocations = 0;
std::size_t g_stream_allocations = 0; ///< allocations of one RngStream.
} // namespace

void* operator new(std::size_t bytes) {
    g_bytes += bytes;
    ++g_allocations;
    if (bytes == sizeof(snoc::RngStream)) ++g_stream_allocations;
    if (void* p = std::malloc(bytes == 0 ? 1 : bytes)) return p;
    throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace snoc {
namespace {

/// Draws from its tile's app stream every round when `draws` is set and
/// records the first word it drew.
class Drawer final : public IpCore {
public:
    explicit Drawer(bool draws, std::uint64_t* first) : draws_(draws), first_(first) {}
    void on_message(const Message&, TileContext&) override {}
    void on_round(TileContext& ctx) override {
        if (!draws_) return;
        const std::uint64_t word = ctx.rng().bits();
        if (!drawn_) *first_ = word;
        drawn_ = true;
    }

private:
    bool draws_;
    std::uint64_t* first_;
    bool drawn_{false};
};

TEST(EngineAlloc, ConstructionStaysUnderHalfAKilobytePerTile) {
    constexpr std::size_t kSide = 64;
    const Topology mesh = Topology::mesh(kSide, kSide);
    const std::size_t before = g_bytes;
    GossipNetwork net(mesh, GossipConfig{}, FaultScenario::none(), 1);
    const std::size_t per_tile = (g_bytes - before) / (kSide * kSide);
    // Measured: 231 B, of which the network's copy of the mesh is 79 B
    // and each tile's send buffer and inbox count most of the rest.
    EXPECT_LE(per_tile, 231u);
}

TEST(EngineAlloc, MeshIsFiveFlatArrays) {
    constexpr std::size_t kSide = 64;
    const std::size_t bytes = g_bytes;
    const std::size_t allocations = g_allocations;
    const Topology mesh = Topology::mesh(kSide, kSide);
    // Links (8 B each), the two row arrays (4 B per link each), the row
    // starts and the grid index (12 B per tile): 79 B per tile in five
    // allocations, however large the mesh.
    EXPECT_LE((g_bytes - bytes) / (kSide * kSide), 79u);
    EXPECT_EQ(g_allocations - allocations, 5u);
}

TEST(EngineAlloc, OnlyTilesThatDrawBuildAnAppStream) {
    const std::uint64_t seed = 7;
    GossipNetwork net(Topology::mesh(4, 4), GossipConfig{}, FaultScenario::none(), seed);
    // Cores on five tiles; three of them draw.
    const std::array<TileId, 3> drawing{2, 9, 14};
    std::array<std::uint64_t, 16> first{};
    for (const TileId t : drawing)
        net.attach(t, std::make_unique<Drawer>(true, &first[t]));
    net.attach(0, std::make_unique<Drawer>(false, &first[0]));
    net.attach(5, std::make_unique<Drawer>(false, &first[5]));

    const std::size_t before = g_stream_allocations;
    for (int r = 0; r < 20; ++r) net.step();
    EXPECT_EQ(g_stream_allocations - before, drawing.size());

    // Built late, each stream still starts where RngPool puts it.
    const RngPool pool(seed);
    for (const TileId t : drawing)
        EXPECT_EQ(first[t], pool.stream("app", t).bits()) << "tile " << t;
}

} // namespace
} // namespace snoc
