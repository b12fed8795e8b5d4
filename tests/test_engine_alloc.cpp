// Per-tile memory of a GossipNetwork.  No tile owns forward-coin state
// (the coins are counter-based, common/rng.hpp), and the `app` stream is
// built only on a tile's first TileContext::rng() call, since only IP
// cores draw from it.  This binary replaces the global operator new with
// a counting one (it is local to this test executable) to pin both.
#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <cstdlib>
#include <memory>
#include <new>

#include "core/engine.hpp"

namespace {
std::size_t g_bytes = 0;
std::size_t g_stream_allocations = 0; ///< allocations of one RngStream.
} // namespace

void* operator new(std::size_t bytes) {
    g_bytes += bytes;
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
    EXPECT_LT(per_tile, 512u);
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
