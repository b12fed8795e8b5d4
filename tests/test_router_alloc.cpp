// A RouterCore, wormhole or deflection cycle must not touch the heap:
// their FIFOs and VCs are fixed rings, their port and route tables sized
// once, their per-cycle scratch reused.  This binary replaces
// the global operator new with a counting one (it is local to this test
// executable) and steps a warmed-up 5x5 mesh without injecting.  The only
// allocation left is RouterCore's accounting stage, whose per-cycle
// packets_per_round histogram grows by doubling; a wormhole or deflection
// cycle allocates nothing.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdlib>
#include <new>

#include "bus/deflection.hpp"
#include "router/core.hpp"
#include "wormhole/router.hpp"

namespace {
std::size_t g_allocations = 0;
} // namespace

void* operator new(std::size_t bytes) {
    ++g_allocations;
    if (void* p = std::malloc(bytes == 0 ? 1 : bytes)) return p;
    throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace snoc::router {
namespace {

constexpr std::size_t kSide = 5;
constexpr std::size_t kMeasured = 1000;

/// Every tile sends `waves` packets to every other tile: far more than
/// the mesh drains in the warm-up plus kMeasured cycles.
void all_to_all(RouterCore& core, std::size_t waves) {
    const auto tiles = static_cast<TileId>(kSide * kSide);
    for (std::size_t w = 0; w < waves; ++w)
        for (TileId s = 0; s < tiles; ++s)
            for (TileId d = 0; d < tiles; ++d)
                if (s != d) core.inject(s, d, 256);
}

/// Allocations made by kMeasured steps of `core` after `warmup` steps;
/// the measured steps must deliver something.
std::size_t measured_allocations(RouterCore& core, std::size_t warmup) {
    for (std::size_t i = 0; i < warmup; ++i) core.step();
    const std::size_t delivered_before = core.delivered();
    const std::size_t before = g_allocations;
    for (std::size_t i = 0; i < kMeasured; ++i) core.step();
    const std::size_t allocations = g_allocations - before;
    EXPECT_GT(core.delivered(), delivered_before);
    return allocations;
}

/// Room for the packets_per_round histogram's doublings only.
std::size_t allocation_budget() {
    return static_cast<std::size_t>(
               std::ceil(std::log2(static_cast<double>(kMeasured)))) +
           2;
}

TEST(RouterCoreAlloc, SaturatedCyclesDoNotAllocate) {
    for (const FlowControl flow :
         {FlowControl::StoreAndForward, FlowControl::CutThrough}) {
        RouterConfig config;
        config.flow = flow;
        RouterCore core(Topology::mesh(kSide, kSide), config);
        all_to_all(core, 16);
        EXPECT_LE(measured_allocations(core, 200), allocation_budget())
            << to_string(flow);
        EXPECT_FALSE(core.idle()) << to_string(flow) << ": no longer saturated";
    }
}

TEST(RouterCoreAlloc, AdaptiveDetoursDoNotAllocate) {
    // Adaptive cut-through wedges under all-to-all load (its channel
    // dependency graph is cyclic), so this run is a lighter permutation
    // load around a dead centre tile, stepped while it drains.
    RouterConfig config;
    config.flow = FlowControl::CutThrough;
    config.policy = PolicyKind::FaultAdaptive;
    const Topology mesh = Topology::mesh(kSide, kSide);
    CrashState crashes{std::vector<bool>(mesh.node_count(), false),
                       std::vector<bool>(mesh.link_count(), false)};
    crashes.dead_tiles[mesh.at(2, 2)] = true;
    RouterCore core(mesh, config);
    core.apply_crashes(crashes);
    const auto tiles = static_cast<TileId>(mesh.node_count());
    for (TileId w = 0; w < 8; ++w)
        for (TileId s = 0; s < tiles; ++s) {
            TileId d = (s * 7 + w * 3 + 1) % tiles;
            if (d == s) d = (d + 1) % tiles;
            core.inject(s, d, 256);
        }
    EXPECT_LE(measured_allocations(core, 20), allocation_budget());
    EXPECT_GT(core.dropped(), 0U) << "no packet met the dead tile";
}

TEST(WormholeAlloc, SaturatedStepsDoNotAllocate) {
    for (const auto routing : {wormhole::Routing::Xy, wormhole::Routing::WestFirst}) {
        wormhole::Config config;
        config.routing = routing;
        wormhole::Network net(kSide, kSide, config);
        const auto tiles = static_cast<TileId>(kSide * kSide);
        for (std::size_t w = 0; w < 8; ++w)
            for (TileId s = 0; s < tiles; ++s)
                for (TileId d = 0; d < tiles; ++d)
                    if (s != d) net.inject(s, d, 256);
        for (std::size_t i = 0; i < 200; ++i) net.step();
        const std::size_t delivered_before = net.delivered();
        const std::size_t before = g_allocations;
        for (std::size_t i = 0; i < kMeasured; ++i) net.step();
        EXPECT_EQ(g_allocations - before, 0U) << to_string(routing);
        EXPECT_GT(net.delivered(), delivered_before) << to_string(routing);
        EXPECT_GT(net.in_flight(), 0U) << to_string(routing) << ": no longer saturated";
    }
}

TEST(DeflectionAlloc, SaturatedStepsDoNotAllocate) {
    // Bufferless: every injected packet is in the mesh at once, and the
    // dead centre tile makes packets deflect and stall around it.  The
    // mesh drains faster than a buffered one, so fewer cycles count.
    const Topology mesh = Topology::mesh(kSide, kSide);
    CrashState crashes{std::vector<bool>(mesh.node_count(), false),
                       std::vector<bool>(mesh.link_count(), false)};
    crashes.dead_tiles[mesh.at(2, 2)] = true;
    deflection::Network net(kSide, kSide, deflection::Config{}, /*seed=*/1);
    net.apply_crashes(crashes);
    const auto tiles = static_cast<TileId>(mesh.node_count());
    for (std::size_t w = 0; w < 8; ++w)
        for (TileId s = 0; s < tiles; ++s)
            for (TileId d = 0; d < tiles; ++d)
                if (s != d) net.inject(s, d, 256);
    for (std::size_t i = 0; i < 20; ++i) net.step();
    const std::size_t delivered_before = net.delivered();
    const std::size_t before = g_allocations;
    for (std::size_t i = 0; i < kMeasured / 5; ++i) net.step();
    EXPECT_EQ(g_allocations - before, 0U);
    EXPECT_GT(net.delivered(), delivered_before);
    EXPECT_GT(net.in_flight(), 0U) << "no longer saturated";
}

} // namespace
} // namespace snoc::router
