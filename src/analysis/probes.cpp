#include "analysis/probes.hpp"

#include "router/ports.hpp"

namespace snoc::analysis {

namespace {

bool tile_dead(const std::vector<bool>& dead, TileId t) {
    return !dead.empty() && dead[t];
}

} // namespace

router::PortList CyclicTurnPolicy::candidates(
    const Topology& topo, TileId at, TileId from, TileId dst,
    const std::vector<bool>& dead) const {
    (void)from;
    router::PortList out;
    if (at == dst) return out;
    const std::size_t x = topo.x_of(at), y = topo.y_of(at);
    const std::size_t dx = topo.x_of(dst), dy = topo.y_of(dst);
    // Every minimal direction, west still first in preference — but no
    // longer exclusive, so the forbidden turn-into-west reappears: a
    // packet may go north/south now and west later.
    const auto offer = [&](std::size_t nx, std::size_t ny) {
        const TileId next = topo.at(nx, ny);
        if (tile_dead(dead, next)) return;
        if (const auto p = router::port_to(topo, at, next)) out.push_back(*p);
    };
    if (dx < x) offer(x - 1, y);
    if (dx > x) offer(x + 1, y);
    if (dy > y) offer(x, y + 1);
    if (dy < y) offer(x, y - 1);
    return out;
}

DynamicProbeResult probe_dynamic_deadlock() {
    // A 2x2 mesh is the smallest ring the re-enabled turn closes; four
    // crossing two-hop flows with single-packet buffers wedge it.
    const auto make_config = [] {
        router::RouterConfig config;
        config.flits_per_packet = 1;
        config.buffer_packets = 1;
        config.max_hops = 4096; // the hop budget must not rescue the wedge.
        config.stall_limit = 64;
        return config;
    };
    const auto inject_ring = [](router::RouterCore& core) {
        // Tiles of mesh(2,2): 0=(0,0) 1=(1,0) 2=(0,1) 3=(1,1).  Each flow
        // crosses the ring diagonally, so every minimal route turns.
        for (std::size_t burst = 0; burst < 8; ++burst) {
            core.inject(0, 3, 64);
            core.inject(1, 2, 64);
            core.inject(3, 0, 64);
            core.inject(2, 1, 64);
        }
    };

    DynamicProbeResult result;
    {
        router::RouterCore core(Topology::mesh(2, 2), make_config(),
                                std::make_unique<CyclicTurnPolicy>());
        inject_ring(core);
        core.run(4096);
        result.wedged = !core.idle();
        result.sentinel_fired = core.sentinel_fired();
        result.stalled_cycles = core.stalled_cycles();
    }
    {
        auto config = make_config();
        config.policy = router::PolicyKind::DimensionOrder;
        router::RouterCore core(Topology::mesh(2, 2), config);
        inject_ring(core);
        core.run(4096);
        result.control_drained = core.idle();
        result.control_sentinel = core.sentinel_fired();
    }
    return result;
}

} // namespace snoc::analysis
