#include "router/policy.hpp"

#include "common/expect.hpp"
#include "router/ports.hpp"

namespace snoc::router {

namespace {

bool tile_dead(const std::vector<bool>& dead, TileId t) {
    return !dead.empty() && dead[t];
}

} // namespace

std::vector<TileId> dimension_order_path(const Topology& mesh, TileId src,
                                         TileId dst) {
    SNOC_EXPECT(mesh.is_grid());
    SNOC_EXPECT(src < mesh.node_count() && dst < mesh.node_count());
    std::vector<TileId> path{src};
    std::size_t x = mesh.x_of(src);
    std::size_t y = mesh.y_of(src);
    const std::size_t tx = mesh.x_of(dst);
    const std::size_t ty = mesh.y_of(dst);
    while (x != tx) {
        x += (x < tx) ? 1 : static_cast<std::size_t>(-1);
        path.push_back(mesh.at(x, y));
    }
    while (y != ty) {
        y += (y < ty) ? 1 : static_cast<std::size_t>(-1);
        path.push_back(mesh.at(x, y));
    }
    return path;
}

PortList DimensionOrderPolicy::candidates(
    const Topology& topo, TileId at, TileId from, TileId dst,
    const std::vector<bool>& dead) const {
    (void)from;
    (void)dead;
    PortList out;
    if (at == dst) return out;
    const std::size_t x = topo.x_of(at), y = topo.y_of(at);
    const std::size_t dx = topo.x_of(dst), dy = topo.y_of(dst);
    TileId next;
    if (x != dx)
        next = topo.at(x < dx ? x + 1 : x - 1, y);
    else
        next = topo.at(x, y < dy ? y + 1 : y - 1);
    const auto port = port_to(topo, at, next);
    SNOC_ENSURE(port.has_value() && "XY next hop is not a neighbour");
    out.push_back(*port);
    return out;
}

PortList WestFirstPolicy::candidates(
    const Topology& topo, TileId at, TileId from, TileId dst,
    const std::vector<bool>& dead) const {
    (void)from;
    (void)dead;
    PortList out;
    if (at == dst) return out;
    // West-first: if any westward progress remains, it must happen now
    // (turning into west later is prohibited); otherwise every minimal
    // non-west direction is a legal adaptive choice.
    const std::size_t x = topo.x_of(at), y = topo.y_of(at);
    const std::size_t dx = topo.x_of(dst), dy = topo.y_of(dst);
    if (dx < x) {
        if (const auto p = port_to(topo, at, topo.at(x - 1, y))) out.push_back(*p);
        return out; // west exclusively: the deadlock-freedom turn rule. [mutation-point:west-first-turn]
    }
    if (dx > x)
        if (const auto p = port_to(topo, at, topo.at(x + 1, y))) out.push_back(*p);
    if (dy > y)
        if (const auto p = port_to(topo, at, topo.at(x, y + 1))) out.push_back(*p);
    if (dy < y)
        if (const auto p = port_to(topo, at, topo.at(x, y - 1))) out.push_back(*p);
    return out;
}

PortList ProductivePolicy::candidates(
    const Topology& topo, TileId at, TileId from, TileId dst,
    const std::vector<bool>& dead) const {
    (void)from;
    PortList out;
    if (at == dst) return out;
    const auto& nbrs = topo.neighbours(at);
    for (std::size_t p = 0; p < nbrs.size(); ++p) {
        if (tile_dead(dead, nbrs[p])) continue;
        if (topo.manhattan(nbrs[p], dst) < topo.manhattan(at, dst))
            out.push_back(p);
    }
    return out;
}

PortList FaultAdaptivePolicy::candidates(
    const Topology& topo, TileId at, TileId from, TileId dst,
    const std::vector<bool>& dead) const {
    PortList out;
    if (at == dst) return out;
    const auto& nbrs = topo.neighbours(at);
    const std::size_t x = topo.x_of(at), y = topo.y_of(at);
    const std::size_t dx = topo.x_of(dst), dy = topo.y_of(dst);
    // Minimal live ports, X before Y (the XY tie-break keeps fault-free
    // paths identical to dimension order).
    if (x != dx) {
        const TileId next = topo.at(x < dx ? x + 1 : x - 1, y);
        if (!tile_dead(dead, next))
            if (const auto p = port_to(topo, at, next)) out.push_back(*p);
    }
    if (y != dy) {
        const TileId next = topo.at(x, y < dy ? y + 1 : y - 1);
        if (!tile_dead(dead, next))
            if (const auto p = port_to(topo, at, next)) out.push_back(*p);
    }
    // Detours: every remaining live port in neighbour order, the arrival
    // port last — a u-turn is legal but only as the move of last resort.
    std::size_t uturn = nbrs.size();
    for (std::size_t p = 0; p < nbrs.size(); ++p) {
        if (tile_dead(dead, nbrs[p])) continue;
        bool minimal = false;
        for (const std::size_t m : out)
            if (m == p) minimal = true;
        if (minimal) continue;
        if (nbrs[p] == from) {
            uturn = p;
            continue;
        }
        out.push_back(p);
    }
    if (uturn < nbrs.size()) out.push_back(uturn);
    return out;
}

std::unique_ptr<RoutingPolicy> make_policy(PolicyKind kind) {
    switch (kind) {
    case PolicyKind::DimensionOrder: return std::make_unique<DimensionOrderPolicy>();
    case PolicyKind::WestFirst: return std::make_unique<WestFirstPolicy>();
    case PolicyKind::Productive: return std::make_unique<ProductivePolicy>();
    case PolicyKind::FaultAdaptive: return std::make_unique<FaultAdaptivePolicy>();
    }
    SNOC_ENSURE(false && "unknown routing policy");
    return nullptr;
}

} // namespace snoc::router
