#include "router/policy.hpp"

#include "common/expect.hpp"

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
    const GridTile& here = topo.grid_tile(at);
    const GridTile& there = topo.grid_tile(dst);
    const Dir dir = here.x != there.x ? (here.x < there.x ? Dir::East : Dir::West)
                                      : (here.y < there.y ? Dir::South : Dir::North);
    const std::uint8_t port = here.toward(dir);
    SNOC_ENSURE(port != GridTile::kNoPort && "XY next hop is not a neighbour");
    out.push_back(port);
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
    const GridTile& here = topo.grid_tile(at);
    const GridTile& there = topo.grid_tile(dst);
    const auto take = [&](Dir d) {
        if (const std::uint8_t p = here.toward(d); p != GridTile::kNoPort)
            out.push_back(p);
    };
    if (there.x < here.x) {
        take(Dir::West);
        return out; // west exclusively: the deadlock-freedom turn rule. [mutation-point:west-first-turn]
    }
    if (there.x > here.x) take(Dir::East);
    if (there.y > here.y) take(Dir::South);
    if (there.y < here.y) take(Dir::North);
    return out;
}

PortList ProductivePolicy::candidates(
    const Topology& topo, TileId at, TileId from, TileId dst,
    const std::vector<bool>& dead) const {
    (void)from;
    PortList out;
    if (at == dst) return out;
    const auto& nbrs = topo.neighbours(at);
    const GridTile& there = topo.grid_tile(dst);
    const auto distance = [&](TileId t) {
        const GridTile& g = topo.grid_tile(t);
        return (g.x > there.x ? g.x - there.x : there.x - g.x) +
               (g.y > there.y ? g.y - there.y : there.y - g.y);
    };
    const std::uint32_t here = distance(at);
    for (std::size_t p = 0; p < nbrs.size(); ++p) {
        if (tile_dead(dead, nbrs[p])) continue;
        if (distance(nbrs[p]) < here) out.push_back(p);
    }
    return out;
}

PortList FaultAdaptivePolicy::candidates(
    const Topology& topo, TileId at, TileId from, TileId dst,
    const std::vector<bool>& dead) const {
    PortList out;
    if (at == dst) return out;
    const auto& nbrs = topo.neighbours(at);
    const GridTile& here = topo.grid_tile(at);
    const GridTile& there = topo.grid_tile(dst);
    // Minimal live ports, X before Y (the XY tie-break keeps fault-free
    // paths identical to dimension order).
    std::uint32_t minimal = 0; // bit p: port p is already a candidate.
    const auto take = [&](Dir d) {
        const std::uint8_t p = here.toward(d);
        if (p == GridTile::kNoPort || tile_dead(dead, nbrs[p])) return;
        out.push_back(p);
        minimal |= 1U << p;
    };
    if (here.x != there.x) take(here.x < there.x ? Dir::East : Dir::West);
    if (here.y != there.y) take(here.y < there.y ? Dir::South : Dir::North);
    // Detours: every remaining live port in neighbour order, the arrival
    // port last — a u-turn is legal but only as the move of last resort.
    std::size_t uturn = nbrs.size();
    for (std::size_t p = 0; p < nbrs.size(); ++p) {
        if (tile_dead(dead, nbrs[p]) || ((minimal >> p) & 1U) != 0) continue;
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
