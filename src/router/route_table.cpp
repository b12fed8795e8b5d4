#include "router/route_table.hpp"

#include <algorithm>

#include "common/expect.hpp"

namespace snoc::router {

namespace {

bool marked(const std::vector<bool>& set, std::size_t i) {
    return !set.empty() && set[i];
}

} // namespace

RouteTable::RouteTable(const Topology& topo,
                       std::unique_ptr<const RoutingPolicy> policy)
    : policy_(std::move(policy)),
      tiles_(topo.node_count()),
      first_slot_(topo.node_count()) {
    SNOC_EXPECT(policy_ != nullptr);
    std::size_t slots = 0;
    for (TileId t = 0; t < tiles_; ++t) {
        first_slot_[t] = slots;
        slots += topo.neighbours(t).size() + 1;
    }
    entries_.resize(slots * tiles_);
}

void RouteTable::reset(const std::vector<bool>& dead_tiles,
                       const std::vector<bool>& dead_links) {
    dead_tiles_ = dead_tiles;
    dead_links_ = dead_links;
    std::fill(entries_.begin(), entries_.end(), Entry{});
}

void RouteTable::fill(const Topology& topo, TileId t, std::size_t in_port,
                      TileId dst, Entry& entry) const {
    const auto& nbrs = topo.neighbours(t);
    const auto& links = topo.out_links(t);
    // Input port p is fed by neighbours(t)[p]; the local port by no one.
    const TileId from = in_port < nbrs.size() ? nbrs[in_port] : kNoTile;
    for (const std::size_t c :
         policy_->candidates(topo, t, from, dst, dead_tiles_)) {
        if (!marked(dead_tiles_, nbrs[c]) && !marked(dead_links_, links[c]))
            entry.ports.push_back(c);
    }
    entry.filled = true;
}

} // namespace snoc::router
