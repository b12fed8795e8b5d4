// Routing-policy stage, memoised: every route a network asks for is
// computed once.
//
// A RoutingPolicy is a pure function of (tile, upstream, destination,
// crash pattern), and a network's crash pattern is fixed before its first
// injection, so a route can only change when the pattern does.  RouteTable
// keeps one entry per (tile, input port, destination) — input ports
// numbered as in PortTable, the local port meaning "injected here, no
// upstream" — holding the policy's candidates filtered to ports that lead
// to a live tile over a live link.  An entry is filled the first time it
// is read; its storage is sized when the table is built and cleared by
// reset(), so no routing decision allocates.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "common/types.hpp"
#include "noc/topology.hpp"
#include "router/policy.hpp"

namespace snoc::router {

class RouteTable {
public:
    /// Every entry of `topo` unfilled, routed as if every tile and link
    /// were alive until reset() names a crash pattern.  `policy` must not
    /// be null.
    RouteTable(const Topology& topo, std::unique_ptr<const RoutingPolicy> policy);

    const RoutingPolicy& policy() const { return *policy_; }

    /// Route under a new crash pattern (an empty vector means all alive):
    /// the policy sees `dead_tiles`, and a candidate survives only if its
    /// neighbour is not in `dead_tiles` and its link not in `dead_links`.
    /// Every entry is refilled on its next read.
    void reset(const std::vector<bool>& dead_tiles,
               const std::vector<bool>& dead_links);

    /// The live candidates, in the policy's preference order, of a packet
    /// at `t` that entered through input port `in_port` (`degree(t)`: the
    /// local port) and is bound for `dst`.  `topo` is the topology the
    /// table was built for.
    const PortList& route(const Topology& topo, TileId t, std::size_t in_port,
                          TileId dst) {
        Entry& entry = entries_[(first_slot_[t] + in_port) * tiles_ + dst];
        if (!entry.filled) fill(topo, t, in_port, dst, entry);
        return entry.ports;
    }

private:
    struct Entry {
        PortList ports;
        bool filled{false};
    };

    void fill(const Topology& topo, TileId t, std::size_t in_port, TileId dst,
              Entry& entry) const;

    std::unique_ptr<const RoutingPolicy> policy_;
    std::vector<bool> dead_tiles_;
    std::vector<bool> dead_links_;
    std::size_t tiles_;
    /// PortTable::slot(t, 0) of each tile: t's degree(t) + 1 input ports
    /// follow it.
    std::vector<std::size_t> first_slot_;
    std::vector<Entry> entries_; ///< [slot(t, in_port) * tiles + dst].
};

} // namespace snoc::router
