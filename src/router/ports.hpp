// Topology-port helpers shared by every packet-switched router stage.
//
// A router's ports are defined by the Topology: output port i of tile t
// leads to neighbours(t)[i] over out_links(t)[i], and the matching input
// port at the receiver is the index of t in the receiver's neighbour
// list.  Every backend used to re-derive these lookups privately; the
// router core makes them the one shared vocabulary the routing-policy,
// flow-control and arbitration stages all speak.  PortTable resolves
// them once per network, so a per-hop lookup is a table read.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/expect.hpp"
#include "common/types.hpp"
#include "noc/topology.hpp"

namespace snoc::router {

/// Output-port index at `t` leading to neighbour `next`; nullopt when the
/// tiles are not adjacent.
inline std::optional<std::size_t> port_to(const Topology& topo, TileId t,
                                          TileId next) {
    const auto& nbrs = topo.neighbours(t);
    for (std::size_t i = 0; i < nbrs.size(); ++i)
        if (nbrs[i] == next) return i;
    return std::nullopt;
}

/// Input-port index at `to` whose upstream neighbour is `from`
/// (ContractViolation when they are not adjacent).
inline std::size_t input_port_from(const Topology& topo, TileId to, TileId from) {
    const auto port = port_to(topo, to, from);
    SNOC_ENSURE(port.has_value() && "no input port from neighbour");
    return *port;
}

/// Directed link id for the hop a -> b (ContractViolation when the tiles
/// are not adjacent).
inline LinkId link_between(const Topology& topo, TileId a, TileId b) {
    const auto port = port_to(topo, a, b);
    SNOC_ENSURE(port.has_value() && "hop endpoints are not neighbours");
    return topo.out_links(a)[*port];
}

/// The static wiring of every port in one network, built once.
///
/// Tile t has degree(t) link ports plus one local port (injection on the
/// input side, ejection on the output side) at index degree(t).  Every
/// (tile, port) pair, local port included, has one flat index, slot(t, p),
/// so per-port state of a whole network lives in one array; the link
/// ports alone have the denser link_slot(t, p).
class PortTable {
public:
    /// Output port p of tile t: where it leads and where it lands.
    struct Port {
        TileId next{kNoTile};  ///< neighbours(t)[p].
        LinkId link{0};        ///< out_links(t)[p].
        std::uint32_t in_port{0}; ///< input port of `next` the link feeds.
        std::uint32_t in_slot{0}; ///< slot(next, in_port).
    };

    explicit PortTable(const Topology& topo) : first_(topo.node_count() + 1, 0) {
        for (TileId t = 0; t < topo.node_count(); ++t)
            first_[t + 1] =
                first_[t] + static_cast<std::uint32_t>(topo.neighbours(t).size());
        ports_.reserve(first_.back());
        for (TileId t = 0; t < topo.node_count(); ++t) {
            const auto& nbrs = topo.neighbours(t);
            for (std::size_t p = 0; p < nbrs.size(); ++p) {
                const std::size_t in_port = input_port_from(topo, nbrs[p], t);
                ports_.push_back(Port{nbrs[p], topo.out_links(t)[p],
                                      static_cast<std::uint32_t>(in_port),
                                      static_cast<std::uint32_t>(
                                          slot(nbrs[p], in_port))});
            }
        }
    }

    std::size_t tile_count() const { return first_.size() - 1; }
    /// Link ports of `t`; the local port's index.
    std::size_t degree(TileId t) const { return first_[t + 1] - first_[t]; }
    const Port& out(TileId t, std::size_t port) const {
        return ports_[link_slot(t, port)];
    }
    /// Flat index of (t, port) over every tile's degree(t) + 1 ports.
    std::size_t slot(TileId t, std::size_t port) const {
        return first_[t] + t + port;
    }
    std::size_t slot_count() const { return first_.back() + tile_count(); }
    /// Flat index of link port (t, port), port < degree(t).
    std::size_t link_slot(TileId t, std::size_t port) const {
        return first_[t] + port;
    }
    std::size_t link_slot_count() const { return first_.back(); }

private:
    std::vector<std::uint32_t> first_; ///< first link slot of each tile.
    std::vector<Port> ports_;          ///< [link_slot].
};

} // namespace snoc::router
