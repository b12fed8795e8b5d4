// Network topologies (Fig. 3-2): the fully-connected graph of the
// theoretical analysis and the 2-D mesh the NoC actually uses, plus the
// composite shapes of Chapter 5 (mesh-of-meshes with a central router).
//
// A Topology is a concrete adjacency structure over directed links; the
// gossip engine only needs "who are my neighbours" plus stable link ids
// for fault injection and packet accounting.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/expect.hpp"
#include "common/types.hpp"

namespace snoc {

/// One directed link from `from` to `to`.
struct LinkEnd {
    TileId from{0};
    TileId to{0};

    friend bool operator==(const LinkEnd&, const LinkEnd&) = default;
};

/// Compass direction of a grid port: North is y - 1, East x + 1, South
/// y + 1, West x - 1.
enum class Dir : std::uint8_t { North, East, South, West };

/// A grid tile's coordinates and its output port (index into
/// neighbours(t)) toward each in-grid neighbour, resolved once when the
/// grid is built so a routing decision needs no division and no scan.
struct GridTile {
    static constexpr std::uint8_t kNoPort = 0xFF; ///< past the grid edge.
    std::uint32_t x{0};
    std::uint32_t y{0};
    std::array<std::uint8_t, 4> port{kNoPort, kNoPort, kNoPort, kNoPort};

    std::uint8_t toward(Dir d) const { return port[static_cast<std::size_t>(d)]; }
};

class Topology {
public:
    /// --- Named builders -------------------------------------------------
    /// w×h 2-D mesh, row-major numbering, 4-neighbour (Fig. 3-2b).
    static Topology mesh(std::size_t width, std::size_t height);
    /// Fully connected graph on n nodes (Fig. 3-2a).
    static Topology fully_connected(std::size_t n);
    /// w×h torus (mesh with wrap-around links) — extension topology.
    static Topology torus(std::size_t width, std::size_t height);
    /// Build from an explicit edge list (undirected edges; both directions
    /// are created).  Used by the Chapter 5 composite architectures.
    static Topology from_edges(std::size_t n, const std::vector<LinkEnd>& undirected_edges,
                               std::string name = "custom");

    /// --- Queries ---------------------------------------------------------
    std::size_t node_count() const { return neighbours_.size(); }
    std::size_t link_count() const { return links_.size(); }
    const std::string& name() const { return name_; }

    /// Outgoing neighbour tiles of `t` (order is stable across runs).
    const std::vector<TileId>& neighbours(TileId t) const {
        SNOC_EXPECT(t < neighbours_.size());
        return neighbours_[t];
    }
    /// Directed link ids leaving `t`, parallel to neighbours(t).
    const std::vector<LinkId>& out_links(TileId t) const {
        SNOC_EXPECT(t < out_links_.size());
        return out_links_[t];
    }
    /// Endpoints of a directed link.
    const LinkEnd& link(LinkId id) const;

    /// Mesh-only helpers (throw for non-grid topologies).
    bool is_grid() const { return width_ > 0; }
    std::size_t width() const;
    std::size_t height() const;
    const GridTile& grid_tile(TileId t) const {
        SNOC_EXPECT(is_grid());
        SNOC_EXPECT(t < node_count());
        return grid_[t];
    }
    std::size_t x_of(TileId t) const { return grid_tile(t).x; }
    std::size_t y_of(TileId t) const { return grid_tile(t).y; }
    TileId at(std::size_t x, std::size_t y) const {
        SNOC_EXPECT(is_grid());
        SNOC_EXPECT(x < width_ && y < height_);
        return static_cast<TileId>(y * width_ + x);
    }
    /// Manhattan distance between two tiles of a grid.
    std::size_t manhattan(TileId a, TileId b) const;

    /// True if every node can reach every other through links whose ids
    /// are not in `dead_links` and nodes not in `dead_tiles` — used to
    /// check whether crashes have partitioned the NoC ("entire regions of
    /// the NoC are isolated").
    bool connected_without(const std::vector<bool>& dead_tiles,
                           const std::vector<bool>& dead_links) const;

private:
    Topology() = default;
    void add_directed_link(TileId from, TileId to);
    /// Fill grid_ once the grid's links exist.
    void index_grid();

    std::string name_;
    std::size_t width_{0};
    std::size_t height_{0};
    std::vector<std::vector<TileId>> neighbours_;
    std::vector<std::vector<LinkId>> out_links_;
    std::vector<LinkEnd> links_;
    std::vector<GridTile> grid_; ///< [tile], grids only.
};

} // namespace snoc
