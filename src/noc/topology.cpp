#include "noc/topology.hpp"

#include <cstdlib>
#include <queue>

#include "common/expect.hpp"

namespace snoc {

void Topology::add_directed_link(TileId from, TileId to) {
    SNOC_EXPECT(from < neighbours_.size());
    SNOC_EXPECT(to < neighbours_.size());
    SNOC_EXPECT(from != to);
    const auto id = static_cast<LinkId>(links_.size());
    links_.push_back(LinkEnd{from, to});
    neighbours_[from].push_back(to);
    out_links_[from].push_back(id);
}

Topology Topology::mesh(std::size_t width, std::size_t height) {
    SNOC_EXPECT(width > 0 && height > 0);
    Topology t;
    t.name_ = std::to_string(width) + "x" + std::to_string(height) + " mesh";
    t.width_ = width;
    t.height_ = height;
    const std::size_t n = width * height;
    t.neighbours_.resize(n);
    t.out_links_.resize(n);
    for (std::size_t y = 0; y < height; ++y) {
        for (std::size_t x = 0; x < width; ++x) {
            const auto id = static_cast<TileId>(y * width + x);
            // Port order matches Fig. 3-4's four output ports: N, E, S, W.
            if (y > 0) t.add_directed_link(id, static_cast<TileId>(id - width));
            if (x + 1 < width) t.add_directed_link(id, static_cast<TileId>(id + 1));
            if (y + 1 < height) t.add_directed_link(id, static_cast<TileId>(id + width));
            if (x > 0) t.add_directed_link(id, static_cast<TileId>(id - 1));
        }
    }
    t.index_grid();
    return t;
}

Topology Topology::fully_connected(std::size_t n) {
    SNOC_EXPECT(n > 1);
    Topology t;
    t.name_ = std::to_string(n) + "-node fully connected";
    t.neighbours_.resize(n);
    t.out_links_.resize(n);
    for (std::size_t a = 0; a < n; ++a)
        for (std::size_t b = 0; b < n; ++b)
            if (a != b) t.add_directed_link(static_cast<TileId>(a), static_cast<TileId>(b));
    return t;
}

Topology Topology::torus(std::size_t width, std::size_t height) {
    SNOC_EXPECT(width > 1 && height > 1);
    Topology t;
    t.name_ = std::to_string(width) + "x" + std::to_string(height) + " torus";
    t.width_ = width;
    t.height_ = height;
    const std::size_t n = width * height;
    t.neighbours_.resize(n);
    t.out_links_.resize(n);
    for (std::size_t y = 0; y < height; ++y) {
        for (std::size_t x = 0; x < width; ++x) {
            const auto id = static_cast<TileId>(y * width + x);
            const auto north = static_cast<TileId>(((y + height - 1) % height) * width + x);
            const auto east = static_cast<TileId>(y * width + (x + 1) % width);
            const auto south = static_cast<TileId>(((y + 1) % height) * width + x);
            const auto west = static_cast<TileId>(y * width + (x + width - 1) % width);
            t.add_directed_link(id, north);
            if (east != north) t.add_directed_link(id, east);
            if (south != north && south != east) t.add_directed_link(id, south);
            if (west != north && west != east && west != south) t.add_directed_link(id, west);
        }
    }
    t.index_grid();
    return t;
}

void Topology::index_grid() {
    grid_.resize(neighbours_.size());
    for (std::size_t y = 0; y < height_; ++y) {
        for (std::size_t x = 0; x < width_; ++x) {
            const std::size_t id = y * width_ + x;
            GridTile& tile = grid_[id];
            tile.x = static_cast<std::uint32_t>(x);
            tile.y = static_cast<std::uint32_t>(y);
            // The first port that leads to the in-grid neighbour in each
            // direction; a torus's wrap-around ports are not directions.
            const auto find = [&](Dir d, std::size_t next) {
                const auto& nbrs = neighbours_[id];
                for (std::size_t p = 0; p < nbrs.size(); ++p)
                    if (nbrs[p] == next) {
                        tile.port[static_cast<std::size_t>(d)] =
                            static_cast<std::uint8_t>(p);
                        return;
                    }
            };
            if (y > 0) find(Dir::North, id - width_);
            if (x + 1 < width_) find(Dir::East, id + 1);
            if (y + 1 < height_) find(Dir::South, id + width_);
            if (x > 0) find(Dir::West, id - 1);
        }
    }
}

Topology Topology::from_edges(std::size_t n, const std::vector<LinkEnd>& undirected_edges,
                              std::string name) {
    SNOC_EXPECT(n > 0);
    Topology t;
    t.name_ = std::move(name);
    t.neighbours_.resize(n);
    t.out_links_.resize(n);
    for (const auto& e : undirected_edges) {
        t.add_directed_link(e.from, e.to);
        t.add_directed_link(e.to, e.from);
    }
    return t;
}

const LinkEnd& Topology::link(LinkId id) const {
    SNOC_EXPECT(id < links_.size());
    return links_[id];
}

std::size_t Topology::width() const {
    SNOC_EXPECT(is_grid());
    return width_;
}

std::size_t Topology::height() const {
    SNOC_EXPECT(is_grid());
    return height_;
}

std::size_t Topology::manhattan(TileId a, TileId b) const {
    const auto dx = static_cast<long>(x_of(a)) - static_cast<long>(x_of(b));
    const auto dy = static_cast<long>(y_of(a)) - static_cast<long>(y_of(b));
    return static_cast<std::size_t>(std::labs(dx) + std::labs(dy));
}

bool Topology::connected_without(const std::vector<bool>& dead_tiles,
                                 const std::vector<bool>& dead_links) const {
    SNOC_EXPECT(dead_tiles.size() == node_count());
    SNOC_EXPECT(dead_links.size() == link_count());
    // BFS from the first live tile over live links / tiles.
    TileId start = kNoTile;
    std::size_t live = 0;
    for (TileId t = 0; t < node_count(); ++t) {
        if (!dead_tiles[t]) {
            if (start == kNoTile) start = t;
            ++live;
        }
    }
    if (live <= 1) return true;

    std::vector<bool> seen(node_count(), false);
    std::queue<TileId> frontier;
    frontier.push(start);
    seen[start] = true;
    std::size_t reached = 1;
    while (!frontier.empty()) {
        const TileId cur = frontier.front();
        frontier.pop();
        const auto& links = out_links_[cur];
        const auto& nbrs = neighbours_[cur];
        for (std::size_t i = 0; i < nbrs.size(); ++i) {
            const TileId next = nbrs[i];
            if (dead_links[links[i]] || dead_tiles[next] || seen[next]) continue;
            seen[next] = true;
            ++reached;
            frontier.push(next);
        }
    }
    return reached == live;
}

} // namespace snoc
