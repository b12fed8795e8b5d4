#include "noc/topology.hpp"

#include <cstdlib>
#include <utility>

#include "common/expect.hpp"

namespace snoc {

Topology::Topology(std::size_t nodes, std::size_t links, std::string name)
    : name_(std::move(name)), row_start_(nodes + 1, 0) {
    links_.reserve(links);
}

void Topology::add_directed_link(TileId from, TileId to) {
    SNOC_EXPECT(from < node_count());
    SNOC_EXPECT(to < node_count());
    SNOC_EXPECT(from != to);
    links_.push_back(LinkEnd{from, to});
}

void Topology::build_rows() {
    // A counting sort of the links by source tile, stable in link id.
    for (const LinkEnd& l : links_) ++row_start_[l.from + 1];
    for (std::size_t t = 1; t < row_start_.size(); ++t) row_start_[t] += row_start_[t - 1];
    neighbours_.resize(links_.size());
    out_links_.resize(links_.size());
    // row_start_[t] serves as tile t's cursor and ends at row t + 1's
    // start; shifting the array by one entry restores the row starts.
    for (LinkId id = 0; id < links_.size(); ++id) {
        const std::uint32_t slot = row_start_[links_[id].from]++;
        neighbours_[slot] = links_[id].to;
        out_links_[slot] = id;
    }
    for (std::size_t t = row_start_.size() - 1; t > 0; --t) row_start_[t] = row_start_[t - 1];
    row_start_[0] = 0;
}

Topology Topology::mesh(std::size_t width, std::size_t height) {
    SNOC_EXPECT(width > 0 && height > 0);
    Topology t(width * height, 2 * ((width - 1) * height + width * (height - 1)),
               std::to_string(width) + "x" + std::to_string(height) + " mesh");
    t.width_ = width;
    t.height_ = height;
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
    t.build_rows();
    t.index_grid();
    return t;
}

Topology Topology::fully_connected(std::size_t n) {
    SNOC_EXPECT(n > 1);
    Topology t(n, n * (n - 1), std::to_string(n) + "-node fully connected");
    for (std::size_t a = 0; a < n; ++a)
        for (std::size_t b = 0; b < n; ++b)
            if (a != b) t.add_directed_link(static_cast<TileId>(a), static_cast<TileId>(b));
    t.build_rows();
    return t;
}

Topology Topology::torus(std::size_t width, std::size_t height) {
    SNOC_EXPECT(width > 1 && height > 1);
    const std::size_t n = width * height;
    Topology t(n, 4 * n, std::to_string(width) + "x" + std::to_string(height) + " torus");
    t.width_ = width;
    t.height_ = height;
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
    t.build_rows();
    t.index_grid();
    return t;
}

void Topology::index_grid() {
    grid_.resize(node_count());
    for (std::size_t y = 0; y < height_; ++y) {
        for (std::size_t x = 0; x < width_; ++x) {
            const std::size_t id = y * width_ + x;
            GridTile& tile = grid_[id];
            tile.x = static_cast<std::uint32_t>(x);
            tile.y = static_cast<std::uint32_t>(y);
            // The first port that leads to the in-grid neighbour in each
            // direction; a torus's wrap-around ports are not directions.
            const auto find = [&](Dir d, std::size_t next) {
                const auto nbrs = neighbours(static_cast<TileId>(id));
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
    Topology t(n, 2 * undirected_edges.size(), std::move(name));
    for (const auto& e : undirected_edges) {
        t.add_directed_link(e.from, e.to);
        t.add_directed_link(e.to, e.from);
    }
    t.build_rows();
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

} // namespace snoc
