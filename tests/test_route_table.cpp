// RouteTable exactness: every (tile, input port, destination) entry must
// equal what the policy names for that hop, filtered to ports that lead to
// a live tile over a live link — the per-hop computation the cycle-stepped
// router simulators made before the table memoised it.  Checked for every
// built-in policy and snoc_verify's cyclic-turn probe, on 3x3 and 5x5
// meshes, fault-free, with crashed tiles and with dead links.
#include "router/route_table.hpp"

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/probes.hpp"
#include "common/rng.hpp"
#include "fault/injector.hpp"
#include "noc/topology.hpp"
#include "router/policy.hpp"

namespace snoc::router {
namespace {

std::vector<std::unique_ptr<const RoutingPolicy>> every_policy() {
    std::vector<std::unique_ptr<const RoutingPolicy>> out;
    for (std::size_t k = 0; k < kPolicyKinds; ++k)
        out.push_back(make_policy(static_cast<PolicyKind>(k)));
    out.push_back(std::make_unique<analysis::CyclicTurnPolicy>());
    return out;
}

std::string name_of(const RoutingPolicy& policy) {
    return dynamic_cast<const analysis::CyclicTurnPolicy*>(&policy) != nullptr
               ? "cyclic-turn"
               : to_string(policy.kind());
}

struct Pattern {
    std::string name;
    CrashState crashes;
};

/// Fault-free; tiles crashed with probability 0.2; every third link dead
/// (and the last tile).
std::vector<Pattern> patterns(const Topology& topo) {
    const std::vector<bool> no_tiles(topo.node_count(), false);
    const std::vector<bool> no_links(topo.link_count(), false);
    std::vector<Pattern> out{{"none", {no_tiles, no_links}}};

    RngStream rng(splitmix64(20031));
    CrashState tiles{no_tiles, no_links};
    for (TileId t = 0; t < topo.node_count(); ++t)
        tiles.dead_tiles[t] = rng.bernoulli(0.2);
    EXPECT_GT(tiles.dead_tile_count(), 0U) << "p_tiles 0.2 crashed nothing";
    out.push_back({"p_tiles=0.2", tiles});

    CrashState links{no_tiles, no_links};
    for (LinkId l = 0; l < topo.link_count(); l += 3) links.dead_links[l] = true;
    links.dead_tiles[topo.node_count() - 1] = true;
    out.push_back({"dead links", links});
    return out;
}

/// The uncached route: the policy's candidates at `t` for a packet that
/// came in through `in_port`, filtered by live neighbour and live link.
std::vector<std::uint8_t> expected(const Topology& topo, const RoutingPolicy& policy,
                                   const CrashState& crashes, TileId t,
                                   std::size_t in_port, TileId dst) {
    const auto& nbrs = topo.neighbours(t);
    const TileId from = in_port < nbrs.size() ? nbrs[in_port] : kNoTile;
    std::vector<std::uint8_t> out;
    for (const std::uint8_t c :
         policy.candidates(topo, t, from, dst, crashes.dead_tiles))
        if (!crashes.dead_tiles[nbrs[c]] && !crashes.dead_links[topo.out_links(t)[c]])
            out.push_back(c);
    return out;
}

/// Every entry of `table` against expected(); the count of entries read.
std::size_t check_every_entry(const Topology& topo, RouteTable& table,
                              const CrashState& crashes, const std::string& what) {
    std::size_t checked = 0;
    for (TileId t = 0; t < topo.node_count(); ++t)
        for (std::size_t in = 0; in <= topo.neighbours(t).size(); ++in)
            for (TileId dst = 0; dst < topo.node_count(); ++dst) {
                const PortList& got = table.route(topo, t, in, dst);
                EXPECT_EQ(std::vector<std::uint8_t>(got.begin(), got.end()),
                          expected(topo, table.policy(), crashes, t, in, dst))
                    << what << " at tile " << t << " input " << in << " to " << dst;
                ++checked;
            }
    return checked;
}

TEST(RouteTable, EveryEntryEqualsTheFilteredPolicyRoute) {
    for (const std::size_t side : {3U, 5U}) {
        const Topology topo = Topology::mesh(side, side);
        for (const Pattern& pattern : patterns(topo)) {
            for (auto& policy : every_policy()) {
                const std::string what = std::to_string(side) + "x" +
                                         std::to_string(side) + " " + pattern.name +
                                         " " + name_of(*policy);
                RouteTable table(topo, std::move(policy));
                table.reset(pattern.crashes.dead_tiles, pattern.crashes.dead_links);
                // Twice: the second pass reads the filled entries.
                for (int pass = 0; pass < 2; ++pass)
                    EXPECT_GT(check_every_entry(topo, table, pattern.crashes, what),
                              0U);
            }
        }
    }
}

TEST(RouteTable, ResetRoutesUnderTheOtherPattern) {
    const Topology topo = Topology::mesh(5, 5);
    const auto grid = patterns(topo);
    for (auto& policy : every_policy()) {
        const std::string name = name_of(*policy);
        RouteTable table(topo, std::move(policy));
        // Fill every entry under one pattern, then switch to the next:
        // no entry of the old pattern may survive the reset.
        for (std::size_t i = 0; i <= grid.size(); ++i) {
            const Pattern& pattern = grid[i % grid.size()];
            table.reset(pattern.crashes.dead_tiles, pattern.crashes.dead_links);
            check_every_entry(topo, table, pattern.crashes,
                              pattern.name + " after a reset, " + name);
        }
    }
}

TEST(RouteTable, UnresetTableRoutesAsIfAllAlive) {
    const Topology topo = Topology::mesh(3, 3);
    const CrashState none{std::vector<bool>(topo.node_count(), false),
                          std::vector<bool>(topo.link_count(), false)};
    for (auto& policy : every_policy()) {
        const std::string name = name_of(*policy);
        RouteTable table(topo, std::move(policy));
        check_every_entry(topo, table, none, "never reset, " + name);
    }
}

} // namespace
} // namespace snoc::router
