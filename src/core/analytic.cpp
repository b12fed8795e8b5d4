#include "core/analytic.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <utility>

#include "common/expect.hpp"

namespace snoc::analytic {

std::vector<double> informed_curve(std::size_t n, std::size_t rounds) {
    SNOC_EXPECT(n >= 1);
    std::vector<double> curve;
    curve.reserve(rounds + 1);
    const double nd = static_cast<double>(n);
    double informed = 1.0;
    curve.push_back(informed);
    for (std::size_t t = 0; t < rounds; ++t) {
        informed = nd - (nd - informed) * std::exp(-informed / nd);
        curve.push_back(informed);
    }
    return curve;
}

std::size_t rounds_to_reach(std::size_t n, double fraction) {
    SNOC_EXPECT(fraction > 0.0 && fraction <= 1.0);
    const double target = fraction * static_cast<double>(n);
    const double nd = static_cast<double>(n);
    double informed = 1.0;
    std::size_t t = 0;
    // The logistic recurrence converges to n but only asymptotically;
    // treat "within half a node" as everyone for fraction == 1.
    const double goal = (fraction == 1.0) ? nd - 0.5 : target;
    while (informed < goal) {
        informed = nd - (nd - informed) * std::exp(-informed / nd);
        ++t;
        SNOC_ENSURE(t < 10000);
    }
    return t;
}

double pittel_rounds(std::size_t n) {
    SNOC_EXPECT(n >= 2);
    const double nd = static_cast<double>(n);
    return std::log2(nd) + std::log(nd);
}

std::vector<std::size_t> simulate_push_gossip(std::size_t n, RngStream& rng,
                                              std::size_t max_rounds) {
    SNOC_EXPECT(n >= 2);
    std::vector<bool> informed(n, false);
    informed[0] = true;
    std::size_t count = 1;
    std::vector<std::size_t> curve{count};
    for (std::size_t round = 0; round < max_rounds && count < n; ++round) {
        std::vector<std::size_t> targets;
        targets.reserve(count);
        for (std::size_t i = 0; i < n; ++i) {
            if (!informed[i]) continue;
            // Choose a confidant uniformly among the other n-1 nodes.
            auto pick = static_cast<std::size_t>(rng.below(n - 1));
            if (pick >= i) ++pick;
            targets.push_back(pick);
        }
        for (std::size_t t : targets) {
            if (!informed[t]) {
                informed[t] = true;
                ++count;
            }
        }
        curve.push_back(count);
    }
    return curve;
}

namespace {

/// informed[k] of SpreadLaw for one crash set: `dead` tiles are never
/// informed and send nothing.  in_from[j] lists the tile at the far end of
/// every link into j, parallel links repeated.
std::vector<std::vector<double>> spread_given_crashes(
    const std::vector<std::vector<TileId>>& in_from, TileId source, std::size_t rounds,
    double q, std::uint32_t dead) {
    const std::size_t n = in_from.size();
    std::vector<std::vector<double>> law(rounds + 1, std::vector<double>(std::size_t{1} << n));
    law[0][std::size_t{1} << source] = 1.0;
    std::vector<std::pair<std::uint32_t, double>> subsets; // (newly informed, probability)
    for (std::size_t k = 1; k <= rounds; ++k) {
        const auto& before = law[k - 1];
        auto& after = law[k];
        for (std::uint32_t s = 0; s < before.size(); ++s) {
            if (before[s] == 0.0) continue;
            // Every live uninformed tile with c informed links into it is
            // informed with probability 1 - (1 - q)^c, independently.
            subsets.assign(1, {0u, before[s]});
            for (std::size_t j = 0; j < n; ++j) {
                const std::uint32_t bit = std::uint32_t{1} << j;
                if ((s | dead) & bit) continue;
                const auto c = std::count_if(in_from[j].begin(), in_from[j].end(),
                                             [s](TileId i) { return (s >> i) & 1u; });
                if (c == 0) continue;
                const double hit = 1.0 - std::pow(1.0 - q, static_cast<double>(c));
                const std::size_t half = subsets.size();
                for (std::size_t a = 0; a < half; ++a) {
                    const auto [set, pr] = subsets[a];
                    subsets.emplace_back(set | bit, pr * hit);
                    subsets[a].second = pr * (1.0 - hit);
                }
            }
            for (const auto& [set, pr] : subsets) after[s | set] += pr;
        }
    }
    return law;
}

} // namespace

std::vector<double> SpreadLaw::first_informed(TileId tile) const {
    SNOC_EXPECT(!informed.empty() &&
                tile < static_cast<std::size_t>(std::countr_zero(informed[0].size())));
    std::vector<double> out(informed.size(), 0.0);
    double known_before = 0.0;
    for (std::size_t k = 0; k < informed.size(); ++k) {
        double known = 0.0;
        for (std::size_t s = 0; s < informed[k].size(); ++s)
            if ((s >> tile) & 1u) known += informed[k][s];
        if (k > 0) out[k] = known - known_before;
        known_before = known;
    }
    out[0] = 1.0 - known_before;
    return out;
}

std::vector<double> SpreadLaw::final_count() const {
    SNOC_EXPECT(!informed.empty());
    const auto& last = informed.back();
    std::vector<double> out(static_cast<std::size_t>(std::countr_zero(last.size())) + 1, 0.0);
    for (std::size_t s = 0; s < last.size(); ++s)
        out[static_cast<std::size_t>(std::popcount(s))] += last[s];
    return out;
}

SpreadLaw exact_spread(const Topology& topology, TileId source, std::size_t rounds,
                       const GossipConfig& config, const FaultScenario& scenario) {
    config.validate();
    scenario.validate();
    const std::size_t n = topology.node_count();
    SNOC_EXPECT(n <= 16 && source < n);
    SNOC_EXPECT(scenario.sigma_synchr == 0.0);
    SNOC_EXPECT(scenario.p_overflow == 0.0);
    SNOC_EXPECT(scenario.p_links == 0.0);
    SNOC_EXPECT(scenario.p_tiles == 0.0 || n <= 10);
    SNOC_EXPECT(!config.stop_spread_on_delivery);
    SNOC_EXPECT(config.link_protection == LinkProtection::CrcDetect);
    std::vector<std::vector<TileId>> in_from(n);
    for (LinkId l = 0; l < topology.link_count(); ++l)
        in_from[topology.link(l).to].push_back(topology.link(l).from);
    for (const auto& links : in_from) SNOC_EXPECT(config.in_buffer_capacity >= links.size());

    const double q = config.forward_p * (1.0 - scenario.p_upset);
    SpreadLaw law;
    // Every crash set of the tiles other than the source, weighted by the
    // injector's independent per-tile roll; only the empty set when
    // p_tiles = 0.
    const std::uint32_t others = ((std::uint32_t{1} << n) - 1) & ~(std::uint32_t{1} << source);
    for (std::uint32_t dead = others;; dead = (dead - 1) & others) {
        const int crashed = std::popcount(dead);
        const double weight =
            std::pow(scenario.p_tiles, crashed) *
            std::pow(1.0 - scenario.p_tiles, static_cast<int>(n) - 1 - crashed);
        if (weight > 0.0) {
            auto given = spread_given_crashes(in_from, source, rounds, q, dead);
            if (law.informed.empty()) {
                law.informed.assign(rounds + 1, std::vector<double>(given[0].size(), 0.0));
            }
            for (std::size_t k = 0; k <= rounds; ++k)
                for (std::size_t s = 0; s < given[k].size(); ++s)
                    law.informed[k][s] += weight * given[k][s];
        }
        if (dead == 0) break;
    }
    return law;
}

} // namespace snoc::analytic
