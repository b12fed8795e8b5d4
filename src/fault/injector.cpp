#include "fault/injector.hpp"

#include <algorithm>
#include <cmath>

#include "common/expect.hpp"
#include "common/prof.hpp"

namespace snoc {

std::size_t CrashState::dead_tile_count() const {
    return static_cast<std::size_t>(
        std::count(dead_tiles.begin(), dead_tiles.end(), true));
}

std::size_t CrashState::dead_link_count() const {
    return static_cast<std::size_t>(
        std::count(dead_links.begin(), dead_links.end(), true));
}

FaultInjector::FaultInjector(FaultScenario scenario, const RngPool& pool)
    : scenario_(scenario),
      crash_rng_(pool.stream("fault/crash")),
      upset_rng_(pool.stream("fault/upset")),
      overflow_rng_(pool.stream("fault/overflow")),
      synchr_rng_(pool.stream("fault/synchr")),
      positions_key_(derive_seed(pool.root_seed(), key_of("fault/upset-positions"))) {
    scenario_.validate();
}

CrashState FaultInjector::roll_crashes(const Topology& topo,
                                       const std::vector<TileId>& protected_tiles) {
    CrashState state;
    state.dead_tiles.assign(topo.node_count(), false);
    state.dead_links.assign(topo.link_count(), false);
    for (TileId t = 0; t < topo.node_count(); ++t) {
        const bool is_protected =
            std::find(protected_tiles.begin(), protected_tiles.end(), t) !=
            protected_tiles.end();
        if (!is_protected && crash_rng_.bernoulli(scenario_.p_tiles))
            state.dead_tiles[t] = true;
    }
    for (LinkId l = 0; l < topo.link_count(); ++l)
        if (crash_rng_.bernoulli(scenario_.p_links)) state.dead_links[l] = true;
    return state;
}

CrashState FaultInjector::roll_exact_tile_crashes(
    const Topology& topo, std::size_t k, const std::vector<TileId>& protected_tiles) {
    CrashState state;
    state.dead_tiles.assign(topo.node_count(), false);
    state.dead_links.assign(topo.link_count(), false);

    std::vector<TileId> candidates;
    for (TileId t = 0; t < topo.node_count(); ++t) {
        const bool is_protected =
            std::find(protected_tiles.begin(), protected_tiles.end(), t) !=
            protected_tiles.end();
        if (!is_protected) candidates.push_back(t);
    }
    SNOC_EXPECT(k <= candidates.size());
    // Partial Fisher-Yates: pick k distinct victims.
    for (std::size_t i = 0; i < k; ++i) {
        const auto j = i + static_cast<std::size_t>(crash_rng_.below(candidates.size() - i));
        std::swap(candidates[i], candidates[j]);
        state.dead_tiles[candidates[i]] = true;
    }
    // Links still crash independently (usually p_links == 0 in this mode).
    for (LinkId l = 0; l < topo.link_count(); ++l)
        if (crash_rng_.bernoulli(scenario_.p_links)) state.dead_links[l] = true;
    return state;
}

// The RandomBitError law over an n-bit wire: each bit flips independently
// with p_b = 2/n, and an upset that flipped nothing flips one uniformly
// chosen bit instead.  Expected flips ~ 2 models a burst-free DSM noise
// event (crosstalk glitch on a couple of wires) while keeping
// P[packet scrambled] == p_upset exactly.  So the flip count K is
// Binomial(n, 2/n) with the K = 0 mass moved to K = 1, and given K the
// flipped bits are a uniform K-subset.  The sampler draws K from that law
// with one word and the subset only on request (flip_positions());
// tests/test_fault.cpp holds the chi-square oracles against the exact pmf
// and the literal per-bit model.
const FaultInjector::FlipCountLaw& FaultInjector::flip_count_law(std::size_t nbits) {
    // Consecutive upsets are mostly of one held message's copies.
    if (last_law_ < flip_laws_.size() && flip_laws_[last_law_].nbits == nbits)
        return flip_laws_[last_law_];
    for (last_law_ = 0; last_law_ < flip_laws_.size(); ++last_law_)
        if (flip_laws_[last_law_].nbits == nbits) return flip_laws_[last_law_];
    SNOC_EXPECT(nbits >= 8); // a wire is at least one byte, so p_b <= 1/4
    // pmf[k] = C(n, k) p^k q^(n-k), from pmf[0] = q^n by the ratio
    // (n - k) / (k + 1) * p / q, in long double: its 64-bit mantissa keeps
    // every tail below exact to far better than the 2^-64 of a threshold.
    // Beyond k = 64 the tail is below 10^-40 at every n.
    const long double n = static_cast<long double>(nbits);
    const long double p = 2.0L / n, q = 1.0L - p;
    const std::size_t kmax = std::min<std::size_t>(nbits, 64);
    std::vector<long double> pmf(kmax + 1);
    pmf[0] = std::pow(q, n);
    for (std::size_t k = 0; k < kmax; ++k)
        pmf[k + 1] = pmf[k] * (n - static_cast<long double>(k)) /
                     static_cast<long double>(k + 1) * p / q;
    // above[j] = P(K > j + 1): the binomial tail past j + 1, summed from
    // the small end.  K = 0 moved to K = 1 leaves every tail past 1 as is.
    std::vector<long double> tail(kmax + 2, 0.0L);
    for (std::size_t k = kmax + 1; k-- > 0;) tail[k] = tail[k + 1] + pmf[k];
    FlipCountLaw law{nbits, {}};
    for (std::size_t k = 2; k <= kmax; ++k) {
        const long double scaled = std::ldexp(tail[k], 64);
        if (scaled < 1.0L) break;
        law.above.push_back(scaled >= 0x1p64L ? ~std::uint64_t{0}
                                              : static_cast<std::uint64_t>(scaled));
    }
    flip_laws_.push_back(std::move(law));
    return flip_laws_.back();
}

FaultInjector::BitUpset FaultInjector::next_bit_upset(std::size_t nbits) {
    const FlipCountLaw& law = flip_count_law(nbits);
    // K = 1 + #{j : word < above[j]}; above[] falls, so stop at the first
    // threshold the word reaches.
    const std::uint64_t word = upset_rng_.bits();
    std::size_t flips = 1;
    for (const std::uint64_t threshold : law.above) {
        if (word >= threshold) break;
        ++flips;
    }
    return BitUpset{nbits, flips, derive_seed(positions_key_, upsets_++)};
}

FaultInjector::BitUpset FaultInjector::draw_bit_upset(std::size_t nbits) {
    SNOC_PROF("fault/upset");
    SNOC_EXPECT(scenario_.upset_model == UpsetModel::RandomBitError);
    return next_bit_upset(nbits);
}

void FaultInjector::flip_positions(const BitUpset& upset, std::vector<std::size_t>& out) {
    // Floyd's algorithm: for j = n - K .. n - 1 take a uniform t <= j, or
    // j itself if t is already taken.  Every K-subset comes out equally
    // likely, with exactly K draws (up to below()'s rare rejections).
    // Everything taken before is below j, so j goes last and `out` stays
    // sorted.
    RngStream rng(upset.key);
    out.clear();
    for (std::size_t j = upset.nbits - upset.flips; j < upset.nbits; ++j) {
        const auto t = static_cast<std::size_t>(rng.below(j + 1));
        const auto at = std::lower_bound(out.begin(), out.end(), t);
        if (at != out.end() && *at == t)
            out.push_back(j);
        else
            out.insert(at, t);
    }
}

void FaultInjector::apply_upset(std::vector<std::byte>& wire) {
    SNOC_PROF("fault/upset");
    SNOC_EXPECT(!wire.empty());
    switch (scenario_.upset_model) {
    case UpsetModel::RandomBitError:
        flip_positions(next_bit_upset(wire.size() * 8), positions_);
        flip_bits(wire, positions_);
        break;
    case UpsetModel::RandomErrorVector: {
        ++upsets_;
        // All 2^n - 1 non-null vectors equally likely: draw uniform random
        // bytes, redraw if the all-zero vector comes up.
        bool nonzero = false;
        while (!nonzero) {
            for (auto& b : wire) {
                const auto r = static_cast<std::uint8_t>(upset_rng_.bits() & 0xFF);
                b ^= static_cast<std::byte>(r);
                nonzero = nonzero || r != 0;
            }
        }
        break;
    }
    }
}

void FaultInjector::flip_bits(std::vector<std::byte>& wire, std::span<const std::size_t> bits) {
    for (const std::size_t bit : bits)
        wire[bit / 8] ^= static_cast<std::byte>(1u << (bit % 8));
}

bool FaultInjector::overflow_drop() {
    if (!overflow_rng_.bernoulli(scenario_.p_overflow)) return false;
    ++overflows_;
    return true;
}

double FaultInjector::round_duration(double t_r, TileId tile) {
    SNOC_EXPECT(t_r > 0.0);
    (void)tile; // one shared stream keeps draw order deterministic per run
    const double d = synchr_rng_.normal(t_r, scenario_.sigma_synchr * t_r);
    return std::max(d, 0.01 * t_r);
}

} // namespace snoc
