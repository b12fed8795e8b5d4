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
      synchr_rng_(pool.stream("fault/synchr")) {
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

bool FaultInjector::maybe_upset(Packet& packet) {
    if (!upset_roll()) return false;
    apply_upset(packet.mutable_wire());
    return true;
}

bool FaultInjector::upset_roll() {
    return upset_rng_.bernoulli(scenario_.p_upset);
}

namespace {

/// The RandomBitError walk over an `nbits`-bit wire: flip(bit) for each
/// flipped bit, ascending.
///
/// e_1..e_n independent with small p_b = 2/n; conditioned on the packet
/// being upset at least one bit flips.  Expected flips ~ 2 models a
/// burst-free DSM noise event (crosstalk glitch on a couple of wires)
/// while keeping P[packet scrambled] == p_upset exactly.
///
/// Rather than one Bernoulli(p_b) draw per wire bit, jump straight to the
/// next flipped bit: the run of unflipped bits before it is Geometric(p_b),
/// sampled by inversion as floor(log u / log(1-p_b)) with u uniform in
/// (0, 1].  Same per-bit law, O(flips) draws: one uniform() per flip plus
/// the one that overshoots the wire.  tests/test_fault.cpp holds the
/// chi-square oracle against the per-bit reference.
template <typename Flip>
void walk_bit_errors(RngStream& rng, std::size_t nbits, Flip&& flip) {
    const double log_keep = std::log1p(-2.0 / static_cast<double>(nbits));
    std::size_t flips = 0;
    for (std::size_t bit = 0;; ++bit) {
        const double u = 1.0 - rng.uniform();
        const double gap = std::floor(std::log(u) / log_keep);
        // Compare as a double: a huge gap must not wrap in the cast.
        if (gap >= static_cast<double>(nbits - bit)) break;
        bit += static_cast<std::size_t>(gap);
        flip(bit);
        ++flips;
    }
    if (flips == 0) flip(static_cast<std::size_t>(rng.below(nbits)));
}

} // namespace

void FaultInjector::apply_upset(std::vector<std::byte>& wire) {
    SNOC_PROF("fault/upset");
    SNOC_EXPECT(!wire.empty());
    ++upsets_;
    switch (scenario_.upset_model) {
    case UpsetModel::RandomBitError:
        walk_bit_errors(upset_rng_, wire.size() * 8, [&wire](std::size_t bit) {
            wire[bit / 8] ^= static_cast<std::byte>(1u << (bit % 8));
        });
        break;
    case UpsetModel::RandomErrorVector: {
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

void FaultInjector::sample_flips(std::size_t nbits, std::vector<std::size_t>& out) {
    SNOC_PROF("fault/upset");
    SNOC_EXPECT(nbits > 0);
    SNOC_EXPECT(scenario_.upset_model == UpsetModel::RandomBitError);
    ++upsets_;
    out.clear();
    walk_bit_errors(upset_rng_, nbits, [&out](std::size_t bit) { out.push_back(bit); });
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
