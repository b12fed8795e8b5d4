// Applies a FaultScenario to a running network: rolls the initial crash
// pattern, scrambles packets on links, forces buffer-overflow drops and
// jitters round durations.  All draws come from dedicated RNG streams so
// fault injection never perturbs the protocol's own randomness.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "fault/fault_model.hpp"
#include "noc/packet.hpp"
#include "noc/topology.hpp"

namespace snoc {

/// The crash pattern rolled for one run.
struct CrashState {
    std::vector<bool> dead_tiles;
    std::vector<bool> dead_links;

    std::size_t dead_tile_count() const;
    std::size_t dead_link_count() const;
};

class FaultInjector {
public:
    FaultInjector(FaultScenario scenario, const RngPool& pool);

    const FaultScenario& scenario() const { return scenario_; }

    /// Roll the initial crash pattern.  Tiles listed in `protected_tiles`
    /// never crash (the thesis replicates *slaves*, but a run where the
    /// unique master or the consumer die has no defined latency; sweep
    /// harnesses may protect those tiles and report completion rates for
    /// the unprotected case separately).
    CrashState roll_crashes(const Topology& topo,
                            const std::vector<TileId>& protected_tiles = {});

    /// Roll a crash pattern with *exactly* k dead tiles chosen uniformly
    /// among unprotected tiles (x-axis of Fig. 4-4 is a defect count).
    CrashState roll_exact_tile_crashes(const Topology& topo, std::size_t k,
                                       const std::vector<TileId>& protected_tiles = {});

    /// Roll whether this transmission is upset (probability p_upset)
    /// without touching any bytes.  Pair with apply_upset() or
    /// draw_bit_upset(): the engine shares one encoded wire image across
    /// a round's port transmissions and copies the bytes only when a
    /// transmission is actually upset, so the decision must come before
    /// the copy.
    bool upset_roll() { return upset_rng_.bernoulli(scenario_.p_upset); }

    /// The corruption half: scramble wire bytes in place (and count the
    /// upset).  Only call after upset_roll() returned true.  Under
    /// RandomBitError it flips exactly the bits draw_bit_upset() and
    /// flip_positions() would give for this upset.
    void apply_upset(std::vector<std::byte>& wire);

    /// A RandomBitError upset of an `nbits`-bit wire whose flip count is
    /// drawn and whose positions are not: they come from a stream keyed
    /// by the upset alone (flip_positions()), so a caller that can decide
    /// the upset's fate from `flips` never draws them and moves no other
    /// draw by skipping them.
    struct BitUpset {
        std::size_t nbits{0};
        std::size_t flips{0}; ///< K >= 1 flipped bits.
        std::uint64_t key{0}; ///< keys the stream of the positions.
    };

    /// apply_upset() without the bytes, for the RandomBitError model:
    /// count the upset and draw its flip count K (one upset-stream word,
    /// inverse CDF of Binomial(nbits, 2 / nbits) with the no-flip mass on
    /// K = 1).  Draw-for-draw what apply_upset() does on an nbits / 8-byte
    /// wire.
    BitUpset draw_bit_upset(std::size_t nbits);

    /// The bits `upset` flips, ascending, to `out`: a uniform
    /// K-subset of its wire (Floyd's algorithm), drawn from its own key.
    /// Pure: the same upset gives the same positions.
    static void flip_positions(const BitUpset& upset, std::vector<std::size_t>& out);

    /// Flip the given bits of `wire` (bit b is bit b % 8 of byte b / 8).
    static void flip_bits(std::vector<std::byte>& wire, std::span<const std::size_t> bits);

    /// True iff this reception should be dropped as a forced buffer
    /// overflow (probability p_overflow).
    bool overflow_drop();

    /// Duration of one round for a given tile: N(t_r, sigma_synchr * t_r),
    /// clamped to be positive.
    double round_duration(double t_r, TileId tile);

    /// Counters for reporting.
    std::size_t upsets_injected() const { return upsets_; }
    std::size_t overflows_forced() const { return overflows_; }

private:
    /// The inverse CDF of one wire size's flip count: above[j] is
    /// P(K > j + 1) * 2^64, cut where that rounds to 0.
    struct FlipCountLaw {
        std::size_t nbits{0};
        std::vector<std::uint64_t> above;
    };
    const FlipCountLaw& flip_count_law(std::size_t nbits);
    BitUpset next_bit_upset(std::size_t nbits);

    FaultScenario scenario_;
    RngStream crash_rng_;
    RngStream upset_rng_;
    RngStream overflow_rng_;
    RngStream synchr_rng_;
    /// Upset i's positions are RngPool::stream("fault/upset-positions", i):
    /// the stream keyed derive_seed(positions_key_, i).
    std::uint64_t positions_key_;
    /// One law per wire size seen; a run sends a handful of sizes.
    std::vector<FlipCountLaw> flip_laws_;
    std::size_t last_law_{0}; ///< where the last lookup hit.
    std::vector<std::size_t> positions_; ///< apply_upset()'s scratch.
    std::size_t upsets_{0};
    std::size_t overflows_{0};
};

} // namespace snoc
