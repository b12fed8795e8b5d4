// Applies a FaultScenario to a running network: rolls the initial crash
// pattern, scrambles packets on links, forces buffer-overflow drops and
// jitters round durations.  All draws come from dedicated RNG streams so
// fault injection never perturbs the protocol's own randomness.
#pragma once

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

    /// Possibly scramble a packet in flight (probability p_upset).
    /// Returns true iff the packet was corrupted.
    bool maybe_upset(Packet& packet);

    /// The gate half of maybe_upset: roll whether this transmission is
    /// upset without touching any bytes.  Pair with apply_upset() — the
    /// engine shares one encoded wire image across a round's port
    /// transmissions and copies the bytes only when a transmission is
    /// actually upset, so the decision must come before the copy.
    /// Draw-for-draw identical to maybe_upset()'s gate.
    bool upset_roll();

    /// The corruption half: scramble wire bytes in place (and count the
    /// upset).  Only call after upset_roll() returned true.
    void apply_upset(std::vector<std::byte>& wire);

    /// apply_upset() without the bytes, for the RandomBitError model:
    /// count the upset and write which of a wire's `nbits` bits it flips
    /// to `out`, ascending.  Draw-for-draw identical to apply_upset() on
    /// an nbits / 8-byte wire, which flips exactly these bits.
    void sample_flips(std::size_t nbits, std::vector<std::size_t>& out);

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
    FaultScenario scenario_;
    RngStream crash_rng_;
    RngStream upset_rng_;
    RngStream overflow_rng_;
    RngStream synchr_rng_;
    std::size_t upsets_{0};
    std::size_t overflows_{0};
};

} // namespace snoc
