// The sparse-activity round executor (ROADMAP item 1, in the spirit of
// Graphite's event-driven NoC scheduler).  The lockstep GossipNetwork
// walks every tile in every phase of every round, so cost scales with
// mesh *area* even when almost nothing is happening — the late gossip
// tail, crashed regions and low-p sweeps of Fig. 4-4/4-5 spend most of
// their cycles visiting idle tiles.  EventEngine executes the exact same
// round semantics while touching only:
//
//   * tiles with pending arrivals (the in-flight ring already buckets
//     events by round — it IS the round-bucketed event queue);
//   * tiles on the active list (non-empty send buffer: something to age
//     and something to forward);
//   * tiles hosting IP cores (an IP may act in any round);
//   * per-tile clocks only when a draw is owed (sigma_synchr > 0) or a
//     clock-scale island exists; otherwise local time is analytic.
//
// Equivalence is bit-exact, not approximate: every global RNG draw
// (overflow, upset, clock jitter) happens in the same serial order as the
// lockstep engine, and per-tile streams only ever advance from work on
// that tile.  test_engine_equivalence runs both engines over every
// scenario shape and requires NetworkMetrics, trace counts and elapsed
// time to match field-for-field.
//
// Sharding: the mesh is split into `shards` contiguous ascending tile
// strips run on the shared ThreadPool (common/parallel.hpp).  Parallel
// phases only touch per-tile / per-shard state; everything global
// (injector draws, ring appends, metric vectors, trace emission) runs in
// short serial passes in canonical order — ascending shard order, which
// equals ascending tile order for ANY strip count.  That is the whole
// proof that results are byte-identical at any --jobs value: per-shard
// buffers concatenate to the same sequence no matter where the strip
// boundaries fall.  See DESIGN.md §12.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "core/engine.hpp"

namespace snoc {

class EventEngine {
public:
    /// `shards` requests that many tile strips (clamped to [1, tiles]).
    EventEngine(GossipNetwork& net, std::size_t shards);

    /// Snapshot post-on_start state: active tiles, core placement, knower
    /// counts, eviction baseline, clock regime.  Called exactly once by
    /// GossipNetwork::ensure_started; idempotent.
    void bootstrap();
    bool bootstrapped() const { return bootstrapped_; }

    /// Execute one full gossip round (the event-mode body of
    /// GossipNetwork::step; the caller has already ensure_started()).
    void step();

    /// O(shards): true iff no live tile holds a rumor.
    bool no_active_tiles() const;
    /// O(1): live tiles that ever held `id` (lockstep's tiles_knowing).
    std::size_t tiles_knowing(const MessageId& id) const;
    /// Matches clocks_.elapsed() bit-for-bit: analytic accumulation when
    /// no draws/islands exist, the real clock vector otherwise.
    double elapsed_seconds() const;
    std::size_t shard_count() const { return shards_.size(); }

    /// The active-set invariant (audited): active lists hold exactly the
    /// live tiles with non-empty send buffers, each once, ascending.
    bool active_set_consistent() const;

private:
    /// One pending delivery that survived the serial receive pass.
    struct Work {
        TileId dest{0};
        std::uint32_t seq{0}; ///< arrival order within the round's bucket.
        GossipNetwork::Arrival arrival;
    };
    /// One planned transmission out of the parallel forward pass; the
    /// serial pass replays these through enqueue_transmission in
    /// canonical order (so upset draws, skew checks, ring appends and
    /// metric vectors see the exact lockstep sequence).  `message` points
    /// into the sender's send buffer, which nothing touches between the
    /// two passes.
    struct Plan {
        TileId from{0};
        TileId to{0};
        LinkId link{0};
        const HeldMessage* message{nullptr};
    };
    struct Shard {
        /// Live tiles with non-empty send buffers, ascending, unique.
        std::vector<TileId> active;
        /// Tiles whose buffer went empty -> non-empty this phase; merged
        /// into `active` at the next sync point.
        std::vector<TileId> newly_active;
        /// Live tiles hosting an IP core (static after bootstrap).
        std::vector<TileId> cores;
        // --- per-round scratch (capacity persists across rounds) -------
        std::vector<Work> arrivals;
        std::vector<Plan> plans;
        std::vector<TraceEvent> events;
        std::vector<MessageId> unicasts;
        std::vector<MessageId> inserted;
        NetworkMetrics delta; ///< scalar counters only; vectors stay empty.
        std::size_t evictions{0};
    };

    void receive_phase();
    void age_phase();
    void compute_phase();
    void forward_phase();
    void clock_phase();

    std::size_t shard_of(TileId t) const;
    /// Run fn(shard) for every shard, fanned out over the shared
    /// ThreadPool when shards > 1.  The caller participates (and can
    /// finish every shard alone if the pool is saturated by outer trial
    /// parallelism), so nesting inside run_trials cannot deadlock.
    void run_sharded(const std::function<void(std::size_t)>& fn);
    /// A sink wired to `sh`'s buffers: parallel phases write only here.
    GossipNetwork::StepSink shard_sink(Shard& sh);
    /// Canonical serial merge order over shards.  Ascending strips mean
    /// ascending tiles for any shard count; every serial pass that folds
    /// per-shard results into global state iterates via this helper.
    std::size_t shard_merge_index(std::size_t s) const;
    /// Fold one shard's scalar counter delta into net_.metrics_.
    void merge_delta(NetworkMetrics& delta);
    /// Flush buffered trace events / unicasts / knower increments /
    /// eviction counts of every shard, in canonical order.
    void merge_shard_effects();
    void merge_activations();

    GossipNetwork& net_;
    std::size_t requested_shards_;
    std::vector<Shard> shards_;
    bool bootstrapped_{false};

    /// sigma_synchr > 0 (per-tile duration draws owed every round) or a
    /// clock-scale island exists (skew between domains becomes non-zero):
    /// run the lockstep advance loop.  Otherwise local clocks are uniform
    /// and analytic: skew == 0, elapsed accumulates t_r per round.
    bool dense_clocks_{false};
    double elapsed_accum_{0.0};

    /// Live tiles that ever held a given rumor (exact: every successful
    /// insert is one new knower; crashes only roll at start).
    std::unordered_map<MessageId, std::size_t> knowers_;

    /// Cumulative send-buffer evictions observed through sinks (plus the
    /// bootstrap baseline) vs. how much has been folded into
    /// metrics_.overflow_drops — replicating the lockstep age-phase fold
    /// (and its deliberate sub-round staleness) without the O(N) scan.
    std::size_t evictions_seen_{0};
    std::size_t evictions_folded_{0};

    /// Round-bucket scratch for the serial receive pass.
    std::vector<TileId> backlog_touched_;
};

} // namespace snoc
