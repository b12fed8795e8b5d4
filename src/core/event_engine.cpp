#include "core/event_engine.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <functional>

#include "common/annotations.hpp"
#include "common/expect.hpp"
#include "common/parallel.hpp"
#include "common/prof.hpp"
#include "telemetry/metrics_registry.hpp"

namespace snoc {

EventEngine::EventEngine(GossipNetwork& net, std::size_t shards)
    : net_(net), requested_shards_(shards == 0 ? 1 : shards) {}

std::size_t EventEngine::shard_of(TileId t) const {
    // Contiguous ascending strips: shard s owns { t : floor(t*S/n) == s }.
    return static_cast<std::size_t>(t) * shards_.size() / net_.tiles_.size();
}

std::size_t EventEngine::shard_merge_index(std::size_t s) const {
    return s; // canonical merge order: ascending strips. [mutation-point:shard-order]
}

void EventEngine::bootstrap() {
    if (bootstrapped_) return;
    bootstrapped_ = true;
    const std::size_t n = net_.tiles_.size();
    SNOC_EXPECT(n > 0);
    shards_.resize(std::min(requested_shards_, n));
    for (TileId t = 0; t < n; ++t) {
        const auto& buffer = net_.tiles_[t].send_buffer;
        // The lockstep age fold sums cumulative eviction counters over
        // every tile, dead or alive; match its baseline exactly.
        evictions_seen_ += buffer.overflow_drops();
        if (net_.crash_state_.dead_tiles[t]) continue;
        Shard& sh = shards_[shard_of(t)];
        if (net_.tiles_[t].core) sh.cores.push_back(t);
        if (!buffer.empty()) sh.active.push_back(t);
        // known() is a superset of the held messages (ids survive ageing
        // and eviction) — exactly the knows() predicate tiles_knowing
        // counts.  Iteration order is irrelevant for a counter map.
        for (const MessageId& id : buffer.known()) ++knowers_[id];
    }
    evictions_folded_ = net_.sendbuf_overflow_snapshot_;
    bool scaled = false;
    for (double s : net_.clock_scale_)
        if (s > 1.0) scaled = true;
    dense_clocks_ = net_.injector_.scenario().sigma_synchr > 0.0 || scaled;
    elapsed_accum_ = net_.clocks_.elapsed();
}

// ---------------------------------------------------------------------------
// Shard fan-out.  run_trials() is unsuitable here: its completion barrier
// waits for every *helper job* to execute, and an engine sharding inside a
// trial that is itself running on a pool worker could then deadlock (all
// workers blocked in barriers, helper jobs stuck behind them in the
// queue).  This batch instead counts *shards*: the caller participates,
// can finish every shard alone if the pool is saturated, and late-waking
// helpers find the counter exhausted and exit without running anything.
namespace {
struct ShardBatch {
    ShardBatch(std::function<void(std::size_t)> f, std::size_t n)
        : fn(std::move(f)), total(n) {}

    const std::function<void(std::size_t)> fn; ///< immutable after construction.
    const std::size_t total;
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> done{0};
    Mutex mutex;
    CondVar cv;
    std::exception_ptr error SNOC_GUARDED_BY(mutex);

    void work() {
        for (;;) {
            const std::size_t s =
                next.fetch_add(1, std::memory_order_relaxed); // relaxed[claim-counter]
            if (s >= total) return;
            try {
                fn(s);
            } catch (...) {
                LockGuard lock(mutex);
                if (!error) error = std::current_exception();
            }
            if (done.fetch_add(1, std::memory_order_acq_rel) + 1 == total) {
                LockGuard lock(mutex);
                cv.notify_all();
            }
        }
    }
};
} // namespace

void EventEngine::run_sharded(const std::function<void(std::size_t)>& fn) {
    const std::size_t total = shards_.size();
    if (total == 1) {
        fn(0);
        return;
    }
    auto batch = std::make_shared<ShardBatch>(fn, total);
    const std::size_t helpers = std::min(total - 1, ThreadPool::shared().size());
    for (std::size_t h = 0; h < helpers; ++h)
        ThreadPool::shared().submit([batch] { batch->work(); });
    batch->work();
    {
        UniqueLock lock(batch->mutex);
        while (batch->done.load(std::memory_order_acquire) != batch->total)
            batch->cv.wait(lock);
    }
    // All error writes happen strictly before the final `done` increment,
    // so this post-barrier read needs the lock only to satisfy the
    // guarded_by contract (it is uncontended by construction).
    std::exception_ptr error;
    {
        LockGuard lock(batch->mutex);
        error = batch->error;
    }
    if (error) std::rethrow_exception(error);
}

GossipNetwork::StepSink EventEngine::shard_sink(Shard& sh) {
    GossipNetwork::StepSink sink;
    sink.metrics = &sh.delta;
    sink.trace_buffer = &sh.events;
    sink.tracing = net_.trace_ != nullptr;
    sink.unicasts = &sh.unicasts;
    sink.inserted = &sh.inserted;
    sink.activated = &sh.newly_active;
    return sink;
}

void EventEngine::merge_delta(NetworkMetrics& delta) {
    NetworkMetrics& m = net_.metrics_;
    m.packets_sent += delta.packets_sent;
    m.bits_sent += delta.bits_sent;
    m.messages_created += delta.messages_created;
    m.deliveries += delta.deliveries;
    m.duplicates_ignored += delta.duplicates_ignored;
    m.crc_drops += delta.crc_drops;
    m.upsets_undetected += delta.upsets_undetected;
    m.overflow_drops += delta.overflow_drops;
    m.ttl_expired += delta.ttl_expired;
    m.crash_drops += delta.crash_drops;
    m.port_overflow_drops += delta.port_overflow_drops;
    m.packets_accepted += delta.packets_accepted;
    m.skew_deferrals += delta.skew_deferrals;
    m.fec_corrected += delta.fec_corrected;
    m.fec_uncorrectable += delta.fec_uncorrectable;
    delta = NetworkMetrics{};
}

void EventEngine::merge_shard_effects() {
    for (std::size_t i = 0; i < shards_.size(); ++i) {
        Shard& sh = shards_[shard_merge_index(i)];
        merge_delta(sh.delta);
        if (net_.trace_)
            for (const TraceEvent& ev : sh.events) net_.trace_->record(ev);
        sh.events.clear();
        for (const MessageId& id : sh.unicasts) net_.delivered_unicasts_.insert(id);
        sh.unicasts.clear();
        for (const MessageId& id : sh.inserted) ++knowers_[id];
        sh.inserted.clear();
        evictions_seen_ += sh.evictions;
        sh.evictions = 0;
    }
}

void EventEngine::merge_activations() {
    for (std::size_t i = 0; i < shards_.size(); ++i) {
        Shard& sh = shards_[shard_merge_index(i)];
        if (sh.newly_active.empty()) continue;
        // Activations arrive in ascending tile order (deliveries are
        // processed sorted by destination; cores iterate ascending), and
        // a 0 -> 1 transition means the tile was not on the list — so a
        // single in-place merge keeps `active` sorted and unique.
        const auto middle = static_cast<std::ptrdiff_t>(sh.active.size());
        sh.active.insert(sh.active.end(), sh.newly_active.begin(),
                         sh.newly_active.end());
        std::inplace_merge(sh.active.begin(), sh.active.begin() + middle,
                           sh.active.end());
        sh.newly_active.clear();
    }
}

// ---------------------------------------------------------------------------
// Phases.  Each mirrors its lockstep counterpart exactly; comments here
// only explain what is hoisted serial vs. fanned out (see the header and
// DESIGN.md §12 for the equivalence argument).

void EventEngine::receive_phase() {
    auto& bucket = net_.in_flight_[net_.round_ % GossipNetwork::kInFlightRing];
    if (bucket.empty()) return;
    net_.arrivals_scratch_.clear();
    std::swap(net_.arrivals_scratch_, bucket);
    backlog_touched_.clear();
    // Serial pass 1, in bucket order: everything that consumes the global
    // overflow stream or touches cross-shard structures (the ring, the
    // backlog counters) — crash drops, slow-clock deferrals, forced and
    // port-capacity overflows.  Survivors are routed to their owning
    // shard tagged with their bucket position.
    std::uint32_t seq = 0;
    for (auto& [dest, arrival] : net_.arrivals_scratch_) {
        ++seq;
        if (!net_.admit_arrival(dest, arrival)) continue;
        backlog_touched_.push_back(dest);
        shards_[shard_of(dest)].arrivals.push_back(
            Work{dest, seq, std::move(arrival)});
    }
    // Parallel pass 2: dedup, decode what carries bytes, and deliver.
    // Sorting by (destination, bucket position) keeps per-tile arrival
    // order identical to lockstep and makes the concatenated shard output
    // independent of the shard count.
    run_sharded([this](std::size_t s) {
        Shard& sh = shards_[s];
        std::sort(sh.arrivals.begin(), sh.arrivals.end(),
                  [](const Work& a, const Work& b) {
                      return a.dest != b.dest ? a.dest < b.dest : a.seq < b.seq;
                  });
        GossipNetwork::StepSink sink = shard_sink(sh);
        for (Work& w : sh.arrivals) net_.receive_arrival(w.dest, w.arrival, sink);
        sh.arrivals.clear();
        sh.evictions += sink.evictions;
    });
    merge_shard_effects();
    merge_activations();
    for (TileId t : backlog_touched_) net_.tiles_[t].inbox_backlog = 0;
}

void EventEngine::age_phase() {
    run_sharded([this](std::size_t s) {
        Shard& sh = shards_[s];
        const bool tracing = net_.trace_ != nullptr;
        std::vector<MessageId> expired;
        std::size_t w = 0;
        for (std::size_t r = 0; r < sh.active.size(); ++r) {
            const TileId t = sh.active[r];
            auto& buffer = net_.tiles_[t].send_buffer;
            if (net_.tile_active_this_round(t)) {
                expired.clear();
                sh.delta.ttl_expired +=
                    buffer.age_and_collect(tracing ? &expired : nullptr);
                for (const MessageId& id : expired) {
                    TraceEvent ev;
                    ev.round = net_.round_;
                    ev.kind = TraceEventKind::TtlExpired;
                    ev.tile = t;
                    ev.message = id;
                    sh.events.push_back(ev);
                }
            }
            // Ageing is the only way a buffer empties; drop the tile from
            // the active list the moment it holds nothing to forward.
            if (!buffer.empty()) sh.active[w++] = t;
        }
        sh.active.resize(w);
    });
    merge_shard_effects();
    // The lockstep fold adds this round's eviction delta (cumulative
    // counters minus the last snapshot) — deliberately stale by the part
    // of the round that runs after ageing.  evictions_seen_ advances at
    // the receive/compute merges, so the staleness matches exactly.
    net_.metrics_.overflow_drops += evictions_seen_ - evictions_folded_;
    evictions_folded_ = evictions_seen_;
}

void EventEngine::compute_phase() {
    run_sharded([this](std::size_t s) {
        Shard& sh = shards_[s];
        GossipNetwork::StepSink sink = shard_sink(sh);
        for (const TileId t : sh.cores) {
            if (!net_.tile_active_this_round(t)) continue;
            net_.core_round(t, sink);
        }
        sh.evictions += sink.evictions;
    });
    merge_shard_effects();
    merge_activations();
}

void EventEngine::forward_phase() {
    // Pass A (parallel): per-tile port gating.  Only the tile's own
    // stream is consumed, in the lockstep per-tile order.
    run_sharded([this](std::size_t s) {
        Shard& sh = shards_[s];
        for (const TileId t : sh.active) {
            if (!net_.tile_active_this_round(t)) continue;
            auto& tile = net_.tiles_[t];
            const auto& nbrs = net_.topology_.neighbours(t);
            const auto& links = net_.topology_.out_links(t);
            std::size_t budget = net_.forward_capacity_[t];
            const auto& msgs = tile.send_buffer.messages();
            const std::size_t offset =
                (budget >= msgs.size())
                    ? 0
                    : static_cast<std::size_t>(net_.round_) % msgs.size();
            for (std::size_t mi = 0; mi < msgs.size(); ++mi) {
                const HeldMessage& m = msgs[(mi + offset) % msgs.size()];
                if (budget == 0) break;
                if (net_.config_.stop_spread_on_delivery &&
                    net_.delivered_unicasts_.contains(m.id()))
                    continue;
                for (std::size_t i = 0; i < nbrs.size() && budget > 0; ++i) {
                    if (!net_.forward_rng_[t].bernoulli(net_.config_.forward_p))
                        continue;
                    if (net_.crash_state_.dead_links[links[i]]) continue;
                    if (net_.route_filter_[t] &&
                        !net_.route_filter_[t](*m.body, nbrs[i]))
                        continue;
                    sh.plans.push_back(Plan{t, nbrs[i], links[i], &m});
                    --budget;
                }
            }
        }
    });
    // Pass B (serial, canonical order): replay the planned transmissions
    // through enqueue_transmission so upset draws, skew checks, ring
    // appends, link counters and traces happen in the exact lockstep
    // sequence — ascending strips concatenate to ascending tiles.  Bytes
    // are materialised here, and only for upset transmissions.
    net_.upset_source_ = nullptr;
    for (std::size_t i = 0; i < shards_.size(); ++i) {
        Shard& sh = shards_[shard_merge_index(i)];
        for (const Plan& p : sh.plans)
            net_.enqueue_transmission(p.from, p.to, p.link, *p.message);
        sh.plans.clear();
    }
}

void EventEngine::clock_phase() {
    if (dense_clocks_) {
        net_.advance_clocks();
        return;
    }
    // No jitter draws owed and no clock-scale islands: every live clock
    // advances by exactly t_r, skew stays identically zero, and elapsed
    // time is the same addition sequence the lockstep loop performs
    // (accumulated, not multiplied, for bitwise-equal doubles).
    elapsed_accum_ += net_.clocks_.t_r();
}

void EventEngine::step() {
    net_.packets_this_round_ = 0;
    {
        SNOC_PROF("event/receive");
        receive_phase();
    }
    {
        SNOC_PROF("event/age");
        age_phase();
    }
    {
        SNOC_PROF("event/compute");
        compute_phase();
    }
    {
        SNOC_PROF("event/forward");
        forward_phase();
    }
    clock_phase();
    net_.metrics_.packets_per_round.push_back(net_.packets_this_round_);
    ++net_.round_;
    net_.metrics_.rounds = net_.round_;
    MetricsRegistry::global().inc(MetricId::EventEngineRoundsTotal);
    SNOC_CHECK(2, net_.ledger().balanced());
}

// ---------------------------------------------------------------------------

bool EventEngine::no_active_tiles() const {
    for (const Shard& sh : shards_)
        if (!sh.active.empty()) return false;
    return true;
}

std::size_t EventEngine::tiles_knowing(const MessageId& id) const {
    const auto it = knowers_.find(id);
    return it == knowers_.end() ? 0 : it->second;
}

double EventEngine::elapsed_seconds() const {
    return dense_clocks_ ? net_.clocks_.elapsed() : elapsed_accum_;
}

bool EventEngine::active_set_consistent() const {
    if (!bootstrapped_) return true;
    std::size_t listed = 0;
    for (std::size_t s = 0; s < shards_.size(); ++s) {
        const auto& active = shards_[s].active;
        for (std::size_t i = 0; i < active.size(); ++i) {
            const TileId t = active[i];
            if (i > 0 && active[i - 1] >= t) return false; // sorted, unique
            if (shard_of(t) != s) return false;            // owned strip
            if (net_.crash_state_.dead_tiles[t]) return false;
            if (net_.tiles_[t].send_buffer.empty()) return false;
        }
        listed += active.size();
    }
    // Completeness: every live tile with a non-empty buffer is listed.
    std::size_t expected = 0;
    for (TileId t = 0; t < net_.tiles_.size(); ++t)
        if (!net_.crash_state_.dead_tiles[t] &&
            !net_.tiles_[t].send_buffer.empty())
            ++expected;
    return listed == expected;
}

} // namespace snoc
