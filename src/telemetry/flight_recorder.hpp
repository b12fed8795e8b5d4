// The always-on flight recorder: a fixed-capacity ring-buffer TraceSink
// cheap enough to leave attached in production runs, plus the post-mortem
// bundle it dumps when something goes wrong.
//
// Telemetry (telemetry.hpp) keeps *everything* — per-round series,
// per-tile heatmaps, the verbatim log — which is what you want for a
// figure run and exactly what you cannot afford on a multi-hour sweep.
// FlightRecorder keeps only the newest events in a preallocated ring:
// record() is one array store plus an index increment, O(1) with no
// allocation after construction, so the overhead of leaving it attached
// is within noise of running untraced (BM_GossipRoundRecorded guards
// this).  When an InvariantAuditor violation, a DeadlockSentinel firing
// or any ContractViolation fires the post-mortem hook
// (common/postmortem.hpp), a PostmortemDumper drains the ring into a
// `*.postmortem.jsonl` bundle: one header object (reason, metrics
// snapshot, manifest echo) followed by the last N events in the exact
// JSONL dialect snoc_trace already reads.
//
// Multi-producer recordings: `lane(s)` exposes one ring per producer
// thread so parallel producers record without cross-thread contention;
// drain() then merges lanes deterministically — ascending round, ties
// broken by lane index then intra-lane order.  A default recorder has a
// single lane and behaves as a plain ring.
//
// Concurrency model (DESIGN.md §16): deliberately lock-free and
// atomic-free.  Each lane is single-writer by contract (one producer),
// and drain()/size()/postmortem dumps only run after the producers have
// joined, which publishes every lane write before the merger reads it.
// There is therefore nothing for a
// mutex or an atomic to protect, and record() stays one store + one
// increment (test_concurrency_stress hammers this contract under TSan).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/postmortem.hpp"
#include "core/metrics.hpp"
#include "sim/trace.hpp"

namespace snoc {

class FlightRecorder final : public TraceSink {
public:
    /// `capacity` newest events are kept per lane; older ones are
    /// overwritten (and counted, so the bundle says what it lost).
    explicit FlightRecorder(std::size_t capacity, std::size_t lanes = 1);

    /// Records into lane 0 — the single-producer path every backend's
    /// set_trace_sink uses.
    void record(const TraceEvent& event) override;

    /// The sink for one producer's private lane.  Lanes never share
    /// state, so parallel producers may record concurrently; drain()
    /// restores the canonical order.
    TraceSink& lane(std::size_t lane);

    std::size_t capacity() const { return capacity_; }
    std::size_t lane_count() const { return lanes_.size(); }

    /// Events currently held (all lanes; <= capacity * lanes).
    std::size_t size() const;
    /// Events overwritten since the last clear (all lanes).
    std::size_t dropped() const;
    /// Running per-kind totals over *every* event ever recorded — the
    /// ring forgets old events, the totals do not.  Summed across lanes
    /// at query time; each lane counts privately so concurrent writers
    /// never share a cache line, let alone a counter.
    std::vector<std::size_t> kind_totals() const;

    /// The retained events in deterministic order: ascending round, ties
    /// broken by lane index, then intra-lane insertion order.  With one
    /// lane this is plain insertion order (rounds are monotone anyway).
    std::vector<TraceEvent> drain() const;

    /// Forget everything (retry loops re-record an attempt from scratch).
    void clear();

private:
    struct Lane final : TraceSink {
        void record(const TraceEvent& event) override;
        std::size_t capacity{0};
        std::size_t next{0};     ///< ring write index.
        std::size_t dropped{0};  ///< overwritten events.
        std::vector<TraceEvent> ring; ///< grows to capacity, then wraps.
        std::vector<std::size_t> totals; ///< [kind], this lane, all time.
    };

    std::size_t capacity_;
    std::vector<Lane> lanes_;
};

/// Everything the bundle header records beyond the events themselves.
struct PostmortemInfo {
    std::string reason;     ///< hook cause ("invariant", "deadlock-sentinel"...).
    std::string detail;     ///< detector-formatted message.
    std::string experiment; ///< spec name / sweep-cell label, if any.
    std::string backend;    ///< backend name, if known.
    std::uint64_t seed{0};
    bool has_metrics{false};
    NetworkMetrics metrics; ///< live counters at dump time, when reachable.
};

/// Serialise header + drained events.  Deterministic for identical
/// recorder contents and info fields (the golden test depends on it).
void write_postmortem_bundle(const FlightRecorder& recorder,
                             const PostmortemInfo& info, std::ostream& os);
void write_postmortem_bundle(const FlightRecorder& recorder,
                             const PostmortemInfo& info,
                             const std::string& path);

/// RAII arming of the post-mortem hook for the current thread: on the
/// first notify() in its scope, writes the bundle to `path` and counts it
/// in the metrics registry; later notifies in the same scope are ignored
/// (one bundle per trial describes the first failure, which is the one
/// that matters).  The recorder must outlive the dumper.
class PostmortemDumper {
public:
    PostmortemDumper(std::string path, const FlightRecorder* recorder,
                     PostmortemInfo info);
    /// nullptr recorder => dumper stays disarmed (postmortems not requested).
    static const FlightRecorder* disarmed() { return nullptr; }

    bool dumped() const { return dumped_; }
    const std::string& path() const { return path_; }

    /// Where the live NetworkMetrics come from.  The source is called
    /// when the dumper dumps, so a backend that publishes its counters
    /// only while it runs is read at the moment of failure; a source
    /// that returns nullptr (or none at all) leaves the bundle without
    /// metrics.  The source must stay callable for the dumper's lifetime.
    using MetricsSource = std::function<const NetworkMetrics*()>;
    void set_metrics_source(MetricsSource source) { metrics_source_ = std::move(source); }

private:
    std::string path_;
    const FlightRecorder* recorder_;
    PostmortemInfo info_;
    MetricsSource metrics_source_;
    bool dumped_{false};
    postmortem::ScopedHandler scope_; ///< must be last: arms the hook.
};

} // namespace snoc
