// The always-on flight recorder: a fixed-capacity ring-buffer TraceSink
// cheap enough to leave attached in production runs, plus the post-mortem
// bundle it dumps when something goes wrong.
//
// Telemetry (telemetry.hpp) keeps *everything* — per-round series,
// per-tile heatmaps, the verbatim log — which is what you want for a
// figure run and exactly what you cannot afford on a multi-hour sweep.
// FlightRecorder keeps only the newest events in a preallocated ring:
// record() is one array store plus an index increment, O(1) with no
// allocation after construction.  Leaving it attached is still not free:
// BM_GossipRoundRecorded / BM_GossipRound read 1.43, 1.35 and 1.25 on
// 4x4, 8x8 and 16x16 meshes, and 1.72, 1.17 and 1.12 once the forward
// phase drew its port coins as masks (BENCH_engine.json
// `flight_recorder_overhead`), and the ring is not the cause.  Any
// attached sink turns off GossipNetwork's known-duplicate shortcut
// (known_duplicates_exact, DESIGN.md §12), so a recorded round enqueues
// and receives every duplicate copy that an untraced round counts at
// send time.  ROADMAP item 11 says how that could be mended.  When an
// InvariantAuditor violation, a DeadlockSentinel firing
// or any ContractViolation fires the post-mortem hook
// (common/postmortem.hpp), a PostmortemDumper drains the ring into a
// `*.postmortem.jsonl` bundle: one header object (reason, metrics
// snapshot, manifest echo) followed by the last N events in the exact
// JSONL dialect snoc_trace already reads.
//
// Concurrency model (DESIGN.md §16): deliberately lock-free and
// atomic-free.  The recorder is single-writer by contract (one trial
// records into its own recorder), and drain()/size()/postmortem dumps
// read it only from that thread or after it has joined.  There is
// therefore nothing for a mutex or an atomic to protect, and record()
// stays one store + one increment.
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
    /// The `capacity` newest events are kept; older ones are overwritten
    /// (and counted, so the bundle says what it lost).
    explicit FlightRecorder(std::size_t capacity);

    void record(const TraceEvent& event) override;

    std::size_t capacity() const { return capacity_; }
    /// Events currently held (<= capacity).
    std::size_t size() const { return ring_.size(); }
    /// Events overwritten since the last clear.
    std::size_t dropped() const { return dropped_; }
    /// Running per-kind totals over *every* event ever recorded — the
    /// ring forgets old events, the totals do not.
    const std::vector<std::size_t>& kind_totals() const { return totals_; }

    /// The retained events, oldest first.
    std::vector<TraceEvent> drain() const;

    /// Forget everything (retry loops re-record an attempt from scratch).
    void clear();

private:
    std::size_t capacity_;
    std::size_t next_{0};    ///< ring write index once it has wrapped.
    std::size_t dropped_{0}; ///< overwritten events.
    std::vector<TraceEvent> ring_;    ///< grows to capacity, then wraps.
    std::vector<std::size_t> totals_; ///< [kind], all time.
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
