// The post-mortem bundle a flight recorder dumps when something goes
// wrong.  The flight recorder itself is a Telemetry built with a window
// (telemetry.hpp): it keeps the newest events in a preallocated ring,
// cheap enough to leave attached on production sweeps.
//
// When an InvariantAuditor violation, a DeadlockSentinel firing or any
// ContractViolation fires the post-mortem hook (common/postmortem.hpp),
// a PostmortemDumper writes the recorder's newest events into a
// `*.postmortem.jsonl` bundle: one header object (reason, metrics
// snapshot, manifest echo) followed by those events in the exact JSONL
// dialect snoc_trace already reads.
//
// Leaving a recorder attached is not free, and the ring is not the
// cost: any attached sink turns off GossipNetwork's known-duplicate
// shortcut (known_duplicates_exact, DESIGN.md §12), so a traced round
// enqueues and receives every duplicate copy that an untraced round
// counts at send time.  BM_GossipRoundRecorded against
// BM_GossipRoundNullSink, which attaches a sink that keeps nothing,
// isolates what the recorder itself costs.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <limits>
#include <string>
#include <utility>

#include "common/postmortem.hpp"
#include "core/metrics.hpp"
#include "telemetry/telemetry.hpp"

namespace snoc {

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

inline constexpr std::size_t kAllEvents = std::numeric_limits<std::size_t>::max();

/// Events a bundle of the recorder's newest `max_events` counts as
/// overwritten: every event recorded that the bundle does not hold.
inline std::size_t bundle_overwritten(const Telemetry& recorder, std::size_t max_events) {
    return recorder.total() - std::min(recorder.size(), max_events);
}

/// Serialise header + the newest `max_events` events the recorder holds;
/// every other event recorded counts as overwritten.  So a full log and a
/// window of `max_events` give the same bundle.  Deterministic for
/// identical recorder contents and info fields (the golden test depends
/// on it).
void write_postmortem_bundle(const Telemetry& recorder, const PostmortemInfo& info,
                             std::ostream& os, std::size_t max_events = kAllEvents);
void write_postmortem_bundle(const Telemetry& recorder, const PostmortemInfo& info,
                             const std::string& path,
                             std::size_t max_events = kAllEvents);

/// RAII arming of the post-mortem hook for the current thread: on the
/// first notify() in its scope, writes the bundle of the recorder's
/// newest `max_events` events to `path` and counts it in the metrics
/// registry; later notifies in the same scope are ignored (one bundle per
/// trial describes the first failure, which is the one that matters).
/// The recorder must outlive the dumper.
class PostmortemDumper {
public:
    PostmortemDumper(std::string path, const Telemetry& recorder,
                     PostmortemInfo info, std::size_t max_events = kAllEvents);

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
    const Telemetry& recorder_;
    std::size_t max_events_;
    PostmortemInfo info_;
    MetricsSource metrics_source_;
    bool dumped_{false};
    postmortem::ScopedHandler scope_; ///< must be last: arms the hook.
};

} // namespace snoc
