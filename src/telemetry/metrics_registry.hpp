// Live metrics registry: typed counters, gauges and histograms that every
// layer can cheaply bump while a run is in flight, snapshotted on demand
// as deterministic JSON or Prometheus text exposition.
//
// NetworkMetrics (core/metrics.hpp) is a *result*: per-trial counters
// owned by one backend instance, reset per run, reported in artifacts.
// The registry is *observability*: process-wide totals across every
// trial, cell and retry of a sweep, readable at any moment by the
// heartbeat stream and snoc_top without touching backend internals.
// The two deliberately do not share a taxonomy — registry entries are
// namespaced by producer (engine_*, router_*, trial-level) so a packet
// counted by the dense engine is never double-counted by the runner.
//
// The registry is an X-macro table, like every other registry in this
// codebase (trace kinds, backends, flow control): enumerator, kind, wire
// name and help string live in one list, and snoc_lint cross-checks that
// every entry has at least one emit site (`MetricId::<Name>` outside
// this header) and appears in both golden expositions.  Adding a metric
// without wiring it up fails the lint, not a code review.
//
// Concurrency: all cells are relaxed atomics.  Trials run concurrently
// on ThreadPool workers and the heartbeat thread reads while they write;
// relaxed is enough because the registry carries monotone totals for
// human eyes, not synchronization.  Snapshots are not atomic across
// metrics — a reader may see trial N's rounds before its delivery count
// — which is fine for a progress display and spelled out here so nobody
// builds an invariant on top.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>

namespace snoc {

/// The single source of truth for registry metrics: kind, enumerator,
/// wire name (Prometheus-legal, also the JSON key) and help text.
/// snoc_lint parses this list — keep entries one per line.
#define SNOC_METRIC_LIST(X)                                                    \
    X(counter, EngineRoundsTotal, "snoc_engine_rounds_total",                  \
      "Gossip rounds executed by the dense engine")                            \
    X(counter, RouterPacketsCreatedTotal, "snoc_router_packets_created_total", \
      "Packets injected by the router core")                                   \
    X(counter, RouterPacketsTransmittedTotal,                                  \
      "snoc_router_packets_transmitted_total",                                 \
      "Link traversals performed by the router core")                          \
    X(counter, RouterPacketsDeliveredTotal,                                    \
      "snoc_router_packets_delivered_total",                                   \
      "First-time deliveries by the router core")                              \
    X(counter, RouterCrashDropsTotal, "snoc_router_crash_drops_total",         \
      "Packets sunk into crashed tiles by the router core")                    \
    X(counter, RouterTtlExpiredTotal, "snoc_router_ttl_expired_total",         \
      "Packets garbage-collected at TTL zero by the router core")              \
    X(counter, TrialsTotal, "snoc_trials_total",                               \
      "Monte-Carlo trials completed (including failed attempts)")              \
    X(counter, TrialRetriesTotal, "snoc_trial_retries_total",                  \
      "Trial attempts beyond the first (reseeded retries)")                    \
    X(counter, CellsTotal, "snoc_cells_total",                                 \
      "Sweep cells completed")                                                 \
    X(counter, SweepsTotal, "snoc_sweeps_total",                               \
      "Scenario sweeps completed")                                             \
    X(counter, PostmortemsTotal, "snoc_postmortems_total",                     \
      "Post-mortem bundles written by armed flight recorders")                 \
    X(counter, HeartbeatsTotal, "snoc_heartbeats_total",                       \
      "Heartbeat records emitted by progress sinks")                           \
    X(counter, FlightEventsOverwrittenTotal,                                   \
      "snoc_flight_events_overwritten_total",                                  \
      "Trace events the flight recorder rings overwrote")                      \
    X(gauge, ActiveTrials, "snoc_active_trials",                               \
      "Trials currently executing on worker threads")                          \
    X(gauge, LastSweepCells, "snoc_last_sweep_cells",                          \
      "Cell count of the most recently started sweep")                         \
    X(histogram, TrialRounds, "snoc_trial_rounds",                             \
      "Rounds executed per completed trial")                                   \
    X(histogram, TrialDeliveries, "snoc_trial_deliveries",                     \
      "Messages delivered per completed trial")

enum class MetricKind : std::uint8_t { Counter, Gauge, Histogram };

enum class MetricId : std::uint8_t {
#define SNOC_METRIC_ENUM(kind, name, wire, help) name,
    SNOC_METRIC_LIST(SNOC_METRIC_ENUM)
#undef SNOC_METRIC_ENUM
};

struct MetricDesc {
    MetricKind kind;
    const char* wire; ///< Prometheus metric name; also the JSON key.
    const char* help;
};

inline constexpr MetricDesc kMetricDescs[] = {
#define SNOC_METRIC_DESC(kind, name, wire, help)                               \
    MetricDesc{MetricKind::kind_tag_##kind, wire, help},
#define kind_tag_counter Counter
#define kind_tag_gauge Gauge
#define kind_tag_histogram Histogram
    SNOC_METRIC_LIST(SNOC_METRIC_DESC)
#undef kind_tag_counter
#undef kind_tag_gauge
#undef kind_tag_histogram
#undef SNOC_METRIC_DESC
};

inline constexpr std::size_t kMetricCount = std::size(kMetricDescs);

// Mirror of the trace-kind static_assert: force a conscious audit of
// emit sites, goldens and snoc_lint whenever the table changes.
static_assert(kMetricCount == 17,
              "SNOC_METRIC_LIST changed: update this count, add an emit "
              "site, and refresh the exposition goldens");

constexpr const MetricDesc& metric_desc(MetricId id) {
    return kMetricDescs[static_cast<std::size_t>(id)];
}

/// Shared histogram bucket ladder (powers of two, then +Inf).  One ladder
/// for every histogram keeps the exposition schema flat and the goldens
/// stable; rounds and delivery counts both live comfortably in it.
inline constexpr std::uint64_t kHistogramBounds[] = {
    1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096, 16384, 65536,
};
inline constexpr std::size_t kHistogramBucketCount =
    std::size(kHistogramBounds) + 1; ///< trailing +Inf bucket.

class MetricsRegistry {
public:
    MetricsRegistry();

    /// The process-wide registry every producer publishes into.
    static MetricsRegistry& global();

    /// Counters and gauges: monotone bump / explicit set.
    void inc(MetricId id, std::uint64_t delta = 1);
    void dec(MetricId id, std::uint64_t delta = 1); ///< gauges only.
    void set(MetricId id, std::uint64_t value);     ///< gauges only.
    std::uint64_t value(MetricId id) const;

    /// Histograms: record one sample.
    void observe(MetricId id, std::uint64_t sample);
    std::uint64_t histogram_count(MetricId id) const;
    std::uint64_t histogram_sum(MetricId id) const;
    /// Cumulative count for bucket index (Prometheus `le` semantics).
    std::uint64_t histogram_bucket(MetricId id, std::size_t bucket) const;

    /// Zero everything (tests; never during a live run).
    void reset();

    /// Deterministic snapshots: metrics in declaration order, fixed
    /// formatting, byte-identical for identical registry contents.
    void write_json(std::ostream& os) const;
    void write_json(const std::string& path) const;
    void write_prometheus(std::ostream& os) const;
    void write_prometheus(const std::string& path) const;

private:
    struct Histogram {
        std::atomic<std::uint64_t> buckets[kHistogramBucketCount];
        std::atomic<std::uint64_t> sum{0};
        std::atomic<std::uint64_t> count{0};
    };

    std::atomic<std::uint64_t> scalars_[kMetricCount];
    Histogram histograms_[kMetricCount]; ///< sparse: only histogram ids used.
};

} // namespace snoc
