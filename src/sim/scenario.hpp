// Declarative experiment execution over the unified Interconnect layer.
//
// Every paper figure and every ablation is the same shape: a cartesian
// sweep over a few parameter axes (forward_p, TTL, defect count, p_upset,
// ...), a Monte-Carlo repeat per sweep cell, sometimes a retry when a
// TTL-tuned run dies before completing, and a table at the end.  Every
// bench sweep runs through this one harness.  ExperimentSpec
// describes the experiment; ScenarioRunner executes it through the
// shared ThreadPool (common/parallel.hpp) with deterministic per-trial
// seeding — results are bit-identical for any --jobs value — and returns
// per-cell RunReports plus aggregate stats ready for Table emission.
//
// Seeding contract (matches the hand-rolled loops it replaced, so table
// output is reproducible against old runs):
//   * repeat r of any cell starts from seed  base_seed + r;
//   * retry attempt a re-derives            seed + a * retry_seed_stride,
//     capped at max_attempts (the fix for the fig4_6 unbounded loop).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "core/interconnect.hpp"
#include "noc/traffic.hpp"
#include "sim/trace.hpp"

namespace snoc {

/// One sweep dimension: a named list of values (TTLs and defect counts
/// ride along as doubles; SweepPoint::index_of recovers list positions
/// for non-numeric axes such as architecture kinds).
struct SweepAxis {
    std::string name;
    std::vector<double> values;
};

/// The coordinates of one sweep cell — self-contained (owns its values),
/// so CellResults stay valid after the runner is gone.
struct SweepPoint {
    struct Coord {
        std::string name;
        std::size_t index{0}; ///< position in the axis' value list.
        double value{0.0};
    };
    std::vector<Coord> coords;

    /// Value of the named axis; ContractViolation if absent.
    double value(std::string_view axis) const;
    /// Index of the named axis' value in its list; ContractViolation if absent.
    std::size_t index_of(std::string_view axis) const;
    /// "p=0.5 crashes=2" — for captions and error messages.
    std::string label() const;
};

/// Aggregates over one cell's repeats.  Matching the bench convention
/// (and the old bench_util::average_of): runs that did not complete count
/// only against the completion rate; means are over completed runs.
struct CellStats {
    double completion_rate{0.0};
    double rounds{0.0};
    double seconds{0.0};
    double transmissions{0.0};
    double bits{0.0};
    double deliveries{0.0};
    double joules{0.0};
    std::size_t attempts{0}; ///< total attempts spent across all repeats.
    /// Invariant violations recorded by per-trial auditors, summed over
    /// every repeat (completed or not).  Stays 0 unless spec.audit is set.
    std::size_t audit_violations{0};
};

CellStats aggregate(const std::vector<RunReport>& reports);

struct CellResult {
    SweepPoint point;
    std::vector<RunReport> reports; ///< one per repeat, in repeat order.
    CellStats stats;
};

/// A declarative experiment: backend kind + sweep axes + repeat/seed/retry
/// policy.  Exactly one of `trial` (arbitrary per-seed measurement, e.g.
/// an app deployment) or `backend` + `trace` (declarative Interconnect
/// run) must be set.
struct ExperimentSpec {
    std::string name;

    std::vector<SweepAxis> axes; ///< cartesian product; empty = 1 cell.
    std::size_t repeats{1};
    std::uint64_t base_seed{0};
    Round max_rounds{3000};

    /// Retry-on-incomplete policy: an incomplete run is re-tried with a
    /// re-derived seed up to max_attempts times in total.  The default
    /// (1) disables retries; there is deliberately no "retry forever".
    std::size_t max_attempts{1};
    std::uint64_t retry_seed_stride{100};

    std::size_t jobs{0}; ///< trial fan-out workers; 0 = default_jobs().

    /// Attach a fresh InvariantAuditor to every backend-flavour trial
    /// (each trial owns its own auditor, so parallel trials never share
    /// one) and report violation counts through
    /// RunReport::audit_violations / CellStats::audit_violations.  No-op
    /// for the `trial` flavour, which owns its backend construction.
    bool audit{false};

    /// Telemetry exports (see common/cli.hpp).  When any destination is
    /// set, every trial runs with a private Telemetry recorder attached
    /// (backend flavour: via set_trace_sink; trial flavour: as the sink
    /// argument), its per-kind totals land in RunReport::trace_counts,
    /// and each trial's recording is exported under a per-trial name —
    /// the exact configured path for a single (cell, repeat), with a
    /// `_c<cell>_r<repeat>` suffix once the sweep has more than one
    /// trial.  --manifest adds one run manifest per trial next to its
    /// artifacts.
    TelemetryOptions telemetry;

    /// Arbitrary trial body: must derive all randomness from `seed`.  The
    /// runner's recorder (nullptr when telemetry is off) is handed in for
    /// the trial to attach wherever its network lives.
    std::function<RunReport(const SweepPoint&, std::uint64_t seed,
                            TraceSink* sink)>
        trial;

    /// Declarative flavour: build a fresh backend per trial, run `trace`.
    std::function<std::unique_ptr<Interconnect>(const SweepPoint&,
                                                std::uint64_t seed)>
        backend;
    std::function<TrafficTrace(const SweepPoint&)> trace;
};

class ProgressSink;

class ScenarioRunner {
public:
    explicit ScenarioRunner(ExperimentSpec spec);

    const ExperimentSpec& spec() const { return spec_; }

    /// The sweep cells in row-major order (first axis slowest).
    std::vector<SweepPoint> cells() const;

    /// Watch the sweep make progress (telemetry/heartbeat.hpp): called
    /// once per completed trial with cumulative counts, once more per
    /// completed cell and at sweep end.  Pure observer — attaching one
    /// never changes results.  Not owned; must outlive run(); nullptr
    /// detaches.  Runs with --heartbeat-out additionally stream through
    /// an internal HeartbeatWriter; both sinks see every update.
    void set_progress_sink(ProgressSink* sink) { progress_ = sink; }

    /// Execute every (cell, repeat) trial across the thread pool and
    /// aggregate.  Deterministic: identical results for any jobs value.
    std::vector<CellResult> run();

    /// Cross-trial event aggregation: one row per cell, one column per
    /// TraceEventKind, values summed over the cell's repeats.  Requires
    /// the sweep to have run with telemetry attached (trace_counts
    /// stamped); rows without recordings are all zero.
    static Table telemetry_table(const std::vector<CellResult>& cells);

private:
    RunReport run_trial(const SweepPoint& point, std::size_t cell,
                        std::size_t repeat, bool single_trial) const;

    ExperimentSpec spec_;
    ProgressSink* progress_{nullptr};
};

} // namespace snoc
