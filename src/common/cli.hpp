// Minimal command-line option parsing for the bench and example binaries.
//
// Supports `--flag`, `--key=value` and `--key value`; anything else is a
// positional argument.  Unknown flags are collected so callers can reject
// them with a usage string (benches accept a uniform set: --csv,
// --repeats=N, --seed=N, --jobs=N).
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace snoc {

class CliArgs {
public:
    CliArgs(int argc, char** argv);

    /// True if `--name` appeared (with or without a value).
    bool has(const std::string& name) const;

    /// Value of `--name=value` / `--name value`; nullopt if absent or bare.
    std::optional<std::string> value(const std::string& name) const;

    /// Typed accessors with defaults.
    std::uint64_t get_u64(const std::string& name, std::uint64_t fallback) const;
    double get_double(const std::string& name, double fallback) const;
    std::string get_string(const std::string& name, std::string fallback) const;

    const std::vector<std::string>& positional() const { return positional_; }
    const std::string& program() const { return program_; }

    /// Option names seen that are not in `known` (for usage errors).
    std::vector<std::string> unknown_options(
        const std::vector<std::string>& known) const;

private:
    std::string program_;
    std::map<std::string, std::optional<std::string>> options_;
    std::vector<std::string> positional_;
};

/// `--name N` of a bench: `fallback` when the flag is absent; a bare flag
/// or a value that is not a non-negative integer exits 2 naming the flag
/// (CliArgs::get_u64 throws instead, for the tools).
std::uint64_t flag_u64(const CliArgs& args, const std::string& name, std::uint64_t fallback);

/// Worker count for the parallel trial fan-out (common/parallel.hpp):
/// `--jobs N` beats the SNOC_JOBS environment variable beats the
/// hardware concurrency.  Always >= 1; `--jobs 1` forces serial runs and
/// `--jobs 0` exits 2 naming the flag.
std::size_t resolve_jobs(const CliArgs& args);

/// Telemetry export destinations (plain paths — this lives below the
/// telemetry layer so BenchOptions and ExperimentSpec can carry it
/// without a layering inversion).  Empty path = that exporter is off;
/// with everything off, tracing never attaches a sink and costs nothing.
struct TelemetryOptions {
    std::string trace_jsonl_out; ///< --trace-out: JSONL event dump.
    std::string chrome_out;      ///< --chrome-out: Chrome trace_event JSON.
    std::string heatmap_out;     ///< --heatmap-out: per-tile CSV (+ .links.csv).
    bool manifest{false};        ///< --manifest: write run manifests next to
                                 ///< every exported artifact.
    std::size_t grid_width{0};   ///< --grid-width: adds x,y heatmap columns.

    /// --postmortem-out: keep the newest --flight-capacity events of each
    /// trial (the flight recorder) and dump a
    /// `*.postmortem.jsonl` bundle there when a contract violation,
    /// invariant-auditor finding or deadlock-sentinel firing aborts the
    /// trial.  Cheap enough to leave on for real sweeps.
    std::string postmortem_out;
    /// --flight-capacity: the newest events the flight recorder keeps.
    std::size_t flight_capacity{4096};
    /// --heartbeat-out: stream JSONL progress heartbeats here (snoc_top
    /// tails this file).
    std::string heartbeat_out;
    /// --heartbeat-every: emit a heartbeat every N completed trials
    /// (cell and sweep boundaries always emit; 0 = boundaries only).
    std::size_t heartbeat_every{1};
    /// --metrics-out: write MetricsRegistry snapshots at sweep end —
    /// `<path>` gets the JSON exposition, `<path>.prom` the Prometheus
    /// text exposition.
    std::string metrics_out;
    /// Path of the --prof-out profile dump, echoed into run manifests so
    /// the profile stays attributable to the run that produced it (set by
    /// parse_bench_options; the dump itself is written by bench_util's
    /// atexit hook).
    std::string prof_out_ref;

    bool enabled() const {
        return !trace_jsonl_out.empty() || !chrome_out.empty() ||
               !heatmap_out.empty();
    }
    /// Command-line spellings ("--trace-out", ...) of every export
    /// destination that is set; empty when no export was requested.
    std::vector<std::string> requested_flags() const;
};

/// The uniform flag set every bench binary accepts, parsed in exactly one
/// place: --csv | --json (table output format), --repeats=N, --jobs=N,
/// --seed=N, plus the telemetry/profiling flags
/// (--trace-out=PATH, --chrome-out=PATH, --heatmap-out=PATH,
/// --grid-width=N, --manifest, --prof).  A bench with flags of its own
/// names them in `own_flags` (each takes a value) and reads them from its
/// own CliArgs.  Any other flag exits 2 naming it, so a typo is never
/// silently ignored.  So do a positional argument, a value after a switch
/// (--csv, --json, --manifest, --prof), a flag without its value, a
/// number that does not parse, and a 0 for --repeats, --jobs or
/// --flight-capacity.
struct BenchOptions {
    bool csv{false};
    bool json{false};
    std::size_t repeats{1};   ///< --repeats, else the bench's default (> 0).
    std::size_t jobs{1};      ///< resolved worker count (resolve_jobs).
    std::uint64_t seed{0};    ///< --seed base seed for the sweep.
    TelemetryOptions telemetry; ///< export destinations, off by default.
    bool prof{false};         ///< --prof: simulator wall-clock profile report.
    /// --prof-out: also dump the profile as deterministic-schema JSON
    /// (referenced from run manifests); implies --prof.
    std::string prof_out;
};

BenchOptions parse_bench_options(const CliArgs& args, std::size_t default_repeats,
                                 const std::vector<std::string>& own_flags = {});
BenchOptions parse_bench_options(int argc, char** argv, std::size_t default_repeats,
                                 const std::vector<std::string>& own_flags = {});

/// `--engine` and the SNOC_ENGINE environment variable used to pick one
/// of two round executors; one executor runs every trial now.  If either
/// is set, print one line per selector to stderr and exit with status 2
/// rather than silently ignore it.
void reject_engine_selector(const CliArgs& args, std::string_view program);

} // namespace snoc
