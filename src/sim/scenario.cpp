#include "sim/scenario.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <iterator>
#include <memory>
#include <optional>
#include <string>

#include "check/invariant_auditor.hpp"
#include "common/annotations.hpp"
#include "common/expect.hpp"
#include "common/parallel.hpp"
#include "common/prof.hpp"
#include "common/stats.hpp"
#include "telemetry/export.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/heartbeat.hpp"
#include "telemetry/manifest.hpp"
#include "telemetry/metrics_registry.hpp"
#include "telemetry/telemetry.hpp"

namespace {

/// "out/run.jsonl" + (cell 2, repeat 0) -> "out/run_c2_r0.jsonl"; the
/// configured path is used verbatim when the sweep has a single trial.
std::string trial_path(const std::string& path, std::size_t cell,
                       std::size_t repeat, bool single_trial) {
    if (single_trial) return path;
    return snoc::tag_path(path, "_c" + std::to_string(cell) + "_r" +
                                    std::to_string(repeat));
}

} // namespace

namespace snoc {

double SweepPoint::value(std::string_view axis) const {
    for (const auto& c : coords)
        if (c.name == axis) return c.value;
    SNOC_EXPECT(false && "unknown sweep axis");
    return 0.0;
}

std::size_t SweepPoint::index_of(std::string_view axis) const {
    for (const auto& c : coords)
        if (c.name == axis) return c.index;
    SNOC_EXPECT(false && "unknown sweep axis");
    return 0;
}

std::string SweepPoint::label() const {
    std::string out;
    for (const auto& c : coords) {
        if (!out.empty()) out += ' ';
        out += c.name + '=' + format_number(c.value, 4);
    }
    return out;
}

CellStats aggregate(const std::vector<RunReport>& reports) {
    SNOC_PROF("scenario/aggregate");
    CellStats stats;
    if (reports.empty()) return stats;
    Accumulator rounds, seconds, transmissions, bits, deliveries, joules;
    std::size_t completed = 0;
    for (const RunReport& r : reports) {
        stats.attempts += r.attempts;
        stats.audit_violations += r.audit_violations;
        if (!r.completed) continue;
        ++completed;
        rounds.add(static_cast<double>(r.rounds));
        seconds.add(r.seconds);
        transmissions.add(static_cast<double>(r.transmissions));
        bits.add(static_cast<double>(r.bits));
        deliveries.add(static_cast<double>(r.deliveries));
        joules.add(r.joules);
    }
    stats.completion_rate =
        static_cast<double>(completed) / static_cast<double>(reports.size());
    if (completed > 0) {
        stats.rounds = rounds.mean();
        stats.seconds = seconds.mean();
        stats.transmissions = transmissions.mean();
        stats.bits = bits.mean();
        stats.deliveries = deliveries.mean();
        stats.joules = joules.mean();
    }
    return stats;
}

ScenarioRunner::ScenarioRunner(ExperimentSpec spec) : spec_(std::move(spec)) {
    SNOC_EXPECT(spec_.max_attempts >= 1);
    const bool has_trial = static_cast<bool>(spec_.trial);
    const bool has_backend =
        static_cast<bool>(spec_.backend) && static_cast<bool>(spec_.trace);
    SNOC_EXPECT(has_trial != has_backend &&
                "set exactly one of trial or backend+trace");
    for (const auto& axis : spec_.axes) SNOC_EXPECT(!axis.values.empty());
}

std::vector<SweepPoint> ScenarioRunner::cells() const {
    std::size_t n = 1;
    for (const auto& axis : spec_.axes) n *= axis.values.size();
    std::vector<SweepPoint> points;
    points.reserve(n);
    for (std::size_t cell = 0; cell < n; ++cell) {
        SweepPoint p;
        p.coords.resize(spec_.axes.size());
        // Row-major: the first axis varies slowest.
        std::size_t rem = cell;
        for (std::size_t a = spec_.axes.size(); a-- > 0;) {
            const auto& axis = spec_.axes[a];
            const std::size_t i = rem % axis.values.size();
            rem /= axis.values.size();
            p.coords[a] = {axis.name, i, axis.values[i]};
        }
        points.push_back(std::move(p));
    }
    return points;
}

RunReport ScenarioRunner::run_trial(const SweepPoint& point, std::size_t cell,
                                    std::size_t repeat,
                                    bool single_trial) const {
    const std::uint64_t seed0 =
        spec_.base_seed + static_cast<std::uint64_t>(repeat);
    const auto& t = spec_.telemetry;
    const bool record = t.enabled();
    const bool postmortem = !t.postmortem_out.empty();
    auto& registry = MetricsRegistry::global();
    registry.inc(MetricId::ActiveTrials);
    // The gauge must come back down on the exception path too (a
    // violation aborting a trial propagates out of this frame).
    struct ActiveGuard {
        MetricsRegistry& reg;
        ~ActiveGuard() { reg.dec(MetricId::ActiveTrials); }
    } active_guard{registry};

    RunReport report;
    // One recorder at most: the full log when an export is on, else the
    // flight recorder's window when post-mortems are on, else none.  A
    // bundle holds the newest flight_capacity events either way.
    std::optional<Telemetry> recorder;
    if (record)
        recorder.emplace();
    else if (postmortem)
        recorder.emplace(t.flight_capacity);
    std::string backend_name = "custom";
    for (std::size_t attempt = 0; attempt < spec_.max_attempts; ++attempt) {
        const std::uint64_t seed =
            seed0 + static_cast<std::uint64_t>(attempt) * spec_.retry_seed_stride;
        // A retried attempt starts from a clean recording: artifacts
        // describe the attempt that produced the reported run, not the
        // concatenation of every failed try.
        if (recorder) recorder->clear();
        SNOC_PROF("scenario/trial");
        // Construct the backend first (its name belongs in the bundle
        // header), then arm the post-mortem hook for exactly the scope
        // where detectors can fire: the run itself.
        std::unique_ptr<Interconnect> backend;
        if (spec_.backend) {
            backend = spec_.backend(point, seed);
            SNOC_ENSURE(backend != nullptr);
            backend_name = backend->name();
        }
        std::optional<PostmortemDumper> dumper;
        if (postmortem) {
            PostmortemInfo info;
            info.experiment = point.label().empty() ? spec_.name : point.label();
            info.backend = backend_name;
            info.seed = seed;
            dumper.emplace(trial_path(t.postmortem_out, cell, repeat, single_trial),
                           *recorder, std::move(info), t.flight_capacity);
            // Asked at dump time: a router adapter publishes its
            // counters only inside run().  The backend outlives the
            // dumper (declared first, destroyed last).
            if (backend)
                dumper->set_metrics_source(
                    [b = backend.get()] { return b->live_metrics(); });
        }
        TraceSink* sink = recorder ? &*recorder : nullptr;
        if (spec_.trial) {
            report = spec_.trial(point, seed, sink);
        } else {
            // Per-trial auditor: trials run in parallel, so the auditor
            // must be private to this trial; its violation count lands in
            // report.audit_violations (stamped by the adapter).
            check::InvariantAuditor auditor;
            if (spec_.audit) backend->set_auditor(&auditor);
            if (sink) backend->set_trace_sink(sink);
            report = backend->run(spec_.trace(point), spec_.max_rounds);
        }
        report.seed = seed;
        report.attempts = attempt + 1;
        if (report.completed) break;
    }

    registry.inc(MetricId::TrialsTotal);
    if (report.attempts > 1)
        registry.inc(MetricId::TrialRetriesTotal, report.attempts - 1);
    registry.observe(MetricId::TrialRounds, report.rounds);
    registry.observe(MetricId::TrialDeliveries, report.deliveries);
    if (postmortem)
        registry.inc(MetricId::FlightEventsOverwrittenTotal,
                     bundle_overwritten(*recorder, t.flight_capacity));
    if (!record) return report;

    const auto& totals = recorder->totals();
    report.trace_counts.assign(totals.begin(), totals.end());

    std::vector<std::string> artifacts;
    if (!t.trace_jsonl_out.empty()) {
        const auto path = trial_path(t.trace_jsonl_out, cell, repeat, single_trial);
        write_jsonl(*recorder, path);
        artifacts.push_back(path);
    }
    if (!t.chrome_out.empty()) {
        const auto path = trial_path(t.chrome_out, cell, repeat, single_trial);
        write_chrome_trace(*recorder, path);
        artifacts.push_back(path);
    }
    if (!t.heatmap_out.empty()) {
        const auto path = trial_path(t.heatmap_out, cell, repeat, single_trial);
        write_heatmap_csv(*recorder, path, t.grid_width);
        artifacts.push_back(path);
        const auto links = path + ".links.csv";
        write_link_csv(*recorder, links);
        artifacts.push_back(links);
    }
    if (t.manifest && !artifacts.empty()) {
        RunManifest manifest;
        manifest.program = spec_.name;
        manifest.experiment = point.label().empty() ? spec_.name : point.label();
        manifest.backend = backend_name;
        manifest.base_seed = report.seed;
        manifest.repeats = spec_.repeats;
        manifest.jobs = spec_.jobs;
        for (const auto& c : point.coords)
            manifest.config.emplace_back(c.name, format_number(c.value, 6));
        manifest.config.emplace_back("cell", std::to_string(cell));
        manifest.config.emplace_back("repeat", std::to_string(repeat));
        manifest.config.emplace_back("max_rounds",
                                     std::to_string(spec_.max_rounds));
        manifest.config.emplace_back("max_attempts",
                                     std::to_string(spec_.max_attempts));
        if (!t.prof_out_ref.empty())
            manifest.config.emplace_back("prof_out", t.prof_out_ref);
        manifest.artifacts = artifacts;
        write_manifest(manifest, manifest_path_for(artifacts.front()));
    }
    return report;
}

std::vector<CellResult> ScenarioRunner::run() {
    const auto points = cells();
    const std::size_t n_trials = points.size() * spec_.repeats;
    auto& registry = MetricsRegistry::global();
    registry.set(MetricId::LastSweepCells, points.size());

    std::optional<HeartbeatWriter> heartbeat;
    if (!spec_.telemetry.heartbeat_out.empty())
        heartbeat.emplace(spec_.telemetry.heartbeat_out,
                          spec_.telemetry.heartbeat_every);

    // Shared progress ledger the workers bump after each trial.  The
    // wall-clock readings here feed heartbeats only (observability, not
    // results — see the determinism allowlist); trial execution is
    // entirely independent of them.
    struct Progress {
        Mutex mutex;
        std::size_t trials_done SNOC_GUARDED_BY(mutex){0};
        std::size_t cells_done SNOC_GUARDED_BY(mutex){0};
        std::size_t retries SNOC_GUARDED_BY(mutex){0};
        std::vector<std::size_t> cell_remaining SNOC_GUARDED_BY(mutex);
        std::vector<std::chrono::steady_clock::time_point> cell_start
            SNOC_GUARDED_BY(mutex);
        std::vector<bool> cell_started SNOC_GUARDED_BY(mutex);
    } progress;
    const bool watching = heartbeat.has_value() || progress_ != nullptr;
    if (watching) {
        LockGuard lock(progress.mutex);
        progress.cell_remaining.assign(points.size(), spec_.repeats);
        progress.cell_start.resize(points.size());
        progress.cell_started.assign(points.size(), false);
    }
    const auto notify = [&](const ProgressUpdate& update) {
        if (heartbeat) heartbeat->update(update);
        if (progress_) progress_->update(update);
    };

    // Flatten (cell, repeat) onto the trial index so the whole sweep
    // shares one fan-out; results land in deterministic slots.
    const bool single_trial = n_trials == 1;
    auto reports = run_trials(
        n_trials,
        [&](std::uint64_t i) {
            const std::size_t cell = static_cast<std::size_t>(i) / spec_.repeats;
            const std::size_t repeat = static_cast<std::size_t>(i) % spec_.repeats;
            if (watching) {
                LockGuard lock(progress.mutex);
                if (!progress.cell_started[cell]) {
                    progress.cell_started[cell] = true;
                    progress.cell_start[cell] = std::chrono::steady_clock::now();
                }
            }
            RunReport report = run_trial(points[cell], cell, repeat, single_trial);
            if (watching) {
                LockGuard lock(progress.mutex);
                ++progress.trials_done;
                progress.retries += report.attempts - 1;
                ProgressUpdate update;
                update.experiment = spec_.name;
                update.cells_total = points.size();
                update.trials_total = n_trials;
                update.trials_done = progress.trials_done;
                update.retries = progress.retries;
                if (--progress.cell_remaining[cell] == 0) {
                    ++progress.cells_done;
                    update.cell_seconds =
                        std::chrono::duration<double>(
                            std::chrono::steady_clock::now() -
                            progress.cell_start[cell])
                            .count();
                }
                update.cells_done = progress.cells_done;
                notify(update);
            }
            return report;
        },
        spec_.jobs);

    std::vector<CellResult> results;
    results.reserve(points.size());
    for (std::size_t c = 0; c < points.size(); ++c) {
        CellResult cell;
        cell.point = points[c];
        const auto first =
            reports.begin() + static_cast<std::ptrdiff_t>(c * spec_.repeats);
        cell.reports.assign(
            std::make_move_iterator(first),
            std::make_move_iterator(first + static_cast<std::ptrdiff_t>(spec_.repeats)));
        cell.stats = aggregate(cell.reports);
        results.push_back(std::move(cell));
    }

    registry.inc(MetricId::CellsTotal, points.size());
    registry.inc(MetricId::SweepsTotal);
    if (watching) {
        ProgressUpdate update;
        update.experiment = spec_.name;
        update.cells_total = points.size();
        update.cells_done = points.size();
        update.trials_total = n_trials;
        update.trials_done = n_trials;
        LockGuard lock(progress.mutex);
        update.retries = progress.retries;
        update.sweep_done = true;
        notify(update);
    }
    if (!spec_.telemetry.metrics_out.empty()) {
        registry.write_json(spec_.telemetry.metrics_out);
        registry.write_prometheus(spec_.telemetry.metrics_out + ".prom");
    }
    return results;
}

Table ScenarioRunner::telemetry_table(const std::vector<CellResult>& cells) {
    std::vector<std::string> headers;
    if (!cells.empty())
        for (const auto& c : cells.front().point.coords) headers.push_back(c.name);
    for (std::size_t k = 0; k < kTraceEventKinds; ++k)
        headers.emplace_back(kTraceEventKindNames[k]);
    Table table(headers);
    for (const auto& cell : cells) {
        std::vector<std::string> row;
        for (const auto& c : cell.point.coords)
            row.push_back(format_number(c.value, 4));
        std::array<std::size_t, kTraceEventKinds> sums{};
        for (const RunReport& r : cell.reports)
            for (std::size_t k = 0; k < r.trace_counts.size() && k < sums.size(); ++k)
                sums[k] += r.trace_counts[k];
        for (const std::size_t s : sums) row.push_back(std::to_string(s));
        table.add_row(row);
    }
    return table;
}

} // namespace snoc
