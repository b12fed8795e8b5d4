// Shared harness pieces for the figure-regeneration benches.
//
// Every bench prints (a) the figure/table it regenerates, (b) an aligned
// ASCII table with the same rows/series the thesis plots, and (c) the same
// table as CSV (--csv) or JSON (--json) on request, for replotting.
// Flag parsing lives in common/cli.hpp (BenchOptions); sweep/repeat/retry
// execution lives in sim/scenario.hpp (ScenarioRunner), and every bench
// sweep runs through it: sweep() maps the uniform flags onto an
// ExperimentSpec, accumulate()/completion_pct() read a cell's reports
// back.  The rest is the two case-study app deployments and the Eq. 3
// shortcut.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "apps/fft2d_app.hpp"
#include "apps/master_slave_pi.hpp"
#include "check/invariant_auditor.hpp"
#include "common/cli.hpp"
#include "common/prof.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "core/engine.hpp"
#include "energy/energy.hpp"
#include "sim/backends.hpp"
#include "sim/scenario.hpp"

namespace snoc::bench {

namespace detail {
/// --prof-out destination for the atexit hook (std::atexit takes a plain
/// function pointer, so the path rides in a function-local static).
inline std::string& prof_out_path() {
    static std::string path;
    return path;
}
} // namespace detail

/// Parse the uniform bench flag set (--csv/--json/--repeats/--jobs/--seed
/// plus the telemetry exports and --prof/--prof-out).  --prof arms the
/// SNOC_PROF wall-clock scopes and prints the merged per-phase profile to
/// stderr at exit; --prof-out additionally dumps the deterministic
/// "snoc-prof-v1" JSON snapshot to the given path (run manifests record
/// the path under prof_out) — the hooks live here rather than in cli.cpp
/// because snoc_common sits below the telemetry layer.  `own_flags` names
/// the bench's own flags; any flag outside both sets exits 2.
inline BenchOptions options(int argc, char** argv, std::size_t default_repeats = 1,
                            const std::vector<std::string>& own_flags = {}) {
    reject_engine_selector(CliArgs(argc, argv), argv[0]);
    BenchOptions parsed = parse_bench_options(argc, argv, default_repeats, own_flags);
    if (parsed.prof) {
        prof::set_enabled(true);
        std::atexit([] { std::cerr << prof::report(); });
        if (!parsed.prof_out.empty()) {
            detail::prof_out_path() = parsed.prof_out;
            std::atexit(
                [] { prof::write_json_report(detail::prof_out_path()); });
        }
    }
    return parsed;
}

/// An ExperimentSpec carrying the uniform flags: --repeats, --seed (the
/// sweep's base seed), --jobs and the telemetry exports.  Every bench
/// sweep starts from this, so none can drop a flag on the floor.
inline ExperimentSpec sweep(const BenchOptions& opt, std::string name) {
    ExperimentSpec spec;
    spec.name = std::move(name);
    spec.repeats = opt.repeats;
    spec.base_seed = opt.seed;
    spec.jobs = opt.jobs;
    spec.telemetry = opt.telemetry;
    return spec;
}

/// Accumulate `f(report)` over a cell's repeats in repeat order — every
/// repeat, or only the completed ones (CellStats' convention for means).
template <typename F>
Accumulator accumulate(const CellResult& cell, F&& f, bool completed_only = false) {
    Accumulator acc;
    for (const RunReport& r : cell.reports)
        if (r.completed || !completed_only) acc.add(f(r));
    return acc;
}

/// Completed repeats in percent, evaluated as 100 * completed / repeats.
inline double completion_pct(const CellResult& cell) {
    std::size_t completed = 0;
    for (const RunReport& r : cell.reports) completed += r.completed ? 1 : 0;
    return 100.0 * completed / cell.reports.size();
}

/// Tag each export path (tag_path: "run.jsonl" -> "run_fft.jsonl") —
/// benches that run several sweeps off one flag set use this to keep the
/// sweeps' artifacts (traces, post-mortems, heartbeat streams, metrics
/// snapshots) apart.
inline TelemetryOptions tag_telemetry(const TelemetryOptions& options,
                                      const std::string& tag) {
    TelemetryOptions out = options;
    for (std::string* path : {&out.trace_jsonl_out, &out.chrome_out,
                              &out.heatmap_out, &out.postmortem_out,
                              &out.heartbeat_out, &out.metrics_out})
        *path = tag_path(*path, tag);
    return out;
}

inline void emit(const Table& table, const BenchOptions& options,
                 const std::string& caption) {
    std::cout << "\n== " << caption << " ==\n";
    if (options.json)
        table.print_json(std::cout);
    else if (options.csv)
        table.print_csv(std::cout);
    else
        table.print(std::cout);
}

inline GossipConfig config_with_p(double p, std::uint16_t ttl = 30) {
    GossipConfig c;
    c.forward_p = p;
    c.default_ttl = ttl;
    return c;
}

/// Master-Slave pi on a 5x5 mesh (Fig. 4-2 deployment), through the
/// unified GossipAdapter.  Latency is the completion round; packets/bits
/// include the post-completion TTL drain (the energy keeps burning until
/// every rumor dies).  Pass an InvariantAuditor (src/check/) to have the
/// run conservation-audited per round — tests/test_check.cpp does.
inline RunReport run_pi_once(const GossipConfig& config, const FaultScenario& scenario,
                             std::size_t exact_tile_crashes, std::uint64_t seed,
                             bool duplicate_slaves = true, Round max_rounds = 3000,
                             bool direct_addressing = false,
                             check::InvariantAuditor* auditor = nullptr,
                             TraceSink* sink = nullptr) {
    GossipSpec spec;
    spec.topology = Topology::mesh(5, 5);
    spec.config = config;
    spec.exact_tile_crashes = exact_tile_crashes;
    spec.drain = true;
    GossipAdapter net(std::move(spec), scenario, seed);
    net.set_auditor(auditor);
    net.set_trace_sink(sink);
    apps::PiDeployment d;
    d.duplicate_slaves = duplicate_slaves;
    d.direct_addressing = direct_addressing;
    auto& master = apps::deploy_pi(net.network(), d);
    net.network().protect(d.master_tile);
    if (duplicate_slaves) {
        // With replication, protecting one copy of each task keeps the
        // workload well-defined while the other copy may crash.
        for (TileId t : {6u, 7u, 8u, 11u, 13u, 16u, 17u, 18u}) net.network().protect(t);
    }
    return net.run_until([&master] { return master.done(); }, max_rounds);
}

/// Parallel 2-D FFT on a 4x4 mesh (Fig. 4-3 deployment).
inline RunReport run_fft_once(const GossipConfig& config, const FaultScenario& scenario,
                              std::size_t exact_tile_crashes, std::uint64_t seed,
                              Round max_rounds = 3000,
                              check::InvariantAuditor* auditor = nullptr,
                              TraceSink* sink = nullptr) {
    GossipSpec spec;
    spec.topology = Topology::mesh(4, 4);
    spec.config = config;
    spec.exact_tile_crashes = exact_tile_crashes;
    spec.drain = true;
    GossipAdapter net(std::move(spec), scenario, seed);
    net.set_auditor(auditor);
    net.set_trace_sink(sink);
    apps::FftDeployment d;
    d.duplicate_workers = true;
    auto& root = apps::deploy_fft2d(net.network(), d, seed + 1);
    net.network().protect(d.root_tile);
    for (TileId t : d.worker_tiles) net.network().protect(t);
    return net.run_until([&root] { return root.done(); }, max_rounds);
}

/// Eq. 3 energy per useful bit for an averaged run.
inline double joules_per_useful_bit(double avg_bits, std::size_t useful_bits) {
    const auto tech = Technology::cmos_025um();
    if (useful_bits == 0) return 0.0;
    return avg_bits * tech.link_ebit_joules / static_cast<double>(useful_bits);
}

} // namespace snoc::bench
