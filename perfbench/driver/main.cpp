// perfbench_driver — one workload, one seed, one closed-loop run.
//
//   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
//                    [--setup-only] [--trace-out FILE]
//
// Phases: set-up (derive the trial list from the seed, then one untimed
// warm-up trial per sweep cell), then the timed phase: a fixed list of
// max(100, S x nominal rate) trials fanned out over two workers through
// snoc::run_trials, each worker starting its next trial as soon
// as its last one ends.  --trace 1 repeats the same list with spans and
// the SNOC_PROF scopes on and reports the per-layer metrics instead of
// the end-to-end ones.  The last stdout line is one JSON object; see
// perfbench/README.md for every metric.  perfbench/run.py adds setup_s.
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "bench_math.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "telemetry/prof.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

struct Args {
    std::string workload;
    std::uint64_t seed{1};
    double seconds{10.0};
    bool trace{false};
    bool setup_only{false};
    std::string trace_out;
};

[[noreturn]] void usage(const std::string& why) {
    std::cerr << "perfbench_driver: " << why
              << "\nusage: perfbench_driver --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--setup-only] [--trace-out FILE]\n";
    std::exit(2);
}

std::uint64_t parse_uint(const std::string& flag, const std::string& text) {
    std::size_t used = 0;
    unsigned long long v = 0;
    try {
        v = std::stoull(text, &used);
    } catch (...) {
        used = 0;
    }
    if (used != text.size() || text.empty() || text[0] == '-')
        usage(flag + " needs a non-negative integer, got '" + text + "'");
    return v;
}

Args parse(int argc, char** argv) {
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--setup-only") {
            a.setup_only = true;
            continue;
        }
        if (i + 1 >= argc) usage(flag + " needs a value");
        const std::string v = argv[++i];
        if (flag == "--workload") a.workload = v;
        else if (flag == "--seed") a.seed = parse_uint(flag, v);
        else if (flag == "--seconds") a.seconds = static_cast<double>(parse_uint(flag, v));
        else if (flag == "--trace") {
            if (v != "0" && v != "1") usage("--trace takes 0 or 1");
            a.trace = v == "1";
        } else if (flag == "--trace-out") a.trace_out = v;
        else usage("unknown flag " + flag);
    }
    if (a.workload.empty()) usage("--workload is required");
    if (a.seconds < 1) usage("--seconds must be at least 1");
    return a;
}

struct Phase {
    std::vector<TrialResult> results;
    double wall_seconds{0.0};
};

/// At most two trials in flight: more would compete for the cores of a
/// shared 4-core host with each other and with its other tenants.
constexpr std::size_t kWorkers = 2;

Phase timed_phase(const Workload& w, std::size_t n, bool traced) {
    Phase p;
    const double start = now_seconds();
    p.results = snoc::run_trials(
        n, [&w, traced](std::uint64_t i) { return w.run(i, traced); }, kWorkers);
    p.wall_seconds = now_seconds() - start;
    return p;
}

double peak_rss_mb() {
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
    return -1.0;
}

/// Metrics in output order: name -> (value, unit).
using Metrics = std::vector<std::pair<std::string, std::pair<double, std::string>>>;

std::string json_number(double v) {
    if (!std::isfinite(v)) return "null";
    std::ostringstream os;
    os.precision(17);
    os << v;
    return os.str();
}

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const Metrics& metrics) {
    std::ostringstream os;
    os << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const auto& [name, vu] = metrics[i];
        os << (i ? ", " : "") << '"' << name << "\": {\"value\": "
           << json_number(vu.first) << ", \"unit\": \"" << vu.second << "\"}";
    }
    os << "}}";
    std::cout << os.str() << std::endl;
}

std::map<std::string, std::uint64_t> sum_stats(const std::vector<TrialResult>& rs) {
    std::map<std::string, std::uint64_t> sums;
    for (const auto& r : rs)
        for (const auto& [name, v] : r.stats) sums[name] += v;
    return sums;
}

Metrics end_to_end(const Phase& p) {
    std::vector<double> ms;
    double busy = 0.0;
    std::uint64_t packets = 0;
    for (const auto& r : p.results) {
        ms.push_back(r.host_seconds * 1e3);
        busy += r.host_seconds;
        packets += r.packets;
    }
    const auto n = static_cast<double>(p.results.size());
    return {
        {"trials_per_s", {n / p.wall_seconds, "1/s"}},
        {"trial_ms_p50", {percentile(ms, 50), "ms"}},
        {"trial_ms_p90", {percentile(ms, 90), "ms"}},
        {"host_ns_per_packet",
         {packets ? busy * 1e9 / static_cast<double>(packets) : 0.0, "ns"}},
        {"peak_rss_mb", {peak_rss_mb(), "MB"}},
    };
}

Metrics per_layer(const Args& args, const Phase& untraced,
                  const Phase& traced) {
    std::map<std::string, LayerTotal> layers;
    for (const auto& r : traced.results) accumulate_layers(r.spans, layers);
    const auto layer = [&layers](const std::string& name) {
        const auto it = layers.find(name);
        return it == layers.end() ? LayerTotal{} : it->second;
    };
    const auto mean_ms = [&](const std::string& name) {
        const LayerTotal t = layer(name);
        return t.calls ? t.self_seconds * 1e3 / static_cast<double>(t.calls) : 0.0;
    };
    const double trial_s = layer("trial").seconds;
    const auto share = [trial_s](double s) { return trial_s > 0 ? s / trial_s : 0.0; };

    const auto prof = snoc::prof::snapshot();
    const auto prof_s = [&prof](const std::string& label) {
        const auto it = prof.find(label);
        return it == prof.end() ? 0.0 : it->second.seconds;
    };

    const auto sums = sum_stats(traced.results);
    const auto stat = [&sums](const std::string& name) -> double {
        const auto it = sums.find(name);
        return it == sums.end() ? 0.0 : static_cast<double>(it->second);
    };
    const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    const double n = static_cast<double>(traced.results.size());

    const auto wire_bytes = static_cast<std::size_t>(
        std::llround(ratio(stat("noc.bits"), stat("noc.packets")) / 8.0));
    const std::uint64_t replay_seed = snoc::derive_seed(args.seed, 0x7265706c6179);

    double busy = 0.0;
    for (const auto& r : untraced.results) busy += r.host_seconds;

    Metrics m{
        {"trace_overhead",
         {ratio(n / traced.wall_seconds, n / untraced.wall_seconds), "ratio"}},
        {"bench.trial_self_frac", {share(layer("trial").self_seconds), "ratio"}},
        {"fault.upset_us", {replay_upset_us(wire_bytes, replay_seed), "us"}},
        {"fault.upset_frac",
         {ratio(stat("core.crc_drops") + stat("core.upsets_undetected"),
                stat("core.packets_sent")),
          "ratio"}},
        {"noc.wire_bytes", {static_cast<double>(wire_bytes), "bytes"}},
        {"noc.encode_ns", {replay_encode_ns(wire_bytes, replay_seed), "ns"}},
        {"noc.decode_ns", {replay_decode_ns(wire_bytes, replay_seed), "ns"}},
        {"core.step_share", {share(layer("core.step").seconds), "ratio"}},
        {"core.receive_share", {share(prof_s("engine/receive")), "ratio"}},
        {"core.age_share", {share(prof_s("engine/age")), "ratio"}},
        {"core.compute_share", {share(prof_s("engine/compute")), "ratio"}},
        {"core.forward_share", {share(prof_s("engine/forward")), "ratio"}},
        {"core.encode_share", {share(prof_s("engine/encode")), "ratio"}},
        {"core.deliver_share", {share(prof_s("engine/deliver")), "ratio"}},
        {"core.accept_ratio",
         {ratio(stat("core.packets_accepted"), stat("core.packets_sent")), "ratio"}},
        {"core.round_us", {mean_ms("core.step") * 1e3, "us"}},
        {"core.rounds", {stat("core.rounds") / n, "count"}},
        {"core.packets_sent", {stat("core.packets_sent") / n, "count"}},
        {"core.duplicates_ignored", {stat("core.duplicates_ignored") / n, "count"}},
        {"core.crc_drops", {stat("core.crc_drops") / n, "count"}},
    };
    for (const char* kind :
         {"wormhole", "deflection", "store-forward", "cut-through", "adaptive"})
        m.push_back({std::string("sim.run_ms.") + kind,
                     {mean_ms(std::string("sim.run.") + kind), "ms"}});
    m.insert(m.end(), {
        {"router.hops", {stat("router.hops") / n, "count"}},
        {"router.cycles", {stat("router.cycles") / n, "count"}},
        {"router.delivered_frac",
         {ratio(stat("router.deliveries"), stat("router.messages")), "ratio"}},
        {"router.capped_frac", {ratio(stat("router.capped"), stat("router.runs")), "ratio"}},
        {"sim.build_ms", {mean_ms("sim.build"), "ms"}},
        {"apps.deploy_ms", {mean_ms("apps.deploy"), "ms"}},
        {"common.fanout_wait_frac",
         {1.0 - busy / (kWorkers * untraced.wall_seconds), "ratio"}},
    });
    return m;
}

void write_spans(const std::string& path, const std::vector<TrialResult>& results) {
    std::ofstream out(path);
    if (!out) {
        std::cerr << "perfbench_driver: cannot write " << path << "\n";
        return;
    }
    double t0 = 0.0;
    for (const auto& r : results)
        for (const auto& s : r.spans)
            if (t0 == 0.0 || s.start < t0) t0 = s.start;
    for (const auto& r : results)
        for (std::size_t i = 0; i < r.spans.size(); ++i) {
            const auto& s = r.spans[i];
            out << "{\"trial\":" << s.trial << ",\"id\":" << i << ",\"parent\":" << s.parent
                << ",\"name\":\"" << s.name << "\",\"start_us\":"
                << json_number((s.start - t0) * 1e6)
                << ",\"end_us\":" << json_number((s.end - t0) * 1e6) << "}\n";
        }
}

} // namespace

int main(int argc, char** argv) {
    const Args args = parse(argc, argv);
    auto workload = make_workload(args.workload);
    if (!workload) usage("unknown workload '" + args.workload + "'");

    // The trial list is fixed by the arguments alone, never by a clock.
    const std::size_t min_trials = min_samples_for(90.0, 10);
    const std::size_t n_trials = std::max<std::size_t>(
        min_trials, static_cast<std::size_t>(std::llround(
                        args.seconds * workload->nominal_trials_per_s())));

    // --- set-up ---------------------------------------------------------------
    const double setup_start = now_seconds();
    workload->build_inputs(args.seed, n_trials);
    std::size_t warmup_failed = 0;
    for (std::size_t c = 0; c < workload->cells() && c < n_trials; ++c) {
        const TrialResult r = workload->run(c, false);
        if (!r.ok) {
            ++warmup_failed;
            std::cerr << "warm-up trial " << c << " failed: " << r.error << "\n";
        }
    }
    const double setup_seconds = now_seconds() - setup_start;
    if (args.setup_only) {
        std::cout << "{\"setup_in_process_s\": " << json_number(setup_seconds)
                  << ", \"warmup_failed\": " << warmup_failed << "}" << std::endl;
        return warmup_failed ? 1 : 0;
    }

    // --- timed phase(s) ---------------------------------------------------------
    const Phase untraced = timed_phase(*workload, n_trials, false);
    Phase traced;
    if (args.trace) {
        snoc::prof::reset();
        snoc::prof::set_enabled(true);
        traced = timed_phase(*workload, n_trials, true);
        snoc::prof::set_enabled(false);
    }

    std::size_t failed = 0;
    for (std::size_t i = 0; i < untraced.results.size(); ++i)
        if (!untraced.results[i].ok) {
            if (failed++ < 5)
                std::cerr << "trial " << i << " failed: " << untraced.results[i].error
                          << "\n";
        }
    const bool repeats =
        !args.trace || digest(traced.results) == digest(untraced.results);
    if (!repeats) std::cerr << "traced rerun produced different simulated statistics\n";

    const auto sums = sum_stats(untraced.results);
    std::cout << "workload " << workload->name() << " seed " << args.seed << ": "
              << n_trials << " trials, " << kWorkers << " workers, set-up "
              << setup_seconds << " s in process\n";
    std::cout << "digest " << std::hex << digest(untraced.results) << std::dec
              << " over:";
    for (const auto& [name, v] : sums) std::cout << ' ' << name << '=' << v;
    std::cout << "\ntrial_ms_p50/p90 rest on " << n_trials << " samples, "
              << samples_above(n_trials, 90.0) << " above p90\n";
    std::cout << "trials: " << n_trials << " attempted, " << failed
              << " failed, failure share " << failure_share(failed, n_trials) << "\n";

    Metrics metrics = args.trace ? per_layer(args, untraced, traced)
                                 : end_to_end(untraced);
    if (args.trace && !args.trace_out.empty()) write_spans(args.trace_out, traced.results);
    const bool correct = failed == 0 && warmup_failed == 0 && repeats;
    print_result(correct, n_trials, failed, metrics);
    return 0;
}
