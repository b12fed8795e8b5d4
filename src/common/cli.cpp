#include "common/cli.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <iostream>
#include <utility>

#include "common/expect.hpp"
#include "common/parallel.hpp"

namespace snoc {

CliArgs::CliArgs(int argc, char** argv) {
    SNOC_EXPECT(argc >= 1);
    program_ = argv[0];
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--", 0) != 0) {
            positional_.push_back(arg);
            continue;
        }
        const std::string body = arg.substr(2);
        const auto eq = body.find('=');
        if (eq != std::string::npos) {
            options_[body.substr(0, eq)] = body.substr(eq + 1);
            continue;
        }
        // `--key value` when the next token is not itself an option.
        if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
            options_[body] = std::string(argv[i + 1]);
            ++i;
        } else {
            options_[body] = std::nullopt;
        }
    }
}

bool CliArgs::has(const std::string& name) const { return options_.contains(name); }

std::optional<std::string> CliArgs::value(const std::string& name) const {
    const auto it = options_.find(name);
    if (it == options_.end()) return std::nullopt;
    return it->second;
}

std::string CliArgs::get_string(const std::string& name, std::string fallback) const {
    const auto v = value(name);
    return v ? *v : std::move(fallback);
}

namespace {

[[noreturn]] void usage_error(const CliArgs& args, const std::string& message) {
    std::cerr << args.program() << ": " << message << '\n';
    std::exit(2);
}

/// `--name N` for a count that has no meaning at 0: an explicit 0 exits 2
/// with a message that names the flag.
std::size_t get_count(const CliArgs& args, const std::string& name, std::size_t fallback) {
    const auto count = flag_u64(args, name, static_cast<std::uint64_t>(fallback));
    if (count == 0 && args.value(name))
        usage_error(args, "--" + name + " must be at least 1");
    return static_cast<std::size_t>(count);
}

} // namespace

std::optional<std::uint64_t> parse_u64(const std::string& text) {
    if (text.empty() || text[0] < '0' || text[0] > '9') return std::nullopt;
    char* end = nullptr;
    errno = 0;
    const auto parsed = std::strtoull(text.c_str(), &end, 10);
    if (*end != '\0' || errno == ERANGE) return std::nullopt;
    return parsed;
}

std::uint64_t flag_u64(const CliArgs& args, const std::string& name, std::uint64_t fallback) {
    if (!args.has(name)) return fallback;
    const auto v = args.value(name);
    if (!v) usage_error(args, "--" + name + " needs a value");
    const auto parsed = parse_u64(*v);
    if (!parsed)
        usage_error(args, "--" + name + " takes a non-negative integer, not '" + *v + "'");
    return *parsed;
}

double flag_double(const CliArgs& args, const std::string& name, double fallback) {
    if (!args.has(name)) return fallback;
    const auto v = args.value(name);
    if (!v) usage_error(args, "--" + name + " needs a value");
    char* end = nullptr;
    const double parsed = std::strtod(v->c_str(), &end);
    if (v->empty() || *end != '\0')
        usage_error(args, "--" + name + " takes a number, not '" + *v + "'");
    return parsed;
}

void reject_unknown_flags(const CliArgs& args, const std::vector<std::string>& known) {
    const auto unknown = args.unknown_options(known);
    for (const auto& name : unknown)
        std::cerr << args.program() << ": unknown flag --" << name << '\n';
    if (!unknown.empty()) std::exit(2);
}

std::size_t resolve_jobs(const CliArgs& args) {
    return get_count(args, "jobs", default_jobs());
}

BenchOptions parse_bench_options(const CliArgs& args, std::size_t default_repeats,
                                 const std::vector<std::string>& own_flags) {
    // Every flag read below, then the bench's own.
    std::vector<std::string> known = {
        "csv", "json", "repeats", "jobs", "seed", "trace-out", "chrome-out",
        "heatmap-out", "manifest", "grid-width", "postmortem-out",
        "flight-capacity", "heartbeat-out", "heartbeat-every", "metrics-out",
        "prof", "prof-out"};
    known.insert(known.end(), own_flags.begin(), own_flags.end());
    reject_unknown_flags(args, known);
    if (!args.positional().empty())
        usage_error(args, "unexpected argument '" + args.positional().front() +
                              "': every option is a --flag");
    // A bare switch reads no value, and every other flag needs one.
    const std::vector<std::string> switches = {"csv", "json", "manifest", "prof"};
    for (const auto& name : known) {
        const bool is_switch =
            std::find(switches.begin(), switches.end(), name) != switches.end();
        if (is_switch && args.value(name))
            usage_error(args, "--" + name + " takes no value, got '" + *args.value(name) + "'");
        if (!is_switch && args.has(name) && !args.value(name))
            usage_error(args, "--" + name + " needs a value");
    }
    BenchOptions options;
    options.csv = args.has("csv");
    options.json = args.has("json");
    options.repeats = get_count(args, "repeats", default_repeats);
    options.jobs = resolve_jobs(args);
    options.seed = flag_u64(args, "seed", 0);
    options.telemetry.trace_jsonl_out = args.get_string("trace-out", "");
    options.telemetry.chrome_out = args.get_string("chrome-out", "");
    options.telemetry.heatmap_out = args.get_string("heatmap-out", "");
    options.telemetry.manifest = args.has("manifest");
    options.telemetry.grid_width =
        static_cast<std::size_t>(flag_u64(args, "grid-width", 0));
    options.telemetry.postmortem_out = args.get_string("postmortem-out", "");
    options.telemetry.flight_capacity = get_count(args, "flight-capacity", 4096);
    options.telemetry.heartbeat_out = args.get_string("heartbeat-out", "");
    options.telemetry.heartbeat_every =
        static_cast<std::size_t>(flag_u64(args, "heartbeat-every", 1));
    options.telemetry.metrics_out = args.get_string("metrics-out", "");
    options.prof = args.has("prof");
    options.prof_out = args.get_string("prof-out", "");
    if (!options.prof_out.empty()) options.prof = true;
    options.telemetry.prof_out_ref = options.prof_out;
    return options;
}

BenchOptions parse_bench_options(int argc, char** argv, std::size_t default_repeats,
                                 const std::vector<std::string>& own_flags) {
    return parse_bench_options(CliArgs(argc, argv), default_repeats, own_flags);
}

std::size_t extension_pos(const std::string& path) {
    const auto slash = path.find_last_of('/');
    const auto dot = path.find_last_of('.');
    if (dot == std::string::npos || (slash != std::string::npos && dot < slash))
        return std::string::npos;
    return dot;
}

std::string tag_path(const std::string& path, const std::string& tag) {
    if (path.empty()) return path;
    const auto dot = extension_pos(path);
    if (dot == std::string::npos) return path + tag;
    return path.substr(0, dot) + tag + path.substr(dot);
}

std::vector<std::string> TelemetryOptions::requested_flags() const {
    const std::pair<const char*, const std::string*> exports[] = {
        {"--trace-out", &trace_jsonl_out},   {"--chrome-out", &chrome_out},
        {"--heatmap-out", &heatmap_out},     {"--postmortem-out", &postmortem_out},
        {"--heartbeat-out", &heartbeat_out}, {"--metrics-out", &metrics_out},
    };
    std::vector<std::string> flags;
    for (const auto& [flag, path] : exports)
        if (!path->empty()) flags.emplace_back(flag);
    return flags;
}

void reject_engine_selector(const CliArgs& args, std::string_view program) {
    const bool flag = args.has("engine");
    const bool env = std::getenv("SNOC_ENGINE") != nullptr;
    if (!flag && !env) return;
    constexpr const char* why = " is not supported: one gossip executor runs every trial\n";
    if (flag) std::cerr << program << ": --engine" << why;
    if (env) std::cerr << program << ": SNOC_ENGINE" << why;
    std::exit(2);
}

std::vector<std::string> CliArgs::unknown_options(
    const std::vector<std::string>& known) const {
    std::vector<std::string> unknown;
    for (const auto& [name, _] : options_)
        if (std::find(known.begin(), known.end(), name) == known.end())
            unknown.push_back(name);
    return unknown;
}

} // namespace snoc
