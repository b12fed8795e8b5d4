// Flight recorder + post-mortem bundle tests: ring wraparound semantics
// of a windowed Telemetry at the capacity edge cases, the golden bundle
// byte layout, the end-to-end guarantee that an injected conservation
// violation inside an audited ScenarioRunner sweep produces a bundle
// containing the violating round's events, and that exports and
// post-mortems on together write what each writes alone.
//
// The last suite doubles as the CI post-mortem mutation self-test: with
// SNOC_EXPECT_POSTMORTEM=1 in the environment it *requires* a bundle —
// CI tampers the engine's ledger ([mutation-point:ledger-transmitted]),
// rebuilds, and runs it to prove a real accounting bug still reaches a
// dump on disk.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include "check/invariant_auditor.hpp"
#include "common/expect.hpp"
#include "sim/backends.hpp"
#include "sim/scenario.hpp"
#include "telemetry/export.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/metrics_registry.hpp"
#include "telemetry/query.hpp"

namespace snoc {
namespace {

TraceEvent event(Round round, TraceEventKind kind, TileId tile) {
    TraceEvent e;
    e.round = round;
    e.kind = kind;
    e.tile = tile;
    return e;
}

/// A deterministic synthetic event stream: round r emits two events.
std::vector<TraceEvent> stream(std::size_t rounds) {
    std::vector<TraceEvent> events;
    for (std::size_t r = 0; r < rounds; ++r) {
        events.push_back(event(static_cast<Round>(r),
                               TraceEventKind::Transmitted,
                               static_cast<TileId>(r % 25)));
        events.push_back(event(static_cast<Round>(r), TraceEventKind::Delivered,
                               static_cast<TileId>((r + 1) % 25)));
    }
    return events;
}

std::vector<TraceEvent> held(const Telemetry& recorder) {
    return recorder.newest(recorder.size());
}

std::string drain_image(const Telemetry& recorder) {
    std::ostringstream os;
    for (const TraceEvent& e : held(recorder))
        os << e.round << ' ' << static_cast<int>(e.kind) << ' ' << e.tile
           << '\n';
    return os.str();
}

TEST(FlightRecorder, KeepsNewestAtEveryCapacityEdge) {
    const auto events = stream(8); // 16 events
    for (const std::size_t capacity : {std::size_t{1}, events.size() - 1,
                                       events.size(), events.size() + 1}) {
        Telemetry recorder(capacity);
        for (const TraceEvent& e : events) recorder.record(e);
        const auto drained = held(recorder);
        const std::size_t kept = std::min(capacity, events.size());
        ASSERT_EQ(drained.size(), kept) << "capacity " << capacity;
        EXPECT_EQ(recorder.overwritten(), events.size() - kept);
        // The retained window is exactly the newest `kept` events, in
        // their original order.
        for (std::size_t i = 0; i < kept; ++i) {
            const TraceEvent& want = events[events.size() - kept + i];
            EXPECT_EQ(drained[i].round, want.round);
            EXPECT_EQ(drained[i].kind, want.kind);
            EXPECT_EQ(drained[i].tile, want.tile);
        }
        ASSERT_EQ(recorder.newest(1).size(), 1u);
        EXPECT_EQ(recorder.newest(1)[0].round, events.back().round);
        EXPECT_EQ(recorder.newest(1)[0].kind, events.back().kind);
        // The full log is readable only while nothing was overwritten.
        if (kept == events.size())
            EXPECT_EQ(recorder.events().size(), kept);
        else
            EXPECT_THROW(recorder.events(), ContractViolation);
    }
}

TEST(FlightRecorder, DrainIsByteIdenticalAcrossRepeats) {
    const auto events = stream(100);
    for (const std::size_t capacity : {std::size_t{1}, events.size() - 1,
                                       events.size(), events.size() + 1}) {
        Telemetry a(capacity);
        Telemetry b(capacity);
        for (const TraceEvent& e : events) a.record(e);
        for (const TraceEvent& e : events) b.record(e);
        EXPECT_EQ(drain_image(a), drain_image(b)) << "capacity " << capacity;
    }
}

TEST(FlightRecorder, TotalsSurviveOverwrites) {
    Telemetry recorder(2);
    for (const TraceEvent& e : stream(10)) recorder.record(e);
    const auto& totals = recorder.totals();
    EXPECT_EQ(totals[static_cast<std::size_t>(TraceEventKind::Transmitted)],
              10u);
    EXPECT_EQ(totals[static_cast<std::size_t>(TraceEventKind::Delivered)], 10u);
    EXPECT_EQ(recorder.size(), 2u);
    EXPECT_EQ(recorder.overwritten(), 18u);
    EXPECT_EQ(recorder.total(), 20u);
}

TEST(FlightRecorder, ClearForgetsEverything) {
    Telemetry recorder(4);
    for (const TraceEvent& e : stream(10)) recorder.record(e);
    recorder.clear();
    EXPECT_EQ(recorder.size(), 0u);
    EXPECT_EQ(recorder.overwritten(), 0u);
    EXPECT_EQ(recorder.total(), 0u);
    EXPECT_TRUE(recorder.events().empty());
    recorder.record(event(3, TraceEventKind::Delivered, 7));
    EXPECT_EQ(recorder.events().size(), 1u);
}

/// The bundle byte layout is golden-checked; build-dependent header
/// fields (git SHA, check level) are scrubbed before comparing.
std::string scrub(std::string text) {
    text = std::regex_replace(text, std::regex("\"git_sha\":\"[^\"]*\""),
                              "\"git_sha\":\"SCRUBBED\"");
    text = std::regex_replace(text, std::regex("\"check_level\":[0-9]+"),
                              "\"check_level\":0");
    return text;
}

TEST(PostmortemBundle, GoldenBytes) {
    Telemetry recorder(6);
    for (const TraceEvent& e : stream(5)) recorder.record(e);
    TraceEvent with_msg = event(5, TraceEventKind::MessageCreated, 3);
    with_msg.message = MessageId{3, 1};
    recorder.record(with_msg);

    PostmortemInfo info;
    info.reason = "wire-conservation";
    info.detail = "injected: transmitted != accounted (test fixture)";
    info.experiment = "golden";
    info.backend = "gossip";
    info.seed = 42;
    info.has_metrics = true;
    info.metrics.rounds = 6;
    info.metrics.packets_sent = 11;
    info.metrics.deliveries = 5;

    std::ostringstream os;
    write_postmortem_bundle(recorder, info, os);
    const std::string image = scrub(os.str());

    const std::string path =
        std::string(SNOC_GOLDEN_DIR) + "/postmortem_bundle.golden";
    if (std::getenv("SNOC_UPDATE_GOLDEN") != nullptr) {
        std::ofstream out(path, std::ios::binary);
        ASSERT_TRUE(out.good()) << "cannot write " << path;
        out << image;
        GTEST_SKIP() << "golden updated: " << path;
    }
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.good()) << "missing golden " << path
                           << " (run with SNOC_UPDATE_GOLDEN=1 to capture)";
    std::ostringstream golden;
    golden << in.rdbuf();
    EXPECT_EQ(image, scrub(golden.str()));
}

TEST(PostmortemBundle, RoundTripsThroughTracequery) {
    Telemetry recorder(8);
    for (const TraceEvent& e : stream(6)) recorder.record(e);
    // A failed SNOC_EXPECT(false && "...") puts quotes in the detail.
    for (const std::string detail :
         {"no packet moved for 64 cycles",
          "precondition failed: false && \"unknown sweep axis\" at x.cpp:1"}) {
        SCOPED_TRACE(detail);
        PostmortemInfo info;
        info.reason = "deadlock-sentinel";
        info.detail = detail;
        info.experiment = "p=0.5";
        info.backend = "cut-through";
        info.seed = 7;
        std::ostringstream os;
        write_postmortem_bundle(recorder, info, os);

        std::istringstream is(os.str());
        const auto loaded = tracequery::load_jsonl(is);
        EXPECT_EQ(loaded.skipped, 0u);
        ASSERT_TRUE(loaded.postmortem.has_value());
        EXPECT_EQ(loaded.postmortem->reason, "deadlock-sentinel");
        EXPECT_EQ(loaded.postmortem->detail, detail);
        EXPECT_EQ(loaded.postmortem->experiment, "p=0.5");
        EXPECT_EQ(loaded.postmortem->backend, "cut-through");
        EXPECT_EQ(loaded.postmortem->seed, 7u);
        EXPECT_EQ(loaded.postmortem->events, 8u);
        EXPECT_EQ(loaded.postmortem->events_overwritten, 4u);
        EXPECT_EQ(loaded.postmortem->first_round, 2u);
        EXPECT_EQ(loaded.postmortem->last_round, 5u);
        EXPECT_EQ(loaded.events.size(), 8u);
        // The round filters snoc_trace exposes work on the bundle's events.
        EXPECT_EQ(tracequery::last_rounds(loaded.events, 1).size(), 2u);
        EXPECT_EQ(tracequery::since_round(loaded.events, 4).size(), 4u);
    }
}

/// An InvariantAuditor violation fires the thread-local hook, and an
/// armed dumper turns it into a bundle containing the recorder's events
/// for the violating round.  Dump-once: a second violation is ignored.
TEST(PostmortemDumper, AuditorViolationProducesBundle) {
    const std::string path = ::testing::TempDir() + "auditor.postmortem.jsonl";
    std::remove(path.c_str());

    Telemetry recorder(32);
    for (const TraceEvent& e : stream(9)) recorder.record(e);

    PostmortemInfo info;
    info.experiment = "unit";
    info.backend = "gossip";
    info.seed = 1;
    PostmortemDumper dumper(path, recorder, info);
    EXPECT_FALSE(dumper.dumped());

    check::InvariantAuditor auditor;
    auditor.begin_run("unit");
    NetworkMetrics tampered;
    tampered.packets_sent = 5; // packets with zero bits: conservation broken.
    auditor.check_metrics(tampered, true);
    ASSERT_FALSE(auditor.clean());
    EXPECT_TRUE(dumper.dumped());

    const auto loaded = tracequery::load_jsonl_file(path);
    ASSERT_TRUE(loaded.postmortem.has_value());
    EXPECT_EQ(loaded.events.size(), 18u);
    EXPECT_EQ(loaded.postmortem->last_round, 8u);

    // Second violation in the same scope: first failure wins.
    const std::string first = loaded.postmortem->detail;
    auditor.check_metrics(tampered, true);
    const auto reloaded = tracequery::load_jsonl_file(path);
    ASSERT_TRUE(reloaded.postmortem.has_value());
    EXPECT_EQ(reloaded.postmortem->detail, first);
    std::remove(path.c_str());
}

/// End-to-end through ScenarioRunner: an audited gossip sweep with
/// --postmortem-out armed.  On a healthy build no bundle appears; when
/// CI tampers the conservation ledger ([mutation-point:ledger-transmitted]
/// in src/core/engine.cpp) and sets SNOC_EXPECT_POSTMORTEM=1, the bundle
/// MUST appear and carry the violating round's events — the proof that a
/// real accounting bug still reaches a dump on disk.
TEST(PostmortemDumper, AuditedSweepMutationSelfTest) {
    const std::string path = ::testing::TempDir() + "sweep.postmortem.jsonl";
    std::remove(path.c_str());

    ExperimentSpec spec;
    spec.name = "postmortem-self-test";
    spec.repeats = 1;
    spec.base_seed = 3;
    spec.max_rounds = 60;
    spec.audit = true;
    spec.telemetry.postmortem_out = path;
    spec.telemetry.flight_capacity = 256;
    spec.backend = [](const SweepPoint&, std::uint64_t seed) {
        GossipSpec gs;
        gs.topology = Topology::mesh(4, 4);
        gs.config.forward_p = 0.6;
        gs.config.default_ttl = 12;
        return make_interconnect(std::move(gs), FaultScenario::none(), seed);
    };
    spec.trace = [](const SweepPoint&) {
        TrafficTrace trace;
        TrafficPhase phase;
        phase.messages.push_back({0, 15, 64});
        phase.messages.push_back({15, 0, 64});
        trace.phases.push_back(phase);
        return trace;
    };
    const bool expect_bundle =
        std::getenv("SNOC_EXPECT_POSTMORTEM") != nullptr;
    std::vector<CellResult> results;
    try {
        results = ScenarioRunner(std::move(spec)).run();
    } catch (const ContractViolation&) {
        // On a tampered build the engine's own SNOC_CHECK(2) conservation
        // contract may abort the trial after the dumper has fired; the
        // bundle on disk is what this test is about.
        ASSERT_TRUE(expect_bundle) << "clean build threw ContractViolation";
    }

    std::ifstream bundle(path, std::ios::binary);
    if (!expect_bundle) {
        ASSERT_EQ(results.size(), 1u);
        EXPECT_EQ(results[0].stats.audit_violations, 0u);
        EXPECT_FALSE(bundle.good())
            << "clean run unexpectedly produced a post-mortem bundle";
        return;
    }
    ASSERT_TRUE(bundle.good())
        << "mutated build produced no post-mortem bundle at " << path;
    const auto loaded = tracequery::load_jsonl_file(path);
    ASSERT_TRUE(loaded.postmortem.has_value());
    EXPECT_FALSE(loaded.events.empty());
    // The bundle must contain events from the round the auditor flagged:
    // conservation is checked per round, so the violating round is the
    // last one the recorder saw.
    bool has_violating_round = false;
    for (const TraceEvent& e : loaded.events)
        if (e.round == loaded.postmortem->last_round) has_violating_round = true;
    EXPECT_TRUE(has_violating_round);
    std::remove(path.c_str());
}

/// One ScenarioRunner trial whose auditor reports a violation after the
/// run, so an armed dumper writes a bundle.  The trial writes its JSONL
/// export to `jsonl` and its bundle to `bundle`; an empty path leaves that
/// artifact off.  Returns the growth of FlightEventsOverwrittenTotal.
std::uint64_t run_violating_trial(const std::string& jsonl, const std::string& bundle) {
    ExperimentSpec spec;
    spec.name = "exports-and-postmortems";
    spec.repeats = 1;
    spec.base_seed = 11;
    spec.telemetry.trace_jsonl_out = jsonl;
    spec.telemetry.postmortem_out = bundle;
    spec.telemetry.flight_capacity = 16;
    spec.trial = [](const SweepPoint&, std::uint64_t seed, TraceSink* sink) {
        GossipSpec gs;
        gs.topology = Topology::mesh(4, 4);
        gs.config.forward_p = 0.6;
        gs.config.default_ttl = 12;
        auto backend = make_interconnect(std::move(gs), FaultScenario::none(), seed);
        backend->set_trace_sink(sink);
        TrafficTrace trace;
        trace.phases.emplace_back().messages.push_back({0, 15, 64});
        RunReport report = backend->run(trace, 60);
        check::InvariantAuditor auditor;
        auditor.begin_run("injected");
        NetworkMetrics tampered;
        tampered.packets_sent = 5; // packets with zero bits
        auditor.check_metrics(tampered, true);
        return report;
    };
    auto& registry = MetricsRegistry::global();
    const auto before = registry.value(MetricId::FlightEventsOverwrittenTotal);
    const auto results = ScenarioRunner(std::move(spec)).run();
    EXPECT_EQ(results.size(), 1u);
    return registry.value(MetricId::FlightEventsOverwrittenTotal) - before;
}

std::string slurp(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << "missing " << path;
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

/// With exports on the trial keeps the full log, with post-mortems alone
/// only a window of flight_capacity events; either way the bundle holds
/// the newest flight_capacity events and counts the rest as overwritten,
/// so turning exports on next to post-mortems changes neither artifact.
TEST(ScenarioRunner, ExportsAndPostmortemsTogetherMatchEachAlone) {
    const std::string dir = ::testing::TempDir();
    const std::string jsonl_only = dir + "exports_only.jsonl";
    const std::string bundle_only = dir + "postmortem_only.postmortem.jsonl";
    const std::string jsonl_both = dir + "both.jsonl";
    const std::string bundle_both = dir + "both.postmortem.jsonl";
    for (const auto* path : {&jsonl_only, &bundle_only, &jsonl_both, &bundle_both})
        std::remove(path->c_str());

    EXPECT_EQ(run_violating_trial(jsonl_only, ""), 0u);
    const std::uint64_t overwritten_alone = run_violating_trial("", bundle_only);
    const std::uint64_t overwritten_both = run_violating_trial(jsonl_both, bundle_both);

    EXPECT_EQ(slurp(jsonl_both), slurp(jsonl_only));
    EXPECT_EQ(slurp(bundle_both), slurp(bundle_only));
    EXPECT_EQ(overwritten_both, overwritten_alone);

    const auto loaded = tracequery::load_jsonl_file(bundle_both);
    ASSERT_TRUE(loaded.postmortem.has_value());
    EXPECT_EQ(loaded.events.size(), 16u);
    EXPECT_GT(loaded.postmortem->events_overwritten, 0u) << "the window never wrapped";
    EXPECT_EQ(loaded.postmortem->events_overwritten, overwritten_alone);
    // The bundle's events are the last 16 lines of the full log.
    const std::string full = slurp(jsonl_only);
    std::size_t tail = full.size();
    for (int lines = 0; lines <= 16; ++lines) tail = full.rfind('\n', tail - 1);
    const std::string bundle = slurp(bundle_both);
    EXPECT_EQ(bundle.substr(bundle.find('\n') + 1), full.substr(tail + 1));
    for (const auto* path : {&jsonl_only, &bundle_only, &jsonl_both, &bundle_both})
        std::remove(path->c_str());
}

/// A router-core backend publishes its live counters only inside run(),
/// so the dumper must ask for them when the sentinel fires, not when the
/// trial is set up.  Adaptive cut-through wedges under all-to-all load
/// (its channel dependency graph is cyclic) and does not throw when the
/// sentinel fires, so the trial runs to its cycle budget.
TEST(ScenarioRunner, WedgedRouterPostmortemCarriesMetrics) {
    if (SNOC_CHECK_LEVEL < 1) GTEST_SKIP() << "the sentinel is compiled out";
    const std::string path = ::testing::TempDir() + "router.postmortem.jsonl";
    std::remove(path.c_str());

    ExperimentSpec spec;
    spec.name = "router-postmortem";
    spec.repeats = 1;
    spec.base_seed = 5;
    spec.max_rounds = 2000;
    spec.telemetry.postmortem_out = path;
    spec.telemetry.flight_capacity = 64;
    spec.backend = [](const SweepPoint&, std::uint64_t seed) {
        AdaptiveSpec as;
        as.config.stall_limit = 64;
        return make_interconnect(std::move(as), FaultScenario::none(), seed);
    };
    spec.trace = [](const SweepPoint&) {
        TrafficTrace trace;
        TrafficPhase phase;
        for (int wave = 0; wave < 8; ++wave)
            for (TileId s = 0; s < 25; ++s)
                for (TileId d = 0; d < 25; ++d)
                    if (s != d) phase.messages.push_back({s, d, 256});
        trace.phases.push_back(phase);
        return trace;
    };
    const auto results = ScenarioRunner(std::move(spec)).run();
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0].stats.completion_rate, 0.0) << "the mesh drained";

    std::ifstream bundle(path, std::ios::binary);
    ASSERT_TRUE(bundle.good()) << "no post-mortem bundle at " << path;
    std::string header;
    std::getline(bundle, header);
    EXPECT_NE(header.find("\"reason\":\"deadlock-sentinel\""), std::string::npos)
        << header;
    EXPECT_NE(header.find("\"metrics\":{"), std::string::npos) << header;
    bundle.close();
    std::remove(path.c_str());
}

} // namespace
} // namespace snoc
