// The telemetry layer's test suite (ctest label: telemetry).
//
// Three layers of guarantees:
//   * golden output — the exporters are pure functions of a recording, so
//     a hand-built event sequence must serialise to exactly these bytes
//     (JSONL, Chrome trace, heatmap/link CSV, manifest);
//   * determinism — two identically seeded engine runs must export
//     byte-identical artifacts, and a JSONL dump must load back into the
//     exact event sequence that produced it;
//   * parity — the query engine's counters over a dump must equal the
//     run's own NetworkMetrics, which is what makes `snoc_trace summary`
//     trustworthy as a post-mortem view of a run.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "common/cli.hpp"
#include "common/expect.hpp"
#include "common/prof.hpp"
#include "sim/backends.hpp"
#include "sim/scenario.hpp"
#include "telemetry/export.hpp"
#include "telemetry/manifest.hpp"
#include "telemetry/query.hpp"
#include "telemetry/telemetry.hpp"

namespace snoc {
namespace {

TrafficTrace corner_trace() {
    TrafficTrace trace;
    TrafficPhase phase;
    phase.messages.push_back({0, 24, 256});
    phase.messages.push_back({4, 20, 256});
    phase.messages.push_back({20, 4, 256});
    phase.messages.push_back({24, 0, 256});
    trace.phases.push_back(phase);
    return trace;
}

/// A tiny fixed recording: one message created at tile 0, hopped to tile
/// 1, delivered there; a second message that dies to the TTL.
Telemetry fixed_recording() {
    Telemetry t;
    t.record({0, TraceEventKind::MessageCreated, 0, kNoTile, {0, 0}});
    t.record({0, TraceEventKind::Transmitted, 0, 1, {0, 0}});
    t.record({1, TraceEventKind::Accepted, 1, kNoTile, {0, 0}});
    t.record({1, TraceEventKind::Delivered, 1, kNoTile, {0, 0}});
    t.record({1, TraceEventKind::MessageCreated, 3, kNoTile, {3, 7}});
    t.record({2, TraceEventKind::TtlExpired, 3, kNoTile, {3, 7}});
    return t;
}

// --- X-macro table ------------------------------------------------------

TEST(TraceKinds, TableAndStringsAgree) {
    EXPECT_EQ(kTraceEventKinds, 12u);
    for (std::size_t k = 0; k < kTraceEventKinds; ++k) {
        const auto kind = static_cast<TraceEventKind>(k);
        EXPECT_STREQ(to_string(kind), kTraceEventKindNames[k]);
        EXPECT_EQ(trace_kind_from_string(kTraceEventKindNames[k]), kind);
    }
    EXPECT_FALSE(trace_kind_from_string("not-a-kind").has_value());
}

// --- Golden output ------------------------------------------------------

TEST(TelemetryGolden, JsonlBytes) {
    std::ostringstream os;
    write_jsonl(fixed_recording(), os);
    EXPECT_EQ(os.str(),
              "{\"round\":0,\"kind\":\"created\",\"tile\":0,\"msg\":\"0:0\"}\n"
              "{\"round\":0,\"kind\":\"transmitted\",\"tile\":0,\"peer\":1,"
              "\"msg\":\"0:0\"}\n"
              "{\"round\":1,\"kind\":\"accepted\",\"tile\":1,\"msg\":\"0:0\"}\n"
              "{\"round\":1,\"kind\":\"delivered\",\"tile\":1,\"msg\":\"0:0\"}\n"
              "{\"round\":1,\"kind\":\"created\",\"tile\":3,\"msg\":\"3:7\"}\n"
              "{\"round\":2,\"kind\":\"ttl-expired\",\"tile\":3,\"msg\":\"3:7\"}\n");
}

TEST(TelemetryGolden, HeatmapAndLinkCsv) {
    std::ostringstream heat;
    write_heatmap_csv(fixed_recording(), heat, 2);
    EXPECT_EQ(heat.str(),
              "tile,x,y,created,transmitted,accepted,delivered,crc-drop,"
              "fec-drop,overflow-drop,duplicate,ttl-expired,skew-deferral,"
              "crash-drop,buffer-evicted\n"
              "0,0,0,1,1,0,0,0,0,0,0,0,0,0,0\n"
              "1,1,0,0,0,1,1,0,0,0,0,0,0,0,0\n"
              "2,0,1,0,0,0,0,0,0,0,0,0,0,0,0\n"
              "3,1,1,1,0,0,0,0,0,0,0,1,0,0,0\n");
    std::ostringstream links;
    write_link_csv(fixed_recording(), links);
    EXPECT_EQ(links.str(), "from,to,transmissions\n0,1,1\n");
}

/// The exports need the full log: a window that never wrapped exports the
/// same bytes as an unbounded recorder, one that overwrote events fails.
TEST(TelemetryGolden, ExportsNeedTheFullLog) {
    const Telemetry full = fixed_recording();
    Telemetry roomy(full.size());
    Telemetry wrapped(full.size() - 1);
    for (const TraceEvent& e : full.events()) {
        roomy.record(e);
        wrapped.record(e);
    }
    const auto exports = [](const Telemetry& t) {
        std::ostringstream os;
        write_jsonl(t, os);
        write_chrome_trace(t, os);
        write_heatmap_csv(t, os, 2);
        write_link_csv(t, os);
        return os.str();
    };
    EXPECT_EQ(exports(roomy), exports(full));
    std::ostringstream os;
    EXPECT_THROW(write_jsonl(wrapped, os), ContractViolation);
    EXPECT_THROW(write_chrome_trace(wrapped, os), ContractViolation);
    EXPECT_THROW(write_heatmap_csv(wrapped, os, 2), ContractViolation);
    EXPECT_THROW(write_link_csv(wrapped, os), ContractViolation);
}

TEST(TelemetryGolden, ChromeTraceShape) {
    std::ostringstream os;
    write_chrome_trace(fixed_recording(), os);
    const std::string out = os.str();
    // Valid trace_event envelope with per-tile tracks and async message
    // spans; the byte-exactness across identical runs is covered by
    // TelemetryDeterminism.SeededRunsExportIdenticalArtifacts.
    EXPECT_NE(out.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(out.find("\"process_name\""), std::string::npos);
    EXPECT_NE(out.find("\"thread_name\""), std::string::npos);
    EXPECT_NE(out.find("\"ph\":\"b\""), std::string::npos);
    EXPECT_NE(out.find("\"ph\":\"e\""), std::string::npos);
    EXPECT_NE(out.find("\"cat\":\"msg\""), std::string::npos);
    // Message 0:0 terminates via Delivered, 3:7 via TtlExpired.
    EXPECT_NE(out.find("\"outcome\":\"delivered\""), std::string::npos);
    EXPECT_NE(out.find("\"outcome\":\"ttl-expired\""), std::string::npos);
}

TEST(TelemetryGolden, ManifestContents) {
    RunManifest manifest;
    manifest.program = "test_prog";
    manifest.experiment = "cell p=0.5";
    manifest.backend = "gossip";
    manifest.base_seed = 42;
    manifest.repeats = 3;
    manifest.jobs = 2;
    manifest.config.emplace_back("p", "0.5");
    manifest.config.emplace_back("ttl", "30");
    manifest.artifacts.push_back("out/run.jsonl");
    const std::string json = manifest_json(manifest);
    EXPECT_NE(json.find("\"schema_version\": 1"), std::string::npos);
    EXPECT_NE(json.find("\"git_sha\": \""), std::string::npos);
    EXPECT_NE(json.find("\"check_level\": "), std::string::npos);
    EXPECT_NE(json.find("\"program\": \"test_prog\""), std::string::npos);
    EXPECT_NE(json.find("\"backend\": \"gossip\""), std::string::npos);
    EXPECT_NE(json.find("\"base_seed\": 42"), std::string::npos);
    EXPECT_NE(json.find("\"p\": \"0.5\""), std::string::npos);
    EXPECT_NE(json.find("\"ttl\": \"30\""), std::string::npos);
    EXPECT_NE(json.find("\"out/run.jsonl\""), std::string::npos);
    EXPECT_STRNE(build_git_sha(), "");
    EXPECT_EQ(manifest_path_for("out/run.jsonl"), "out/run.manifest.json");
    EXPECT_EQ(manifest_path_for("dir.v2/run"), "dir.v2/run.manifest.json");
}

// A trial's artifact name (tag_path) and its manifest name split a path at
// the same extension: only '/' separates directories, so "out.d\run" is
// one file name whose extension is ".d\run".
TEST(ManifestPath, ArtifactAndManifestNamesSplitAPathAlike) {
    const std::string backslash = tag_path("out.d\\run", "_c0_r0");
    EXPECT_EQ(backslash, "out_c0_r0.d\\run");
    EXPECT_EQ(manifest_path_for(backslash), "out_c0_r0.manifest.json");
    EXPECT_EQ(manifest_path_for("out.d\\run"), "out.manifest.json");

    const std::string dot_dir = tag_path("./trace", "_c0_r0");
    EXPECT_EQ(dot_dir, "./trace_c0_r0");
    EXPECT_EQ(manifest_path_for(dot_dir), "./trace_c0_r0.manifest.json");
    EXPECT_EQ(manifest_path_for("./trace"), "./trace.manifest.json");
}

// --- Determinism / round-trip ------------------------------------------

std::string jsonl_of_seeded_run(std::uint64_t seed, RunReport* report = nullptr) {
    Telemetry telemetry;
    auto backend = make_interconnect(BackendKind::Gossip, FaultScenario::none(),
                                     seed);
    backend->set_trace_sink(&telemetry);
    const RunReport r = backend->run(corner_trace(), 3000);
    if (report) *report = r;
    std::ostringstream os;
    write_jsonl(telemetry, os);
    return os.str();
}

TEST(TelemetryDeterminism, SeededRunsExportIdenticalArtifacts) {
    Telemetry a, b;
    for (Telemetry* t : {&a, &b}) {
        auto backend =
            make_interconnect(BackendKind::Gossip, FaultScenario::none(), 7);
        backend->set_trace_sink(t);
        ASSERT_TRUE(backend->run(corner_trace(), 3000).completed);
    }
    const auto bytes_of = [](const Telemetry& t, auto writer) {
        std::ostringstream os;
        writer(t, os);
        return os.str();
    };
    const auto jsonl = [](const Telemetry& t, std::ostream& os) {
        write_jsonl(t, os);
    };
    const auto chrome = [](const Telemetry& t, std::ostream& os) {
        write_chrome_trace(t, os);
    };
    const auto heat = [](const Telemetry& t, std::ostream& os) {
        write_heatmap_csv(t, os, 5);
    };
    EXPECT_GT(a.total(), 0u);
    EXPECT_EQ(bytes_of(a, jsonl), bytes_of(b, jsonl));
    EXPECT_EQ(bytes_of(a, chrome), bytes_of(b, chrome));
    EXPECT_EQ(bytes_of(a, heat), bytes_of(b, heat));
}

TEST(TelemetryDeterminism, JsonlRoundTripsExactly) {
    Telemetry telemetry;
    auto backend =
        make_interconnect(BackendKind::Gossip, FaultScenario::none(), 11);
    backend->set_trace_sink(&telemetry);
    ASSERT_TRUE(backend->run(corner_trace(), 3000).completed);

    std::ostringstream os;
    write_jsonl(telemetry, os);
    std::istringstream is(os.str());
    const auto loaded = tracequery::load_jsonl(is);
    EXPECT_EQ(loaded.skipped, 0u);
    ASSERT_EQ(loaded.events.size(), telemetry.events().size());
    for (std::size_t i = 0; i < loaded.events.size(); ++i) {
        const TraceEvent& in = telemetry.events()[i];
        const TraceEvent& out = loaded.events[i];
        EXPECT_EQ(out.round, in.round);
        EXPECT_EQ(out.kind, in.kind);
        EXPECT_EQ(out.tile, in.tile);
        EXPECT_EQ(out.peer, in.peer);
        EXPECT_EQ(out.message.origin, in.message.origin);
        EXPECT_EQ(out.message.sequence, in.message.sequence);
    }
}

// The metrics-summary exporter names every scalar NetworkMetrics counter
// (snoc_lint's registry checker enforces the lock-step the other way, by
// scanning the source); golden bytes keep the artifact deterministic.
TEST(TelemetryGolden, MetricsJsonNamesEveryCounter) {
    NetworkMetrics m;
    m.rounds = 3;
    m.packets_sent = 10;
    m.bits_sent = 2560;
    m.messages_created = 4;
    m.deliveries = 4;
    std::ostringstream os;
    write_metrics_json(m, os);
    const std::string out = os.str();
    for (const char* counter :
         {"rounds", "packets_sent", "bits_sent", "messages_created",
          "deliveries", "duplicates_ignored", "crc_drops", "upsets_undetected",
          "overflow_drops", "ttl_expired", "crash_drops",
          "port_overflow_drops", "packets_accepted", "skew_deferrals",
          "fec_corrected", "fec_uncorrectable", "link_hotspot_factor",
          "average_packet_bits"}) {
        EXPECT_NE(out.find('"' + std::string(counter) + "\":"),
                  std::string::npos)
            << "counter missing from metrics JSON: " << counter;
    }
    EXPECT_EQ(out.substr(0, 2), "{\n");
    EXPECT_EQ(out.substr(out.size() - 3), "\n}\n");
    EXPECT_NE(out.find("\"packets_sent\": 10"), std::string::npos);
    EXPECT_NE(out.find("\"average_packet_bits\": 256.000000"),
              std::string::npos);

    // Byte-determinism: a real seeded run exports identical bytes twice.
    std::string dumps[2];
    for (std::string& dump : dumps) {
        auto backend =
            make_interconnect(BackendKind::Gossip, FaultScenario::none(), 7);
        const RunReport report = backend->run(corner_trace(), 3000);
        ASSERT_TRUE(report.completed);
        std::ostringstream run_os;
        write_metrics_json(report.metrics, run_os);
        dump = run_os.str();
    }
    EXPECT_EQ(dumps[0], dumps[1]);
}

// --- Query/metrics parity ----------------------------------------------

TEST(TraceQuery, SummaryCountersMatchNetworkMetrics) {
    RunReport report;
    const std::string dump = jsonl_of_seeded_run(3, &report);
    std::istringstream is(dump);
    const auto loaded = tracequery::load_jsonl(is);
    ASSERT_EQ(loaded.skipped, 0u);

    Telemetry counts;
    for (const TraceEvent& e : loaded.events) counts.record(e);
    const NetworkMetrics& m = report.metrics;
    EXPECT_EQ(counts.count(TraceEventKind::MessageCreated), m.messages_created);
    EXPECT_EQ(counts.count(TraceEventKind::Transmitted), m.packets_sent);
    EXPECT_EQ(counts.count(TraceEventKind::Delivered), m.deliveries);
    EXPECT_EQ(counts.count(TraceEventKind::Accepted), m.packets_accepted);
    EXPECT_EQ(counts.count(TraceEventKind::DuplicateIgnored),
              m.duplicates_ignored);
    EXPECT_EQ(counts.count(TraceEventKind::CrcDrop), m.crc_drops);
    EXPECT_EQ(counts.count(TraceEventKind::FecUncorrectable),
              m.fec_uncorrectable);
    EXPECT_EQ(counts.count(TraceEventKind::TtlExpired), m.ttl_expired);
    EXPECT_EQ(counts.count(TraceEventKind::CrashDrop), m.crash_drops);
    EXPECT_EQ(counts.count(TraceEventKind::SkewDeferral), m.skew_deferrals);
    EXPECT_EQ(counts.count(TraceEventKind::OverflowDrop),
              m.port_overflow_drops);
    EXPECT_EQ(counts.count(TraceEventKind::BufferEvicted),
              m.overflow_drops - m.port_overflow_drops);

    // The summary text carries the same headline numbers.
    const std::string text = tracequery::summary(loaded.events);
    EXPECT_NE(text.find("created " + std::to_string(m.messages_created)),
              std::string::npos);
    EXPECT_NE(text.find("transmitted " + std::to_string(m.packets_sent)),
              std::string::npos);
    EXPECT_NE(text.find("delivered " + std::to_string(m.deliveries)),
              std::string::npos);
}

TEST(TraceQuery, LifelineAndTopK) {
    const std::string dump = jsonl_of_seeded_run(5);
    std::istringstream is(dump);
    const auto loaded = tracequery::load_jsonl(is);
    const auto id = tracequery::parse_message_id("0:0");
    ASSERT_TRUE(id.has_value());
    const std::string life = tracequery::lifeline(loaded.events, *id);
    EXPECT_NE(life.find("created"), std::string::npos);
    EXPECT_NE(life.find("delivered"), std::string::npos);
    EXPECT_NE(tracequery::top_links(loaded.events, 3).find("transmissions"),
              std::string::npos);
    EXPECT_FALSE(tracequery::parse_message_id("garbage").has_value());
}

TEST(TraceQuery, OutOfRangeRoundsAndTilesAreSkipped) {
    // 2^64 - 1 read as a 32-bit round once sized per_round's table at
    // 2^32 rows (std::bad_alloc).  Rounds that fit are not tried here:
    // a large one still allocates gigabytes.
    std::istringstream is(
        "{\"round\":18446744073709551615,\"kind\":\"transmitted\",\"tile\":0}\n"
        "{\"round\":4294967296,\"kind\":\"transmitted\",\"tile\":0}\n"
        "{\"round\":1,\"kind\":\"transmitted\",\"tile\":4294967296}\n"
        "{\"round\":2,\"kind\":\"transmitted\",\"tile\":3}\n");
    const auto loaded = tracequery::load_jsonl(is);
    EXPECT_EQ(loaded.skipped, 3u);
    ASSERT_EQ(loaded.events.size(), 1u);
    EXPECT_EQ(loaded.events[0].round, 2u);
    EXPECT_EQ(loaded.events[0].tile, 3u);
    EXPECT_NE(tracequery::per_round(loaded.events).find('\n'), std::string::npos);
}

TEST(TraceQuery, HostileLinesAreSkippedOrDefaulted) {
    std::istringstream is(
        "{\"round\":1,\"tile\":0,\"kind\":\"transmitted}\n"   // unterminated
        "{\"round\":1,\"kind\":\"transmit\\u00zzted\",\"tile\":0}\n"
        "{\"round\":18446744073709551616,\"kind\":\"transmitted\",\"tile\":0}\n"
        "{\"round\":1,\"kind\":\"transmitted\",\"ti\n"           // truncated
        "{\"msg\":\"\\\"tile\\\":5\",\"round\":1,\"kind\":\"transmitted\"}\n"
        "{\"round\":2,\"kind\":\"transmitted\",\"tile\":3,\"peer\":-4,"
        "\"msg\":\"1:2\"}\n");
    const auto loaded = tracequery::load_jsonl(is);
    EXPECT_EQ(loaded.skipped, 5u);
    ASSERT_EQ(loaded.events.size(), 1u);
    EXPECT_EQ(loaded.events[0].tile, 3u);
    EXPECT_EQ(loaded.events[0].peer, kNoTile); // bad optional field: default
    EXPECT_EQ(loaded.events[0].message.sequence, 2u);

    std::istringstream header(
        "{\"postmortem\":1,\"reason\":\"r\",\"detail\":\"bad \\u12\","
        "\"seed\":-3,\"events\":2}\n");
    const auto bundle = tracequery::load_jsonl(header);
    ASSERT_TRUE(bundle.postmortem.has_value());
    EXPECT_EQ(bundle.postmortem->reason, "r");
    EXPECT_EQ(bundle.postmortem->detail, "");
    EXPECT_EQ(bundle.postmortem->seed, 0u);
    EXPECT_EQ(bundle.postmortem->events, 2u);
}

// --- ScenarioRunner integration ----------------------------------------

TEST(ScenarioTelemetry, ExportsPerTrialArtifactsAndManifest) {
    const std::string dir = ::testing::TempDir();
    ExperimentSpec spec;
    spec.name = "telemetry itest";
    spec.axes = {{"p", {1.0, 0.5}}};
    spec.repeats = 1;
    spec.base_seed = 9;
    spec.jobs = 1;
    spec.telemetry.trace_jsonl_out = dir + "snoc_itest.jsonl";
    spec.telemetry.manifest = true;
    spec.backend = [](const SweepPoint& pt, std::uint64_t seed) {
        GossipSpec gs;
        gs.config.forward_p = pt.value("p");
        return std::make_unique<GossipAdapter>(std::move(gs),
                                               FaultScenario::none(), seed);
    };
    spec.trace = [](const SweepPoint&) { return corner_trace(); };
    const auto cells = ScenarioRunner(std::move(spec)).run();
    ASSERT_EQ(cells.size(), 2u);

    for (std::size_t c = 0; c < 2; ++c) {
        // Two trials in the sweep, so names carry the _c<cell>_r<repeat>
        // suffix and each artifact has a manifest next to it.
        const std::string base = dir + "snoc_itest_c" + std::to_string(c) + "_r0";
        const auto loaded = tracequery::load_jsonl_file(base + ".jsonl");
        EXPECT_GT(loaded.events.size(), 0u) << base;

        std::ifstream manifest(base + ".manifest.json");
        ASSERT_TRUE(manifest.good()) << base;
        std::stringstream buffer;
        buffer << manifest.rdbuf();
        EXPECT_NE(buffer.str().find("\"backend\": \"gossip\""),
                  std::string::npos);
        EXPECT_NE(buffer.str().find("\"p\": "), std::string::npos);

        // trace_counts mirror the recording that was exported.
        const RunReport& r = cells[c].reports.front();
        ASSERT_EQ(r.trace_counts.size(), kTraceEventKinds);
        Telemetry counts;
        for (const TraceEvent& e : loaded.events) counts.record(e);
        for (std::size_t k = 0; k < kTraceEventKinds; ++k)
            EXPECT_EQ(r.trace_counts[k], counts.totals()[k]) << "kind " << k;

        std::remove((base + ".jsonl").c_str());
        std::remove((base + ".manifest.json").c_str());
    }

    // Flooding (p=1) moves at least as many packets as p=0.5.
    const auto tx = [](const CellResult& cell) {
        return cell.reports.front()
            .trace_counts[static_cast<std::size_t>(TraceEventKind::Transmitted)];
    };
    EXPECT_GE(tx(cells[0]), tx(cells[1]));
}

TEST(ScenarioTelemetry, NoSinkLeavesTraceCountsEmpty) {
    ExperimentSpec spec;
    spec.name = "telemetry off";
    spec.base_seed = 1;
    spec.jobs = 1;
    spec.backend = [](const SweepPoint&, std::uint64_t seed) {
        return std::make_unique<GossipAdapter>(GossipSpec{},
                                               FaultScenario::none(), seed);
    };
    spec.trace = [](const SweepPoint&) { return corner_trace(); };
    const auto cells = ScenarioRunner(std::move(spec)).run();
    ASSERT_EQ(cells.size(), 1u);
    EXPECT_TRUE(cells[0].reports.front().trace_counts.empty());
}

// --- Profiling scopes ---------------------------------------------------

TEST(Prof, ScopesRecordOnlyWhenEnabled) {
    prof::reset();
    { SNOC_PROF("test/disabled"); }
    EXPECT_EQ(prof::snapshot().count("test/disabled"), 0u);

    prof::set_enabled(true);
    { SNOC_PROF("test/enabled"); }
    { SNOC_PROF("test/enabled"); }
    prof::set_enabled(false);

    const auto stats = prof::snapshot();
    ASSERT_EQ(stats.count("test/enabled"), 1u);
    EXPECT_EQ(stats.at("test/enabled").calls, 2u);
    EXPECT_GE(stats.at("test/enabled").seconds, 0.0);
    EXPECT_NE(prof::report().find("test/enabled"), std::string::npos);
    prof::reset();
}

TEST(Prof, LayerScopesAreGatedAndRecordWhenArmed) {
    // The fault injector's upset sampler, the CRC and SECDED verdicts and
    // the encoder: off unless armed, recorded when armed.  Clean
    // transmissions carry no bytes, and an upset's verdict comes from its
    // flip positions, so bytes are encoded only where the verdict needs
    // them (a CRC-passing vector, a length-prefix hit that keeps the frame
    // size, a miscorrection) or under the reference encode path.
    const char* const names[] = {"fault/upset", "noc/crc", "noc/secded",
                                 "engine/encode"};
    const auto run = [](LinkProtection protection, bool reference_encode = false) {
        GossipSpec gs;
        gs.drain = true;
        gs.config.link_protection = protection;
        gs.config.reference_encode_path = reference_encode;
        FaultScenario faults;
        faults.p_upset = 0.3;
        GossipAdapter net(std::move(gs), faults, 4);
        return net.run(corner_trace(), 400);
    };
    prof::reset();
    run(LinkProtection::CrcDetect);
    run(LinkProtection::SecdedCorrect);
    for (const char* name : names) EXPECT_EQ(prof::snapshot().count(name), 0u) << name;

    const auto calls = [](const char* name) {
        const auto stats = prof::snapshot();
        const auto it = stats.find(name);
        return it == stats.end() ? std::uint64_t{0} : it->second.calls;
    };

    // CRC only: each upset's verdict is timed once, and each either fails
    // the CRC or slips through it undetected.  Nothing here is dropped
    // before the receive phase, so every upset arrives.
    prof::set_enabled(true);
    const RunReport crc = run(LinkProtection::CrcDetect);
    prof::set_enabled(false);
    EXPECT_GT(calls("fault/upset"), 0u);
    EXPECT_EQ(calls("noc/crc"), calls("fault/upset"));
    EXPECT_EQ(calls("noc/crc"), crc.metrics.crc_drops + crc.metrics.upsets_undetected);
    EXPECT_LT(calls("noc/crc"), crc.metrics.packets_sent);
    EXPECT_EQ(crc.metrics.upsets_undetected, 0u);
    EXPECT_EQ(calls("engine/encode"), 0u); // no CRC-passing vector was drawn
    EXPECT_EQ(calls("noc/secded"), 0u);

    // SECDED: each upset's verdict is timed once, sparse or from bytes;
    // only byte fallbacks are encoded, and only they reach the CRC.
    prof::reset();
    prof::set_enabled(true);
    const RunReport fec = run(LinkProtection::SecdedCorrect);
    prof::set_enabled(false);
    EXPECT_GT(calls("noc/secded"), 0u);
    EXPECT_EQ(calls("noc/secded"), calls("fault/upset"));
    EXPECT_GE(calls("noc/secded"), fec.metrics.fec_uncorrectable);
    EXPECT_LT(calls("noc/crc"), calls("noc/secded"));
    EXPECT_LT(calls("engine/encode"), calls("noc/secded"));

    // The reference path encodes every transmission and decodes every
    // arrival from its bytes.
    prof::reset();
    prof::set_enabled(true);
    const RunReport ref = run(LinkProtection::CrcDetect, true);
    prof::set_enabled(false);
    EXPECT_EQ(calls("engine/encode"), ref.metrics.packets_sent);
    EXPECT_GT(calls("noc/crc"), ref.metrics.crc_drops + ref.metrics.upsets_undetected);
    EXPECT_EQ(ref.metrics.crc_drops, crc.metrics.crc_drops);
    prof::reset();
}

TEST(Prof, BusXyAndDeflectionScopesRecordWhenArmed) {
    // The router backends outside the router core: the deflection
    // network's cycle, the XY replay and the shared-bus run.
    const char* const names[] = {"deflection/step", "xy/replay", "bus/run"};
    const auto run = [] {
        SteppedAdapter<DeflectionSpec> deflection(DeflectionSpec{}, FaultScenario::none(), 1);
        XyAdapter xy(XySpec{}, FaultScenario::none(), 1);
        BusAdapter bus(BusSpec{}, FaultScenario::none(), 1);
        EXPECT_TRUE(deflection.run(corner_trace(), 400).completed);
        EXPECT_TRUE(xy.run(corner_trace(), 400).completed);
        EXPECT_TRUE(bus.run(corner_trace(), 400).completed);
    };
    const auto calls = [](const char* name) {
        const auto stats = prof::snapshot();
        const auto it = stats.find(name);
        return it == stats.end() ? std::uint64_t{0} : it->second.calls;
    };
    prof::reset();
    run();
    for (const char* name : names) EXPECT_EQ(calls(name), 0u) << name;

    prof::set_enabled(true);
    run();
    prof::set_enabled(false);
    EXPECT_GT(calls("deflection/step"), 0u);
    EXPECT_EQ(calls("xy/replay"), 1u);
    EXPECT_EQ(calls("bus/run"), 1u);
    prof::reset();
}

TEST(Prof, AggregateAndExportScopesRecordWhenArmed) {
    // ScenarioRunner's per-cell aggregate() and the telemetry exporters
    // (each path overload delegates to its stream overload).
    const auto run = [] {
        std::vector<RunReport> reports(2);
        reports[0].completed = true;
        EXPECT_DOUBLE_EQ(aggregate(reports).completion_rate, 0.5);
        Telemetry telemetry;
        std::ostringstream os;
        write_jsonl(telemetry, os);
        write_chrome_trace(telemetry, os);
        write_heatmap_csv(telemetry, os, 0);
        write_link_csv(telemetry, os);
        write_metrics_json(NetworkMetrics{}, os);
    };
    const auto calls = [](const char* name) {
        const auto stats = prof::snapshot();
        const auto it = stats.find(name);
        return it == stats.end() ? std::uint64_t{0} : it->second.calls;
    };
    prof::reset();
    run();
    EXPECT_EQ(calls("scenario/aggregate"), 0u);
    EXPECT_EQ(calls("telemetry/export"), 0u);

    prof::set_enabled(true);
    run();
    prof::set_enabled(false);
    EXPECT_EQ(calls("scenario/aggregate"), 1u);
    EXPECT_EQ(calls("telemetry/export"), 5u);
    prof::reset();
}

TEST(Prof, RouterScopesCountCyclesAndDumpDeterministically) {
    // The four RouterCore stages run once per simulated cycle; the
    // wormhole step once per *simulated* cycle too, so a worm wedged on a
    // dead centre tile shows the frozen cycles it skipped.
    const char* const stages[] = {"router/inject", "router/fate", "router/arbitrate",
                                  "router/move"};
    TrafficTrace wedge;
    wedge.phases.push_back({});
    wedge.phases[0].messages.push_back({10, 14, 256}); // XY crosses tile 12
    wedge.phases[0].messages.push_back({0, 24, 256});
    const auto run = [&] {
        SteppedAdapter<StoreForwardSpec> saf(StoreForwardSpec{}, FaultScenario::none(), 1);
        WormholeSpec spec;
        for (TileId t = 0; t < 25; ++t)
            if (t != 12) spec.protect.push_back(t);
        FaultScenario centre;
        centre.p_tiles = 1.0; // only the unprotected centre dies.
        SteppedAdapter<WormholeSpec> worm(spec, centre, 1);
        return std::pair{saf.run(corner_trace(), 400), worm.run(wedge, 400)};
    };
    const auto calls = [](const char* name) {
        const auto stats = prof::snapshot();
        const auto it = stats.find(name);
        return it == stats.end() ? std::uint64_t{0} : it->second.calls;
    };
    // The dump minus its wall-clock readings: labels and call counts only.
    const auto timeless_json = [] {
        std::string json = prof::json_report();
        for (std::size_t at = 0; (at = json.find("\"seconds\": ", at)) != std::string::npos;) {
            at += 11;
            const std::size_t end = json.find('}', at);
            json.erase(at, end - at);
        }
        return json;
    };

    prof::reset();
    run();
    for (const char* name : stages) EXPECT_EQ(calls(name), 0u) << name;
    EXPECT_EQ(calls("wormhole/step"), 0u);

    prof::set_enabled(true);
    const auto [saf, worm] = run();
    prof::set_enabled(false);
    ASSERT_TRUE(saf.completed);
    for (const char* name : stages) EXPECT_EQ(calls(name), saf.rounds) << name;
    EXPECT_FALSE(worm.completed);
    EXPECT_EQ(worm.rounds, 400u);
    EXPECT_GT(calls("wormhole/step"), 0u);
    EXPECT_LT(calls("wormhole/step"), worm.rounds) << "frozen cycles were stepped";
    const std::string first = timeless_json();
    for (const char* name : {"router/arbitrate", "wormhole/step"})
        EXPECT_NE(first.find(std::string("\"") + name + "\": {\"calls\": "),
                  std::string::npos)
            << name;

    prof::reset();
    prof::set_enabled(true);
    run();
    prof::set_enabled(false);
    EXPECT_EQ(timeless_json(), first);
    prof::reset();
}

} // namespace
} // namespace snoc
