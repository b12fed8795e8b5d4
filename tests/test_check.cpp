// The invariant auditor's own test suite (ctest label: check).
//
// Positive half: every backend, run under the auditor on the scenario
// shapes the figures actually use (corner traffic, the Fig. 4-4 pi / FFT
// deployments, the Fig. 4-6 tuned-TTL unicast, the Fig. 5-3 diversity
// architectures), must produce zero violations — the conservation laws
// hold on real runs, fault injection and all.
//
// Negative half: the auditor must *catch* what it claims to catch.  We
// feed it a leaked ledger, an over-capacity buffer, a self-inconsistent
// RunReport and tampered metrics, and assert each one is flagged — a
// checker nobody has ever seen fail is not evidence of anything.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>

#include "apps/trace_app.hpp"
#include "bus/deflection.hpp"
#include "bench_util.hpp"
#include "check/invariant_auditor.hpp"
#include "check/ledger.hpp"
#include "common/expect.hpp"
#include "diversity/architecture.hpp"
#include "sim/backends.hpp"
#include "sim/scenario.hpp"
#include "telemetry/telemetry.hpp"
#include "wormhole/router.hpp"

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

// --- Positive: all five backends audit clean ---------------------------

// Adapters with the trace endpoints protected, so crash scenarios stay
// well-formed for every backend (deflection refuses dead sources).
std::unique_ptr<Interconnect> make_protected(BackendKind kind,
                                             const FaultScenario& scenario,
                                             std::uint64_t seed) {
    const std::vector<TileId> corners{0, 4, 20, 24};
    const auto build = [&](auto spec) {
        spec.protect = corners;
        return make_interconnect(std::move(spec), scenario, seed);
    };
    switch (kind) {
    case BackendKind::Gossip: return build(GossipSpec{});
    case BackendKind::Bus: return make_interconnect(BusSpec{}, scenario, seed);
    case BackendKind::Xy: return build(XySpec{});
    case BackendKind::Wormhole: return build(WormholeSpec{});
    case BackendKind::Deflection: return build(DeflectionSpec{});
    case BackendKind::StoreForward: return build(StoreForwardSpec{});
    case BackendKind::CutThrough: return build(CutThroughSpec{});
    case BackendKind::Adaptive: return build(AdaptiveSpec{});
    }
    return nullptr;
}

TEST(AuditParity, AllBackendsCleanOnCornerTrace) {
    const auto trace = corner_trace();
    FaultScenario scenario;
    scenario.p_tiles = 0.1;
    scenario.p_upset = 0.01;
    for (const BackendKind kind : kBackendKinds) {
        for (std::uint64_t seed = 0; seed < 3; ++seed) {
            check::InvariantAuditor auditor;
            auto backend = make_protected(kind, scenario, seed);
            backend->set_auditor(&auditor);
            const RunReport report = backend->run(trace, 3000);
            EXPECT_TRUE(auditor.clean())
                << to_string(kind) << " seed " << seed << ": "
                << auditor.summary();
            EXPECT_EQ(report.audit_violations, 0u)
                << to_string(kind) << " seed " << seed;
        }
        // Fault-free flavour must complete and still audit clean.
        check::InvariantAuditor auditor;
        auto backend = make_interconnect(kind, FaultScenario::none(), 1);
        backend->set_auditor(&auditor);
        const RunReport report = backend->run(trace, 3000);
        EXPECT_TRUE(report.completed) << to_string(kind);
        EXPECT_TRUE(auditor.clean()) << to_string(kind) << ": "
                                     << auditor.summary();
    }
}

// Backend parity for the telemetry layer: every backend must speak the
// same TraceEvent vocabulary through the same sink API.  On the fault-free
// corner trace the stream is also *quantitatively* consistent: one created
// and one delivered event per logical message, transmitted events equal to
// the report's transmission counter, and no loss events at all.
TEST(AuditParity, AllBackendsEmitConsistentEventStream) {
    const auto trace = corner_trace();
    for (const BackendKind kind : kBackendKinds) {
        Telemetry telemetry;
        auto backend = make_interconnect(kind, FaultScenario::none(), 1);
        backend->set_trace_sink(&telemetry);
        const RunReport report = backend->run(trace, 3000);
        ASSERT_TRUE(report.completed) << to_string(kind);
        EXPECT_GT(telemetry.total(), 0u) << to_string(kind);
        EXPECT_EQ(telemetry.count(TraceEventKind::MessageCreated),
                  trace.message_count())
            << to_string(kind);
        EXPECT_EQ(telemetry.count(TraceEventKind::Delivered),
                  trace.message_count())
            << to_string(kind);
        EXPECT_EQ(telemetry.count(TraceEventKind::Transmitted),
                  report.transmissions)
            << to_string(kind);
        // No faults injected, so the loss taxonomy must stay silent.
        for (const TraceEventKind k :
             {TraceEventKind::CrcDrop, TraceEventKind::FecUncorrectable,
              TraceEventKind::CrashDrop}) {
            EXPECT_EQ(telemetry.count(k), 0u)
                << to_string(kind) << " emitted " << to_string(k);
        }
        // Every event carries an in-range kind (the stream round-trips
        // through to_string/from_string without falling off the table).
        for (const TraceEvent& e : telemetry.events()) {
            const auto name = to_string(e.kind);
            ASSERT_STRNE(name, "?") << to_string(kind);
            EXPECT_EQ(trace_kind_from_string(name), e.kind);
        }
    }
}

TEST(AuditParity, AuditingDoesNotChangeResults) {
    const auto trace = corner_trace();
    FaultScenario scenario;
    scenario.p_tiles = 0.1;
    for (std::uint64_t seed = 0; seed < 3; ++seed) {
        auto plain = make_interconnect(BackendKind::Gossip, scenario, seed);
        const RunReport a = plain->run(trace, 1000);

        check::InvariantAuditor auditor;
        auto audited = make_interconnect(BackendKind::Gossip, scenario, seed);
        audited->set_auditor(&auditor);
        const RunReport b = audited->run(trace, 1000);

        EXPECT_EQ(a.completed, b.completed) << seed;
        EXPECT_EQ(a.rounds, b.rounds) << seed;
        EXPECT_EQ(a.transmissions, b.transmissions) << seed;
        EXPECT_EQ(a.bits, b.bits) << seed;
        EXPECT_EQ(a.deliveries, b.deliveries) << seed;
        EXPECT_TRUE(auditor.clean()) << auditor.summary();
    }
}

// --- Positive: the figure workloads audit clean ------------------------

// Fig. 4-4 shape: pi and FFT deployments under exact tile crashes plus
// data upsets — the workload that exercises CRC drops, crash sinks, TTL
// expiry and the drain all at once.
TEST(AuditFigures, PiDeploymentWithFaults) {
    FaultScenario scenario;
    scenario.p_upset = 0.01;
    scenario.p_overflow = 0.01;
    check::InvariantAuditor auditor;
    const RunReport r = bench::run_pi_once(bench::config_with_p(0.5),
                                           scenario, /*exact_tile_crashes=*/2,
                                           /*seed=*/3, true, 3000, false,
                                           &auditor);
    EXPECT_GT(auditor.rounds_audited(), 0u);
    EXPECT_TRUE(auditor.clean()) << auditor.summary();
    EXPECT_EQ(r.audit_violations, 0u);
}

TEST(AuditFigures, FftDeploymentWithFaults) {
    FaultScenario scenario;
    scenario.p_upset = 0.005;
    scenario.sigma_synchr = 0.1;
    check::InvariantAuditor auditor;
    const RunReport r = bench::run_fft_once(bench::config_with_p(0.6),
                                            scenario, /*exact_tile_crashes=*/1,
                                            /*seed=*/5, 3000, &auditor);
    EXPECT_GT(auditor.rounds_audited(), 0u);
    EXPECT_TRUE(auditor.clean()) << auditor.summary();
    EXPECT_EQ(r.audit_violations, 0u);
}

// Fig. 4-6 shape: tuned (short) TTL, stop-spread-on-delivery, direct
// addressing — the configuration where rumors die young and the
// stop-spread GC path is hot.
TEST(AuditFigures, TunedTtlUnicast) {
    auto config = bench::config_with_p(0.5, /*ttl=*/8);
    config.stop_spread_on_delivery = true;
    check::InvariantAuditor auditor;
    (void)bench::run_pi_once(config, FaultScenario::none(), 0, /*seed=*/1,
                             /*duplicate_slaves=*/false, 3000,
                             /*direct_addressing=*/true, &auditor);
    EXPECT_GT(auditor.rounds_audited(), 0u);
    EXPECT_TRUE(auditor.clean()) << auditor.summary();
}

// Fig. 5-3 shape: the diversity architectures through ScenarioRunner's
// declarative audit flag — per-trial auditors, violations aggregated.
TEST(AuditFigures, DiversityArchitecturesViaScenarioRunner) {
    constexpr diversity::ArchitectureKind kKinds[] = {
        diversity::ArchitectureKind::FlatNoc,
        diversity::ArchitectureKind::HierarchicalNoc,
        diversity::ArchitectureKind::CentralRouterMesh,
        diversity::ArchitectureKind::BusConnectedNocs};
    ExperimentSpec spec;
    spec.name = "check fig5_3";
    spec.axes = {{"arch", {0, 1, 2, 3}}};
    spec.repeats = 1;
    spec.max_rounds = 20000;
    spec.audit = true;
    spec.backend = [&](const SweepPoint& pt, std::uint64_t seed) {
        return diversity::make_interconnect(kKinds[pt.index_of("arch")],
                                            bench::config_with_p(0.75, 40),
                                            FaultScenario::none(), seed);
    };
    spec.trace = [&](const SweepPoint& pt) {
        const auto arch =
            diversity::make_architecture(kKinds[pt.index_of("arch")]);
        return diversity::beamforming_trace_for(arch, /*frames=*/2);
    };
    const auto cells = ScenarioRunner(spec).run();
    ASSERT_EQ(cells.size(), 4u);
    for (const CellResult& cell : cells) {
        EXPECT_EQ(cell.stats.audit_violations, 0u) << cell.point.label();
        for (const RunReport& r : cell.reports)
            EXPECT_EQ(r.audit_violations, 0u) << cell.point.label();
    }
}

TEST(AuditFigures, ScenarioRunnerAuditFlagCoversRetries) {
    ExperimentSpec spec;
    spec.name = "check gossip sweep";
    spec.axes = {{"p", {0.3, 0.6}}};
    spec.repeats = 2;
    spec.max_attempts = 3;
    spec.audit = true;
    spec.backend = [](const SweepPoint& pt, std::uint64_t seed) {
        GossipSpec g;
        g.config = bench::config_with_p(pt.value("p"), /*ttl=*/12);
        return std::make_unique<GossipAdapter>(std::move(g),
                                               FaultScenario::none(), seed);
    };
    spec.trace = [](const SweepPoint&) { return corner_trace(); };
    for (const CellResult& cell : ScenarioRunner(spec).run())
        EXPECT_EQ(cell.stats.audit_violations, 0u) << cell.point.label();
}

// --- Negative: the auditor detects what it claims to -------------------

TEST(AuditDetects, LeakedWireCopy) {
    // A real run's ledger, then a copy leaks: one transmitted packet
    // vanishes without a recorded fate.
    GossipNetwork net(Topology::mesh(5, 5), bench::config_with_p(0.5),
                      FaultScenario::none(), 11);
    apps::TraceDriver driver(net, corner_trace());
    (void)net.run_until([&driver] { return driver.complete(); }, 500);
    check::ConservationLedger ledger = net.ledger();
    EXPECT_TRUE(ledger.balanced());
    ledger.accepted -= 1; // the leak: an accepted copy unaccounted for.

    check::InvariantAuditor auditor;
    auditor.check_conservation(ledger);
    ASSERT_FALSE(auditor.clean());
    EXPECT_EQ(auditor.violations().front().invariant, "wire-conservation");
    EXPECT_THROW(auditor.throw_if_dirty(), ContractViolation);
}

TEST(AuditDetects, BufferLeak) {
    check::ConservationLedger ledger;
    ledger.injected = 10;
    ledger.transmitted = 5; // wire law balanced: all 5 accepted.
    ledger.accepted = 5;
    ledger.ttl_expired = 9;
    ledger.buffered = 4; // 15 in, 13 accounted: two copies leaked.
    check::InvariantAuditor auditor;
    auditor.check_conservation(ledger);
    ASSERT_FALSE(auditor.clean());
    EXPECT_EQ(auditor.violations().front().invariant, "buffer-conservation");
}

TEST(AuditDetects, BufferOverrun) {
    check::InvariantAuditor auditor;
    auditor.check_occupancy(/*tile=*/7, /*size=*/9, /*capacity=*/8);
    ASSERT_FALSE(auditor.clean());
    EXPECT_EQ(auditor.violations().front().invariant, "occupancy");
    auditor.reset();
    auditor.check_occupancy(7, 8, 8); // at capacity is legal.
    EXPECT_TRUE(auditor.clean());
}

TEST(AuditDetects, InconsistentRunReport) {
    const auto trace = corner_trace();
    RunReport report;
    report.messages = trace.message_count();
    report.deliveries = report.messages + 1; // more delivered than offered.
    report.dropped = 0;
    report.completed = true;
    check::InvariantAuditor auditor;
    auditor.check_report(report, BackendKind::Xy, &trace, 0);
    EXPECT_FALSE(auditor.clean());

    auditor.reset();
    RunReport budget;
    budget.messages = trace.message_count();
    budget.deliveries = budget.messages;
    budget.rounds = 501; // over the budget it was given.
    budget.completed = true;
    auditor.check_report(budget, BackendKind::Wormhole, &trace, 500);
    ASSERT_FALSE(auditor.clean());
    EXPECT_EQ(auditor.violations().front().invariant, "report-budget");
}

TEST(AuditDetects, TamperedMetricsHistograms) {
    GossipNetwork net(Topology::mesh(5, 5), bench::config_with_p(0.5),
                      FaultScenario::none(), 2);
    apps::TraceDriver driver(net, corner_trace());
    (void)net.run_until([&driver] { return driver.complete(); }, 500);

    NetworkMetrics tampered = net.metrics();
    tampered.packets_sent += 1; // per-link histogram no longer sums up.
    check::InvariantAuditor auditor;
    auditor.check_metrics(tampered, /*include_round_histogram=*/true);
    EXPECT_FALSE(auditor.clean()) << "histogram tamper went unnoticed";
}

std::set<std::string> broken_laws(const check::InvariantAuditor& auditor) {
    std::set<std::string> laws;
    for (const auto& v : auditor.violations()) laws.insert(v.invariant);
    return laws;
}

// The router core exposes its live record table to check_router; a clean
// run must pass, and the report-level metrics gate (which full-metrics
// backends opt into) must notice a tampered counter for the router kinds.
// The record law under check_router is also the deflection and wormhole
// audit: a clean record set from each passes, a tampered one is flagged.
TEST(AuditDetects, RouterMetricsGateCatchesTamper) {
    const auto trace = corner_trace();
    RunReport report =
        make_interconnect(StoreForwardSpec{}, FaultScenario::none(), 1)->run(trace, 10000);
    ASSERT_TRUE(report.completed);

    check::InvariantAuditor auditor;
    auditor.check_report(report, BackendKind::StoreForward, &trace, 10000);
    EXPECT_TRUE(auditor.clean()) << auditor.summary();

    report.metrics.packets_sent += 1; // per-link histogram no longer sums up.
    auditor.reset();
    auditor.check_report(report, BackendKind::StoreForward, &trace, 10000);
    EXPECT_FALSE(auditor.clean()) << "router metrics tamper went unnoticed";

    const std::size_t budget = deflection::Config{}.max_hops;
    deflection::Network defl(5, 5, deflection::Config{}, 1);
    for (const auto& m : trace.phases.front().messages)
        defl.inject(m.src, m.dst, m.bits);
    while (defl.in_flight() > 0) defl.step();
    auto records = defl.records();
    auditor.reset();
    auditor.check_records(records, defl.delivered(), defl.dropped(), 0, budget);
    EXPECT_TRUE(auditor.clean()) << auditor.summary();
    records.front().dropped = true;       // delivered and dropped at once.
    records.back().hops = budget + 1;     // past the livelock guard.
    auditor.check_records(records, defl.delivered(), defl.dropped(), 0, budget);
    EXPECT_EQ(broken_laws(auditor),
              (std::set<std::string>{"record-fate", "record-hop-budget",
                                     "record-accounting"}));

    wormhole::Network worm(5, 5, wormhole::Config{});
    for (const auto& m : trace.phases.front().messages)
        worm.inject(m.src, m.dst, m.bits);
    while (worm.in_flight() > 0) worm.step();
    auto worms = worm.records();
    auditor.reset();
    auditor.check_records(worms, worm.delivered(), 0, 0, /*max_hops=*/0);
    EXPECT_TRUE(auditor.clean()) << auditor.summary();
    worms.front().injected_cycle = *worms.front().delivered_cycle + 1;
    worms.pop_back(); // a delivered packet without a record.
    auditor.check_records(worms, worm.delivered(), 0, 0, /*max_hops=*/0);
    EXPECT_EQ(broken_laws(auditor),
              (std::set<std::string>{"record-causality", "record-accounting",
                                     "record-conservation"}));
}

TEST(AuditDetects, RouterCoreCleanAfterDirectRun) {
    router::RouterCore core(Topology::mesh(5, 5), router::RouterConfig{});
    const auto trace = corner_trace();
    for (const auto& m : trace.phases.front().messages)
        core.inject(m.src, m.dst, m.bits);
    while (!core.idle()) core.step();
    check::InvariantAuditor auditor;
    auditor.check_router(core);
    EXPECT_TRUE(auditor.clean()) << auditor.summary();
    EXPECT_GT(auditor.rounds_audited(), 0u);
}

TEST(AuditDetects, SummaryNamesTheBrokenInvariant) {
    check::InvariantAuditor auditor;
    auditor.begin_run("negative");
    auditor.check_occupancy(3, 10, 4);
    const std::string s = auditor.summary();
    EXPECT_NE(s.find("occupancy"), std::string::npos) << s;
    EXPECT_NE(s.find("negative"), std::string::npos) << s;
    EXPECT_EQ(auditor.violation_count(), 1u);
    auditor.reset();
    EXPECT_TRUE(auditor.clean());
    EXPECT_EQ(auditor.violation_count(), 0u);
}

} // namespace
} // namespace snoc
