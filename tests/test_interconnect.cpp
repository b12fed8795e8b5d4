// The unified Interconnect adapters (sim/backends.hpp) must be zero-cost
// wrappers: a run through an adapter is metric-for-metric identical to
// driving the underlying backend by hand with the same seed, because the
// adapters reproduce the benches' exact construction order and RNG
// derivation.  These are the backend-parity tests the refactor rests on.
//
// engine-equivalence-backends: gossip bus xy wormhole deflection storeforward cutthrough adaptive
// (snoc_lint cross-checks that marker against the BackendKind enum:
// adding a backend without extending Factory.EveryBackendIsDeterministic
// below — and this list — is a lint error.)
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "apps/trace_app.hpp"
#include "bus/bus.hpp"
#include "bus/xy_router.hpp"
#include "check/invariant_auditor.hpp"
#include "common/rng.hpp"
#include "core/engine.hpp"
#include "fault/injector.hpp"
#include "sim/backends.hpp"
#include "telemetry/export.hpp"
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

TEST(GossipAdapter, MatchesDirectNetworkRun) {
    const auto trace = corner_trace();
    FaultScenario scenario;
    scenario.p_tiles = 0.1;
    GossipConfig config;
    config.forward_p = 0.5;
    config.default_ttl = 40;

    for (std::uint64_t seed = 0; seed < 5; ++seed) {
        // By hand, exactly as the old ablation bench did.
        GossipNetwork net(Topology::mesh(5, 5), config, scenario, seed);
        for (TileId t : {0u, 4u, 20u, 24u}) net.protect(t);
        apps::TraceDriver driver(net, trace);
        const auto direct =
            net.run_until([&driver] { return driver.complete(); }, 1000);

        GossipSpec spec;
        spec.topology = Topology::mesh(5, 5);
        spec.config = config;
        spec.protect = {0, 4, 20, 24};
        GossipAdapter adapter(std::move(spec), scenario, seed);
        const RunReport report = adapter.run(trace, 1000);

        EXPECT_EQ(report.completed, direct.completed) << seed;
        EXPECT_EQ(report.rounds, direct.rounds) << seed;
        EXPECT_DOUBLE_EQ(report.seconds, direct.elapsed_seconds) << seed;
        EXPECT_EQ(report.transmissions, net.metrics().packets_sent) << seed;
        EXPECT_EQ(report.bits, net.metrics().bits_sent) << seed;
        EXPECT_EQ(report.deliveries, driver.delivered_messages()) << seed;
        EXPECT_EQ(report.metrics.deliveries, net.metrics().deliveries) << seed;
        EXPECT_EQ(report.seed, seed);
        EXPECT_EQ(adapter.kind(), BackendKind::Gossip);
    }
}

TEST(GossipAdapter, DrainMatchesManualDrain) {
    GossipConfig config;
    config.forward_p = 0.75;
    const auto trace = corner_trace();

    GossipNetwork net(Topology::mesh(5, 5), config, FaultScenario::none(), 7);
    apps::TraceDriver driver(net, trace);
    (void)net.run_until([&driver] { return driver.complete(); }, 1000);
    net.drain();

    GossipSpec spec;
    spec.config = config;
    spec.drain = true;
    GossipAdapter adapter(std::move(spec), FaultScenario::none(), 7);
    const RunReport report = adapter.run(trace, 1000);

    EXPECT_EQ(report.bits, net.metrics().bits_sent);
    EXPECT_EQ(report.transmissions, net.metrics().packets_sent);
}

TEST(GossipAdapter, ExactCrashesMatchForcedNetwork) {
    GossipConfig config;
    config.forward_p = 0.5;
    GossipNetwork net(Topology::mesh(5, 5), config, FaultScenario::none(), 3);
    net.protect(12);
    net.force_exact_tile_crashes(4);
    const auto direct = net.run_until([] { return false; }, 30);

    GossipSpec spec;
    spec.config = config;
    spec.protect = {12};
    spec.exact_tile_crashes = 4;
    GossipAdapter adapter(std::move(spec), FaultScenario::none(), 3);
    const RunReport report =
        adapter.run_until([] { return false; }, 30);

    EXPECT_EQ(report.completed, direct.completed);
    EXPECT_EQ(report.transmissions, net.metrics().packets_sent);
    EXPECT_EQ(report.bits, net.metrics().bits_sent);
}

TEST(BusAdapter, MatchesDirectBusRun) {
    const auto trace = corner_trace();
    const auto tech = Technology::cmos_025um();
    SharedBus bus(25, tech);
    const BusRunResult direct = bus.run(trace);

    BusAdapter adapter(BusSpec{25, tech}, FaultScenario::none(), 0);
    const RunReport report = adapter.run(trace, 0);

    EXPECT_TRUE(report.completed);
    EXPECT_DOUBLE_EQ(report.seconds, direct.seconds);
    EXPECT_DOUBLE_EQ(report.joules, direct.joules);
    EXPECT_EQ(report.transmissions, direct.transfers);
    EXPECT_EQ(report.bits, direct.bits);
    EXPECT_EQ(report.deliveries, trace.message_count());
    EXPECT_EQ(report.dropped, 0u);
}

TEST(BusAdapter, LinkCrashKillsTheBus) {
    FaultScenario scenario;
    scenario.p_links = 1.0; // certain crash: the medium is one link.
    BusAdapter adapter(BusSpec{}, scenario, 11);
    const RunReport report = adapter.run(corner_trace(), 0);
    EXPECT_FALSE(report.completed);
    EXPECT_EQ(report.deliveries, 0u);
    EXPECT_EQ(report.dropped, corner_trace().message_count());
}

TEST(XyAdapter, MatchesDirectXyRun) {
    const auto mesh = Topology::mesh(5, 5);
    const auto trace = corner_trace();
    FaultScenario scenario;
    scenario.p_tiles = 0.15;
    const std::vector<TileId> endpoints{0, 4, 20, 24};

    for (std::uint64_t seed = 0; seed < 8; ++seed) {
        // By hand, exactly as the old ablation bench did.
        RngPool pool(seed);
        FaultInjector injector(scenario, pool);
        const auto crashes = injector.roll_crashes(mesh, endpoints);
        const XyRunResult direct = run_xy_trace(mesh, trace, crashes);

        XyAdapter adapter(XySpec{mesh, endpoints}, scenario, seed);
        const RunReport report = adapter.run(trace, 0);

        EXPECT_EQ(adapter.crashes().dead_tile_count(), crashes.dead_tile_count())
            << seed;
        EXPECT_EQ(report.deliveries, direct.delivered) << seed;
        EXPECT_EQ(report.dropped, direct.lost) << seed;
        EXPECT_EQ(report.transmissions, direct.hops) << seed;
        EXPECT_EQ(report.bits, direct.bits) << seed;
        EXPECT_EQ(report.completed, direct.lost == 0) << seed;
    }
}

TEST(WormholeAdapter, DeliversHealthyTrace) {
    SteppedAdapter<WormholeSpec> adapter(WormholeSpec{}, FaultScenario::none(), 0);
    const RunReport report = adapter.run(corner_trace(), 10000);
    EXPECT_TRUE(report.completed);
    EXPECT_EQ(report.deliveries, 4u);
    EXPECT_EQ(report.dropped, 0u);
    EXPECT_GT(report.transmissions, 0u);
    EXPECT_GT(report.seconds, 0.0);
    EXPECT_GT(report.joules, 0.0);
}

TEST(DeflectionAdapter, DeliversHealthyTrace) {
    SteppedAdapter<DeflectionSpec> adapter(DeflectionSpec{}, FaultScenario::none(), 0);
    const RunReport report = adapter.run(corner_trace(), 10000);
    EXPECT_TRUE(report.completed);
    EXPECT_EQ(report.deliveries, 4u);
    // Each corner-to-corner message needs at least the Manhattan distance.
    EXPECT_GE(report.transmissions, 4u * 8u);
    EXPECT_GT(report.bits, 0u);
}

TEST(CutThroughAdapter, FasterThanStoreAndForwardOnLongPaths) {
    const auto trace = corner_trace();
    SteppedAdapter<StoreForwardSpec> saf(StoreForwardSpec{}, FaultScenario::none(), 0);
    SteppedAdapter<CutThroughSpec> vct(CutThroughSpec{}, FaultScenario::none(), 0);
    const RunReport rs = saf.run(trace, 10000);
    const RunReport rv = vct.run(trace, 10000);
    ASSERT_TRUE(rs.completed);
    ASSERT_TRUE(rv.completed);
    EXPECT_EQ(rs.deliveries, 4u);
    EXPECT_EQ(rv.deliveries, 4u);
    // Same hop counts (both dimension-ordered), fewer cycles cut-through.
    EXPECT_EQ(rv.transmissions, rs.transmissions);
    EXPECT_LT(rv.rounds, rs.rounds);
    EXPECT_LT(rv.seconds, rs.seconds);
}

TEST(AdaptiveAdapter, SurvivesFaultsThatKillDimensionOrder) {
    // Hunt for a seed whose crash pattern blocks at least one XY path but
    // leaves a detour; the adaptive backend must then strictly beat
    // store-and-forward's delivery count under the identical crash roll.
    const auto trace = corner_trace();
    FaultScenario scenario;
    scenario.p_tiles = 0.2;
    bool found = false;
    for (std::uint64_t seed = 0; seed < 64 && !found; ++seed) {
        SteppedAdapter<StoreForwardSpec> dor(StoreForwardSpec{}, scenario, seed);
        SteppedAdapter<AdaptiveSpec> adaptive(AdaptiveSpec{}, scenario, seed);
        const RunReport rd = dor.run(trace, 10000);
        const RunReport ra = adaptive.run(trace, 10000);
        EXPECT_GE(ra.deliveries, rd.deliveries) << seed;
        if (ra.deliveries > rd.deliveries) found = true;
    }
    EXPECT_TRUE(found) << "no seed where the detour mattered in 64 rolls";
}

// --- The stepped adapter equals a hand-stepped loop ----------------------

/// Two phases: the first mixes worms that wedge on a dead centre with
/// worms that route around it (and one local message), so it never
/// completes.
TrafficTrace wedging_trace() {
    TrafficTrace trace;
    trace.phases.resize(2);
    for (const auto& [src, dst] : std::vector<std::pair<TileId, TileId>>{
             {10, 14}, {0, 24}, {14, 10}, {20, 4}, {11, 13}, {3, 3}})
        trace.phases[0].messages.push_back({src, dst, 256});
    trace.phases[1].messages.push_back({0, 4, 256});
    return trace;
}

/// FNV-1a over the recorder's events, in order.
std::uint64_t trace_digest(const Telemetry& recorder) {
    std::ostringstream os;
    for (const TraceEvent& e : recorder.events())
        os << e.round << ',' << static_cast<int>(e.kind) << ',' << e.tile << ','
           << e.peer << ',' << e.message.origin << ',' << e.message.sequence << ';';
    return key_of(os.str());
}

/// Each packet's fate by id: source, injection cycle, then its delivery
/// cycle, "drop", or "-" while still in flight.
using Fates = std::map<std::uint64_t, std::string>;

Fates record_fates(const std::vector<router::PacketRecord>& records) {
    Fates fates;
    for (const auto& rec : records)
        fates[rec.id] = std::to_string(rec.source) + '@' +
                        std::to_string(rec.injected_cycle) + ' ' +
                        (rec.delivered_cycle ? std::to_string(*rec.delivered_cycle)
                         : rec.dropped       ? "drop"
                                             : "-");
    return fates;
}

/// The same fates, read from a run's event stream.
Fates event_fates(const Telemetry& recorder) {
    Fates fates;
    for (const TraceEvent& e : recorder.events()) {
        std::string& fate = fates[e.message.sequence];
        if (e.kind == TraceEventKind::MessageCreated)
            fate = std::to_string(e.tile) + '@' + std::to_string(e.round) + " -";
        else if (e.kind == TraceEventKind::Delivered)
            fate.replace(fate.size() - 1, 1, std::to_string(e.round));
        else if (e.kind == TraceEventKind::TtlExpired || e.kind == TraceEventKind::CrashDrop)
            fate.replace(fate.size() - 1, 1, "drop");
    }
    return fates;
}

/// Runs `spec`'s adapter, then replays `trace` by hand on `net` (built as
/// the adapter builds it) under the same crash roll, and compares the
/// report fields, the per-packet records and the trace digests.
/// `traffic(net)` is the spec's transfers-and-bits rule, written out.
template <class Spec, class Net, class Traffic>
void expect_adapter_matches(const Spec& spec, Net& net, const FaultScenario& scenario,
                            std::uint64_t seed, const TrafficTrace& trace, Round limit,
                            Traffic traffic) {
    SteppedAdapter<Spec> adapter(spec, scenario, seed);
    Telemetry adapter_trace;
    adapter.set_trace_sink(&adapter_trace);
    const RunReport report = adapter.run(trace, limit);

    RngPool pool(seed);
    FaultInjector injector(scenario, pool);
    const CrashState crashes =
        injector.roll_crashes(Topology::mesh(spec.width, spec.height), spec.protect);
    Telemetry hand_trace;
    net.set_trace_sink(&hand_trace);
    net.apply_crashes(crashes);
    std::size_t local = 0;
    bool drained = true;
    for (const auto& phase : trace.phases) {
        for (const auto& m : phase.messages) {
            if (m.src == m.dst) {
                ++local;
                continue;
            }
            net.inject(m.src, m.dst, m.bits);
        }
        while (net.in_flight() > 0 && net.cycle() < limit) {
            // Re-applying the crashes changes no state but clears
            // wormhole's frozen skip, so the reference simulates every cycle.
            if constexpr (std::is_same_v<Net, wormhole::Network>) net.apply_crashes(crashes);
            net.step();
        }
        if (net.in_flight() > 0) {
            drained = false;
            break;
        }
    }

    EXPECT_EQ(adapter.crashes().dead_tiles, crashes.dead_tiles);
    EXPECT_EQ(report.completed, drained && net.dropped() == 0);
    EXPECT_EQ(report.rounds, static_cast<Round>(net.cycle()));
    EXPECT_EQ(report.deliveries, net.delivered() + local);
    EXPECT_EQ(report.deliveries + report.dropped, trace.message_count());
    EXPECT_EQ(std::pair(report.transmissions, report.bits), traffic(net));
    EXPECT_EQ(event_fates(adapter_trace), record_fates(net.records()));
    EXPECT_EQ(adapter_trace.size(), hand_trace.size());
    EXPECT_EQ(trace_digest(adapter_trace), trace_digest(hand_trace));
}

class SteppedAdapterLoop : public ::testing::TestWithParam<const char*> {};

TEST_P(SteppedAdapterLoop, MatchesAHandSteppedLoop) {
    const std::string name = GetParam();
    if (name == "wormhole") {
        // Every tile but the centre is protected and every other tile dies:
        // XY worms wedge on the dead centre until the budget.  The roll is
        // the same for every seed and wormhole draws nothing, so one seed.
        constexpr TileId kCentre = 12;
        constexpr Round kLimit = 3000;
        WormholeSpec spec;
        for (TileId t = 0; t < 25; ++t)
            if (t != kCentre) spec.protect.push_back(t);
        FaultScenario only_centre;
        only_centre.p_tiles = 1.0;
        wormhole::Network net(5, 5, spec.config);
        const double flit_bits =
            spec.packet_bits / static_cast<double>(spec.config.flits_per_packet);
        expect_adapter_matches(
            spec, net, only_centre, 1, wedging_trace(), kLimit,
            [&](const wormhole::Network& n) {
                return std::pair(n.flit_hops(), static_cast<std::size_t>(
                                                    static_cast<double>(n.flit_hops()) *
                                                    flit_bits));
            });
        EXPECT_EQ(net.cycle(), kLimit) << "the worm must stay wedged to the budget";
        EXPECT_GT(net.delivered(), 0u);
        return;
    }
    FaultScenario scenario;
    scenario.p_tiles = 0.15;
    for (std::uint64_t seed = 0; seed < 8; ++seed) {
        SCOPED_TRACE(seed);
        if (name == "deflection") {
            DeflectionSpec spec;
            spec.protect = {0, 4, 20, 24}; // deflection refuses dead sources.
            deflection::Network net(5, 5, spec.config, seed);
            expect_adapter_matches(spec, net, scenario, seed, corner_trace(), 10000,
                                   [](const deflection::Network& n) {
                                       std::pair<std::size_t, std::size_t> sum{0, 0};
                                       for (const auto& rec : n.records()) {
                                           sum.first += rec.hops;
                                           sum.second += rec.hops * rec.bits;
                                       }
                                       return sum;
                                   });
        } else {
            StoreForwardSpec spec;
            router::RouterCore net(Topology::mesh(5, 5), spec.config);
            expect_adapter_matches(spec, net, scenario, seed, corner_trace(), 10000,
                                   [](const router::RouterCore& n) {
                                       return std::pair(n.metrics().packets_sent,
                                                        n.metrics().bits_sent);
                                   });
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Stepped, SteppedAdapterLoop,
                         ::testing::Values("wormhole", "deflection", "store_forward"));

TEST(Factory, BuildsEveryBackendKind) {
    for (const BackendKind kind : kBackendKinds) {
        const auto backend = make_interconnect(kind, FaultScenario::none(), 1);
        ASSERT_NE(backend, nullptr);
        EXPECT_EQ(backend->kind(), kind);
        EXPECT_FALSE(backend->name().empty());
    }
}

TEST(Factory, BackendsRunTheSameTrace) {
    const auto trace = corner_trace();
    for (const BackendKind kind : kBackendKinds) {
        const auto backend = make_interconnect(kind, FaultScenario::none(), 1);
        const RunReport report = backend->run(trace, 10000);
        EXPECT_TRUE(report.completed) << to_string(kind);
        EXPECT_EQ(report.messages, 4u) << to_string(kind);
        EXPECT_EQ(report.deliveries, 4u) << to_string(kind);
    }
}

/// A trace message whose source tile is dead dies at injection in every
/// stepped backend: one CrashDrop at its source, never delivered, and
/// nothing throws.  No endpoint is protected, as the benches do.
TEST(Factory, DeadSourcesCrashDropAtInjection) {
    FaultScenario faults;
    faults.p_tiles = 0.2;
    TrafficTrace trace;
    TrafficPhase phase;
    for (TileId s = 0; s < 25; ++s) phase.messages.push_back({s, (s + 7) % 25, 256});
    trace.phases.push_back(phase);
    // The crash pattern every stepped adapter rolls from seed 1.
    RngPool pool(1);
    FaultInjector injector(faults, pool);
    const CrashState crashes = injector.roll_crashes(Topology::mesh(5, 5), {});
    std::size_t dead_sources = 0;
    for (TileId s = 0; s < 25; ++s) dead_sources += crashes.dead_tiles[s] ? 1 : 0;
    ASSERT_GT(dead_sources, 0u);

    for (const BackendKind kind :
         {BackendKind::Wormhole, BackendKind::Deflection, BackendKind::StoreForward}) {
        const auto backend = make_interconnect(kind, faults, 1);
        Telemetry telemetry;
        check::InvariantAuditor auditor;
        backend->set_trace_sink(&telemetry);
        backend->set_auditor(&auditor);
        RunReport report;
        ASSERT_NO_THROW(report = backend->run(trace, 5000)) << to_string(kind);
        std::vector<std::size_t> born_dead(25, 0);
        for (const TraceEvent& e : telemetry.events()) {
            if (!crashes.dead_tiles[e.message.origin]) continue;
            EXPECT_NE(e.kind, TraceEventKind::Delivered) << to_string(kind);
            if (e.kind == TraceEventKind::CrashDrop && e.tile == e.message.origin)
                ++born_dead[e.tile];
        }
        for (TileId s = 0; s < 25; ++s)
            EXPECT_EQ(born_dead[s], crashes.dead_tiles[s] ? 1u : 0u)
                << to_string(kind) << " source " << s;
        EXPECT_GE(report.dropped, dead_sources) << to_string(kind);
        EXPECT_EQ(auditor.violation_count(), 0u) << to_string(kind) << auditor.summary();
    }
}

std::string serialize_report(const RunReport& r) {
    std::ostringstream os;
    os << r.completed << ' ' << r.rounds << ' '
       << std::hexfloat << r.seconds << std::defaultfloat << ' '
       << r.transmissions << ' ' << r.bits << ' ' << r.messages << ' '
       << r.deliveries << ' ' << r.dropped << ' '
       << std::hexfloat << r.joules << std::defaultfloat << ' '
       << r.seed << ' ' << r.attempts << '\n';
    write_metrics_json(r.metrics, os);
    return os.str();
}

/// Every BackendKind, built twice through the make_interconnect path the
/// runner uses, completes the trace with byte-identical reports.  Keep
/// the loop and the file-header marker list in sync when adding a
/// BackendKind — snoc_lint enforces the marker.
TEST(Factory, EveryBackendIsDeterministic) {
    const auto trace = corner_trace();
    for (const BackendKind kind : kBackendKinds) {
        const auto a = make_interconnect(kind, FaultScenario::none(), 5);
        const auto b = make_interconnect(kind, FaultScenario::none(), 5);
        ASSERT_NE(a, nullptr) << to_string(kind);
        ASSERT_EQ(a->kind(), kind);
        const RunReport ra = a->run(trace, 2000);
        const RunReport rb = b->run(trace, 2000);
        EXPECT_EQ(serialize_report(ra), serialize_report(rb)) << to_string(kind);
        EXPECT_TRUE(ra.completed) << to_string(kind);
    }
}

} // namespace
} // namespace snoc
