#include "sim/backends.hpp"

#include <algorithm>

#include "apps/trace_app.hpp"
#include "check/invariant_auditor.hpp"
#include "common/expect.hpp"
#include "common/prof.hpp"
#include "common/rng.hpp"
#include "fault/injector.hpp"

namespace snoc {

// --- Gossip ---------------------------------------------------------------

GossipAdapter::GossipAdapter(GossipSpec spec, const FaultScenario& scenario,
                             std::uint64_t seed)
    : spec_(std::move(spec)),
      // The network owns the only copy of the topology (a 128x128 mesh
      // is megabytes); nothing reads spec_.topology after this.
      net_(std::move(spec_.topology), spec_.config, scenario, seed),
      seed_(seed) {
    for (TileId t : spec_.protect) net_.protect(t);
    if (spec_.exact_tile_crashes) net_.force_exact_tile_crashes(*spec_.exact_tile_crashes);
    if (spec_.customize) spec_.customize(net_);
}

RunReport GossipAdapter::run_until(const std::function<bool()>& done, Round limit) {
    RunReport report;
    report.seed = seed_;
    // Don't clobber a sink the spec's customize hook may have attached
    // directly on the engine.
    if (trace_sink()) net_.set_trace_sink(trace_sink());
    check::InvariantAuditor* aud = auditor();
    const std::size_t audit_before = aud ? aud->violation_count() : 0;
    if (aud) aud->begin_run("gossip seed=" + std::to_string(seed_));
    // The auditor piggybacks on the completion predicate, which the engine
    // evaluates at every round boundary — exactly where the conservation
    // ledger is exact.
    const auto r = aud ? net_.run_until(
                             [&] {
                                 SNOC_PROF("engine/audit");
                                 aud->check_round(net_);
                                 return done();
                             },
                             limit)
                       : net_.run_until(done, limit);
    report.completed = r.completed;
    report.rounds = r.rounds;
    report.seconds = r.elapsed_seconds;
    if (spec_.drain) net_.drain();
    const NetworkMetrics& m = net_.metrics();
    report.transmissions = m.packets_sent;
    report.bits = m.bits_sent;
    report.messages = m.messages_created;
    report.deliveries = m.deliveries;
    report.dropped = m.ttl_expired;
    report.joules = static_cast<double>(m.bits_sent) * spec_.tech.link_ebit_joules;
    report.metrics = m;
    if (aud) {
        SNOC_PROF("engine/audit");
        aud->check_final(net_);
        aud->check_report(report, kind());
        report.audit_violations = aud->violation_count() - audit_before;
    }
    // End-of-run conservation self-audit, auditor or not.
    SNOC_CHECK(1, net_.ledger().balanced());
    return report;
}

RunReport GossipAdapter::run(const TrafficTrace& trace, Round limit) {
    check::InvariantAuditor* aud = auditor();
    const std::size_t audit_before = aud ? aud->violation_count() : 0;
    apps::TraceDriver driver(net_, trace);
    RunReport report =
        run_until([&driver] { return driver.complete(); }, limit);
    // Logical (trace-level) delivery view: the gossip metrics count
    // per-tile deliveries including broadcasts; the trace counts each
    // logical message once.
    report.messages = trace.message_count();
    report.deliveries = driver.delivered_messages();
    report.dropped = report.messages - std::min(report.deliveries, report.messages);
    SNOC_CHECK(1, report.deliveries <= report.messages);
    SNOC_CHECK(1, report.deliveries + report.dropped == report.messages);
    if (aud) {
        aud->check_report(report, kind(), &trace, limit);
        report.audit_violations = aud->violation_count() - audit_before;
    }
    return report;
}

// --- Bus ------------------------------------------------------------------

BusAdapter::BusAdapter(BusSpec spec, const FaultScenario& scenario,
                       std::uint64_t seed)
    : spec_(spec), bus_(spec.modules, spec.tech), seed_(seed) {
    // The entire medium is one link: a link-crash roll kills the bus.
    if (scenario.p_links > 0.0) {
        RngPool pool(seed);
        auto rng = pool.stream("bus-crash");
        if (rng.bernoulli(scenario.p_links)) bus_.crash();
    }
}

RunReport BusAdapter::run(const TrafficTrace& trace, Round limit) {
    bus_.set_trace_sink(trace_sink());
    const BusRunResult r = bus_.run(trace);
    RunReport report;
    report.seed = seed_;
    report.completed = r.completed;
    report.seconds = r.seconds;
    report.transmissions = r.transfers;
    report.bits = r.bits;
    report.messages = trace.message_count();
    report.deliveries = r.completed ? r.transfers : 0;
    report.dropped = report.messages - report.deliveries;
    report.joules = r.joules;
    SNOC_CHECK(1, report.deliveries <= report.messages);
    SNOC_CHECK(1, report.deliveries + report.dropped == report.messages);
    if (auto* aud = auditor()) {
        const std::size_t audit_before = aud->violation_count();
        aud->begin_run("bus seed=" + std::to_string(seed_));
        aud->check_report(report, kind(), &trace, limit);
        report.audit_violations = aud->violation_count() - audit_before;
    }
    return report;
}

// --- XY -------------------------------------------------------------------

XyAdapter::XyAdapter(XySpec spec, const FaultScenario& scenario, std::uint64_t seed)
    : spec_(std::move(spec)), seed_(seed) {
    // Exactly the crash roll the hand-rolled benches performed.
    RngPool pool(seed);
    FaultInjector injector(scenario, pool);
    crashes_ = injector.roll_crashes(spec_.mesh, spec_.protect);
}

RunReport XyAdapter::run(const TrafficTrace& trace, Round limit) {
    const XyRunResult r = run_xy_trace(spec_.mesh, trace, crashes_, trace_sink());
    RunReport report;
    report.seed = seed_;
    report.completed = r.lost == 0;
    report.rounds = static_cast<Round>(r.rounds);
    report.transmissions = r.hops;
    report.bits = r.bits;
    report.messages = r.delivered + r.lost;
    report.deliveries = r.delivered;
    report.dropped = r.lost;
    // Eq. 2 shape: each round forwards one average-size packet per link.
    const double s_bits = r.hops > 0
                              ? static_cast<double>(r.bits) / static_cast<double>(r.hops)
                              : 0.0;
    report.seconds =
        static_cast<double>(r.rounds) * s_bits / spec_.tech.link_frequency_hz;
    report.joules = static_cast<double>(r.bits) * spec_.tech.link_ebit_joules;
    SNOC_CHECK(1, report.deliveries <= report.messages);
    SNOC_CHECK(1, report.deliveries + report.dropped == report.messages);
    if (auto* aud = auditor()) {
        const std::size_t audit_before = aud->violation_count();
        aud->begin_run("xy seed=" + std::to_string(seed_));
        // XY replays the whole trace analytically and does not honour a
        // round budget, so the budget check is skipped (limit = 0).
        aud->check_report(report, kind(), &trace, 0);
        report.audit_violations = aud->violation_count() - audit_before;
    }
    (void)limit;
    return report;
}

// --- Wormhole -------------------------------------------------------------

WormholeAdapter::WormholeAdapter(WormholeSpec spec, const FaultScenario& scenario,
                                 std::uint64_t seed)
    : spec_(std::move(spec)), seed_(seed) {
    RngPool pool(seed);
    FaultInjector injector(scenario, pool);
    crashes_ =
        injector.roll_crashes(Topology::mesh(spec_.width, spec_.height), spec_.protect);
}

RunReport WormholeAdapter::run(const TrafficTrace& trace, Round limit) {
    wormhole::Network net(spec_.width, spec_.height, spec_.config);
    net.set_trace_sink(trace_sink());
    for (TileId t = 0; t < crashes_.dead_tiles.size(); ++t)
        if (crashes_.dead_tiles[t]) net.crash_router(t);

    RunReport report;
    report.seed = seed_;
    report.messages = trace.message_count();
    bool completed = true;
    for (const auto& phase : trace.phases) {
        std::size_t expected = net.delivered();
        for (const auto& m : phase.messages) {
            if (m.src == m.dst) {
                ++report.deliveries; // local, never enters the network.
                continue;
            }
            net.inject(m.src, m.dst);
            ++expected;
        }
        // A frozen step is a fixed point (a worm wedged behind a dead
        // router): every cycle left to the budget would repeat it.
        while (net.delivered() < expected && net.cycle() < limit)
            if (!net.step()) net.skip_to(limit);
        if (net.delivered() < expected) {
            completed = false; // a worm is blocked (or the budget is gone).
            break;
        }
    }
    report.completed = completed;
    report.rounds = static_cast<Round>(net.cycle());
    report.deliveries += net.delivered();
    report.dropped = report.messages - std::min(report.deliveries, report.messages);
    report.transmissions = net.flit_hops();
    const double flit_bits =
        spec_.packet_bits / static_cast<double>(spec_.config.flits_per_packet);
    report.bits = static_cast<std::size_t>(
        static_cast<double>(net.flit_hops()) * flit_bits);
    // One flit crosses a link per cycle; a cycle is one flit time.
    report.seconds = static_cast<double>(net.cycle()) * flit_bits /
                     spec_.tech.link_frequency_hz;
    report.joules = static_cast<double>(report.bits) * spec_.tech.link_ebit_joules;
    SNOC_CHECK(1, report.deliveries <= report.messages);
    SNOC_CHECK(1, report.deliveries + report.dropped == report.messages);
    if (auto* aud = auditor()) {
        const std::size_t audit_before = aud->violation_count();
        aud->begin_run("wormhole seed=" + std::to_string(seed_));
        aud->check_records(net.records(), net.delivered(), /*dropped=*/0,
                           net.outstanding(), /*max_hops=*/0);
        aud->check_report(report, kind(), &trace, limit);
        report.audit_violations = aud->violation_count() - audit_before;
    }
    return report;
}

// --- Deflection -----------------------------------------------------------

DeflectionAdapter::DeflectionAdapter(DeflectionSpec spec,
                                     const FaultScenario& scenario,
                                     std::uint64_t seed)
    : spec_(std::move(spec)), scenario_(scenario), seed_(seed) {}

RunReport DeflectionAdapter::run(const TrafficTrace& trace, Round limit) {
    deflection::Network net(spec_.width, spec_.height, spec_.config, seed_);
    net.set_trace_sink(trace_sink());
    {
        RngPool pool(seed_);
        FaultInjector injector(scenario_, pool);
        net.apply_crashes(injector.roll_crashes(
            Topology::mesh(spec_.width, spec_.height), spec_.protect));
    }

    RunReport report;
    report.seed = seed_;
    report.messages = trace.message_count();
    bool completed = true;
    for (const auto& phase : trace.phases) {
        for (const auto& m : phase.messages) {
            if (m.src == m.dst) {
                ++report.deliveries;
                continue;
            }
            net.inject(m.src, m.dst, m.bits);
        }
        while (net.in_flight() > 0 && net.cycle() < limit) net.step();
        if (net.in_flight() > 0) {
            completed = false;
            break;
        }
    }
    for (const auto& rec : net.records()) {
        report.transmissions += rec.hops;
        report.bits += rec.hops * rec.bits;
    }
    report.completed = completed && net.dropped() == 0;
    report.rounds = static_cast<Round>(net.cycle());
    report.deliveries += net.delivered();
    report.dropped = report.messages - std::min(report.deliveries, report.messages);
    const double s_bits =
        report.transmissions > 0
            ? static_cast<double>(report.bits) / static_cast<double>(report.transmissions)
            : 0.0;
    report.seconds =
        static_cast<double>(net.cycle()) * s_bits / spec_.tech.link_frequency_hz;
    report.joules = static_cast<double>(report.bits) * spec_.tech.link_ebit_joules;
    SNOC_CHECK(1, report.deliveries <= report.messages);
    SNOC_CHECK(1, report.deliveries + report.dropped == report.messages);
    if (auto* aud = auditor()) {
        const std::size_t audit_before = aud->violation_count();
        aud->begin_run("deflection seed=" + std::to_string(seed_));
        aud->check_records(net.records(), net.delivered(), net.dropped(),
                           net.in_flight(), spec_.config.max_hops);
        aud->check_report(report, kind(), &trace, limit);
        report.audit_violations = aud->violation_count() - audit_before;
    }
    return report;
}

// --- Layered router core --------------------------------------------------

RouterAdapter::RouterAdapter(BackendKind kind, RouterSpec spec,
                             const FaultScenario& scenario, std::uint64_t seed)
    : kind_(kind), spec_(std::move(spec)), seed_(seed) {
    RngPool pool(seed);
    FaultInjector injector(scenario, pool);
    crashes_ =
        injector.roll_crashes(Topology::mesh(spec_.width, spec_.height), spec_.protect);
}

RunReport RouterAdapter::run(const TrafficTrace& trace, Round limit) {
    router::RouterCore core(Topology::mesh(spec_.width, spec_.height), spec_.config);
    core.set_trace_sink(trace_sink());
    core.apply_crashes(crashes_);
    live_metrics_ = &core.metrics();
    struct Unpublish { // `core` dies with this frame, however it is left.
        const NetworkMetrics*& live;
        ~Unpublish() { live = nullptr; }
    } unpublish{live_metrics_};

    RunReport report;
    report.seed = seed_;
    report.messages = trace.message_count();
    bool completed = true;
    for (const auto& phase : trace.phases) {
        for (const auto& m : phase.messages) {
            if (m.src == m.dst) {
                ++report.deliveries; // local, never enters the network.
                continue;
            }
            // Zero-size trace messages fall back to the spec's packet
            // size so the bit accounting stays law-abiding.
            core.inject(m.src, m.dst,
                        m.bits > 0 ? m.bits
                                   : static_cast<std::size_t>(spec_.packet_bits));
        }
        while (!core.idle() && core.cycle() < limit) core.step();
        if (!core.idle()) {
            completed = false; // out of cycle budget.
            break;
        }
    }
    const NetworkMetrics& m = core.metrics();
    report.completed = completed && core.dropped() == 0;
    report.rounds = static_cast<Round>(core.cycle());
    report.deliveries += core.delivered();
    report.dropped = report.messages - std::min(report.deliveries, report.messages);
    report.transmissions = m.packets_sent;
    report.bits = m.bits_sent;
    // One flit crosses a link per cycle; a cycle is one flit time.
    const double flit_bits =
        spec_.packet_bits / static_cast<double>(spec_.config.flits_per_packet);
    report.seconds = static_cast<double>(core.cycle()) * flit_bits /
                     spec_.tech.link_frequency_hz;
    report.joules = static_cast<double>(report.bits) * spec_.tech.link_ebit_joules;
    report.metrics = m;
    SNOC_CHECK(1, report.deliveries <= report.messages);
    SNOC_CHECK(1, report.deliveries + report.dropped == report.messages);
    if (auto* aud = auditor()) {
        const std::size_t audit_before = aud->violation_count();
        aud->begin_run(std::string(to_string(kind_)) + " seed=" +
                       std::to_string(seed_));
        aud->check_router(core);
        aud->check_report(report, kind(), &trace, limit);
        report.audit_violations = aud->violation_count() - audit_before;
    }
    return report;
}

// --- Factory --------------------------------------------------------------

std::unique_ptr<Interconnect> make_interconnect(BackendKind kind,
                                                const FaultScenario& scenario,
                                                std::uint64_t seed) {
    switch (kind) {
#define SNOC_BACKEND_ADAPTER_CASE(name, adapter, spec)                         \
    case BackendKind::name:                                                    \
        return std::make_unique<adapter>(spec{}, scenario, seed);
        SNOC_BACKEND_ADAPTER_LIST(SNOC_BACKEND_ADAPTER_CASE)
#undef SNOC_BACKEND_ADAPTER_CASE
    }
    SNOC_ENSURE(false && "unknown backend kind");
    return nullptr;
}

} // namespace snoc
