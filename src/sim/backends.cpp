#include "sim/backends.hpp"

#include <algorithm>

#include "apps/trace_app.hpp"
#include "check/invariant_auditor.hpp"
#include "common/expect.hpp"
#include "common/prof.hpp"
#include "common/rng.hpp"
#include "fault/injector.hpp"

namespace snoc {

namespace {

/// How every adapter closes a trace run: the trace-level delivery view
/// (whatever was not delivered is dropped) and its two laws, then the
/// auditor bracket — `laws` checks the backend's own invariants between
/// begin_run and the report check, whose violations join the report's.
void finish_run(const Interconnect& backend, RunReport& report,
                const TrafficTrace& trace, Round limit,
                const std::function<void(check::InvariantAuditor&)>& laws = {}) {
    report.dropped = report.messages - std::min(report.deliveries, report.messages);
    SNOC_CHECK(1, report.deliveries <= report.messages);
    SNOC_CHECK(1, report.deliveries + report.dropped == report.messages);
    check::InvariantAuditor* aud = backend.auditor();
    if (!aud) return;
    const std::size_t audit_before = aud->violation_count();
    aud->begin_run(std::string(to_string(backend.kind())) + " seed=" +
                   std::to_string(report.seed));
    if (laws) laws(*aud);
    aud->check_report(report, backend.kind(), &trace, limit);
    report.audit_violations += aud->violation_count() - audit_before;
}

} // namespace

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
    apps::TraceDriver driver(net_, trace);
    RunReport report =
        run_until([&driver] { return driver.complete(); }, limit);
    // Logical (trace-level) delivery view: the gossip metrics count
    // per-tile deliveries including broadcasts; the trace counts each
    // logical message once.
    report.messages = trace.message_count();
    report.deliveries = driver.delivered_messages();
    // run_until audited the rounds; the trace-level report is left.
    finish_run(*this, report, trace, limit);
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
    report.joules = r.joules;
    finish_run(*this, report, trace, limit);
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

RunReport XyAdapter::run(const TrafficTrace& trace, Round) {
    const XyRunResult r = run_xy_trace(spec_.mesh, trace, crashes_, trace_sink());
    RunReport report;
    report.seed = seed_;
    report.completed = r.lost == 0;
    report.rounds = static_cast<Round>(r.rounds);
    report.transmissions = r.hops;
    report.bits = r.bits;
    report.messages = r.delivered + r.lost;
    report.deliveries = r.delivered;
    // Eq. 2 shape: each round forwards one average-size packet per link.
    const double s_bits = r.hops > 0
                              ? static_cast<double>(r.bits) / static_cast<double>(r.hops)
                              : 0.0;
    report.seconds =
        static_cast<double>(r.rounds) * s_bits / spec_.tech.link_frequency_hz;
    report.joules = static_cast<double>(r.bits) * spec_.tech.link_ebit_joules;
    // XY replays the whole trace analytically and does not honour a round
    // budget, so the budget check is skipped (limit = 0).
    finish_run(*this, report, trace, 0);
    return report;
}

// --- Cycle-stepped packet simulators --------------------------------------

namespace {

// Each spec's BackendKind, from the adapter table.
#define SNOC_BACKEND_SPEC_KIND(name, adapter, spec)                            \
    constexpr BackendKind kind_of(const spec&) { return BackendKind::name; }
SNOC_BACKEND_ADAPTER_LIST(SNOC_BACKEND_SPEC_KIND)
#undef SNOC_BACKEND_SPEC_KIND

// What differs between the three simulators, one overload each.

wormhole::Network make_network(const WormholeSpec& spec, std::uint64_t) {
    return wormhole::Network(spec.width, spec.height, spec.config);
}
deflection::Network make_network(const DeflectionSpec& spec, std::uint64_t seed) {
    return deflection::Network(spec.width, spec.height, spec.config, seed);
}
router::RouterCore make_network(const RouterSpec& spec, std::uint64_t) {
    return router::RouterCore(Topology::mesh(spec.width, spec.height), spec.config);
}

/// The size a trace message is injected with: the trace's, except that
/// the router core falls back to the spec's size for a zero-size message
/// so its bit accounting stays law-abiding.
std::size_t packet_bits(const MeshSpec&, const LogicalMessage& m) { return m.bits; }
std::size_t packet_bits(const RouterSpec& spec, const LogicalMessage& m) {
    return m.bits > 0 ? m.bits : static_cast<std::size_t>(spec.packet_bits);
}

/// Fills link transfers and wire bits and returns the bits a link moves
/// per cycle, the cycle-time model behind `seconds`: wormhole's flit hops
/// and the router core's cycles each carry a flit, an equal share of the
/// spec's packet; deflection sums its records and moves average packets.
double measure(const WormholeSpec& spec, const wormhole::Network& net,
               RunReport& report) {
    const double flit_bits =
        spec.packet_bits / static_cast<double>(spec.config.flits_per_packet);
    report.transmissions = net.flit_hops();
    report.bits =
        static_cast<std::size_t>(static_cast<double>(net.flit_hops()) * flit_bits);
    return flit_bits;
}
double measure(const DeflectionSpec&, const deflection::Network& net,
               RunReport& report) {
    for (const auto& rec : net.records()) {
        report.transmissions += rec.hops;
        report.bits += rec.hops * rec.bits;
    }
    return report.transmissions > 0 ? static_cast<double>(report.bits) /
                                          static_cast<double>(report.transmissions)
                                    : 0.0;
}
double measure(const RouterSpec& spec, const router::RouterCore& core,
               RunReport& report) {
    report.transmissions = core.metrics().packets_sent;
    report.bits = core.metrics().bits_sent;
    report.metrics = core.metrics();
    return spec.packet_bits / static_cast<double>(spec.config.flits_per_packet);
}

/// The auditor's record law, with deflection's hop budget (wormhole has
/// none); the router core adds its shared-accounting laws.
void audit(check::InvariantAuditor& aud, const WormholeSpec&,
           const wormhole::Network& net) {
    aud.check_records(net.records(), net.delivered(), net.dropped(), net.in_flight(),
                      /*max_hops=*/0);
}
void audit(check::InvariantAuditor& aud, const DeflectionSpec& spec,
           const deflection::Network& net) {
    aud.check_records(net.records(), net.delivered(), net.dropped(), net.in_flight(),
                      spec.config.max_hops);
}
void audit(check::InvariantAuditor& aud, const RouterSpec&,
           const router::RouterCore& core) {
    aud.check_router(core);
}

/// Only the router core keeps NetworkMetrics for post-mortem dumps.
template <class Net>
const NetworkMetrics* live_metrics_of(const Net&) { return nullptr; }
const NetworkMetrics* live_metrics_of(const router::RouterCore& core) {
    return &core.metrics();
}

} // namespace

template <class Spec>
SteppedAdapter<Spec>::SteppedAdapter(Spec spec, const FaultScenario& scenario,
                                     std::uint64_t seed)
    : spec_(std::move(spec)), seed_(seed) {
    RngPool pool(seed);
    FaultInjector injector(scenario, pool);
    crashes_ =
        injector.roll_crashes(Topology::mesh(spec_.width, spec_.height), spec_.protect);
}

template <class Spec>
BackendKind SteppedAdapter<Spec>::kind() const {
    return kind_of(spec_);
}

template <class Spec>
RunReport SteppedAdapter<Spec>::run(const TrafficTrace& trace, Round limit) {
    auto net = make_network(spec_, seed_);
    net.set_trace_sink(trace_sink());
    net.apply_crashes(crashes_);
    live_metrics_ = live_metrics_of(net);
    struct Unpublish { // `net` dies with this frame, however it is left.
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
            net.inject(m.src, m.dst, packet_bits(spec_, m));
        }
        // A wedged wormhole steps in O(1) per frozen cycle, and a fired
        // DeadlockSentinel does not stop the phase: the budget does.
        while (net.in_flight() > 0 && net.cycle() < limit) net.step();
        if (net.in_flight() > 0) {
            completed = false; // blocked, or out of cycle budget.
            break;
        }
    }
    report.completed = completed && net.dropped() == 0;
    report.rounds = static_cast<Round>(net.cycle());
    report.deliveries += net.delivered();
    const double cycle_bits = measure(spec_, net, report);
    report.seconds =
        static_cast<double>(net.cycle()) * cycle_bits / spec_.tech.link_frequency_hz;
    report.joules = static_cast<double>(report.bits) * spec_.tech.link_ebit_joules;
    finish_run(*this, report, trace, limit,
               [&](check::InvariantAuditor& aud) { audit(aud, spec_, net); });
    return report;
}

template class SteppedAdapter<WormholeSpec>;
template class SteppedAdapter<DeflectionSpec>;
template class SteppedAdapter<StoreForwardSpec>;
template class SteppedAdapter<CutThroughSpec>;
template class SteppedAdapter<AdaptiveSpec>;

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
