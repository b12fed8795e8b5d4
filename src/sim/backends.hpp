// Per-backend Interconnect adapters (see core/interconnect.hpp for the
// interface contract).  Each adapter is a thin, zero-cost wrapper: it
// builds the underlying backend exactly the way the benches used to by
// hand — same construction order, same RNG derivation — so a run through
// an adapter is metric-for-metric identical to a direct backend run
// (test_interconnect asserts this).
//
// The recipe for a new backend (DESIGN.md §8): a Spec struct (shape +
// backend config + Technology) and a row in SNOC_BACKEND_ADAPTER_LIST.
// A cycle-stepped simulator gives its network SteppedAdapter's drive
// surface and one overload of each per-network rule in backends.cpp;
// any other backend writes an adapter that rolls every random decision
// from `seed` and realises the trace phase by phase.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "bus/bus.hpp"
#include "bus/deflection.hpp"
#include "bus/xy_router.hpp"
#include "core/engine.hpp"
#include "core/interconnect.hpp"
#include "energy/energy.hpp"
#include "fault/fault_model.hpp"
#include "noc/topology.hpp"
#include "noc/traffic.hpp"
#include "router/core.hpp"
#include "wormhole/router.hpp"

namespace snoc {

/// --- Gossip (the paper's engine) ---------------------------------------

struct GossipSpec {
    Topology topology{Topology::mesh(5, 5)};
    GossipConfig config{};
    /// Tiles that must survive the crash roll (masters, endpoints, ...).
    std::vector<TileId> protect{};
    /// Crash exactly k unprotected tiles instead of rolling p_tiles
    /// (Fig. 4-4's x-axis); nullopt = roll p_tiles.
    std::optional<std::size_t> exact_tile_crashes{};
    /// Run the post-completion TTL drain before reading traffic counters
    /// (energy accounting wants the full broadcast lifetime).
    bool drain{false};
    /// Applied to the freshly built network, before the first round —
    /// route filters, forward capacities, clock scales (Ch. 5 hybrids).
    std::function<void(GossipNetwork&)> customize{};
    Technology tech{Technology::cmos_025um()};
};

class GossipAdapter final : public Interconnect {
public:
    GossipAdapter(GossipSpec spec, const FaultScenario& scenario, std::uint64_t seed);

    BackendKind kind() const override { return BackendKind::Gossip; }

    /// The underlying network, for IP-core deployment (apps::deploy_pi &
    /// co. attach their cores here before run_until).
    GossipNetwork& network() { return net_; }

    /// Replays `trace` through a TraceDriver until it completes or
    /// `limit` rounds elapse.
    RunReport run(const TrafficTrace& trace, Round limit) override;

    /// App-driven execution: run until `done()` or `limit` rounds — the
    /// attached-IpCore flavour of the Interconnect contract.
    RunReport run_until(const std::function<bool()>& done, Round limit);

    const NetworkMetrics* live_metrics() const override {
        return &net_.metrics();
    }

private:
    GossipSpec spec_;
    GossipNetwork net_;
    std::uint64_t seed_;
};

/// --- Shared bus (Sec. 4.1.4 baseline) ----------------------------------

struct BusSpec {
    std::size_t modules{25};
    Technology tech{Technology::cmos_025um()};
};

class BusAdapter final : public Interconnect {
public:
    /// The bus is a single point of failure: it is rolled dead with
    /// probability `scenario.p_links` (the whole medium is one link).
    BusAdapter(BusSpec spec, const FaultScenario& scenario, std::uint64_t seed);

    BackendKind kind() const override { return BackendKind::Bus; }
    SharedBus& bus() { return bus_; }

    RunReport run(const TrafficTrace& trace, Round limit) override;

private:
    BusSpec spec_;
    SharedBus bus_;
    std::uint64_t seed_;
};

/// --- Deterministic XY routing (Ch. 1 strawman) -------------------------

struct XySpec {
    Topology mesh{Topology::mesh(5, 5)};
    std::vector<TileId> protect{};
    Technology tech{Technology::cmos_025um()};
};

class XyAdapter final : public Interconnect {
public:
    XyAdapter(XySpec spec, const FaultScenario& scenario, std::uint64_t seed);

    BackendKind kind() const override { return BackendKind::Xy; }
    const CrashState& crashes() const { return crashes_; }

    RunReport run(const TrafficTrace& trace, Round limit) override;

private:
    XySpec spec_;
    CrashState crashes_;
    std::uint64_t seed_;
};

/// --- Cycle-stepped packet simulators ------------------------------------

/// What SteppedAdapter reads from every cycle-stepped spec: the mesh, the
/// tiles that must survive the crash roll, and the wire technology.
struct MeshSpec {
    std::size_t width{5};
    std::size_t height{5};
    std::vector<TileId> protect{};
    Technology tech{Technology::cmos_025um()};
};

struct WormholeSpec : MeshSpec {
    wormhole::Config config{};
    /// Wire bits per packet (flits share it equally) for the energy model.
    double packet_bits{256.0};
};

struct DeflectionSpec : MeshSpec {
    deflection::Config config{};
};

/// Shared spec for the router-core backends.  The three BackendKinds are
/// fixed stage selections over one core (src/router/): store-and-forward
/// and virtual cut-through flow control under dimension-order routing,
/// and cut-through under the fault-adaptive detour policy.
struct RouterSpec : MeshSpec {
    router::RouterConfig config{};
    /// Wire bits per packet for the energy model when a trace message
    /// carries no size (flits share it equally for the cycle-time model).
    double packet_bits{256.0};
};

struct StoreForwardSpec : RouterSpec {
    StoreForwardSpec() {
        config.flow = router::FlowControl::StoreAndForward;
        config.policy = router::PolicyKind::DimensionOrder;
        // snoc_verify proves the XY channel dependency graph acyclic, so
        // the DeadlockSentinel firing on this stage selection is an
        // invariant violation, not a telemetry event.
        config.expect_deadlock_free = true;
    }
};

struct CutThroughSpec : RouterSpec {
    CutThroughSpec() {
        config.flow = router::FlowControl::CutThrough;
        config.policy = router::PolicyKind::DimensionOrder;
        config.expect_deadlock_free = true; // statically verified (snoc_verify).
    }
};

struct AdaptiveSpec : RouterSpec {
    AdaptiveSpec() {
        config.flow = router::FlowControl::CutThrough;
        config.policy = router::PolicyKind::FaultAdaptive;
    }
};

/// Wormhole (flit VCs with credits), deflection (bufferless, RNG shuffles)
/// and the router core (packet FIFOs) are three step algorithms, so they
/// stay three simulators; one drive surface — apply_crashes, inject(src,
/// dst, bits), step, cycle, delivered, dropped, in_flight, records,
/// set_trace_sink — makes one adapter, instantiated per spec above.  It
/// rolls the crashes at construction and replays a trace phase by phase:
/// local messages never enter the network, and each phase steps until
/// nothing is in flight or the budget is spent.  A run completes when
/// every phase drained and nothing was dropped.
template <class Spec>
class SteppedAdapter final : public Interconnect {
public:
    SteppedAdapter(Spec spec, const FaultScenario& scenario, std::uint64_t seed);

    BackendKind kind() const override;

    const CrashState& crashes() const { return crashes_; }

    RunReport run(const TrafficTrace& trace, Round limit) override;

    /// The router core's counters, only while run() executes (the network
    /// is a local of run(); the pointer is cleared on every exit): post-
    /// mortem dumps fire inside the run they describe.  Wormhole and
    /// deflection keep no NetworkMetrics.
    const NetworkMetrics* live_metrics() const override {
        return live_metrics_;
    }

private:
    Spec spec_;
    CrashState crashes_;
    std::uint64_t seed_;
    const NetworkMetrics* live_metrics_{nullptr};
};

/// The spec-to-adapter table — X(Kind, Adapter, Spec), one row per
/// BackendKind in SNOC_BACKEND_KIND_LIST order.  The rows generate the
/// spec-typed make_interconnect overloads below and the default-spec
/// factory switch in backends.cpp; diversity::make_interconnect routes
/// its customized GossipSpec through the same overload set.
#define SNOC_BACKEND_ADAPTER_LIST(X)                                           \
    X(Gossip, GossipAdapter, GossipSpec)                                       \
    X(Bus, BusAdapter, BusSpec)                                                \
    X(Xy, XyAdapter, XySpec)                                                   \
    X(Wormhole, SteppedAdapter<WormholeSpec>, WormholeSpec)                    \
    X(Deflection, SteppedAdapter<DeflectionSpec>, DeflectionSpec)              \
    X(StoreForward, SteppedAdapter<StoreForwardSpec>, StoreForwardSpec)        \
    X(CutThrough, SteppedAdapter<CutThroughSpec>, CutThroughSpec)              \
    X(Adaptive, SteppedAdapter<AdaptiveSpec>, AdaptiveSpec)

// The adapter table must cover the kind registry row for row.
static_assert([] {
    std::size_t rows = 0;
#define SNOC_BACKEND_ADAPTER_COUNT(kind, adapter, spec) ++rows;
    SNOC_BACKEND_ADAPTER_LIST(SNOC_BACKEND_ADAPTER_COUNT)
#undef SNOC_BACKEND_ADAPTER_COUNT
    return rows;
}() == std::size(kBackendKinds),
              "every BackendKind needs a SNOC_BACKEND_ADAPTER_LIST row");

/// Spec-typed construction: make_interconnect(SomeSpec{...}, scenario,
/// seed) picks the right adapter from the table at compile time.
#define SNOC_BACKEND_ADAPTER_OVERLOAD(kind, adapter, spec)                     \
    inline std::unique_ptr<Interconnect> make_interconnect(                    \
        spec s, const FaultScenario& scenario, std::uint64_t seed) {           \
        return std::make_unique<adapter>(std::move(s), scenario, seed);        \
    }
SNOC_BACKEND_ADAPTER_LIST(SNOC_BACKEND_ADAPTER_OVERLOAD)
#undef SNOC_BACKEND_ADAPTER_OVERLOAD

/// Variant-free factory for the uniform construction shape
/// (kind + FaultScenario + seed, defaults for everything else); benches
/// with backend-specific needs construct the adapters directly or pass a
/// spec to the overloads above.
std::unique_ptr<Interconnect> make_interconnect(BackendKind kind,
                                                const FaultScenario& scenario,
                                                std::uint64_t seed);

} // namespace snoc
