// The unified interconnect abstraction.
//
// The thesis' whole argument is comparative — stochastic gossip vs. the
// shared bus (Sec. 4.1.4), vs. deterministic XY / wormhole / deflection
// routing (our extension baselines), vs. the Ch. 5 diversity hybrids —
// yet every backend historically exposed its own constructor shape and
// result struct, so every bench re-implemented trial loops and table
// emission by hand.  `Interconnect` normalizes the three things a
// comparison needs:
//
//   * construction — a backend is built from a topology/shape, its own
//     config struct, a FaultScenario and a seed (see sim/backends.hpp
//     for the concrete adapters and the factory);
//   * execution    — `run(trace, limit)` realises a backend-independent
//     TrafficTrace to completion or a round/cycle budget;
//   * results      — one RunReport for all backends: completion flag,
//     latency (rounds *and* seconds), traffic, delivery/drop taxonomy
//     and Technology-weighted wire energy.
//
// Adding a backend is writing a spec and an adapter (a cycle-stepped
// simulator only adds its overloads to the shared SteppedAdapter), not
// forking a bench file; `ScenarioRunner` (sim/scenario.hpp) then
// sweeps/averages any Interconnect declaratively.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "core/metrics.hpp"
#include "noc/traffic.hpp"

namespace snoc {

class TraceSink;

namespace check {
class InvariantAuditor;
}

/// The backend registry: one row per backend the factory in
/// sim/backends.hpp can build — X(EnumName, "table-name").  Adding a
/// backend means adding a row here and an adapter row to
/// SNOC_BACKEND_ADAPTER_LIST (sim/backends.hpp); the enum, the name
/// table, the kBackendKinds sweep list, the factory and the lint
/// registry check all follow from these rows (no parallel switch
/// statements to keep in sync).  Diversity architectures (Ch. 5) are
/// gossip-backed and register through their own factory in
/// diversity/architecture.hpp.
#define SNOC_BACKEND_KIND_LIST(X)                                              \
    X(Gossip, "gossip")           /* the paper's stochastic engine */          \
    X(Bus, "bus")                 /* shared-bus baseline of Sec. 4.1.4 */      \
    X(Xy, "xy")                   /* dimension-ordered routing strawman */     \
    X(Wormhole, "wormhole")       /* flit-level wormhole-routed mesh */        \
    X(Deflection, "deflection")   /* bufferless hot-potato routing */          \
    X(StoreForward, "store-forward") /* router core, store-and-forward */      \
    X(CutThrough, "cut-through")  /* router core, virtual cut-through */       \
    X(Adaptive, "adaptive")       /* router core, fault-adaptive detours */

enum class BackendKind : std::uint8_t {
#define SNOC_BACKEND_KIND_ENUM(name, str) name,
    SNOC_BACKEND_KIND_LIST(SNOC_BACKEND_KIND_ENUM)
#undef SNOC_BACKEND_KIND_ENUM
};

inline constexpr const char* kBackendKindNames[] = {
#define SNOC_BACKEND_KIND_NAME(name, str) str,
    SNOC_BACKEND_KIND_LIST(SNOC_BACKEND_KIND_NAME)
#undef SNOC_BACKEND_KIND_NAME
};

/// Every BackendKind, in declaration order — the sweep list tests and
/// benches iterate instead of hand-maintaining their own.
inline constexpr BackendKind kBackendKinds[] = {
#define SNOC_BACKEND_KIND_VALUE(name, str) BackendKind::name,
    SNOC_BACKEND_KIND_LIST(SNOC_BACKEND_KIND_VALUE)
#undef SNOC_BACKEND_KIND_VALUE
};

static_assert(std::size(kBackendKinds) == 8,
              "update the tests' sweep expectations when growing the zoo");

constexpr const char* to_string(BackendKind k) {
    const auto i = static_cast<std::size_t>(k);
    return i < std::size(kBackendKindNames) ? kBackendKindNames[i] : "?";
}

/// One run's measurements, backend-independent.  Fields a backend cannot
/// measure stay at their zero value (e.g. the bus has no rounds; XY has
/// no wall-clock model beyond hops).  `metrics` carries the full gossip
/// taxonomy when the backend is gossip-based, zeroed otherwise.
struct RunReport {
    bool completed{false};        ///< workload finished inside the budget.
    Round rounds{0};              ///< gossip rounds / router cycles executed.
    double seconds{0.0};          ///< wall-clock (GALS / cycle-time model).
    std::size_t transmissions{0}; ///< link or bus transfers.
    std::size_t bits{0};          ///< wire bits moved.
    std::size_t messages{0};      ///< logical messages offered to the network.
    std::size_t deliveries{0};    ///< messages that reached their destination.
    std::size_t dropped{0};       ///< messages lost (crash / TTL / hop budget).
    double joules{0.0};           ///< wire energy (Eq. 3, Technology-weighted).
    std::uint64_t seed{0};        ///< seed this run was constructed from.
    std::size_t attempts{1};      ///< tries the retry policy spent (>= 1).
    std::size_t audit_violations{0}; ///< invariant violations the attached
                                     ///< auditor recorded during this run
                                     ///< (0 when no auditor was attached).
    NetworkMetrics metrics{};     ///< full gossip counters, when applicable.
    /// Per-TraceEventKind event totals when the trial ran with telemetry
    /// attached (ScenarioRunner stamps it; empty otherwise).  Indexed by
    /// static_cast<size_t>(TraceEventKind).
    std::vector<std::size_t> trace_counts;
    /// Bench-defined per-trial values no field above can hold (a spread
    /// curve, a bit-rate report, ...).  Backends leave it empty and
    /// aggregate() ignores it; the bench that fills it reads it back.
    std::vector<double> extras;
};

/// A communication backend under test.  Construction is adapter-specific
/// (each takes its own config plus FaultScenario + seed); execution and
/// results are uniform.
class Interconnect {
public:
    virtual ~Interconnect() = default;

    virtual BackendKind kind() const = 0;

    /// Human-readable backend name for table rows.
    virtual std::string name() const { return to_string(kind()); }

    /// Realise `trace` phase by phase until it completes or `limit`
    /// rounds/cycles elapse.  One-shot: construct a fresh adapter per run
    /// (a trial owns its backend, exactly as the determinism contract of
    /// common/parallel.hpp requires).
    virtual RunReport run(const TrafficTrace& trace, Round limit) = 0;

    /// Attach a runtime invariant auditor (src/check/).  The auditor is a
    /// pure observer — adapters call into it at round boundaries and on
    /// report emission, and stamp RunReport::audit_violations; attaching
    /// one never changes simulation behaviour.  Not owned; must outlive
    /// the runs it audits.  nullptr detaches.
    void set_auditor(check::InvariantAuditor* auditor) { auditor_ = auditor; }
    check::InvariantAuditor* auditor() const { return auditor_; }

    /// Attach a trace sink (sim/trace.hpp).  Every backend emits the same
    /// TraceEvent vocabulary through it — created / transmitted /
    /// delivered and the drop taxonomy — so one Telemetry recorder can
    /// watch any backend.  Like the auditor it is a pure observer: not
    /// owned, must outlive the runs it records, nullptr detaches, and
    /// with no sink attached tracing costs nothing.
    void set_trace_sink(TraceSink* sink) { trace_sink_ = sink; }
    TraceSink* trace_sink() const { return trace_sink_; }

    /// Live counters while run() executes, for post-mortem snapshots:
    /// when a violation aborts a run mid-flight, the dumper reads these
    /// to record what the network had counted at the moment of death.
    /// Optional — adapters whose backend lives inside run() may return
    /// nullptr (the bundle then simply omits the metrics object).  Only
    /// meaningful during run(); never dereference after it returns.
    virtual const NetworkMetrics* live_metrics() const { return nullptr; }

private:
    check::InvariantAuditor* auditor_{nullptr};
    TraceSink* trace_sink_{nullptr};
};

} // namespace snoc
