// Deliberately-broken probe configurations for snoc_verify's mutation
// self-test: the verifier must catch each of these before its green
// verdicts on the real registry mean anything (the same philosophy as
// snoc_lint's fixture trees and CI mutation self-checks).
//
//   * CyclicTurnPolicy — west-first with the forbidden turn re-enabled:
//     whenever westward progress remains the policy *also* offers the
//     minimal non-west directions, so a packet may defer its west hop and
//     turn into west later.  That restores the full minimal turn set,
//     whose channel dependency graph is cyclic on any mesh >= 2x2 — the
//     classic deadlock Glass-Ni turn elimination exists to prevent.
//     Catchable twice: statically (analyze_cdg reports a concrete channel
//     cycle) and dynamically (a RouterCore running it wedges and trips
//     the DeadlockSentinel).
//
//   * unbounded_deflection_budget() — a misroute budget of "no limit":
//     deflection/adaptive policies escape the CDG obligation only by
//     bounding livelock with a finite hop budget; verdict analysis must
//     refuse the escape when the budget is absent.
#pragma once

#include <cstddef>
#include <memory>

#include "router/core.hpp"
#include "router/policy.hpp"

namespace snoc::analysis {

/// West-first with the west-first rule broken: all minimal live
/// directions are offered even while westward progress remains.
class CyclicTurnPolicy final : public router::RoutingPolicy {
public:
    /// Masquerades as the policy it mutates — the probe exists to prove a
    /// broken WestFirst registration would be caught.
    router::PolicyKind kind() const override {
        return router::PolicyKind::WestFirst;
    }
    router::PortList candidates(
        const Topology& topo, TileId at, TileId from, TileId dst,
        const std::vector<bool>& dead) const override;
};

/// The "no hop budget" sentinel value for livelock-bound analysis (a real
/// RouterConfig cannot carry it: validate() requires max_hops >= 1).
constexpr std::size_t unbounded_deflection_budget() { return 0; }

/// Outcome of the dynamic half of the self-test (see probe_dynamic_deadlock).
struct DynamicProbeResult {
    bool wedged{false};           ///< the cyclic-policy core stopped making progress.
    bool sentinel_fired{false};   ///< DeadlockSentinel reported the wedge.
    std::size_t stalled_cycles{0};///< watchdog count when the run ended.
    bool control_drained{false};  ///< the same traffic under XY ran to idle.
    bool control_sentinel{false}; ///< XY control tripped the sentinel (must not).
};

/// Drive the cross-check: a RouterCore wired with CyclicTurnPolicy under
/// ring traffic on a small mesh must wedge and trip the DeadlockSentinel,
/// while the identical traffic under dimension-order routing must drain
/// with the sentinel silent.  Pure function of nothing — fully
/// deterministic, a few thousand cycles of work.
DynamicProbeResult probe_dynamic_deadlock();

} // namespace snoc::analysis
