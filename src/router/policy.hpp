// Routing-policy stage of the layered router core: given a packet's
// position and destination, name the candidate output ports in
// preference order.  Policies are pure functions of (topology, position,
// destination, crash pattern) — no RNG, no per-packet state — so every
// backend composing one stays deterministic by construction.
//
// The registry below is the single source of truth: enumerator, wire
// name and factory all follow the X-macro, so a new policy cannot
// desynchronize to_string or make_policy.
#pragma once

#include <array>
#include <cstdint>
#include <iterator>
#include <memory>
#include <vector>

#include "common/expect.hpp"
#include "common/types.hpp"
#include "noc/topology.hpp"

namespace snoc::router {

#define SNOC_ROUTING_POLICY_LIST(X)                                            \
    X(DimensionOrder, "xy")         /* walk X then Y; fault-blind */           \
    X(WestFirst, "west-first")      /* Glass-Ni turn model; fault-blind */     \
    X(Productive, "productive")     /* live Manhattan-decreasing ports */      \
    X(FaultAdaptive, "adaptive")    /* minimal-first, live detours allowed */

enum class PolicyKind : std::uint8_t {
#define SNOC_ROUTING_POLICY_ENUM(name, str) name,
    SNOC_ROUTING_POLICY_LIST(SNOC_ROUTING_POLICY_ENUM)
#undef SNOC_ROUTING_POLICY_ENUM
};

inline constexpr const char* kPolicyKindNames[] = {
#define SNOC_ROUTING_POLICY_NAME(name, str) str,
    SNOC_ROUTING_POLICY_LIST(SNOC_ROUTING_POLICY_NAME)
#undef SNOC_ROUTING_POLICY_NAME
};

inline constexpr std::size_t kPolicyKinds = std::size(kPolicyKindNames);

constexpr const char* to_string(PolicyKind k) {
    const auto i = static_cast<std::size_t>(k);
    return i < kPolicyKinds ? kPolicyKindNames[i] : "?";
}

/// Candidate output ports (indexes into `topo.neighbours(at)`) in
/// preference order, held inline: a grid tile has at most four ports, so
/// a routing decision never touches the heap and a router can cache one
/// per buffered packet.  Overflow is a ContractViolation.
class PortList {
public:
    static constexpr std::size_t kCapacity = 4;

    void push_back(std::size_t port) {
        SNOC_ENSURE(size_ < kCapacity && port <= UINT8_MAX &&
                    "more candidate ports than a grid tile has");
        ports_[size_++] = static_cast<std::uint8_t>(port);
    }

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    const std::uint8_t* begin() const { return ports_.data(); }
    const std::uint8_t* end() const { return ports_.data() + size_; }

private:
    std::array<std::uint8_t, kCapacity> ports_{};
    std::uint8_t size_{0};
};

/// A routing decision: candidate output ports in preference order.  Empty
/// means "no move": either `at == dst` (eject locally) or the policy has
/// no legal port.
///
/// `dead` is the tile crash pattern (indexed by TileId; empty means all
/// alive) — fault-aware policies exclude ports into dead neighbours,
/// fault-blind ones ignore it and route as if the mesh were healthy.
/// `from` is the upstream neighbour the packet arrived from (kNoTile at
/// its source); only detour policies consult it, to avoid u-turns.
///
/// The cycle-stepped simulators do not call candidates() per hop: each
/// network asks once per (tile, input port, destination) through its
/// RouteTable (router/route_table.hpp), which is exact only because a
/// policy is a pure function of these arguments.
class RoutingPolicy {
public:
    virtual ~RoutingPolicy() = default;

    virtual PolicyKind kind() const = 0;

    virtual PortList candidates(
        const Topology& topo, TileId at, TileId from, TileId dst,
        const std::vector<bool>& dead) const = 0;
};

/// Deterministic dimension-order (XY) routing: exactly one candidate,
/// the next hop of the walk-X-then-Y path.  Fault-blind — "transmission
/// of messages along a fixed path from source to destination would fail
/// if even a single tile or a link on the path is faulty" (Ch. 1).
class DimensionOrderPolicy final : public RoutingPolicy {
public:
    PolicyKind kind() const override { return PolicyKind::DimensionOrder; }
    PortList candidates(
        const Topology& topo, TileId at, TileId from, TileId dst,
        const std::vector<bool>& dead) const override;
};

/// Glass-Ni west-first turn model: all westward hops happen first (turns
/// *into* west are prohibited — deadlock-free), and the remaining minimal
/// directions are adaptive alternatives, in east/north/south order.
class WestFirstPolicy final : public RoutingPolicy {
public:
    PolicyKind kind() const override { return PolicyKind::WestFirst; }
    PortList candidates(
        const Topology& topo, TileId at, TileId from, TileId dst,
        const std::vector<bool>& dead) const override;
};

/// Deflection's productive set: every live port that decreases Manhattan
/// distance, in neighbour order.  The flow-control stage deflects onto a
/// free non-productive port when the whole set is taken.
class ProductivePolicy final : public RoutingPolicy {
public:
    PolicyKind kind() const override { return PolicyKind::Productive; }
    PortList candidates(
        const Topology& topo, TileId at, TileId from, TileId dst,
        const std::vector<bool>& dead) const override;
};

/// Fault-adaptive detour routing (the new backend-zoo policy): minimal
/// live ports first (X before Y, the XY tie-break), then live detour
/// ports in neighbour order with the arrival port last — a packet walks
/// around a dead region instead of dying on it, at the price of a hop
/// budget to cut livelock.
class FaultAdaptivePolicy final : public RoutingPolicy {
public:
    PolicyKind kind() const override { return PolicyKind::FaultAdaptive; }
    PortList candidates(
        const Topology& topo, TileId at, TileId from, TileId dst,
        const std::vector<bool>& dead) const override;
};

/// The full dimension-order path src..dst inclusive: walk X, then Y.
std::vector<TileId> dimension_order_path(const Topology& mesh, TileId src,
                                         TileId dst);

std::unique_ptr<RoutingPolicy> make_policy(PolicyKind kind);

} // namespace snoc::router
