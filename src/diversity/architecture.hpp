// Chapter 5 — On-chip diversity: the three candidate communication
// architectures of Fig. 5-2, under one interface so the same application
// can be swept across them (Fig. 5-3).
//
//  * FlatNoc            — one 8x8 mesh; every tile gossips with the whole
//                         chip.
//  * HierarchicalNoc    — four 4x4 sub-meshes joined by a central router
//                         tile; gossip is confined to a cluster unless a
//                         message needs to cross, which keeps the total
//                         transmission count low.
//  * BusConnectedNocs   — same clustering, but the joining element is a
//                         shared bus: a bridge that can carry only one
//                         packet per round (serialised, arbitrated medium).
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "apps/beamforming.hpp"
#include "core/engine.hpp"
#include "core/interconnect.hpp"
#include "fault/fault_model.hpp"
#include "noc/topology.hpp"

namespace snoc::diversity {

enum class ArchitectureKind : std::uint8_t {
    FlatNoc,
    HierarchicalNoc,   ///< clusters + central router tile (Fig. 5-2 left).
    CentralRouterMesh, ///< clusters whose gateways form their own 2nd-level
                       ///< mesh — no single routing element (extension).
    BusConnectedNocs,  ///< clusters joined by a serialised shared bus.
};

constexpr const char* to_string(ArchitectureKind k) {
    switch (k) {
    case ArchitectureKind::FlatNoc: return "Flat NoC";
    case ArchitectureKind::HierarchicalNoc: return "Hierarchical NoC";
    case ArchitectureKind::CentralRouterMesh: return "Gateway-mesh NoC";
    case ArchitectureKind::BusConnectedNocs: return "Bus-connected NoCs";
    }
    return "?";
}

/// A concrete architecture: topology + where the beamforming tasks live +
/// the hub tile (if any) and its per-round forwarding capacity.
struct Architecture {
    ArchitectureKind kind{ArchitectureKind::FlatNoc};
    Topology topology{Topology::mesh(8, 8)};
    apps::BeamformingMapping mapping;
    TileId hub{kNoTile};            ///< central router / bus bridge tile.
    std::size_t hub_capacity{0};    ///< packets/round through the hub (0 = n/a).
};

/// Build one of the three Fig. 5-2 shapes (64 worker tiles each).
Architecture make_architecture(ArchitectureKind kind);

/// Install an architecture's traffic shaping on a freshly built network:
/// the hub's per-round forward capacity plus the cluster/gateway route
/// filters that confine gossip to the destination's cluster.
void install_architecture(const Architecture& arch, GossipNetwork& net);

/// The acoustic-beamforming TrafficTrace mapped onto an architecture.
TrafficTrace beamforming_trace_for(const Architecture& arch, std::size_t frames);

/// A gossip-backed Interconnect for one of the Fig. 5-2 architectures —
/// the Ch. 5 entry into the unified comparison harness (the adapter
/// recipe: topology + filters in, RunReport out).
std::unique_ptr<Interconnect> make_interconnect(ArchitectureKind kind,
                                                const GossipConfig& config,
                                                const FaultScenario& scenario,
                                                std::uint64_t seed);

/// Run the beamforming workload on an architecture and report the Fig. 5-3
/// quantities.
struct DiversityResult {
    bool completed{false};
    std::size_t rounds{0};
    std::size_t transmissions{0};
    double seconds{0.0};
};

DiversityResult run_beamforming(ArchitectureKind kind, std::size_t frames,
                                const GossipConfig& config,
                                const FaultScenario& scenario, std::uint64_t seed,
                                Round max_rounds = 20000);

} // namespace snoc::diversity
