#include "diversity/architecture.hpp"

#include "apps/trace_app.hpp"
#include "common/expect.hpp"
#include "sim/backends.hpp"

namespace snoc::diversity {

namespace {

constexpr std::size_t kClusterCount = 4;
constexpr std::size_t kClusterSide = 4;
constexpr std::size_t kClusterTiles = kClusterSide * kClusterSide;
constexpr TileId kHubNode = kClusterCount * kClusterTiles; // 64

/// Local tile indexes (within a 4x4 cluster/quadrant) of the task roles.
constexpr std::array<std::size_t, 4> kSensorLocals = {1, 2, 4, 8};
constexpr std::size_t kAggregatorLocal = 5;
constexpr std::size_t kCombinerLocal = 10; // in cluster 0 only

/// Flat 8x8: quadrant q's local tile l -> global tile id.
TileId flat_tile(std::size_t quadrant, std::size_t local) {
    const std::size_t qx = (quadrant % 2) * kClusterSide;
    const std::size_t qy = (quadrant / 2) * kClusterSide;
    const std::size_t lx = local % kClusterSide;
    const std::size_t ly = local / kClusterSide;
    return static_cast<TileId>((qy + ly) * (2 * kClusterSide) + (qx + lx));
}

/// Clustered architectures: cluster c's local tile l -> node id.
TileId cluster_tile(std::size_t cluster, std::size_t local) {
    return static_cast<TileId>(cluster * kClusterTiles + local);
}

std::size_t cluster_of(TileId tile) { return tile / kClusterTiles; }

/// Gateway (the tile wired to the hub) of each cluster: the corner that
/// faces the chip centre.
constexpr std::array<std::size_t, 4> kGatewayLocals = {15, 12, 3, 0};

apps::BeamformingMapping make_mapping(bool flat) {
    apps::BeamformingMapping m;
    for (std::size_t c = 0; c < kClusterCount; ++c)
        for (std::size_t s : kSensorLocals)
            m.sensors.push_back(flat ? flat_tile(c, s) : cluster_tile(c, s));
    for (std::size_t c = 0; c < kClusterCount; ++c)
        m.aggregators.push_back(flat ? flat_tile(c, kAggregatorLocal)
                                     : cluster_tile(c, kAggregatorLocal));
    m.combiner = flat ? flat_tile(0, kCombinerLocal) : cluster_tile(0, kCombinerLocal);
    return m;
}

std::vector<LinkEnd> intra_cluster_edges() {
    std::vector<LinkEnd> edges;
    for (std::size_t c = 0; c < kClusterCount; ++c) {
        for (std::size_t y = 0; y < kClusterSide; ++y) {
            for (std::size_t x = 0; x < kClusterSide; ++x) {
                const TileId id = cluster_tile(c, y * kClusterSide + x);
                if (x + 1 < kClusterSide)
                    edges.push_back({id, static_cast<TileId>(id + 1)});
                if (y + 1 < kClusterSide)
                    edges.push_back({id, static_cast<TileId>(id + kClusterSide)});
            }
        }
    }
    return edges;
}

Topology clustered_topology(const std::string& name) {
    auto edges = intra_cluster_edges();
    // Hub spokes.
    for (std::size_t c = 0; c < kClusterCount; ++c)
        edges.push_back({cluster_tile(c, kGatewayLocals[c]), kHubNode});
    return Topology::from_edges(kHubNode + 1, edges, name);
}

Topology gateway_mesh_topology(const std::string& name) {
    auto edges = intra_cluster_edges();
    // Gateways form their own fully-connected 2nd-level network.
    for (std::size_t a = 0; a < kClusterCount; ++a)
        for (std::size_t b = a + 1; b < kClusterCount; ++b)
            edges.push_back({cluster_tile(a, kGatewayLocals[a]),
                             cluster_tile(b, kGatewayLocals[b])});
    return Topology::from_edges(kClusterCount * kClusterTiles, edges, name);
}

/// Confine gossip to clusters: the hub only forwards a rumor into the
/// cluster that hosts its destination; a gateway only hands a rumor to the
/// hub when the destination is off-cluster.
void install_cluster_filters(GossipNetwork& net) {
    net.set_route_filter(kHubNode, [](const MessageBody& m, TileId next) {
        if (m.destination == kBroadcast) return true;
        return cluster_of(next) == cluster_of(m.destination);
    });
    for (std::size_t c = 0; c < kClusterCount; ++c) {
        const TileId gateway = cluster_tile(c, kGatewayLocals[c]);
        net.set_route_filter(gateway, [c](const MessageBody& m, TileId next) {
            if (next != kHubNode) return true;
            if (m.destination == kBroadcast) return true;
            return cluster_of(m.destination) != c;
        });
    }
}

/// Gateway-mesh variant: a gateway forwards onto an inter-gateway link
/// only toward the destination's cluster.
void install_gateway_mesh_filters(GossipNetwork& net) {
    for (std::size_t c = 0; c < kClusterCount; ++c) {
        const TileId gateway = cluster_tile(c, kGatewayLocals[c]);
        net.set_route_filter(gateway, [c](const MessageBody& m, TileId next) {
            const std::size_t next_cluster = cluster_of(next);
            if (next_cluster == c) return true; // intra-cluster port
            // Inter-gateway link: only toward the destination's cluster.
            if (m.destination == kBroadcast) return true;
            return cluster_of(m.destination) == next_cluster;
        });
    }
}

} // namespace

Architecture make_architecture(ArchitectureKind kind) {
    Architecture arch;
    arch.kind = kind;
    switch (kind) {
    case ArchitectureKind::FlatNoc:
        arch.topology = Topology::mesh(2 * kClusterSide, 2 * kClusterSide);
        arch.mapping = make_mapping(/*flat=*/true);
        break;
    case ArchitectureKind::HierarchicalNoc:
        arch.topology = clustered_topology("4x(4x4) + central router");
        arch.mapping = make_mapping(/*flat=*/false);
        arch.hub = kHubNode;
        arch.hub_capacity = 8; // a real router switches several packets/round
        break;
    case ArchitectureKind::CentralRouterMesh:
        arch.topology = gateway_mesh_topology("4x(4x4) + gateway mesh");
        arch.mapping = make_mapping(/*flat=*/false);
        break;
    case ArchitectureKind::BusConnectedNocs:
        arch.topology = clustered_topology("4x(4x4) + shared bus");
        arch.mapping = make_mapping(/*flat=*/false);
        arch.hub = kHubNode;
        arch.hub_capacity = 1; // the bus carries one packet per round
        break;
    }
    return arch;
}

void install_architecture(const Architecture& arch, GossipNetwork& net) {
    if (arch.hub != kNoTile) {
        net.set_forward_capacity(arch.hub, arch.hub_capacity);
        install_cluster_filters(net);
    } else if (arch.kind == ArchitectureKind::CentralRouterMesh) {
        install_gateway_mesh_filters(net);
    }
}

TrafficTrace beamforming_trace_for(const Architecture& arch, std::size_t frames) {
    return apps::beamforming_trace(arch.mapping, frames);
}

std::unique_ptr<Interconnect> make_interconnect(ArchitectureKind kind,
                                                const GossipConfig& config,
                                                const FaultScenario& scenario,
                                                std::uint64_t seed) {
    const Architecture arch = make_architecture(kind);
    GossipSpec spec;
    spec.topology = arch.topology;
    spec.config = config;
    spec.customize = [arch](GossipNetwork& net) { install_architecture(arch, net); };
    // Route through the spec-to-adapter table (qualified: unqualified
    // lookup would stop at this overload set).
    return snoc::make_interconnect(std::move(spec), scenario, seed);
}

DiversityResult run_beamforming(ArchitectureKind kind, std::size_t frames,
                                const GossipConfig& config,
                                const FaultScenario& scenario, std::uint64_t seed,
                                Round max_rounds) {
    const Architecture arch = make_architecture(kind);
    const auto backend = make_interconnect(kind, config, scenario, seed);
    const RunReport report =
        backend->run(beamforming_trace_for(arch, frames), max_rounds);

    DiversityResult result;
    result.completed = report.completed;
    result.rounds = report.rounds;
    result.transmissions = report.metrics.packets_sent;
    result.seconds = report.seconds;
    return result;
}

} // namespace snoc::diversity
