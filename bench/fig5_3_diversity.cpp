// Figure 5-3: on-chip diversity — comparing the three Fig. 5-2
// communication architectures on the acoustic beamforming workload.
//
// Expected shape (thesis, preliminary experiment with [42]): the
// hierarchical NoC has the lowest number of message transmissions (lowest
// power); the flat NoC has slightly better latency than the others; the
// bus-connected NoCs are the least efficient, but ease migration from
// today's bus-based designs.
#include <iostream>

#include "bench_util.hpp"
#include "diversity/architecture.hpp"

int main(int argc, char** argv) {
    using namespace snoc;
    const auto opt = bench::options(argc, argv, 5);
    constexpr std::size_t kFrames = 4;
    const std::vector<diversity::ArchitectureKind> kKinds{
        diversity::ArchitectureKind::FlatNoc,
        diversity::ArchitectureKind::HierarchicalNoc,
        diversity::ArchitectureKind::CentralRouterMesh,
        diversity::ArchitectureKind::BusConnectedNocs};

    // The declarative flavour: one axis enumerating the architectures, a
    // backend factory per cell, the beamforming trace mapped per cell.
    auto spec = bench::sweep(opt, "fig5_3");
    spec.axes = {{"arch", {0, 1, 2, 3}}};
    spec.max_rounds = 20000;
    spec.backend = [&](const SweepPoint& pt, std::uint64_t seed) {
        return diversity::make_interconnect(kKinds[pt.index_of("arch")],
                                            bench::config_with_p(0.75, 40),
                                            FaultScenario::none(), seed);
    };
    spec.trace = [&](const SweepPoint& pt) {
        const auto arch =
            diversity::make_architecture(kKinds[pt.index_of("arch")]);
        return diversity::beamforming_trace_for(arch, kFrames);
    };
    const auto cells = ScenarioRunner(spec).run();

    Table table({"architecture", "latency [rounds]", "message transmissions",
                 "completion"});
    double flat_tx = 0.0, hier_tx = 0.0, flat_lat = 0.0, bus_lat = 0.0;
    for (const CellResult& cell : cells) {
        const auto kind = kKinds[cell.point.index_of("arch")];
        const CellStats& s = cell.stats;
        table.add_row({to_string(kind), format_number(s.rounds, 1),
                       format_number(s.transmissions, 0),
                       format_number(100.0 * s.completion_rate, 0) + "%"});
        switch (kind) {
        case diversity::ArchitectureKind::FlatNoc:
            flat_tx = s.transmissions;
            flat_lat = s.rounds;
            break;
        case diversity::ArchitectureKind::HierarchicalNoc:
            hier_tx = s.transmissions;
            break;
        case diversity::ArchitectureKind::BusConnectedNocs:
            bus_lat = s.rounds;
            break;
        case diversity::ArchitectureKind::CentralRouterMesh:
            break; // extension row, not part of the Fig. 5-3 ratios
        }
    }
    bench::emit(table, opt, "Fig. 5-3: on-chip diversity architecture comparison");
    std::cout << "\nflat/hierarchical transmission ratio: "
              << format_number(flat_tx / hier_tx, 2)
              << " (paper: flat highest, hierarchical lowest)\n"
              << "bus/flat latency ratio: " << format_number(bus_lat / flat_lat, 2)
              << " (paper: flat slightly best)\n";
    return (hier_tx < flat_tx && flat_lat <= bus_lat) ? 0 : 1;
}
