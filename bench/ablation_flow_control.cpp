// Flow-control ablation: the packet-switched zoo on the Fig. 4-6
// workload (Master-Slave pi scatter/gather, wire-framed packets, 0.25um
// technology).  One row per backend x fault scenario:
//
//   xy            hop-count strawman (no cycle-time model)
//   wormhole      flit streaming through per-port VCs
//   deflection    bufferless hot-potato
//   store-forward router core, whole packets per hop
//   cut-through   router core, header switched ahead of the tail
//   adaptive      router core, cut-through + fault-adaptive detours
//
// Expected shape: cut-through's latency beats store-and-forward by
// roughly the hop count (pipelining), and under tile crashes the
// adaptive policy's completion rate stays above the dimension-ordered
// schemes, at a modest detour-energy premium.  scripts/bench_snapshot.sh
// records this table as BENCH_router.json.
#include <iostream>

#include "bench_util.hpp"
#include "noc/packet.hpp"

int main(int argc, char** argv) {
    using namespace snoc;
    const auto opt = bench::options(argc, argv, 3);

    auto trace = apps::pi_trace(apps::PiDeployment{});
    // The pi deployment is compact (master ringed by its slaves), so a
    // corner-exchange phase adds the long-haul routes whose middle tiles
    // are unprotected — the paths the fault scenario can actually cut.
    TrafficPhase corners;
    corners.messages.push_back({0, 24, 256});
    corners.messages.push_back({4, 20, 256});
    corners.messages.push_back({20, 4, 256});
    corners.messages.push_back({24, 0, 256});
    trace.phases.push_back(corners);
    const std::size_t useful = trace.useful_bits();
    // Fair framing, as in fig4_6: packets carry header + CRC on the wire.
    std::vector<TileId> endpoints;
    for (auto& phase : trace.phases)
        for (auto& m : phase.messages) {
            m.bits += kWireOverheadBytes * 8;
            endpoints.push_back(m.src);
            endpoints.push_back(m.dst);
        }

    constexpr BackendKind kKinds[] = {
        BackendKind::Xy,           BackendKind::Wormhole,
        BackendKind::Deflection,   BackendKind::StoreForward,
        BackendKind::CutThrough,   BackendKind::Adaptive,
    };
    constexpr std::size_t kKindCount = std::size(kKinds);

    const auto make_backend = [&](BackendKind kind, const FaultScenario& scenario,
                                  std::uint64_t seed) -> std::unique_ptr<Interconnect> {
        // The trace endpoints are protected (as every fig4_6-style bench
        // protects its deployment), so a crashed middle is what the
        // schemes differ on — not a dead master.
        const auto build = [&](auto spec) -> std::unique_ptr<Interconnect> {
            spec.protect = endpoints;
            return make_interconnect(std::move(spec), scenario, seed);
        };
        switch (kind) {
        case BackendKind::Xy: return build(XySpec{});
        case BackendKind::Wormhole: return build(WormholeSpec{});
        case BackendKind::Deflection: return build(DeflectionSpec{});
        case BackendKind::StoreForward: return build(StoreForwardSpec{});
        case BackendKind::CutThrough: return build(CutThroughSpec{});
        default: return build(AdaptiveSpec{});
        }
    };

    Table table({"backend", "faults", "completion", "cycles", "latency [us]",
                 "hops", "energy [J/bit]"});

    const FaultScenario healthy = FaultScenario::none();
    FaultScenario crashy;
    crashy.p_tiles = 0.1;

    for (const bool faulted : {false, true}) {
        const FaultScenario& scenario = faulted ? crashy : healthy;
        auto spec =
            bench::sweep(opt, faulted ? "flow-control faulted" : "flow-control healthy");
        spec.axes = {{"backend", [] {
                          std::vector<double> v;
                          for (std::size_t i = 0; i < kKindCount; ++i)
                              v.push_back(static_cast<double>(i));
                          return v;
                      }()}};
        spec.max_rounds = 20000;
        spec.audit = true;
        spec.telemetry =
            bench::tag_telemetry(opt.telemetry, faulted ? "_faulted" : "_healthy");
        spec.backend = [&](const SweepPoint& pt, std::uint64_t seed) {
            return make_backend(kKinds[pt.index_of("backend")], scenario, seed);
        };
        spec.trace = [&](const SweepPoint&) { return trace; };

        for (const CellResult& cell : ScenarioRunner(spec).run()) {
            const BackendKind kind = kKinds[cell.point.index_of("backend")];
            const CellStats& s = cell.stats;
            if (s.audit_violations != 0) {
                std::cerr << to_string(kind) << ": " << s.audit_violations
                          << " audit violation(s)\n";
                return 1;
            }
            const double jpb = bench::joules_per_useful_bit(s.bits, useful);
            // One link carries one flit per cycle; seconds come straight
            // from the adapters' cycle-time models (0 for xy, which has
            // no clock beyond hops).
            table.add_row({std::string(to_string(kind)),
                           faulted ? "p_tiles=0.1" : "none",
                           format_number(s.completion_rate, 2),
                           format_number(s.rounds, 1),
                           format_number(s.seconds * 1e6, 3),
                           format_number(s.transmissions, 1),
                           format_sci(jpb, 2)});
        }
    }

    bench::emit(table, opt,
                "Flow-control schemes on the fig4_6 pi workload");
    return 0;
}
