// Ablation (ours): conventional wormhole-routed NoC vs stochastic
// communication.
//
// Part 1 — the wormhole saturation curve (latency & throughput vs offered
// load): the classic behaviour the thesis' "prohibitive cost" argument
// assumes as the alternative.
//
// Part 2 — crash sensitivity: the same corner-to-corner traffic over (a)
// the flit-level wormhole mesh and (b) gossip, with k crashed tiles.  A
// dead router blocks every worm routed through it *and* everything that
// backs up behind the blocked worm; gossip routes around the corpse.
#include <iostream>

#include "bench_util.hpp"
#include "common/parallel.hpp"
#include "wormhole/router.hpp"

int main(int argc, char** argv) {
    using namespace snoc;
    const auto opt = bench::options(argc, argv, 15);

    // ---- Part 1: saturation curve.  Every load is its own trial with its
    // own seed, so the loads fan out over --jobs and print in load order.
    wormhole::Config wc;
    const std::vector<double> kLoads{0.02, 0.05, 0.1, 0.2, 0.35, 0.5};
    const auto points = run_trials(
        kLoads.size(),
        [&](std::uint64_t i) {
            return wormhole::run_uniform_load(8, wc, kLoads[i], 300, 1500, opt.seed + 7);
        },
        opt.jobs);
    Table saturation({"offered load", "avg latency [cycles]", "throughput",
                      "delivered [%]"});
    for (std::size_t i = 0; i < kLoads.size(); ++i) {
        const auto& p = points[i];
        saturation.add_row({format_number(kLoads[i], 2), format_number(p.avg_latency, 1),
                            format_number(p.throughput, 3),
                            format_number(100.0 * p.delivered_fraction, 1)});
    }
    bench::emit(saturation, opt,
                "Wormhole 8x8 mesh: latency / throughput vs offered load");

    // ---- Part 2: crash sensitivity.
    const auto mesh = Topology::mesh(5, 5);
    const std::vector<std::pair<TileId, TileId>> flows{{0, 24}, {4, 20}, {20, 4},
                                                       {24, 0}, {2, 22}, {10, 14}};

    std::vector<TileId> protected_tiles;
    for (const auto& [s, d] : flows) {
        protected_tiles.push_back(s);
        protected_tiles.push_back(d);
    }
    TrafficTrace trace;
    TrafficPhase phase;
    for (const auto& [s, d] : flows) phase.messages.push_back({s, d, 256});
    trace.phases.push_back(phase);

    // One cell per (crash count, network); a report's deliveries are the
    // flows that arrived.
    const std::vector<double> kCrashed{0, 1, 2, 4, 6};
    auto spec = bench::sweep(opt, "ablation_wormhole_vs_gossip");
    spec.axes = {{"crashed", kCrashed}, {"net", {0, 1, 2}}}; // XY, west-first, gossip
    spec.trial = [&](const SweepPoint& pt, std::uint64_t seed, TraceSink* sink) {
        const auto k = static_cast<std::size_t>(pt.value("crashed"));
        const std::size_t net = pt.index_of("net");
        if (net == 2) {
            GossipSpec gs;
            gs.topology = mesh;
            gs.config = bench::config_with_p(0.5, 40);
            gs.protect = protected_tiles;
            gs.exact_tile_crashes = k;
            GossipAdapter gossip(std::move(gs), FaultScenario::none(), seed);
            gossip.set_trace_sink(sink);
            return gossip.run(trace, 500);
        }
        // Both wormhole routings see the same seed-derived crash pattern
        // (the endpoints protected).
        RngPool pool(seed);
        FaultInjector inj(FaultScenario::none(), pool);
        const auto crashes = inj.roll_exact_tile_crashes(mesh, k, protected_tiles);
        wormhole::Config config = wc;
        if (net == 1) config.routing = wormhole::Routing::WestFirst;
        wormhole::Network wnet(5, 5, config);
        wnet.set_trace_sink(sink);
        wnet.apply_crashes(crashes);
        for (const auto& [s, d] : flows) wnet.inject(s, d, /*bits=*/256);
        wnet.run(3000);
        RunReport report;
        report.deliveries = wnet.delivered();
        return report;
    };
    const auto cells = ScenarioRunner(std::move(spec)).run();

    Table crash({"crashed tiles", "wormhole XY [%]", "wormhole west-first [%]",
                 "gossip delivery [%]"});
    const double total = static_cast<double>(opt.repeats * flows.size());
    for (std::size_t c = 0; c < kCrashed.size(); ++c) {
        std::vector<std::string> row{std::to_string(static_cast<std::size_t>(kCrashed[c]))};
        for (std::size_t net = 0; net < 3; ++net) {
            std::size_t delivered = 0;
            for (const RunReport& r : cells[3 * c + net].reports) delivered += r.deliveries;
            row.push_back(format_number(100.0 * delivered / total, 1));
        }
        crash.add_row(row);
    }
    bench::emit(crash, opt,
                "Crash sensitivity: wormhole XY / west-first vs gossip "
                "(5x5, 6 flows)");
    return 0;
}
