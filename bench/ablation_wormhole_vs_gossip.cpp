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

#include "apps/trace_app.hpp"
#include "bench_util.hpp"
#include "wormhole/router.hpp"

int main(int argc, char** argv) {
    using namespace snoc;
    const auto opt = bench::options(argc, argv, 15);
    reject_telemetry_flags(opt, argv[0]);

    // ---- Part 1: saturation curve.
    wormhole::Config wc;
    Table saturation({"offered load", "avg latency [cycles]", "throughput",
                      "delivered [%]"});
    for (double load : {0.02, 0.05, 0.1, 0.2, 0.35, 0.5}) {
        const auto p = wormhole::run_uniform_load(8, wc, load, 300, 1500, 7);
        saturation.add_row({format_number(load, 2), format_number(p.avg_latency, 1),
                            format_number(p.throughput, 3),
                            format_number(100.0 * p.delivered_fraction, 1)});
    }
    bench::emit(saturation, opt,
                "Wormhole 8x8 mesh: latency / throughput vs offered load");

    // ---- Part 2: crash sensitivity.
    const auto mesh = Topology::mesh(5, 5);
    const std::vector<std::pair<TileId, TileId>> flows{{0, 24}, {4, 20}, {20, 4},
                                                       {24, 0}, {2, 22}, {10, 14}};

    struct Trial {
        std::size_t worm{0}, wf{0}, gossip{0};
    };

    Table crash({"crashed tiles", "wormhole XY [%]", "wormhole west-first [%]",
                 "gossip delivery [%]"});
    for (std::size_t k : {0u, 1u, 2u, 4u, 6u}) {
        const auto trials = run_trials(
            opt.repeats,
            [&](std::uint64_t seed) {
                // Shared crash pattern (protect the endpoints).
                RngPool pool(seed);
                FaultInjector inj(FaultScenario::none(), pool);
                std::vector<TileId> protected_tiles;
                for (const auto& [s, d] : flows) {
                    protected_tiles.push_back(s);
                    protected_tiles.push_back(d);
                }
                const auto crashes =
                    inj.roll_exact_tile_crashes(mesh, k, protected_tiles);

                Trial out;
                wormhole::Network wnet(5, 5, wc);
                for (TileId t = 0; t < 25; ++t)
                    if (crashes.dead_tiles[t]) wnet.crash_router(t);
                for (const auto& [s, d] : flows) wnet.inject(s, d);
                wnet.run(3000);
                out.worm = wnet.delivered();

                wormhole::Config wfc = wc;
                wfc.routing = wormhole::Routing::WestFirst;
                wormhole::Network wfnet(5, 5, wfc);
                for (TileId t = 0; t < 25; ++t)
                    if (crashes.dead_tiles[t]) wfnet.crash_router(t);
                for (const auto& [s, d] : flows) wfnet.inject(s, d);
                wfnet.run(3000);
                out.wf = wfnet.delivered();

                GossipConfig gc = bench::config_with_p(0.5, 40);
                GossipNetwork gnet(mesh, gc, FaultScenario::none(), seed);
                TrafficTrace trace;
                TrafficPhase phase;
                for (const auto& [s, d] : flows) phase.messages.push_back({s, d, 256});
                trace.phases.push_back(phase);
                apps::TraceDriver driver(gnet, trace);
                for (TileId t : protected_tiles) gnet.protect(t);
                gnet.force_exact_tile_crashes(k);
                gnet.run_until([&driver] { return driver.complete(); }, 500);
                out.gossip = driver.delivered_messages();
                return out;
            },
            opt.jobs);
        std::size_t worm_delivered = 0, wf_delivered = 0, gossip_delivered = 0;
        for (const Trial& t : trials) {
            worm_delivered += t.worm;
            wf_delivered += t.wf;
            gossip_delivered += t.gossip;
        }
        const double total = static_cast<double>(opt.repeats * flows.size());
        crash.add_row({std::to_string(k),
                       format_number(100.0 * worm_delivered / total, 1),
                       format_number(100.0 * wf_delivered / total, 1),
                       format_number(100.0 * gossip_delivered / total, 1)});
    }
    bench::emit(crash, opt,
                "Crash sensitivity: wormhole XY / west-first vs gossip "
                "(5x5, 6 flows)");
    return 0;
}
