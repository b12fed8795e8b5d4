// Ablation (ours): deterministic XY routing vs. stochastic communication
// under tile crash failures — quantifying the Ch. 1 claim that static
// routing "would fail if even a single tile or a link on the path is
// faulty" while gossip degrades gracefully.
//
// Two ScenarioRunner experiments over the same p_tiles axis and the same
// per-repeat seeds: the XyAdapter and the gossip engine roll their crash
// patterns independently from the shared seed, exactly as the old
// hand-rolled loop did.
#include <iostream>

#include "bench_util.hpp"

int main(int argc, char** argv) {
    using namespace snoc;
    const auto opt = bench::options(argc, argv, 20);
    const auto mesh = Topology::mesh(5, 5);
    const std::vector<double> kPTiles{0.0, 0.05, 0.1, 0.15, 0.2, 0.3};

    // Corner-to-corner traffic: long routes, maximal crash exposure.
    TrafficTrace trace;
    TrafficPhase phase;
    phase.messages.push_back({0, 24, 256});
    phase.messages.push_back({4, 20, 256});
    phase.messages.push_back({20, 4, 256});
    phase.messages.push_back({24, 0, 256});
    trace.phases.push_back(phase);
    const std::vector<TileId> endpoints{0, 4, 20, 24};

    const auto scenario_for = [](double p_tiles) {
        FaultScenario s;
        s.p_tiles = p_tiles;
        return s;
    };

    auto xy_spec = bench::sweep(opt, "ablation xy");
    xy_spec.axes = {{"p_tiles", kPTiles}};
    xy_spec.telemetry = bench::tag_telemetry(opt.telemetry, "_xy");
    xy_spec.backend = [&](const SweepPoint& pt, std::uint64_t seed) {
        return std::make_unique<XyAdapter>(XySpec{mesh, endpoints},
                                           scenario_for(pt.value("p_tiles")), seed);
    };
    xy_spec.trace = [&](const SweepPoint&) { return trace; };

    auto gossip_spec = bench::sweep(opt, "ablation gossip");
    gossip_spec.axes = {{"p_tiles", kPTiles}};
    gossip_spec.max_rounds = 1000;
    gossip_spec.telemetry = bench::tag_telemetry(opt.telemetry, "_gossip");
    gossip_spec.backend = [&](const SweepPoint& pt, std::uint64_t seed) {
        GossipSpec spec;
        spec.topology = mesh;
        spec.config = bench::config_with_p(0.5, 40);
        spec.protect = endpoints;
        return std::make_unique<GossipAdapter>(
            std::move(spec), scenario_for(pt.value("p_tiles")), seed);
    };
    gossip_spec.trace = [&](const SweepPoint&) { return trace; };

    const auto xy_cells = ScenarioRunner(xy_spec).run();
    const auto gossip_cells = ScenarioRunner(gossip_spec).run();

    Table table({"p_tiles", "XY delivery [%]", "gossip delivery [%]",
                 "gossip completion [%]"});
    for (std::size_t c = 0; c < kPTiles.size(); ++c) {
        std::size_t xy_delivered = 0, xy_total = 0;
        for (const RunReport& r : xy_cells[c].reports) {
            xy_delivered += r.deliveries;
            xy_total += r.messages;
        }
        std::size_t gossip_delivered = 0;
        for (const RunReport& r : gossip_cells[c].reports)
            gossip_delivered += r.deliveries;
        table.add_row(
            {format_number(kPTiles[c], 2),
             format_number(100.0 * xy_delivered / xy_total, 1),
             format_number(100.0 * gossip_delivered /
                               (opt.repeats * trace.message_count()),
                           1),
             format_number(100.0 * gossip_cells[c].stats.completion_rate, 0)});
    }
    bench::emit(table, opt, "Ablation: XY routing vs gossip under tile crashes");
    return 0;
}
