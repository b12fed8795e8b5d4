// Ablation (ours): voltage/frequency islands (Ch. 5).
//
// The Master-Slave workload runs with the outer ring of the 5x5 chip in a
// slower, lower-voltage island.  Frequency scales ~V and dynamic energy
// ~V^2, so a half-frequency island spends roughly a quarter of the energy
// per bit.  The bench sweeps the island's slowdown and reports latency
// and island-aware energy — making the Ch. 5 claim ("combining
// architectural styles to optimise energy") quantitative.
#include <iostream>

#include "bench_util.hpp"

namespace {

/// Tiles of the outer ring of the 5x5 mesh (everything except the 3x3
/// centre block that hosts master + slaves).
std::vector<snoc::TileId> outer_ring() {
    std::vector<snoc::TileId> ring;
    for (snoc::TileId t = 0; t < 25; ++t) {
        const auto x = t % 5, y = t / 5;
        if (x == 0 || x == 4 || y == 0 || y == 4) ring.push_back(t);
    }
    return ring;
}

} // namespace

int main(int argc, char** argv) {
    using namespace snoc;
    const auto opt = bench::options(argc, argv, 10);
    const auto tech = Technology::cmos_025um();
    const auto ring = outer_ring();

    auto spec = bench::sweep(opt, "ablation_islands");
    spec.axes = {{"slowdown", {1.0, 1.5, 2.0, 3.0, 4.0}}};
    spec.trial = [&ring](const SweepPoint& pt, std::uint64_t seed, TraceSink* sink) {
        GossipSpec gs;
        gs.config = bench::config_with_p(0.5, 30);
        gs.drain = true;
        gs.customize = [&ring, scale = pt.value("slowdown")](GossipNetwork& net) {
            for (TileId t : ring) net.set_clock_scale(t, scale);
        };
        GossipAdapter net(std::move(gs), FaultScenario::none(), seed);
        net.set_trace_sink(sink);
        apps::PiDeployment d;
        auto& master = apps::deploy_pi(net.network(), d);
        net.network().protect(d.master_tile);
        return net.run_until([&master] { return master.done(); }, 2000);
    };
    const auto cells = ScenarioRunner(std::move(spec)).run();

    Table table({"ring slowdown", "latency [rounds]", "completion [%]",
                 "energy, uniform Ebit [J]", "energy, island-aware [J]"});
    for (const CellResult& cell : cells) {
        const double scale = cell.point.value("slowdown");
        // Island-aware: V ~ f, E_bit ~ V^2 => E_bit / scale^2 in the slow
        // island.
        const auto island = bench::accumulate(
            cell,
            [&](const RunReport& r) {
                double joules = 0.0;
                for (TileId t = 0; t < 25; ++t) {
                    const bool in_ring =
                        std::find(ring.begin(), ring.end(), t) != ring.end();
                    const double ebit = in_ring
                                            ? tech.link_ebit_joules / (scale * scale)
                                            : tech.link_ebit_joules;
                    joules += static_cast<double>(r.metrics.bits_sent_by_tile[t]) * ebit;
                }
                return joules;
            },
            true);
        const bool completed = cell.stats.completion_rate > 0.0;
        table.add_row({format_number(scale, 1),
                       completed ? format_number(cell.stats.rounds, 1) : "DNF",
                       format_number(bench::completion_pct(cell), 0),
                       completed ? format_sci(cell.stats.joules, 2) : "-",
                       completed ? format_sci(island.mean(), 2) : "-"});
    }
    bench::emit(table, opt,
                "Ablation: voltage/frequency island on the outer ring "
                "(Master-Slave, 5x5, p=0.5)");
    std::cout << "\nReading: slowing the ring costs a few rounds of latency\n"
                 "but the island's quadratic energy win shrinks the chip's\n"
                 "communication energy - the Ch. 5 diversity trade-off.\n";
    return 0;
}
