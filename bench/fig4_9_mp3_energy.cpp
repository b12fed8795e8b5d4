// Figure 4-9: energy dissipation of the MP3 application vs. the
// forwarding probability p (at p_upset = 0).
//
// Expected shape: energy grows almost linearly with p — the total packet
// count is dictated by p (Eq. 3), which is exactly the latency/energy
// trade-off knob the thesis advertises.
#include <iostream>

#include "apps/mp3_app.hpp"
#include "bench_util.hpp"

int main(int argc, char** argv) {
    using namespace snoc;
    const auto opt = bench::options(argc, argv, 5);
    const std::vector<double> kPs{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0};

    apps::Mp3Config cfg;
    cfg.frame_samples = 64;
    cfg.frame_count = 12;
    cfg.frame_interval = 2;
    cfg.band_count = 8;
    cfg.frame_budget_bits = 400;
    cfg.reservoir_capacity = 800;

    auto spec = bench::sweep(opt, "fig4_9");
    spec.axes = {{"p", kPs}};
    spec.trial = [&cfg](const SweepPoint& pt, std::uint64_t seed, TraceSink* sink) {
        GossipSpec gs;
        gs.topology = Topology::mesh(4, 4);
        gs.config = bench::config_with_p(pt.value("p"), 40);
        gs.drain = true; // energy runs until every rumor's TTL expires
        GossipAdapter net(std::move(gs), FaultScenario::none(), seed);
        net.set_trace_sink(sink);
        auto& output = apps::deploy_mp3(net.network(), cfg);
        return net.run_until([&output] { return output.complete(); }, 4000);
    };
    const auto cells = ScenarioRunner(std::move(spec)).run();

    Table table({"p", "energy [J]", "packets", "latency [rounds]", "completion"});
    double first_energy = 0.0, last_energy = 0.0;
    Regression linearity;
    for (const CellResult& cell : cells) {
        const CellStats& s = cell.stats;
        const bool completed = s.completion_rate > 0.0;
        const double p = cell.point.value("p");
        table.add_row({format_number(p, 1),
                       completed ? format_sci(s.joules, 3) : "-",
                       completed ? format_number(s.transmissions, 0) : "-",
                       completed ? format_number(s.rounds, 0) : "DNF",
                       format_number(bench::completion_pct(cell), 0) + "%"});
        if (completed) {
            if (first_energy == 0.0) first_energy = s.joules;
            last_energy = s.joules;
            linearity.add(p, s.joules);
        }
    }
    bench::emit(table, opt, "Fig. 4-9: MP3 energy dissipation vs p");
    std::cout << "\nenergy(p=1)/energy(p~0.1) = "
              << format_number(last_energy / first_energy, 1)
              << " (approximately linear growth expected)\n";
    if (linearity.count() >= 2) {
        const auto fit = linearity.fit();
        std::cout << "linear fit: E = " << format_sci(fit.slope, 2) << " * p + "
                  << format_sci(fit.intercept, 2)
                  << ", r^2 = " << format_number(fit.r_squared, 5)
                  << " (paper: 'increases almost linearly')\n";
    }
    return 0;
}
