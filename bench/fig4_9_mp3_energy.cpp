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
    reject_telemetry_flags(opt, argv[0]);
    const auto tech = Technology::cmos_025um();
    const std::vector<double> kPs{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0};

    apps::Mp3Config cfg;
    cfg.frame_samples = 64;
    cfg.frame_count = 12;
    cfg.frame_interval = 2;
    cfg.band_count = 8;
    cfg.frame_budget_bits = 400;
    cfg.reservoir_capacity = 800;

    Table table({"p", "energy [J]", "packets", "latency [rounds]", "completion"});
    double first_energy = 0.0, last_energy = 0.0;
    Regression linearity;
    struct Trial {
        bool completed{false};
        double rounds{0.0}, joules{0.0}, packets{0.0};
    };
    for (double p : kPs) {
        const auto trials = run_trials(
            opt.repeats,
            [&](std::uint64_t seed) {
                GossipNetwork net(Topology::mesh(4, 4), bench::config_with_p(p, 40),
                                  FaultScenario::none(), seed);
                auto& output = apps::deploy_mp3(net, cfg);
                const auto r =
                    net.run_until([&output] { return output.complete(); }, 4000);
                Trial out;
                if (!r.completed) return out;
                out.completed = true;
                out.rounds = static_cast<double>(r.rounds);
                net.drain(); // energy runs until every rumor's TTL expires
                out.joules = static_cast<double>(net.metrics().bits_sent) *
                             tech.link_ebit_joules;
                out.packets = static_cast<double>(net.metrics().packets_sent);
                return out;
            },
            opt.jobs);
        Accumulator joules, packets, rounds;
        std::size_t completed = 0;
        for (const Trial& t : trials) {
            if (!t.completed) continue;
            ++completed;
            rounds.add(t.rounds);
            joules.add(t.joules);
            packets.add(t.packets);
        }
        table.add_row({format_number(p, 1),
                       completed ? format_sci(joules.mean(), 3) : "-",
                       completed ? format_number(packets.mean(), 0) : "-",
                       completed ? format_number(rounds.mean(), 0) : "DNF",
                       format_number(100.0 * completed / opt.repeats, 0) + "%"});
        if (completed) {
            if (first_energy == 0.0) first_energy = joules.mean();
            last_energy = joules.mean();
            linearity.add(p, joules.mean());
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
