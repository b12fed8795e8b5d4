// Figure 4-4: latency [rounds] and energy dissipation [J/useful bit] of
// stochastic communication for the two case studies (2-D FFT on 4x4,
// Master-Slave on 5x5), as a function of the number of tile crash
// failures, for p in {1 (flooding), 0.75, 0.5, 0.25}.
//
// Expected shapes (thesis):
//  * latency: flooding ~4 rounds; p=0.5 in 5-9 rounds; p=0.25 slowest;
//    nearly flat in the number of crashed tiles;
//  * energy: proportional to p (p=0.5 burns about half of flooding);
//    Master-Slave (5x5) burns more than FFT (4x4) because energy scales
//    with network size.
#include <iostream>

#include "bench_util.hpp"

int main(int argc, char** argv) {
    using namespace snoc;
    const auto opt = bench::options(argc, argv, 12);
    const std::vector<double> kPs{1.0, 0.75, 0.5, 0.25};
    const std::vector<double> kCrashes{0, 1, 2, 3, 4};

    const auto pi_useful = apps::pi_trace(apps::PiDeployment{}).useful_bits();
    const auto fft_useful = apps::fft2d_trace(apps::FftDeployment{}).useful_bits();

    for (const bool is_fft : {true, false}) {
        auto spec = bench::sweep(opt, is_fft ? "fig4_4 fft" : "fig4_4 pi");
        spec.axes = {{"crashes", kCrashes}, {"p", kPs}};
        // The app passes share one flag set; tag their artifacts apart.
        spec.telemetry = bench::tag_telemetry(opt.telemetry, is_fft ? "_fft" : "_pi");
        spec.trial = [is_fft](const SweepPoint& pt, std::uint64_t seed,
                                     TraceSink* sink) {
            const auto config = bench::config_with_p(pt.value("p"), 30);
            const auto crashes = static_cast<std::size_t>(pt.value("crashes"));
            return is_fft ? bench::run_fft_once(config, FaultScenario::none(),
                                                crashes, seed, 3000, nullptr, sink)
                          : bench::run_pi_once(config, FaultScenario::none(),
                                               crashes, seed, true, 3000, false,
                                               nullptr, sink);
        };
        const auto cells = ScenarioRunner(spec).run();

        Table latency({"tile crashes", "flooding (p=1)", "p=0.75", "p=0.5", "p=0.25"});
        Table energy({"tile crashes", "flooding (p=1)", "p=0.75", "p=0.5", "p=0.25"});
        for (std::size_t c = 0; c < kCrashes.size(); ++c) {
            std::vector<std::string> lat_row{
                std::to_string(static_cast<std::size_t>(kCrashes[c]))};
            std::vector<std::string> en_row = lat_row;
            for (std::size_t p = 0; p < kPs.size(); ++p) {
                const CellStats& avg = cells[c * kPs.size() + p].stats;
                lat_row.push_back(format_number(avg.rounds, 1));
                en_row.push_back(format_sci(
                    bench::joules_per_useful_bit(avg.bits,
                                                 is_fft ? fft_useful : pi_useful),
                    2));
            }
            latency.add_row(lat_row);
            energy.add_row(en_row);
        }
        const std::string app = is_fft ? "FFT2 (4x4)" : "Master-Slave (5x5)";
        bench::emit(latency, opt, "Fig. 4-4 latency [rounds] - " + app);
        bench::emit(energy, opt, "Fig. 4-4 energy [J/useful bit] - " + app);
    }
    return 0;
}
