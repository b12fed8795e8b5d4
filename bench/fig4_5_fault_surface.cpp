// Figure 4-5: impact of defective tiles and data upsets on latency — the
// 2-D surface (tile failures x p_upset) -> latency [rounds], for the
// Master-Slave case study at p = 0.5.
//
// Expected shape: latency is nearly flat along the tile-failure axis and
// climbs steeply along the upset axis once p_upset > 0.5; even at 90%
// upsets the run terminates (at ~100 rounds scale).
#include <iostream>

#include "bench_util.hpp"

int main(int argc, char** argv) {
    using namespace snoc;
    const auto opt = bench::options(argc, argv, 10);
    const std::vector<double> kCrashes{0, 1, 2, 3, 4};
    const std::vector<double> kUpsets{0.0, 0.3, 0.5, 0.7, 0.8, 0.9};

    auto spec = bench::sweep(opt, "fig4_5");
    spec.axes = {{"crashes", kCrashes}, {"p_upset", kUpsets}};
    spec.trial = [](const SweepPoint& pt, std::uint64_t seed, TraceSink* sink) {
        FaultScenario s;
        s.p_upset = pt.value("p_upset");
        // Long TTL so heavily-upset rumors survive long enough.
        return bench::run_pi_once(bench::config_with_p(0.5, 120), s,
                                  static_cast<std::size_t>(pt.value("crashes")), seed,
                                  true, 5000, false, nullptr, sink);
    };
    const auto cells = ScenarioRunner(std::move(spec)).run();

    std::vector<std::string> headers{"tile crashes \\ p_upset"};
    for (double u : kUpsets) headers.push_back(format_number(u, 2));
    Table latency(headers);
    Table completion(headers);
    for (std::size_t c = 0; c < kCrashes.size(); ++c) {
        std::vector<std::string> lat_row{
            std::to_string(static_cast<std::size_t>(kCrashes[c]))};
        std::vector<std::string> comp_row = lat_row;
        for (std::size_t u = 0; u < kUpsets.size(); ++u) {
            const CellStats& avg = cells[c * kUpsets.size() + u].stats;
            lat_row.push_back(avg.completion_rate > 0.0
                                  ? format_number(avg.rounds, 1)
                                  : std::string("-"));
            comp_row.push_back(format_number(avg.completion_rate * 100.0, 0) + "%");
        }
        latency.add_row(lat_row);
        completion.add_row(comp_row);
    }
    bench::emit(latency, opt,
                "Fig. 4-5: latency [rounds] vs (tile crashes, p_upset), Master-Slave");
    bench::emit(completion, opt, "Fig. 4-5 companion: completion rate");
    return 0;
}
