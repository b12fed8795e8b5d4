// Figure 4-8: latency of the MP3 application — contour plot of encoding
// latency [rounds] over the (p, p_upset) plane.
//
// Expected shape (thesis): minimum (~62 rounds there) at p = 1, p_upset=0;
// latency grows as p -> 0 and p_upset -> 1, and in the worst corner the
// encoding cannot finish (packets fail to reach their destination).
#include <iostream>

#include "apps/mp3_app.hpp"
#include "bench_util.hpp"

namespace {

snoc::apps::Mp3Config mp3_config() {
    snoc::apps::Mp3Config c;
    c.frame_samples = 64;
    c.frame_count = 12;
    c.frame_interval = 2;
    c.band_count = 8;
    c.frame_budget_bits = 400;
    c.reservoir_capacity = 800;
    return c;
}

} // namespace

int main(int argc, char** argv) {
    using namespace snoc;
    const auto opt = bench::options(argc, argv, 5);
    const std::vector<double> kPs{0.1, 0.25, 0.5, 0.75, 1.0};
    const std::vector<double> kUpsets{0.0, 0.2, 0.4, 0.6, 0.8};

    auto spec = bench::sweep(opt, "fig4_8");
    spec.axes = {{"p", kPs}, {"p_upset", kUpsets}};
    spec.trial = [](const SweepPoint& pt, std::uint64_t seed, TraceSink* sink) {
        FaultScenario s;
        s.p_upset = pt.value("p_upset");
        GossipSpec gs;
        gs.topology = Topology::mesh(4, 4);
        gs.config = bench::config_with_p(pt.value("p"), 60);
        GossipAdapter net(std::move(gs), s, seed);
        net.set_trace_sink(sink);
        auto& output = apps::deploy_mp3(net.network(), mp3_config());
        return net.run_until([&output] { return output.complete(); }, 4000);
    };
    const auto cells = ScenarioRunner(std::move(spec)).run();

    std::vector<std::string> headers{"p \\ p_upset"};
    for (double u : kUpsets) headers.push_back(format_number(u, 1));
    Table latency(headers);
    Table completion(headers);
    for (std::size_t p = 0; p < kPs.size(); ++p) {
        std::vector<std::string> lat_row{format_number(kPs[p], 2)};
        std::vector<std::string> comp_row = lat_row;
        for (std::size_t u = 0; u < kUpsets.size(); ++u) {
            const CellResult& cell = cells[p * kUpsets.size() + u];
            lat_row.push_back(cell.stats.completion_rate > 0.0
                                  ? format_number(cell.stats.rounds, 0)
                                  : std::string("DNF"));
            comp_row.push_back(format_number(bench::completion_pct(cell), 0) + "%");
        }
        latency.add_row(lat_row);
        completion.add_row(comp_row);
    }
    bench::emit(latency, opt, "Fig. 4-8: MP3 latency [rounds] over (p, p_upset)");
    bench::emit(completion, opt, "Fig. 4-8 companion: completion rate");
    return 0;
}
