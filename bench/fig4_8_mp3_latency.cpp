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
    reject_telemetry_flags(opt, argv[0]);
    const std::vector<double> kPs{0.1, 0.25, 0.5, 0.75, 1.0};
    const std::vector<double> kUpsets{0.0, 0.2, 0.4, 0.6, 0.8};
    constexpr Round kMaxRounds = 4000;

    std::vector<std::string> headers{"p \\ p_upset"};
    for (double u : kUpsets) headers.push_back(format_number(u, 1));
    Table latency(headers);
    Table completion(headers);

    for (double p : kPs) {
        std::vector<std::string> lat_row{format_number(p, 2)};
        std::vector<std::string> comp_row{format_number(p, 2)};
        for (double upset : kUpsets) {
            const auto trials = run_trials(
                opt.repeats,
                [&](std::uint64_t seed) -> double {
                    FaultScenario s;
                    s.p_upset = upset;
                    GossipNetwork net(Topology::mesh(4, 4),
                                      bench::config_with_p(p, 60), s, seed);
                    auto& output = apps::deploy_mp3(net, mp3_config());
                    const auto r = net.run_until(
                        [&output] { return output.complete(); }, kMaxRounds);
                    return r.completed ? static_cast<double>(r.rounds) : -1.0;
                },
                opt.jobs);
            Accumulator rounds;
            std::size_t completed = 0;
            for (double r : trials) {
                if (r < 0.0) continue;
                ++completed;
                rounds.add(r);
            }
            lat_row.push_back(completed > 0 ? format_number(rounds.mean(), 0)
                                            : std::string("DNF"));
            comp_row.push_back(
                format_number(100.0 * completed / opt.repeats, 0) + "%");
        }
        latency.add_row(lat_row);
        completion.add_row(comp_row);
    }
    bench::emit(latency, opt, "Fig. 4-8: MP3 latency [rounds] over (p, p_upset)");
    bench::emit(completion, opt, "Fig. 4-8 companion: completion rate");
    return 0;
}
