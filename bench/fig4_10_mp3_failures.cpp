// Figure 4-10: impact of on-chip failures on MP3 latency.
//
// Left panel: latency vs. dropped packets (buffer overflow probability) —
// flat until the fatal threshold (point "A" in the thesis at ~80%) where
// the encoding cannot complete because every copy of some packet is lost.
// Right panel: latency vs. sigma_synchr — the application always
// terminates, but the latency jitter (std-dev across runs) grows.
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

struct SweepPoint {
    double latency{0.0};
    double jitter{0.0};
    double completion{0.0};
};

SweepPoint run_point(const snoc::FaultScenario& scenario, std::size_t repeats,
                     std::size_t jobs) {
    using namespace snoc;
    const auto trials = run_trials(
        repeats,
        [&](std::uint64_t seed) -> double {
            GossipNetwork net(Topology::mesh(4, 4), bench::config_with_p(0.75, 50),
                              scenario, seed);
            auto& output = apps::deploy_mp3(net, mp3_config());
            const auto r =
                net.run_until([&output] { return output.complete(); }, 4000);
            return r.completed ? static_cast<double>(r.rounds) : -1.0;
        },
        jobs);
    Accumulator rounds;
    std::size_t completed = 0;
    for (double r : trials) {
        if (r < 0.0) continue;
        ++completed;
        rounds.add(r);
    }
    SweepPoint p;
    p.completion = static_cast<double>(completed) / static_cast<double>(repeats);
    if (completed) {
        p.latency = rounds.mean();
        p.jitter = rounds.stddev();
    }
    return p;
}

} // namespace

int main(int argc, char** argv) {
    using namespace snoc;
    const auto opt = bench::options(argc, argv, 6);
    reject_telemetry_flags(opt, argv[0]);

    // Left panel: buffer overflows.
    Table overflow({"dropped packets [%]", "latency [rounds]", "jitter", "completion"});
    for (double drop : {0.0, 0.2, 0.4, 0.6, 0.7, 0.8, 0.9}) {
        FaultScenario s;
        s.p_overflow = drop;
        const auto p = run_point(s, opt.repeats, opt.jobs);
        overflow.add_row({format_number(drop * 100, 0),
                          p.completion > 0 ? format_number(p.latency, 0) : "DNF",
                          p.completion > 0 ? format_number(p.jitter, 1) : "-",
                          format_number(p.completion * 100, 0) + "%"});
    }
    bench::emit(overflow, opt,
                "Fig. 4-10 (left): MP3 latency vs buffer overflow drops");

    // Right panel: synchronisation errors.
    Table synchr({"sigma_synchr [% of T_R]", "latency [rounds]", "jitter", "completion"});
    for (double sigma : {0.0, 0.1, 0.25, 0.5, 0.75, 1.0}) {
        FaultScenario s;
        s.sigma_synchr = sigma;
        const auto p = run_point(s, opt.repeats, opt.jobs);
        synchr.add_row({format_number(sigma * 100, 0),
                        p.completion > 0 ? format_number(p.latency, 0) : "DNF",
                        p.completion > 0 ? format_number(p.jitter, 1) : "-",
                        format_number(p.completion * 100, 0) + "%"});
    }
    bench::emit(synchr, opt,
                "Fig. 4-10 (right): MP3 latency vs synchronisation errors");
    return 0;
}
