// Figure 4-11: impact of on-chip failures on the MP3 output bit-rate.
//
// The encoder runs in streaming mode (the bitstream-assembly stage skips a
// frame that stays missing) and we monitor the continuous bit-rate at the
// Output stage.  Expected shapes (thesis): the bit-rate is sustainable up
// to ~60% dropped packets, and even severe synchronisation error levels
// barely move the bit-rate or its jitter (error bars).
#include <iostream>

#include "apps/mp3_app.hpp"
#include "bench_util.hpp"

namespace {

snoc::apps::Mp3Config streaming_config() {
    snoc::apps::Mp3Config c;
    c.frame_samples = 64;
    c.frame_count = 16;
    c.frame_interval = 3;
    c.band_count = 8;
    c.frame_budget_bits = 400;
    c.reservoir_capacity = 800;
    c.skip_after_rounds = 20; // streaming: give up on stale frames
    return c;
}

struct BitratePoint {
    double rate{0.0};
    double jitter{0.0};
    double frames{0.0};
};

BitratePoint run_point(const snoc::FaultScenario& scenario, std::size_t repeats,
                       std::size_t jobs) {
    using namespace snoc;
    const auto cfg = streaming_config();
    struct Trial {
        double rate, jitter, frames;
    };
    const auto trials = run_trials(
        repeats,
        [&](std::uint64_t seed) {
            GossipNetwork net(Topology::mesh(4, 4), bench::config_with_p(0.75, 50),
                              scenario, seed);
            auto& output = apps::deploy_mp3(net, cfg);
            const auto r =
                net.run_until([&output] { return output.complete(); }, 2000);
            const double tr = net.config().timing.round_seconds();
            const auto report = apps::bitrate_report(output, cfg, r.rounds, tr);
            return Trial{report.mean_bits_per_second, report.jitter_bits_per_second,
                         report.completion_fraction * 100.0};
        },
        jobs);
    Accumulator rate, jitter, frames;
    for (const Trial& t : trials) {
        rate.add(t.rate);
        jitter.add(t.jitter);
        frames.add(t.frames);
    }
    return {rate.mean(), jitter.mean(), frames.mean()};
}

} // namespace

int main(int argc, char** argv) {
    using namespace snoc;
    const auto opt = bench::options(argc, argv, 6);
    reject_telemetry_flags(opt, argv[0]);

    Table overflow({"dropped packets [%]", "bit rate [bits/s]", "jitter [bits/s]",
                    "frames delivered [%]"});
    double base_rate = 0.0, rate_at_60 = 0.0;
    for (double drop : {0.0, 0.2, 0.4, 0.6, 0.8}) {
        FaultScenario s;
        s.p_overflow = drop;
        const auto p = run_point(s, opt.repeats, opt.jobs);
        if (drop == 0.0) base_rate = p.rate;
        if (drop == 0.6) rate_at_60 = p.rate;
        overflow.add_row({format_number(drop * 100, 0), format_sci(p.rate, 3),
                          format_sci(p.jitter, 2), format_number(p.frames, 0)});
    }
    bench::emit(overflow, opt, "Fig. 4-11 (left): MP3 bit rate vs dropped packets");

    Table synchr({"sigma_synchr [% of T_R]", "bit rate [bits/s]", "jitter [bits/s]",
                  "frames delivered [%]"});
    for (double sigma : {0.0, 0.2, 0.4, 0.6, 0.8, 1.0}) {
        FaultScenario s;
        s.sigma_synchr = sigma;
        const auto p = run_point(s, opt.repeats, opt.jobs);
        synchr.add_row({format_number(sigma * 100, 0), format_sci(p.rate, 3),
                        format_sci(p.jitter, 2), format_number(p.frames, 0)});
    }
    bench::emit(synchr, opt,
                "Fig. 4-11 (right): MP3 bit rate vs synchronisation errors");

    std::cout << "\nbit-rate at 60% drops / clean bit-rate = "
              << format_number(rate_at_60 / base_rate, 2)
              << " (paper: sustainable up to 60% drops)\n";
    return 0;
}
