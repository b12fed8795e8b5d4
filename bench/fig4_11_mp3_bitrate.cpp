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

/// One panel: the streaming encoder under one fault kind (`field`), swept
/// over `levels`.  Each trial's BitrateReport rides in RunReport::extras as
/// {rate, jitter, frames delivered [%]}; the panels share one flag set, so
/// their artifacts are tagged apart by the axis name.
std::vector<snoc::CellResult> run_panel(const snoc::BenchOptions& opt,
                                        const std::string& axis,
                                        double snoc::FaultScenario::*field,
                                        std::vector<double> levels) {
    using namespace snoc;
    auto spec = bench::sweep(opt, "fig4_11 " + axis);
    spec.telemetry = bench::tag_telemetry(opt.telemetry, "_" + axis);
    spec.axes = {{axis, std::move(levels)}};
    spec.trial = [axis, field](const SweepPoint& pt, std::uint64_t seed,
                               TraceSink* sink) {
        const auto cfg = streaming_config();
        FaultScenario s;
        s.*field = pt.value(axis);
        GossipSpec gs;
        gs.topology = Topology::mesh(4, 4);
        gs.config = bench::config_with_p(0.75, 50);
        GossipAdapter net(std::move(gs), s, seed);
        net.set_trace_sink(sink);
        auto& output = apps::deploy_mp3(net.network(), cfg);
        RunReport report =
            net.run_until([&output] { return output.complete(); }, 2000);
        const double tr = net.network().config().timing.round_seconds();
        const auto bitrate = apps::bitrate_report(output, cfg, report.rounds, tr);
        report.extras = {bitrate.mean_bits_per_second,
                         bitrate.jitter_bits_per_second,
                         bitrate.completion_fraction * 100.0};
        return report;
    };
    return ScenarioRunner(std::move(spec)).run();
}

/// Bit rate, jitter and frames-delivered rows: means over every repeat.
snoc::Table panel_table(const std::string& level_header,
                        const std::vector<snoc::CellResult>& cells) {
    using namespace snoc;
    Table table({level_header, "bit rate [bits/s]", "jitter [bits/s]",
                 "frames delivered [%]"});
    for (const CellResult& cell : cells) {
        const auto mean = [&cell](std::size_t i) {
            return bench::accumulate(cell, [i](const RunReport& r) { return r.extras[i]; })
                .mean();
        };
        table.add_row({format_number(cell.point.coords[0].value * 100, 0),
                       format_sci(mean(0), 3), format_sci(mean(1), 2),
                       format_number(mean(2), 0)});
    }
    return table;
}

/// Mean bit rate of the cell at `level`.
double rate_at(const std::vector<snoc::CellResult>& cells, double level) {
    for (const auto& cell : cells)
        if (cell.point.coords[0].value == level)
            return snoc::bench::accumulate(
                       cell, [](const snoc::RunReport& r) { return r.extras[0]; })
                .mean();
    return 0.0;
}

} // namespace

int main(int argc, char** argv) {
    using namespace snoc;
    const auto opt = bench::options(argc, argv, 6);

    const auto overflow = run_panel(opt, "p_overflow", &FaultScenario::p_overflow,
                                    {0.0, 0.2, 0.4, 0.6, 0.8});
    bench::emit(panel_table("dropped packets [%]", overflow), opt,
                "Fig. 4-11 (left): MP3 bit rate vs dropped packets");

    bench::emit(panel_table("sigma_synchr [% of T_R]",
                            run_panel(opt, "sigma_synchr", &FaultScenario::sigma_synchr,
                                      {0.0, 0.2, 0.4, 0.6, 0.8, 1.0})),
                opt, "Fig. 4-11 (right): MP3 bit rate vs synchronisation errors");

    std::cout << "\nbit-rate at 60% drops / clean bit-rate = "
              << format_number(rate_at(overflow, 0.6) / rate_at(overflow, 0.0), 2)
              << " (paper: sustainable up to 60% drops)\n";
    return 0;
}
