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

/// One panel: the MP3 encoder under one fault kind (`field`), swept over
/// `levels`.  The panels share one flag set, so their artifacts are tagged
/// apart by the axis name.
std::vector<snoc::CellResult> run_panel(const snoc::BenchOptions& opt,
                                        const std::string& axis,
                                        double snoc::FaultScenario::*field,
                                        std::vector<double> levels) {
    using namespace snoc;
    auto spec = bench::sweep(opt, "fig4_10 " + axis);
    spec.telemetry = bench::tag_telemetry(opt.telemetry, "_" + axis);
    spec.axes = {{axis, std::move(levels)}};
    spec.trial = [axis, field](const SweepPoint& pt, std::uint64_t seed,
                               TraceSink* sink) {
        FaultScenario s;
        s.*field = pt.value(axis);
        GossipSpec gs;
        gs.topology = Topology::mesh(4, 4);
        gs.config = bench::config_with_p(0.75, 50);
        GossipAdapter net(std::move(gs), s, seed);
        net.set_trace_sink(sink);
        auto& output = apps::deploy_mp3(net.network(), mp3_config());
        return net.run_until([&output] { return output.complete(); }, 4000);
    };
    return ScenarioRunner(std::move(spec)).run();
}

/// Latency, jitter (std-dev across completed runs) and completion rows.
snoc::Table panel_table(const std::string& level_header,
                        const std::vector<snoc::CellResult>& cells) {
    using namespace snoc;
    Table table({level_header, "latency [rounds]", "jitter", "completion"});
    for (const CellResult& cell : cells) {
        const double completion = cell.stats.completion_rate;
        const auto rounds = bench::accumulate(
            cell, [](const RunReport& r) { return static_cast<double>(r.rounds); },
            true);
        table.add_row({format_number(cell.point.coords[0].value * 100, 0),
                       completion > 0 ? format_number(cell.stats.rounds, 0) : "DNF",
                       completion > 0 ? format_number(rounds.stddev(), 1) : "-",
                       format_number(completion * 100, 0) + "%"});
    }
    return table;
}

} // namespace

int main(int argc, char** argv) {
    using namespace snoc;
    const auto opt = bench::options(argc, argv, 6);

    // Left panel: buffer overflows.
    bench::emit(panel_table("dropped packets [%]",
                            run_panel(opt, "p_overflow", &FaultScenario::p_overflow,
                                      {0.0, 0.2, 0.4, 0.6, 0.7, 0.8, 0.9})),
                opt, "Fig. 4-10 (left): MP3 latency vs buffer overflow drops");

    // Right panel: synchronisation errors.
    bench::emit(panel_table("sigma_synchr [% of T_R]",
                            run_panel(opt, "sigma_synchr", &FaultScenario::sigma_synchr,
                                      {0.0, 0.1, 0.25, 0.5, 0.75, 1.0})),
                opt, "Fig. 4-10 (right): MP3 latency vs synchronisation errors");
    return 0;
}
