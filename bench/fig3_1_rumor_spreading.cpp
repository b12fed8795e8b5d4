// Figure 3-1: message spreading in a 1000-node fully connected network.
//
// Plots nodes-reached vs. gossip round for (a) the deterministic logistic
// model I(t+1) = n - (n - I(t)) e^(-I(t)/n) and (b) the push-gossip
// Monte-Carlo, averaged over repetitions.  The thesis observes that all
// 1000 nodes are reached in fewer than 20 rounds; Pittel's bound
// log2(n) + ln(n) ~= 16.9 rounds.
#include <iostream>

#include "bench_util.hpp"
#include "core/analytic.hpp"

int main(int argc, char** argv) {
    using namespace snoc;
    const auto opt = bench::options(argc, argv, 50);
    constexpr std::size_t kNodes = 1000;
    constexpr std::size_t kRounds = 22;

    const auto model = analytic::informed_curve(kNodes, kRounds);

    // The Monte-Carlo is analytic too (no network, nothing to trace): each
    // trial's informed curve rides in RunReport::extras, and the telemetry
    // flags go to the traced companion below.
    auto spec = bench::sweep(opt, "fig3_1");
    spec.telemetry = {};
    spec.trial = [&](const SweepPoint&, std::uint64_t seed, TraceSink*) {
        RngStream rng(splitmix64(seed));
        auto curve = analytic::simulate_push_gossip(kNodes, rng, kRounds);
        curve.resize(kRounds + 1, kNodes);
        RunReport report;
        report.completed = true;
        report.extras.assign(curve.begin(), curve.end());
        return report;
    };
    const auto mc = ScenarioRunner(std::move(spec)).run().front();

    Table table({"round", "model I(t)", "monte-carlo mean", "mc min", "mc max"});
    for (std::size_t t = 0; t <= kRounds; ++t) {
        const auto informed =
            bench::accumulate(mc, [t](const RunReport& r) { return r.extras[t]; });
        table.add_row({std::to_string(t), format_number(model[t], 1),
                       format_number(informed.mean(), 1),
                       format_number(informed.min(), 0),
                       format_number(informed.max(), 0)});
    }
    bench::emit(table, opt,
                "Fig. 3-1: rumor spreading, 1000-node fully connected network");

    const auto all_reached = analytic::rounds_to_reach(kNodes, 1.0);
    std::cout << "\nmodel rounds to reach all 1000 nodes: " << all_reached
              << " (paper: < 20)\n";
    std::cout << "Pittel S_n = log2(n) + ln(n) = "
              << format_number(analytic::pittel_rounds(kNodes), 2) << " rounds\n";

    // The figure itself is analytic (no engine, nothing to trace), so the
    // telemetry flags run a seeded engine-backed companion: the same
    // one-source rumor spreading, realised as a tile-0 scatter on a 5x5
    // gossip mesh.  This is the small traced run CI exercises.
    if (!opt.telemetry.requested_flags().empty()) {
        auto spec = bench::sweep(opt, "fig3_1 traced companion");
        spec.repeats = 1;
        spec.jobs = 1;
        spec.backend = [](const SweepPoint&, std::uint64_t seed) {
            GossipSpec gs;
            gs.config = bench::config_with_p(0.5, 12);
            gs.drain = true;
            return std::make_unique<GossipAdapter>(std::move(gs),
                                                   FaultScenario::none(), seed);
        };
        spec.trace = [](const SweepPoint&) {
            TrafficTrace trace;
            TrafficPhase phase;
            for (TileId t = 1; t < 25; ++t)
                phase.messages.push_back({0, t, 256});
            trace.phases.push_back(std::move(phase));
            return trace;
        };
        const auto traced = ScenarioRunner(std::move(spec)).run();
        bench::emit(ScenarioRunner::telemetry_table(traced), opt,
                    "Fig. 3-1 traced companion (tile-0 scatter, 5x5 gossip)");
    }
    return all_reached < 20 ? 0 : 1;
}
