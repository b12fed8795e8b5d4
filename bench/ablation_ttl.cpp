// Ablation (ours): the TTL knob.  Sec. 3.2.2 notes the spread "could be
// terminated even earlier in order to reduce the number of messages" —
// TTL directly bounds bandwidth and energy (Sec. 3.3).  This bench sweeps
// TTL for a broadcast on a 5x5 mesh and reports delivery probability,
// total packets (energy proxy) and latency.
#include <iostream>
#include <memory>

#include "bench_util.hpp"

namespace {

class CornerSource final : public snoc::IpCore {
public:
    void on_start(snoc::TileContext& ctx) override {
        ctx.send(24, 0xAB, {std::byte{1}});
    }
    void on_message(const snoc::Message&, snoc::TileContext&) override {}
};

class CornerSink final : public snoc::IpCore {
public:
    void on_message(const snoc::Message&, snoc::TileContext& ctx) override {
        if (!round_) round_ = ctx.round();
    }
    std::optional<snoc::Round> round() const { return round_; }

private:
    std::optional<snoc::Round> round_;
};

} // namespace

int main(int argc, char** argv) {
    using namespace snoc;
    const auto opt = bench::options(argc, argv, 40);

    // A report is complete when the corner sink heard the rumor; its
    // rounds are then the round it did.
    auto spec = bench::sweep(opt, "ablation_ttl");
    spec.axes = {{"ttl", {2, 4, 6, 8, 12, 16, 24, 32}}};
    spec.trial = [](const SweepPoint& pt, std::uint64_t seed, TraceSink* sink) {
        GossipSpec gs;
        gs.config = bench::config_with_p(0.5);
        gs.config.default_ttl = static_cast<std::uint16_t>(pt.value("ttl"));
        gs.drain = true;
        GossipAdapter net(std::move(gs), FaultScenario::none(), seed);
        net.set_trace_sink(sink);
        auto corner = std::make_unique<CornerSink>();
        const CornerSink& s = *corner;
        net.network().attach(0, std::make_unique<CornerSource>());
        net.network().attach(24, std::move(corner));
        RunReport report = net.run_until([&s] { return s.round().has_value(); }, 200);
        // Judged after the drain: the sink may still hear the rumor there.
        report.completed = s.round().has_value();
        report.rounds = s.round().value_or(0);
        return report;
    };
    const auto cells = ScenarioRunner(std::move(spec)).run();

    Table table({"TTL", "delivery [%]", "avg packets", "avg latency [rounds]"});
    for (const CellResult& cell : cells) {
        const auto packets = bench::accumulate(cell, [](const RunReport& r) {
            return static_cast<double>(r.transmissions);
        });
        table.add_row({std::to_string(static_cast<int>(cell.point.value("ttl"))),
                       format_number(bench::completion_pct(cell), 1),
                       format_number(packets.mean(), 0),
                       cell.stats.completion_rate > 0.0
                           ? format_number(cell.stats.rounds, 1)
                           : "-"});
    }
    bench::emit(table, opt,
                "Ablation: TTL vs delivery probability / bandwidth / latency "
                "(corner-to-corner on 5x5, p=0.5)");
    return 0;
}
