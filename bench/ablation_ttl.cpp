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

namespace {

struct TtlTrial {
    bool delivered{false};
    snoc::Round latency{0};
    std::size_t packets{0};
};

} // namespace

int main(int argc, char** argv) {
    using namespace snoc;
    const auto opt = bench::options(argc, argv, 40);
    reject_telemetry_flags(opt, argv[0]);

    Table table({"TTL", "delivery [%]", "avg packets", "avg latency [rounds]"});
    for (std::uint16_t ttl : {2, 4, 6, 8, 12, 16, 24, 32}) {
        // Independent Monte-Carlo trials: each builds its own network from
        // its seed, so the fan-out is bit-identical to the serial loop.
        const auto trials = run_trials(
            opt.repeats,
            [&](std::uint64_t seed) {
                GossipConfig c = bench::config_with_p(0.5);
                c.default_ttl = ttl;
                GossipNetwork net(Topology::mesh(5, 5), c, FaultScenario::none(),
                                  seed);
                auto sink = std::make_unique<CornerSink>();
                const CornerSink& s = *sink;
                net.attach(0, std::make_unique<CornerSource>());
                net.attach(24, std::move(sink));
                net.run_until([&s] { return s.round().has_value(); }, 200);
                net.drain();
                TtlTrial out;
                out.packets = net.metrics().packets_sent;
                if (s.round()) {
                    out.delivered = true;
                    out.latency = *s.round();
                }
                return out;
            },
            opt.jobs);
        std::size_t delivered = 0;
        Accumulator packets, latency;
        for (const TtlTrial& t : trials) {
            packets.add(static_cast<double>(t.packets));
            if (t.delivered) {
                ++delivered;
                latency.add(static_cast<double>(t.latency));
            }
        }
        table.add_row({std::to_string(ttl),
                       format_number(100.0 * delivered / opt.repeats, 1),
                       format_number(packets.mean(), 0),
                       delivered ? format_number(latency.mean(), 1) : "-"});
    }
    bench::emit(table, opt,
                "Ablation: TTL vs delivery probability / bandwidth / latency "
                "(corner-to-corner on 5x5, p=0.5)");
    return 0;
}
