// Ablation (ours): the cost of strong reliability on top of stochastic
// communication (Sec. 4.2.3's "higher level protocol").
//
// Raw gossip gives "almost all or almost none" probabilistic delivery;
// the reliable channel (cumulative ACKs + retransmission with TTL
// escalation) turns that into exactly-once in-order delivery.  This bench
// measures what that guarantee costs in packets and rounds per item as
// the upset level grows — and shows raw gossip's delivery ratio falling
// while the reliable channel stays at 100%.
#include <iostream>
#include <memory>

#include "bench_util.hpp"
#include "core/transport.hpp"

namespace {

using namespace snoc;

constexpr std::size_t kItems = 8;
constexpr TileId kSrc = 0, kDst = 15;

class RawSource final : public IpCore {
public:
    void on_round(TileContext& ctx) override {
        if (sent_ < kItems && ctx.round() % 2 == 0) {
            ctx.send(kDst, 0x5701, {static_cast<std::byte>(sent_)});
            ++sent_;
        }
    }
    void on_message(const Message&, TileContext&) override {}

private:
    std::size_t sent_{0};
};

class RawSink final : public IpCore {
public:
    void on_message(const Message& m, TileContext&) override {
        if (m.tag == 0x5701) ++received_;
    }
    std::size_t received() const { return received_; }

private:
    std::size_t received_{0};
};

class ReliableSource final : public IpCore {
public:
    ReliableSource() : sender_(kDst, 1) {}
    void on_round(TileContext& ctx) override {
        if (sent_ < kItems && ctx.round() % 2 == 0) {
            sender_.send(ctx, {static_cast<std::byte>(sent_)});
            ++sent_;
        }
        sender_.on_round(ctx);
    }
    void on_message(const Message& m, TileContext& ctx) override {
        sender_.on_message(m, ctx);
    }
    const ReliableSender& sender() const { return sender_; }

private:
    ReliableSender sender_;
    std::size_t sent_{0};
};

class ReliableSink final : public IpCore {
public:
    ReliableSink()
        : receiver_(kSrc, 1, [this](std::uint32_t, std::vector<std::byte>) {
              ++received_;
          }) {}
    void on_message(const Message& m, TileContext& ctx) override {
        receiver_.on_message(m, ctx);
    }
    std::size_t received() const { return received_; }

private:
    ReliableReceiver receiver_;
    std::size_t received_{0};
};

} // namespace

int main(int argc, char** argv) {
    using namespace snoc;
    const auto opt = bench::options(argc, argv, 10);
    reject_telemetry_flags(opt, argv[0]);

    struct Trial {
        double raw_del, raw_pkts, rel_del, rel_pkts, rel_rounds;
    };

    Table table({"p_upset", "raw delivery [%]", "reliable delivery [%]",
                 "raw pkts/item", "reliable pkts/item", "reliable rounds"});
    for (double upset : {0.0, 0.3, 0.5, 0.7, 0.85}) {
        const auto trials = run_trials(
            opt.repeats,
            [&](std::uint64_t seed) {
                FaultScenario s;
                s.p_upset = upset;
                // Deliberately undersized TTL: raw gossip struggles, the
                // reliable channel escalates its way through.
                GossipConfig c = bench::config_with_p(0.5, 8);

                Trial out{};
                GossipNetwork raw(Topology::mesh(4, 4), c, s, seed);
                auto sink = std::make_unique<RawSink>();
                const RawSink& rs = *sink;
                raw.attach(kSrc, std::make_unique<RawSource>());
                raw.attach(kDst, std::move(sink));
                for (int i = 0; i < 120; ++i) raw.step();
                raw.drain();
                out.raw_del = 100.0 * static_cast<double>(rs.received()) / kItems;
                out.raw_pkts =
                    static_cast<double>(raw.metrics().packets_sent) / kItems;

                GossipNetwork rel(Topology::mesh(4, 4), c, s, seed);
                auto rsink = std::make_unique<ReliableSink>();
                auto rsrc = std::make_unique<ReliableSource>();
                const ReliableSink& sink_ref = *rsink;
                const ReliableSource& src_ref = *rsrc;
                rel.attach(kSrc, std::move(rsrc));
                rel.attach(kDst, std::move(rsink));
                const auto run = rel.run_until(
                    [&] { return sink_ref.received() >= kItems && src_ref.sender().idle(); },
                    8000);
                out.rel_del = 100.0 * static_cast<double>(sink_ref.received()) / kItems;
                out.rel_pkts =
                    static_cast<double>(rel.metrics().packets_sent) / kItems;
                out.rel_rounds = static_cast<double>(run.rounds);
                return out;
            },
            opt.jobs);
        Accumulator raw_del, rel_del, raw_pkts, rel_pkts, rel_rounds;
        for (const Trial& t : trials) {
            raw_del.add(t.raw_del);
            raw_pkts.add(t.raw_pkts);
            rel_del.add(t.rel_del);
            rel_pkts.add(t.rel_pkts);
            rel_rounds.add(t.rel_rounds);
        }
        table.add_row({format_number(upset, 2), format_number(raw_del.mean(), 1),
                       format_number(rel_del.mean(), 1),
                       format_number(raw_pkts.mean(), 0),
                       format_number(rel_pkts.mean(), 0),
                       format_number(rel_rounds.mean(), 0)});
    }
    bench::emit(table, opt,
                "Ablation: raw gossip vs reliable transport (TTL 8, p=0.5, "
                "corner-to-corner 4x4)");
    return 0;
}
