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

    // One cell per (p_upset, channel).  A report's deliveries are the items
    // the sink received.
    auto spec = bench::sweep(opt, "ablation_reliable_transport");
    spec.axes = {{"p_upset", {0.0, 0.3, 0.5, 0.7, 0.85}}, {"reliable", {0, 1}}};
    spec.trial = [](const SweepPoint& pt, std::uint64_t seed, TraceSink* sink) {
        FaultScenario s;
        s.p_upset = pt.value("p_upset");
        const bool reliable = pt.index_of("reliable") == 1;
        GossipSpec gs;
        gs.topology = Topology::mesh(4, 4);
        // Deliberately undersized TTL: raw gossip struggles, the reliable
        // channel escalates its way through.
        gs.config = bench::config_with_p(0.5, 8);
        gs.drain = !reliable;
        GossipAdapter net(std::move(gs), s, seed);
        net.set_trace_sink(sink);
        if (!reliable) {
            auto raw_sink = std::make_unique<RawSink>();
            const RawSink& rs = *raw_sink;
            net.network().attach(kSrc, std::make_unique<RawSource>());
            net.network().attach(kDst, std::move(raw_sink));
            // A fixed 120-round window, then the TTL drain.
            RunReport report = net.run_until([] { return false; }, 120);
            report.deliveries = rs.received();
            return report;
        }
        auto rsink = std::make_unique<ReliableSink>();
        auto rsrc = std::make_unique<ReliableSource>();
        const ReliableSink& sink_ref = *rsink;
        const ReliableSource& src_ref = *rsrc;
        net.network().attach(kSrc, std::move(rsrc));
        net.network().attach(kDst, std::move(rsink));
        RunReport report = net.run_until(
            [&] { return sink_ref.received() >= kItems && src_ref.sender().idle(); },
            8000);
        report.deliveries = sink_ref.received();
        return report;
    };
    const auto cells = ScenarioRunner(std::move(spec)).run();

    const auto mean = [](const CellResult& cell, auto f) {
        return bench::accumulate(cell, f).mean();
    };
    const auto delivered_pct = [](const RunReport& r) {
        return 100.0 * static_cast<double>(r.deliveries) / kItems;
    };
    const auto packets_per_item = [](const RunReport& r) {
        return static_cast<double>(r.transmissions) / kItems;
    };
    Table table({"p_upset", "raw delivery [%]", "reliable delivery [%]",
                 "raw pkts/item", "reliable pkts/item", "reliable rounds"});
    for (std::size_t c = 0; c < cells.size(); c += 2) {
        const CellResult& raw = cells[c];
        const CellResult& rel = cells[c + 1];
        table.add_row(
            {format_number(raw.point.value("p_upset"), 2),
             format_number(mean(raw, delivered_pct), 1),
             format_number(mean(rel, delivered_pct), 1),
             format_number(mean(raw, packets_per_item), 0),
             format_number(mean(rel, packets_per_item), 0),
             format_number(
                 mean(rel, [](const RunReport& r) { return static_cast<double>(r.rounds); }),
                 0)});
    }
    bench::emit(table, opt,
                "Ablation: raw gossip vs reliable transport (TTL 8, p=0.5, "
                "corner-to-corner 4x4)");
    return 0;
}
