#include "sim/trace.hpp"

#include <memory>

#include <gtest/gtest.h>

#include "core/engine.hpp"
#include "telemetry/telemetry.hpp"

namespace snoc {
namespace {

class OneShot final : public IpCore {
public:
    explicit OneShot(TileId dst) : dst_(dst) {}
    void on_start(TileContext& ctx) override {
        ctx.send(dst_, 0xE1, {std::byte{1}});
    }
    void on_message(const Message&, TileContext&) override {}

private:
    TileId dst_;
};

class NullSink final : public IpCore {
public:
    void on_message(const Message&, TileContext&) override {}
};

TEST(TraceSinks, FormatIsHumanReadable) {
    EXPECT_EQ(format_event({12, TraceEventKind::Transmitted, 5, 6, MessageId{5, 0}}),
              "r12 transmitted tile 5 -> 6 msg (5,0)");
    EXPECT_EQ(format_event({3, TraceEventKind::CrcDrop, 9, kNoTile,
                            MessageId{kNoTile, 0}}),
              "r3 crc-drop tile 9");
}

GossipConfig flood() {
    GossipConfig c;
    c.forward_p = 1.0;
    c.default_ttl = 10;
    return c;
}

TEST(EngineTracing, CountsMatchMetrics) {
    FaultScenario s;
    s.p_upset = 0.3;
    GossipNetwork net(Topology::mesh(4, 4), flood(), s, 1);
    Telemetry sink;
    net.set_trace_sink(&sink);
    net.attach(5, std::make_unique<OneShot>(11));
    for (int i = 0; i < 20; ++i) net.step();
    const auto& m = net.metrics();
    EXPECT_EQ(sink.count(TraceEventKind::Transmitted), m.packets_sent);
    EXPECT_EQ(sink.count(TraceEventKind::Delivered), m.deliveries);
    EXPECT_EQ(sink.count(TraceEventKind::CrcDrop), m.crc_drops);
    EXPECT_EQ(sink.count(TraceEventKind::DuplicateIgnored), m.duplicates_ignored);
    EXPECT_EQ(sink.count(TraceEventKind::TtlExpired), m.ttl_expired);
    EXPECT_EQ(sink.count(TraceEventKind::MessageCreated), m.messages_created);
}

TEST(EngineTracing, NoSinkMeansNoOverheadPath) {
    GossipNetwork net(Topology::mesh(4, 4), flood(), FaultScenario::none(), 2);
    net.attach(5, std::make_unique<OneShot>(11));
    for (int i = 0; i < 12; ++i) net.step(); // must simply not crash
    EXPECT_GT(net.metrics().packets_sent, 0u);
}

TEST(EngineTracing, TracingDoesNotPerturbTheRun) {
    auto run_packets = [](bool traced) {
        GossipNetwork net(Topology::mesh(4, 4), flood(), FaultScenario::none(), 3);
        Telemetry sink;
        if (traced) net.set_trace_sink(&sink);
        net.attach(5, std::make_unique<OneShot>(11));
        for (int i = 0; i < 15; ++i) net.step();
        return net.metrics().packets_sent;
    };
    EXPECT_EQ(run_packets(true), run_packets(false));
}

TEST(EngineTracing, DeliveryEventCarriesMessageId) {
    GossipNetwork net(Topology::mesh(4, 4), flood(), FaultScenario::none(), 4);
    Telemetry sink;
    net.set_trace_sink(&sink);
    net.attach(5, std::make_unique<OneShot>(11));
    net.attach(11, std::make_unique<NullSink>());
    for (int i = 0; i < 10; ++i) net.step();
    bool saw_delivery = false;
    for (const auto& e : sink.events()) {
        if (e.kind != TraceEventKind::Delivered) continue;
        saw_delivery = true;
        EXPECT_EQ(e.tile, 11u);
        EXPECT_EQ(e.message, (MessageId{5, 0}));
    }
    EXPECT_TRUE(saw_delivery);
}

} // namespace
} // namespace snoc
