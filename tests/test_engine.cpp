#include "core/engine.hpp"

#include <memory>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/expect.hpp"

namespace snoc {
namespace {

/// Sends one message to `dst` at round 0.
class OneShotSource final : public IpCore {
public:
    OneShotSource(TileId dst, std::uint16_t ttl = 0) : dst_(dst), ttl_(ttl) {}
    void on_start(TileContext& ctx) override {
        ctx.send(dst_, 0xBEEF, {std::byte{1}, std::byte{2}, std::byte{3}}, ttl_);
    }
    void on_message(const Message&, TileContext&) override {}

private:
    TileId dst_;
    std::uint16_t ttl_;
};

/// Records deliveries.
class Sink final : public IpCore {
public:
    void on_message(const Message& m, TileContext& ctx) override {
        ++count_;
        last_round_ = ctx.round();
        last_tag_ = m.tag;
    }
    std::size_t count() const { return count_; }
    Round last_round() const { return last_round_; }
    std::uint32_t last_tag() const { return last_tag_; }

private:
    std::size_t count_{0};
    Round last_round_{0};
    std::uint32_t last_tag_{0};
};

GossipConfig flooding_config() {
    GossipConfig c;
    c.forward_p = 1.0;
    c.default_ttl = 30;
    return c;
}

TEST(Engine, FloodingDeliversInManhattanDistanceRounds) {
    // p = 1 "is optimal with respect to latency, since the number of
    // intermediate hops ... is always equal to the Manhattan distance".
    GossipNetwork net(Topology::mesh(4, 4), flooding_config(), FaultScenario::none(), 1);
    auto sink = std::make_unique<Sink>();
    Sink& s = *sink;
    net.attach(5, std::make_unique<OneShotSource>(11)); // tiles 6 -> 12
    net.attach(11, std::move(sink));
    const auto result = net.run_until([&s] { return s.count() > 0; }, 100);
    EXPECT_TRUE(result.completed);
    EXPECT_EQ(s.count(), 1u);
    // Message created in round 0, forwarded rounds 0,1,2 -> arrives for
    // round 3 = Manhattan distance.
    EXPECT_EQ(s.last_round(), net.topology().manhattan(5, 11));
}

TEST(Engine, StochasticDeliveryWhp) {
    // p = 0.5 should still deliver, just a little slower (Fig. 4-4).
    int delivered = 0;
    for (std::uint64_t seed = 0; seed < 20; ++seed) {
        GossipConfig c;
        c.forward_p = 0.5;
        c.default_ttl = 30;
        GossipNetwork net(Topology::mesh(4, 4), c, FaultScenario::none(), seed);
        auto sink = std::make_unique<Sink>();
        Sink& s = *sink;
        net.attach(5, std::make_unique<OneShotSource>(11));
        net.attach(11, std::move(sink));
        const auto result = net.run_until([&s] { return s.count() > 0; }, 100);
        if (result.completed) ++delivered;
    }
    EXPECT_EQ(delivered, 20);
}

TEST(Engine, ZeroForwardProbabilityNeverDelivers) {
    GossipConfig c;
    c.forward_p = 0.0;
    GossipNetwork net(Topology::mesh(4, 4), c, FaultScenario::none(), 2);
    auto sink = std::make_unique<Sink>();
    Sink& s = *sink;
    net.attach(5, std::make_unique<OneShotSource>(11));
    net.attach(11, std::move(sink));
    const auto result = net.run_until([&s] { return s.count() > 0; }, 50);
    EXPECT_FALSE(result.completed);
    EXPECT_EQ(net.metrics().packets_sent, 0u);
}

TEST(Engine, BroadcastReachesEveryLiveTileUnderFlooding) {
    GossipNetwork net(Topology::mesh(4, 4), flooding_config(), FaultScenario::none(), 3);
    net.attach(0, std::make_unique<OneShotSource>(kBroadcast));
    for (int i = 0; i < 10; ++i) net.step();
    EXPECT_EQ(net.tiles_knowing(MessageId{0, 0}), 16u);
}

TEST(Engine, TtlBoundsMessageLifetime) {
    GossipConfig c = flooding_config();
    c.default_ttl = 2;
    GossipNetwork net(Topology::mesh(4, 4), c, FaultScenario::none(), 4);
    net.attach(0, std::make_unique<OneShotSource>(kBroadcast));
    for (int i = 0; i < 20; ++i) net.step();
    // TTL 2 never crosses more than 2 hops from the corner.
    EXPECT_LT(net.tiles_knowing(MessageId{0, 0}), 16u);
    // And the network goes quiet: no packets in late rounds.
    const auto& per_round = net.metrics().packets_per_round;
    for (std::size_t r = 10; r < per_round.size(); ++r)
        EXPECT_EQ(per_round[r], 0u) << "round " << r;
    EXPECT_GT(net.metrics().ttl_expired, 0u);
}

TEST(Engine, QuiescentAfterTtlEverywhere) {
    GossipNetwork net(Topology::mesh(5, 5), flooding_config(), FaultScenario::none(), 5);
    net.attach(12, std::make_unique<OneShotSource>(kBroadcast));
    for (int i = 0; i < 40; ++i) net.step();
    const auto& per_round = net.metrics().packets_per_round;
    // config ttl = 30: transmissions must cease by round 31.
    for (std::size_t r = 32; r < per_round.size(); ++r) EXPECT_EQ(per_round[r], 0u);
}

TEST(Engine, MetricsPacketsPerRoundSumsToTotal) {
    GossipNetwork net(Topology::mesh(4, 4), flooding_config(), FaultScenario::none(), 6);
    net.attach(5, std::make_unique<OneShotSource>(11));
    for (int i = 0; i < 35; ++i) net.step();
    std::size_t sum = 0;
    for (auto n : net.metrics().packets_per_round) sum += n;
    EXPECT_EQ(sum, net.metrics().packets_sent);
    EXPECT_EQ(net.metrics().rounds, 35u);
    EXPECT_GT(net.metrics().bits_sent, 0u);
    EXPECT_EQ(net.metrics().bits_sent % net.metrics().packets_sent, 0u);
}

TEST(Engine, DuplicatesAreCountedNotRedelivered) {
    GossipNetwork net(Topology::mesh(4, 4), flooding_config(), FaultScenario::none(), 7);
    auto sink = std::make_unique<Sink>();
    Sink& s = *sink;
    net.attach(5, std::make_unique<OneShotSource>(11));
    net.attach(11, std::move(sink));
    for (int i = 0; i < 35; ++i) net.step();
    EXPECT_EQ(s.count(), 1u); // delivered exactly once
    EXPECT_GT(net.metrics().duplicates_ignored, 0u);
}

TEST(Engine, DeadDestinationNeverDelivers) {
    FaultScenario scenario; // no random crashes; we force exact ones
    GossipNetwork net(Topology::mesh(4, 4), flooding_config(), scenario, 8);
    auto sink = std::make_unique<Sink>();
    Sink& s = *sink;
    net.attach(5, std::make_unique<OneShotSource>(11));
    net.attach(11, std::move(sink));
    net.protect(5);
    net.force_exact_tile_crashes(1);
    // Keep crashing until tile 11 is the victim (seeded, so deterministic).
    // Simpler: protect everything except 11.
    for (TileId t = 0; t < 16; ++t)
        if (t != 11 && t != 5) net.protect(t);
    const auto result = net.run_until([&s] { return s.count() > 0; }, 50);
    EXPECT_FALSE(result.completed);
    EXPECT_FALSE(net.tile_alive(11));
}

TEST(Engine, CrashedTilesDoNotForward) {
    FaultScenario s;
    s.p_tiles = 0.99;
    GossipNetwork net(Topology::mesh(4, 4), flooding_config(), s, 9);
    net.protect(5);
    net.attach(5, std::make_unique<OneShotSource>(11));
    for (int i = 0; i < 10; ++i) net.step();
    // Only tile 5 (protected) is alive w.h.p.; its sends go into the void.
    EXPECT_LE(net.tiles_knowing(MessageId{5, 0}), 3u);
}

TEST(Engine, UpsetsProduceCrcDrops) {
    FaultScenario s;
    s.p_upset = 0.5;
    GossipNetwork net(Topology::mesh(4, 4), flooding_config(), s, 10);
    net.attach(5, std::make_unique<OneShotSource>(kBroadcast));
    for (int i = 0; i < 20; ++i) net.step();
    EXPECT_GT(net.metrics().crc_drops, 0u);
    EXPECT_EQ(net.metrics().upsets_undetected, 0u);
}

TEST(Engine, SevereUpsetsDelayButRarelyStopDelivery) {
    // Sec. 4.1.3: "the algorithm does not give up and eventually
    // terminates with levels of data upsets as high as 90%".
    FaultScenario s;
    s.p_upset = 0.9;
    int delivered = 0;
    for (std::uint64_t seed = 0; seed < 10; ++seed) {
        GossipConfig c = flooding_config();
        c.default_ttl = 60;
        GossipNetwork net(Topology::mesh(4, 4), c, s, seed);
        auto sink = std::make_unique<Sink>();
        Sink& snk = *sink;
        net.attach(5, std::make_unique<OneShotSource>(11));
        net.attach(11, std::move(sink));
        if (net.run_until([&snk] { return snk.count() > 0; }, 300).completed)
            ++delivered;
    }
    EXPECT_GE(delivered, 8);
}

TEST(Engine, ForcedOverflowDropsPackets) {
    FaultScenario s;
    s.p_overflow = 0.6;
    GossipNetwork net(Topology::mesh(4, 4), flooding_config(), s, 11);
    net.attach(5, std::make_unique<OneShotSource>(kBroadcast));
    for (int i = 0; i < 15; ++i) net.step();
    EXPECT_GT(net.metrics().overflow_drops, 0u);
}

TEST(Engine, SynchronisationErrorsCauseDeferrals) {
    FaultScenario s;
    s.sigma_synchr = 0.5;
    GossipNetwork net(Topology::mesh(4, 4), flooding_config(), s, 12);
    net.attach(5, std::make_unique<OneShotSource>(kBroadcast));
    for (int i = 0; i < 25; ++i) net.step();
    EXPECT_GT(net.metrics().skew_deferrals, 0u);
}

TEST(Engine, NoSkewWithoutSigma) {
    GossipNetwork net(Topology::mesh(4, 4), flooding_config(), FaultScenario::none(), 13);
    net.attach(5, std::make_unique<OneShotSource>(kBroadcast));
    for (int i = 0; i < 25; ++i) net.step();
    EXPECT_EQ(net.metrics().skew_deferrals, 0u);
}

TEST(Engine, ElapsedTimeIsRoundsTimesTr) {
    GossipConfig c = flooding_config();
    c.timing.link_frequency_hz = 381e6;
    c.timing.packets_per_round = 1.0;
    c.timing.packet_bits = 381.0; // T_R = 1 us
    GossipNetwork net(Topology::mesh(4, 4), c, FaultScenario::none(), 14);
    for (int i = 0; i < 10; ++i) net.step();
    EXPECT_NEAR(net.elapsed_seconds(), 10e-6, 1e-12);
}

TEST(Engine, DeterministicGivenSeed) {
    auto run = [](std::uint64_t seed) {
        GossipConfig c;
        c.forward_p = 0.5;
        FaultScenario s;
        s.p_upset = 0.2;
        GossipNetwork net(Topology::mesh(4, 4), c, s, seed);
        net.attach(5, std::make_unique<OneShotSource>(kBroadcast));
        for (int i = 0; i < 20; ++i) net.step();
        return net.metrics().packets_sent;
    };
    EXPECT_EQ(run(42), run(42));
    EXPECT_NE(run(42), run(43)); // overwhelmingly likely
}

TEST(Engine, ReplicatedSendWithIdDedups) {
    // Two tiles inject the same rumor id; the network treats them as one.
    class Replica final : public IpCore {
    public:
        explicit Replica(TileId dst) : dst_(dst) {}
        void on_start(TileContext& ctx) override {
            ctx.send_with_id(MessageId{TileContext::replica_origin(7), 0}, dst_,
                             0xD0D0, {std::byte{9}});
        }
        void on_message(const Message&, TileContext&) override {}

    private:
        TileId dst_;
    };
    GossipNetwork net(Topology::mesh(4, 4), flooding_config(), FaultScenario::none(), 15);
    auto sink = std::make_unique<Sink>();
    Sink& s = *sink;
    net.attach(0, std::make_unique<Replica>(10));
    net.attach(3, std::make_unique<Replica>(10));
    net.attach(10, std::move(sink));
    for (int i = 0; i < 35; ++i) net.step();
    EXPECT_EQ(s.count(), 1u);
    EXPECT_EQ(s.last_tag(), 0xD0D0u);
}

TEST(Engine, ForwardCapacityThrottlesTile) {
    // A capacity-1 tile sends at most one packet per round.
    GossipNetwork unthrottled(Topology::mesh(4, 4), flooding_config(),
                              FaultScenario::none(), 16);
    unthrottled.attach(5, std::make_unique<OneShotSource>(kBroadcast));
    for (int i = 0; i < 5; ++i) unthrottled.step();

    GossipNetwork throttled(Topology::mesh(4, 4), flooding_config(),
                            FaultScenario::none(), 16);
    throttled.attach(5, std::make_unique<OneShotSource>(kBroadcast));
    for (TileId t = 0; t < 16; ++t) throttled.set_forward_capacity(t, 1);
    for (int i = 0; i < 5; ++i) throttled.step();
    EXPECT_LT(throttled.metrics().packets_sent, unthrottled.metrics().packets_sent);
    for (auto n : throttled.metrics().packets_per_round) EXPECT_LE(n, 16u);
}

TEST(Engine, RouteFilterSuppressesPorts) {
    // Filter away every port of the source: nothing is ever transmitted.
    GossipNetwork net(Topology::mesh(4, 4), flooding_config(), FaultScenario::none(), 17);
    net.attach(5, std::make_unique<OneShotSource>(11));
    net.set_route_filter(5, [](const MessageBody&, TileId) { return false; });
    for (int i = 0; i < 10; ++i) net.step();
    EXPECT_EQ(net.metrics().packets_sent, 0u);
}

/// Records every transmission from one tile.
class SendsFrom final : public TraceSink {
public:
    explicit SendsFrom(TileId tile) : tile_(tile) {}
    void record(const TraceEvent& e) override {
        if (e.kind == TraceEventKind::Transmitted && e.tile == tile_)
            sends.emplace_back(e.round, e.peer, e.message);
    }
    std::vector<std::tuple<Round, TileId, MessageId>> sends;

private:
    TileId tile_;
};

TEST(Engine, ForwardCoinsOfATileIgnoreOtherTiles) {
    // Tile 5's own rumor is first in its send buffer, so it takes the
    // first coins of tile 5's every round.  When three more tiles inject,
    // tile 5 also holds their rumors and draws more coins per round, but
    // its own rumor's copies go out on the same ports in the same rounds.
    GossipConfig config;
    config.forward_p = 0.5;
    config.default_ttl = 12;
    const auto own_sends = [&](std::uint64_t seed, bool crowded) {
        GossipNetwork net(Topology::mesh(4, 4), config, FaultScenario::none(), seed);
        SendsFrom trace(5);
        net.set_trace_sink(&trace);
        net.attach(5, std::make_unique<OneShotSource>(kBroadcast));
        if (crowded)
            for (const TileId t : {0u, 10u, 15u})
                net.attach(t, std::make_unique<OneShotSource>(kBroadcast));
        net.drain();
        std::vector<std::tuple<Round, TileId, MessageId>> own;
        for (const auto& send : trace.sends)
            if (std::get<2>(send).origin == 5) own.push_back(send);
        if (crowded) {
            EXPECT_GT(trace.sends.size(), own.size()) << "no other rumor at tile 5";
        }
        return own;
    };
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        const auto alone = own_sends(seed, false);
        EXPECT_GT(alone.size(), 0u);
        EXPECT_EQ(alone, own_sends(seed, true)) << "seed " << seed;
    }
}

TEST(Engine, AttachAfterStartThrows) {
    GossipNetwork net(Topology::mesh(4, 4), flooding_config(), FaultScenario::none(), 18);
    net.step();
    EXPECT_THROW(net.attach(0, std::make_unique<Sink>()), ContractViolation);
    EXPECT_THROW(net.protect(0), ContractViolation);
}

TEST(Engine, RunUntilRespectsMaxRounds) {
    GossipNetwork net(Topology::mesh(4, 4), flooding_config(), FaultScenario::none(), 19);
    const auto result = net.run_until([] { return false; }, 7);
    EXPECT_FALSE(result.completed);
    EXPECT_EQ(result.rounds, 7u);
}

TEST(Engine, RunUntilImmediatePredicate) {
    GossipNetwork net(Topology::mesh(4, 4), flooding_config(), FaultScenario::none(), 20);
    const auto result = net.run_until([] { return true; }, 7);
    EXPECT_TRUE(result.completed);
    EXPECT_EQ(result.rounds, 0u);
}

TEST(Engine, PerLinkAccountingSumsToTotal) {
    GossipNetwork net(Topology::mesh(4, 4), flooding_config(), FaultScenario::none(), 40);
    net.attach(5, std::make_unique<OneShotSource>(kBroadcast));
    for (int i = 0; i < 20; ++i) net.step();
    const auto& m = net.metrics();
    ASSERT_EQ(m.packets_by_link.size(), net.topology().link_count());
    std::size_t sum = 0;
    for (auto n : m.packets_by_link) sum += n;
    EXPECT_EQ(sum, m.packets_sent);
}

TEST(Engine, GossipSpreadsTrafficEvenly) {
    // Sec. 3.3.1: gossip "spreads the traffic onto all the links".  For a
    // central broadcast on a mesh, every interior link should carry
    // comparable load: the hotspot factor stays small.
    GossipConfig c;
    c.forward_p = 0.5;
    c.default_ttl = 20;
    GossipNetwork net(Topology::mesh(5, 5), c, FaultScenario::none(), 41);
    net.attach(12, std::make_unique<OneShotSource>(kBroadcast));
    net.drain(100);
    EXPECT_LT(net.metrics().link_hotspot_factor(), 3.0);
    // And every link saw at least some traffic.
    std::size_t idle_links = 0;
    for (auto n : net.metrics().packets_by_link)
        if (n == 0) ++idle_links;
    EXPECT_EQ(idle_links, 0u);
}

TEST(Engine, SecdedModeDeliversAndRepairs) {
    FaultScenario s;
    s.p_upset = 0.6; // bursty but mostly 1-2 bit flips per packet
    GossipConfig c = flooding_config();
    c.link_protection = LinkProtection::SecdedCorrect;
    GossipNetwork net(Topology::mesh(4, 4), c, s, 30);
    auto sink = std::make_unique<Sink>();
    Sink& snk = *sink;
    net.attach(5, std::make_unique<OneShotSource>(11));
    net.attach(11, std::move(sink));
    const auto r = net.run_until([&snk] { return snk.count() > 0; }, 200);
    EXPECT_TRUE(r.completed);
    EXPECT_GT(net.metrics().fec_corrected, 0u);
}

TEST(Engine, SecdedReducesEffectiveLossVsCrc) {
    // Same upset rate: FEC repairs most packets that CRC mode would drop.
    auto loss_fraction = [](LinkProtection prot) {
        FaultScenario s;
        s.p_upset = 0.5;
        GossipConfig c;
        c.forward_p = 1.0;
        c.default_ttl = 20;
        c.link_protection = prot;
        GossipNetwork net(Topology::mesh(4, 4), c, s, 31);
        net.attach(5, std::make_unique<OneShotSource>(kBroadcast));
        for (int i = 0; i < 20; ++i) net.step();
        const auto& m = net.metrics();
        const double dropped = static_cast<double>(m.crc_drops + m.fec_uncorrectable);
        return dropped / static_cast<double>(m.packets_sent);
    };
    // With ~2 flipped bits per upset packet, FEC only loses the packets
    // where both flips land in the same 64-bit word.
    EXPECT_LT(loss_fraction(LinkProtection::SecdedCorrect),
              0.5 * loss_fraction(LinkProtection::CrcDetect));
}

TEST(Engine, SecdedCostsWireOverhead) {
    auto bits_per_packet = [](LinkProtection prot) {
        GossipConfig c = flooding_config();
        c.link_protection = prot;
        GossipNetwork net(Topology::mesh(4, 4), c, FaultScenario::none(), 32);
        net.attach(5, std::make_unique<OneShotSource>(11));
        for (int i = 0; i < 5; ++i) net.step();
        return net.metrics().average_packet_bits();
    };
    const double crc = bits_per_packet(LinkProtection::CrcDetect);
    const double fec = bits_per_packet(LinkProtection::SecdedCorrect);
    // 12.5% Hamming overhead + padding/length framing; framing dominates
    // for this test's tiny packets.
    EXPECT_GT(fec, crc * 1.1);
    EXPECT_LT(fec, crc * 1.6);
}

TEST(Engine, SpreadStopOnDeliveryCutsTraffic) {
    auto packets_with = [](bool stop) {
        GossipConfig c;
        c.forward_p = 0.5;
        c.default_ttl = 20;
        c.stop_spread_on_delivery = stop;
        GossipNetwork net(Topology::mesh(4, 4), c, FaultScenario::none(), 21);
        auto sink = std::make_unique<Sink>();
        Sink& s = *sink;
        net.attach(5, std::make_unique<OneShotSource>(11));
        net.attach(11, std::move(sink));
        net.run_until([&s] { return s.count() > 0; }, 200);
        net.drain();
        return std::pair<std::size_t, std::size_t>(net.metrics().packets_sent,
                                                   s.count());
    };
    const auto [packets_stop, delivered_stop] = packets_with(true);
    const auto [packets_full, delivered_full] = packets_with(false);
    EXPECT_EQ(delivered_stop, 1u);
    EXPECT_EQ(delivered_full, 1u);
    EXPECT_LT(packets_stop, packets_full / 2);
}

TEST(Engine, SpreadStopLeavesBroadcastsAlone) {
    GossipConfig c;
    c.forward_p = 1.0;
    c.default_ttl = 30;
    c.stop_spread_on_delivery = true;
    GossipNetwork net(Topology::mesh(4, 4), c, FaultScenario::none(), 22);
    net.attach(0, std::make_unique<OneShotSource>(kBroadcast));
    for (int i = 0; i < 10; ++i) net.step();
    EXPECT_EQ(net.tiles_knowing(MessageId{0, 0}), 16u);
}

// Fault-free latency is monotone-ish in p: sweep p and compare extremes.
class ForwardProbabilitySweep : public ::testing::TestWithParam<double> {};

TEST_P(ForwardProbabilitySweep, DeliversOnIntactMesh) {
    GossipConfig c;
    c.forward_p = GetParam();
    c.default_ttl = 40;
    int delivered = 0;
    for (std::uint64_t seed = 0; seed < 10; ++seed) {
        GossipNetwork net(Topology::mesh(4, 4), c, FaultScenario::none(), seed);
        auto sink = std::make_unique<Sink>();
        Sink& s = *sink;
        net.attach(0, std::make_unique<OneShotSource>(15));
        net.attach(15, std::move(sink));
        if (net.run_until([&s] { return s.count() > 0; }, 200).completed) ++delivered;
    }
    EXPECT_GE(delivered, 9);
}

INSTANTIATE_TEST_SUITE_P(Probabilities, ForwardProbabilitySweep,
                         ::testing::Values(0.25, 0.5, 0.75, 1.0));

} // namespace
} // namespace snoc
