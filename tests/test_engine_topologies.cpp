// The gossip engine on non-mesh topologies: the fully-connected graph of
// the Sec. 3.1 theory (engine behaviour vs the logistic model), the torus,
// and robustness fuzzing of the wire decoder.
#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "common/stats.hpp"
#include "core/analytic.hpp"
#include "core/engine.hpp"

namespace snoc {
namespace {

class Announcer final : public IpCore {
public:
    explicit Announcer(std::uint16_t ttl = 0) : ttl_(ttl) {}
    void on_start(TileContext& ctx) override {
        ctx.send(kBroadcast, 0xFC, {std::byte{1}}, ttl_);
    }
    void on_message(const Message&, TileContext&) override {}

private:
    std::uint16_t ttl_;
};

TEST(FullyConnectedGossip, EngineTracksTheLogisticModel) {
    // On the fully connected graph with per-port probability
    // p = 1/(n-1), every informed tile pushes ~1 copy per round — exactly
    // the Sec. 3.1 push-gossip process, so I(t) from the engine should
    // track the deterministic recurrence (Fig. 3-1) closely.
    constexpr std::size_t n = 64;
    const auto model = analytic::informed_curve(n, 16);

    std::vector<Accumulator> informed(17);
    for (std::uint64_t seed = 0; seed < 10; ++seed) {
        GossipConfig c;
        c.forward_p = 1.0 / static_cast<double>(n - 1);
        c.default_ttl = 64;
        GossipNetwork net(Topology::fully_connected(n), c, FaultScenario::none(),
                          seed);
        net.attach(0, std::make_unique<Announcer>());
        for (std::size_t t = 0; t <= 16; ++t) {
            informed[t].add(static_cast<double>(net.tiles_knowing({0, 0})));
            net.step();
        }
    }
    // Compare at mid-spread (round 8) and near saturation (round 14).
    EXPECT_NEAR(informed[8].mean(), model[8], 0.35 * model[8]);
    EXPECT_GT(informed[14].mean(), 0.8 * model[14]);
    // And everyone is informed well within O(log2 n + ln n) + slack.
    EXPECT_GT(informed[16].mean(), 0.9 * static_cast<double>(n));
}

TEST(FullyConnectedGossip, FloodingInformsEveryoneInOneRound) {
    GossipConfig c;
    c.forward_p = 1.0;
    c.default_ttl = 4;
    GossipNetwork net(Topology::fully_connected(20), c, FaultScenario::none(), 1);
    net.attach(3, std::make_unique<Announcer>());
    net.step();
    net.step();
    EXPECT_EQ(net.tiles_knowing({3, 0}), 20u);
}

TEST(FullyConnectedGossip, FloodingLoadsEveryLiveLinkOfATileAlike) {
    // At p = 1 a tile that forwards sends on every live out-link and on
    // no dead one, so all of its live links carry one count.  69 ports
    // take two coin chunks, and a tile's ports straddle 64-bit words.
    GossipConfig c;
    c.forward_p = 1.0;
    c.default_ttl = 3;
    FaultScenario s;
    s.p_tiles = 0.1;
    s.p_links = 0.05;
    const Topology topo = Topology::fully_connected(70);
    GossipNetwork net(topo, c, s, 1);
    net.protect(3);
    net.attach(3, std::make_unique<Announcer>());
    for (int r = 0; r < 4; ++r) net.step();
    const auto& dead = net.crashes().dead_links;
    const auto& by_link = net.metrics().packets_by_link;
    ASSERT_NE(std::count(dead.begin(), dead.end(), true), 0);
    EXPECT_GT(net.metrics().packets_sent, 0u);
    for (TileId t = 0; t < topo.node_count(); ++t) {
        std::vector<std::size_t> live;
        for (const LinkId l : topo.out_links(t)) {
            if (dead[l])
                EXPECT_EQ(by_link[l], 0u) << "dead link " << l;
            else
                live.push_back(by_link[l]);
        }
        EXPECT_EQ(live, std::vector<std::size_t>(live.size(), live.front())) << "tile " << t;
    }
}

TEST(TorusGossip, WrapAroundShortensBroadcast) {
    // A torus has half the mesh's diameter: the corner broadcast finishes
    // faster for the same p.
    auto rounds_to_cover = [](Topology topo, std::uint64_t seed) {
        GossipConfig c;
        c.forward_p = 0.5;
        c.default_ttl = 64;
        const std::size_t n = topo.node_count();
        GossipNetwork net(std::move(topo), c, FaultScenario::none(), seed);
        net.attach(0, std::make_unique<Announcer>());
        const auto r = net.run_until(
            [&net, n]() mutable { return net.tiles_knowing({0, 0}) == n; }, 500);
        return r.rounds;
    };
    Accumulator mesh_rounds, torus_rounds;
    for (std::uint64_t seed = 0; seed < 8; ++seed) {
        mesh_rounds.add(static_cast<double>(rounds_to_cover(Topology::mesh(8, 8), seed)));
        torus_rounds.add(
            static_cast<double>(rounds_to_cover(Topology::torus(8, 8), seed)));
    }
    EXPECT_LT(torus_rounds.mean(), mesh_rounds.mean());
}

TEST(CustomTopologyGossip, LineGraphIsSlowestShape) {
    // A 1x8 path: the broadcast must walk the whole line.
    std::vector<LinkEnd> edges;
    for (TileId t = 0; t + 1 < 8; ++t) edges.push_back({t, static_cast<TileId>(t + 1)});
    const auto line = Topology::from_edges(8, edges, "path-8");
    GossipConfig c;
    c.forward_p = 1.0;
    c.default_ttl = 16;
    GossipNetwork net(line, c, FaultScenario::none(), 2);
    net.attach(0, std::make_unique<Announcer>());
    const auto r = net.run_until(
        [&net]() mutable { return net.tiles_knowing({0, 0}) == 8; }, 100);
    ASSERT_TRUE(r.completed);
    // One hop per round under flooding: the 7-hop far end hears the rumor
    // during the receive phase of the 8th engine step.
    EXPECT_EQ(r.rounds, 8u);
}

TEST(CustomTopologyGossip, HubReachesTheLeavesOfItsSecondCoinChunk) {
    // Hub 0's ports 0..63 lead to a clique of leaves 1..64, which learns
    // the rumor fast; ports 64..69 lead to leaves 65..70, which only the
    // hub can tell.  The hub's rumor must not count as known to all its
    // neighbours once its first chunk knows it.
    std::vector<LinkEnd> edges;
    for (TileId leaf = 1; leaf <= 70; ++leaf) edges.push_back({0, leaf});
    for (TileId a = 1; a <= 64; ++a)
        for (TileId b = a + 1; b <= 64; ++b) edges.push_back({a, b});
    GossipConfig c;
    c.forward_p = 0.1;
    c.default_ttl = 200;
    GossipNetwork net(Topology::from_edges(71, edges, "hub"), c, FaultScenario::none(), 1);
    net.attach(1, std::make_unique<Announcer>());
    const auto r = net.run_until([&net] { return net.tiles_knowing({1, 0}) == 71; }, 190);
    EXPECT_TRUE(r.completed);
}

TEST(PacketFuzz, DecoderNeverMisbehavesOnGarbage) {
    // Arbitrary byte soup must decode to nullopt or a self-consistent
    // message — never crash, never read out of bounds (ASAN-friendly).
    RngStream rng(77);
    std::size_t decoded_ok = 0;
    for (int trial = 0; trial < 3000; ++trial) {
        std::vector<std::byte> wire(rng.below(96));
        for (auto& b : wire) b = static_cast<std::byte>(rng.bits() & 0xFF);
        const auto packet = Packet::from_wire(std::move(wire));
        const auto decoded = packet.decode();
        if (decoded) ++decoded_ok;
    }
    // Random garbage passing a CRC-32 is a ~2^-32 event.
    EXPECT_EQ(decoded_ok, 0u);
}

TEST(PacketFuzz, CorruptedRealPacketsRoundTripOrDie) {
    RngStream rng(78);
    for (int trial = 0; trial < 500; ++trial) {
        Message m;
        m.id = MessageId{static_cast<TileId>(rng.below(100)),
                         static_cast<std::uint32_t>(rng.below(100))};
        m.source = m.id.origin;
        m.destination = static_cast<TileId>(rng.below(100));
        m.ttl = static_cast<std::uint16_t>(1 + rng.below(30));
        m.payload.resize(rng.below(64));
        for (auto& b : m.payload) b = static_cast<std::byte>(rng.bits() & 0xFF);

        auto wire = Packet::encode(m).wire();
        const auto flips = rng.below(4); // 0..3 bit flips
        for (std::uint64_t f = 0; f < flips; ++f) {
            const auto bit = rng.below(wire.size() * 8);
            wire[bit / 8] ^= static_cast<std::byte>(1u << (bit % 8));
        }
        const auto decoded = Packet::from_wire(std::move(wire)).decode();
        // Either dropped, or (zero net flips) identical to the original.
        if (decoded) {
            EXPECT_EQ(*decoded, m);
        }
    }
}

} // namespace
} // namespace snoc
