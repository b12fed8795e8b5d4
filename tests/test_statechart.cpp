#include "sim/statechart.hpp"

#include <cmath>

#include <gtest/gtest.h>

#include "common/expect.hpp"
#include "core/gossip_statechart.hpp"

namespace snoc::sc {
namespace {

// ---------------------------------------------------------------------------
// Core statechart semantics.

struct TrafficLight {
    Statechart chart;
    StateId root, red, green, yellow;
    std::vector<std::string> log;

    TrafficLight() {
        root = chart.add_state("Light", Composition::Exclusive);
        red = chart.add_state("Red", Composition::Leaf, root);
        green = chart.add_state("Green", Composition::Leaf, root);
        yellow = chart.add_state("Yellow", Composition::Leaf, root);
        chart.set_initial(root, red);
        chart.on_entry(red, [this] { log.push_back("+red"); });
        chart.on_exit(red, [this] { log.push_back("-red"); });
        chart.on_entry(green, [this] { log.push_back("+green"); });
        chart.add_transition({red, green, 1, nullptr, nullptr});
        chart.add_transition({green, yellow, 1, nullptr, nullptr});
        chart.add_transition({yellow, red, 1, nullptr, nullptr});
        chart.start();
    }
};

TEST(Statechart, InitialConfiguration) {
    TrafficLight t;
    EXPECT_TRUE(t.chart.in(t.root));
    EXPECT_TRUE(t.chart.in(t.red));
    EXPECT_FALSE(t.chart.in(t.green));
    EXPECT_EQ(t.log, (std::vector<std::string>{"+red"}));
}

TEST(Statechart, ExclusiveCycling) {
    TrafficLight t;
    t.chart.dispatch({1, 0});
    EXPECT_TRUE(t.chart.in(t.green));
    EXPECT_FALSE(t.chart.in(t.red));
    t.chart.dispatch({1, 0});
    EXPECT_TRUE(t.chart.in(t.yellow));
    t.chart.dispatch({1, 0});
    EXPECT_TRUE(t.chart.in(t.red));
}

TEST(Statechart, EntryExitHooksFireInOrder) {
    TrafficLight t;
    t.chart.dispatch({1, 0});
    EXPECT_EQ(t.log, (std::vector<std::string>{"+red", "-red", "+green"}));
}

TEST(Statechart, GuardBlocksTransition) {
    Statechart c;
    const auto root = c.add_state("r", Composition::Exclusive);
    const auto a = c.add_state("a", Composition::Leaf, root);
    const auto b = c.add_state("b", Composition::Leaf, root);
    c.set_initial(root, a);
    bool open = false;
    c.add_transition({a, b, 1, [&open](const Event&) { return open; }, nullptr});
    c.start();
    c.dispatch({1, 0});
    EXPECT_TRUE(c.in(a));
    open = true;
    c.dispatch({1, 0});
    EXPECT_TRUE(c.in(b));
}

TEST(Statechart, GuardEvaluatedAtMostOncePerEvent) {
    Statechart c;
    const auto root = c.add_state("r", Composition::Exclusive);
    const auto a = c.add_state("a", Composition::Leaf, root);
    const auto b = c.add_state("b", Composition::Leaf, root);
    c.set_initial(root, a);
    int evaluations = 0;
    c.add_transition({a, b, 1,
                      [&evaluations](const Event&) {
                          ++evaluations;
                          return false;
                      },
                      nullptr});
    // A second transition that fires, forcing a re-scan.
    c.add_transition({a, a, 1, nullptr, nullptr});
    c.start();
    c.dispatch({1, 0});
    EXPECT_EQ(evaluations, 1);
}

TEST(Statechart, ParallelRegionsAreIndependent) {
    Statechart c;
    const auto root = c.add_state("root", Composition::Parallel);
    const auto r1 = c.add_state("r1", Composition::Exclusive, root);
    const auto r2 = c.add_state("r2", Composition::Exclusive, root);
    const auto a1 = c.add_state("a1", Composition::Leaf, r1);
    const auto b1 = c.add_state("b1", Composition::Leaf, r1);
    const auto a2 = c.add_state("a2", Composition::Leaf, r2);
    const auto b2 = c.add_state("b2", Composition::Leaf, r2);
    c.set_initial(r1, a1);
    c.set_initial(r2, a2);
    c.add_transition({a1, b1, 1, nullptr, nullptr});
    c.add_transition({a2, b2, 2, nullptr, nullptr});
    c.start();
    EXPECT_TRUE(c.in(a1));
    EXPECT_TRUE(c.in(a2));
    c.dispatch({1, 0});
    EXPECT_TRUE(c.in(b1));
    EXPECT_TRUE(c.in(a2)); // other region untouched
    c.dispatch({2, 0});
    EXPECT_TRUE(c.in(b2));
}

TEST(Statechart, OneEventCanFireBothRegions) {
    Statechart c;
    const auto root = c.add_state("root", Composition::Parallel);
    const auto r1 = c.add_state("r1", Composition::Exclusive, root);
    const auto r2 = c.add_state("r2", Composition::Exclusive, root);
    const auto a1 = c.add_state("a1", Composition::Leaf, r1);
    const auto b1 = c.add_state("b1", Composition::Leaf, r1);
    const auto a2 = c.add_state("a2", Composition::Leaf, r2);
    const auto b2 = c.add_state("b2", Composition::Leaf, r2);
    c.set_initial(r1, a1);
    c.set_initial(r2, a2);
    c.add_transition({a1, b1, 7, nullptr, nullptr});
    c.add_transition({a2, b2, 7, nullptr, nullptr});
    c.start();
    c.dispatch({7, 0});
    EXPECT_TRUE(c.in(b1));
    EXPECT_TRUE(c.in(b2));
}

TEST(Statechart, SelfLoopDoesNotLivelock) {
    Statechart c;
    const auto root = c.add_state("root", Composition::Exclusive);
    const auto a = c.add_state("a", Composition::Leaf, root);
    c.set_initial(root, a);
    int fired = 0;
    c.add_transition({a, a, 1, nullptr, [&fired](const Event&) { ++fired; }});
    c.start();
    c.dispatch({1, 0});
    EXPECT_EQ(fired, 1);
}

TEST(Statechart, ActiveLeavesListsConfiguration) {
    TrafficLight t;
    const auto leaves = t.chart.active_leaves();
    ASSERT_EQ(leaves.size(), 1u);
    EXPECT_EQ(leaves[0], t.red);
    EXPECT_EQ(t.chart.name(leaves[0]), "Red");
}

TEST(Statechart, StructuralValidation) {
    Statechart c;
    const auto root = c.add_state("root", Composition::Exclusive);
    EXPECT_THROW(c.add_state("root2", Composition::Leaf), ContractViolation);
    const auto leaf = c.add_state("leaf", Composition::Leaf, root);
    EXPECT_THROW(c.add_state("x", Composition::Leaf, leaf), ContractViolation);
    EXPECT_THROW(c.start(), ContractViolation); // no initial configured
    c.set_initial(root, leaf);
    c.start();
    EXPECT_THROW(c.start(), ContractViolation); // double start
}

// ---------------------------------------------------------------------------
// The Fig. 3-4 tile chart vs a hand-rolled reference.

Message make_msg(TileId origin, std::uint32_t seq, std::uint16_t ttl) {
    Message m;
    m.id = MessageId{origin, seq};
    m.source = origin;
    m.destination = 0;
    m.ttl = ttl;
    return m;
}

TEST(GossipTileChart, FloodingTransmitsOnAllPortsEveryRound) {
    std::vector<std::pair<MessageId, Port>> sent;
    GossipTileChart tile(1.0, 16, /*seed=*/1,
                         [&sent](const Message& m, Port p) {
                             sent.emplace_back(m.id, p);
                         });
    tile.create(make_msg(7, 0, 3));
    tile.run_round({});
    // TTL 3 -> 2 in GC, then 4 ports.
    EXPECT_EQ(sent.size(), 4u);
    tile.run_round({});
    EXPECT_EQ(sent.size(), 8u);
    tile.run_round({}); // TTL hits 0 in GC: nothing sent
    EXPECT_EQ(sent.size(), 8u);
    EXPECT_TRUE(tile.buffer().empty());
    EXPECT_EQ(tile.ttl_expired(), 1u);
    EXPECT_EQ(tile.rounds_run(), 3u);
}

TEST(GossipTileChart, ZeroPNeverTransmits) {
    std::size_t transmissions = 0;
    GossipTileChart tile(0.0, 16, 2,
                         [&transmissions](const Message&, Port) { ++transmissions; });
    tile.create(make_msg(7, 0, 5));
    for (int i = 0; i < 4; ++i) tile.run_round({});
    EXPECT_EQ(transmissions, 0u);
}

TEST(GossipTileChart, ReceivedMessagesMergeWithDedup) {
    std::size_t transmissions = 0;
    GossipTileChart tile(1.0, 16, 3,
                         [&transmissions](const Message&, Port) { ++transmissions; });
    tile.run_round({make_msg(1, 0, 4), make_msg(1, 0, 4), make_msg(2, 0, 4)});
    EXPECT_EQ(tile.buffer().size(), 2u); // duplicate suppressed
    EXPECT_EQ(transmissions, 8u);        // 2 messages x 4 ports
}

TEST(GossipTileChart, TransmissionRateMatchesP) {
    std::size_t transmissions = 0;
    GossipTileChart tile(0.5, 16, 4,
                         [&transmissions](const Message&, Port) { ++transmissions; });
    tile.create(make_msg(9, 0, 401));
    const std::size_t rounds = 400;
    for (std::size_t i = 0; i < rounds; ++i) tile.run_round({});
    // E[transmissions] = rounds * 4 * p = 800; 4-sigma band.
    const double expected = rounds * 4 * 0.5;
    const double sigma = std::sqrt(rounds * 4 * 0.25);
    EXPECT_NEAR(static_cast<double>(transmissions), expected, 4.0 * sigma);
}

TEST(GossipTileChart, MatchesReferenceSendBufferEvolution) {
    // Drive chart and a plain SendBuffer with the same script; the buffer
    // contents must match after every round (transmissions differ only in
    // the Bernoulli draws, which the reference doesn't model).
    GossipTileChart tile(1.0, 8, 5, [](const Message&, Port) {});
    SendBuffer reference(8);
    RngStream script(99);
    for (int round = 0; round < 30; ++round) {
        std::vector<Message> incoming;
        const auto n = script.below(3);
        for (std::uint64_t i = 0; i < n; ++i)
            incoming.push_back(make_msg(static_cast<TileId>(script.below(4)),
                                        static_cast<std::uint32_t>(script.below(6)),
                                        static_cast<std::uint16_t>(1 + script.below(5))));
        // Reference: Fig. 3-4 order (merge, age, collect).
        for (const auto& m : incoming) reference.insert(m);
        reference.age_and_collect();
        tile.run_round(incoming);

        ASSERT_EQ(tile.buffer().size(), reference.size()) << "round " << round;
        for (std::size_t i = 0; i < reference.size(); ++i) {
            EXPECT_EQ(tile.buffer().messages()[i].id(), reference.messages()[i].id());
            EXPECT_EQ(tile.buffer().messages()[i].ttl, reference.messages()[i].ttl);
        }
    }
}

} // namespace
} // namespace snoc::sc
