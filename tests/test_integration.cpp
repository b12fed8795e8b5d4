// Cross-module integration checks: the qualitative claims of Chapter 4,
// each verified end-to-end on the real stack (apps over gossip over faults
// over the NoC substrate).
#include <gtest/gtest.h>

#include "apps/master_slave_pi.hpp"
#include "apps/trace_app.hpp"
#include "bus/bus.hpp"
#include "bus/xy_router.hpp"
#include "common/stats.hpp"
#include "energy/energy.hpp"

namespace snoc {
namespace {

GossipConfig config_with_p(double p, std::uint16_t ttl = 30) {
    GossipConfig c;
    c.forward_p = p;
    c.default_ttl = ttl;
    return c;
}

struct PiRun {
    bool completed;
    Round rounds;
    std::size_t packets;
    std::size_t bits;
    double seconds;
};

PiRun run_pi(double p, FaultScenario scenario, std::uint64_t seed,
             Round max_rounds = 2000, bool drain_for_energy = false) {
    GossipNetwork net(Topology::mesh(5, 5), config_with_p(p), scenario, seed);
    auto& master = apps::deploy_pi(net, apps::PiDeployment{});
    net.protect(12); // the unique master must exist for latency to be defined
    const auto r = net.run_until([&master] { return master.done(); }, max_rounds);
    // Latency is the completion round, but the energy bill keeps running
    // until every rumor's TTL expires.
    if (drain_for_energy) net.drain();
    return {r.completed, r.rounds, net.metrics().packets_sent,
            net.metrics().bits_sent, r.elapsed_seconds};
}

TEST(Integration, FloodingIsLatencyOptimalButEnergyWorst) {
    // Sec. 4.1.3 / Fig. 4-4: p=1 gives the best latency and the most
    // packets; lowering p trades latency for energy.
    Accumulator rounds_p100, rounds_p25, packets_p100, packets_p50;
    for (std::uint64_t seed = 0; seed < 8; ++seed) {
        const auto flood = run_pi(1.0, FaultScenario::none(), seed, 2000, true);
        const auto half = run_pi(0.5, FaultScenario::none(), seed, 2000, true);
        const auto quarter = run_pi(0.25, FaultScenario::none(), seed);
        ASSERT_TRUE(flood.completed && half.completed && quarter.completed);
        rounds_p100.add(flood.rounds);
        rounds_p25.add(quarter.rounds);
        packets_p100.add(static_cast<double>(flood.packets));
        packets_p50.add(static_cast<double>(half.packets));
    }
    EXPECT_LT(rounds_p100.mean(), rounds_p25.mean());
    EXPECT_GT(packets_p100.mean(), packets_p50.mean());
    // "its energy dissipation is about half of the one of the flooding" —
    // allow a generous band around 0.5.
    const double ratio = packets_p50.mean() / packets_p100.mean();
    EXPECT_GT(ratio, 0.3);
    EXPECT_LT(ratio, 0.75);
}

TEST(Integration, TileCrashesBarelyMoveLatency) {
    // Fig. 4-4: "the number of tile failures does not have a big impact on
    // latency" (slaves replicated, master protected).
    auto run_with_crashes = [](std::size_t k, std::uint64_t seed) {
        GossipNetwork net(Topology::mesh(5, 5), config_with_p(0.5),
                          FaultScenario::none(), seed);
        apps::PiDeployment d;
        d.duplicate_slaves = true;
        auto& master = apps::deploy_pi(net, d);
        net.protect(12);
        for (TileId slave : {6u, 7u, 8u, 11u, 13u, 16u, 17u, 18u}) net.protect(slave);
        net.force_exact_tile_crashes(k);
        const auto r = net.run_until([&master] { return master.done(); }, 2000);
        return std::pair<bool, Round>(r.completed, r.rounds);
    };
    Accumulator clean, crashed;
    int completed_crashed = 0;
    for (std::uint64_t seed = 0; seed < 10; ++seed) {
        const auto a = run_with_crashes(0, seed);
        const auto b = run_with_crashes(4, seed);
        ASSERT_TRUE(a.first);
        clean.add(a.second);
        if (b.first) {
            crashed.add(b.second);
            ++completed_crashed;
        }
    }
    EXPECT_GE(completed_crashed, 8);
    EXPECT_LT(crashed.mean(), clean.mean() * 2.5);
}

TEST(Integration, UpsetsAboveHalfInflateLatency) {
    // Fig. 4-5: upsets dominate latency once p_upset > 0.5.  At p_upset 0.7
    // a rumor can die out within its TTL, so about 1 noisy run in 200
    // fails (2 of seeds 0-399); the latency is compared over the runs that
    // complete.
    Accumulator clean, noisy;
    for (std::uint64_t seed = 0; seed < 40; ++seed) {
        FaultScenario s;
        const auto a = run_pi(0.5, s, seed);
        s.p_upset = 0.7;
        const auto b = run_pi(0.5, s, seed);
        ASSERT_TRUE(a.completed) << "seed " << seed;
        clean.add(a.rounds);
        if (b.completed) noisy.add(b.rounds);
    }
    EXPECT_GE(noisy.count(), 38u);
    EXPECT_GT(noisy.mean(), clean.mean() * 1.5);
}

TEST(Integration, NocLatencyBeatsBusByALot) {
    // Fig. 4-6: "the latency of the stochastic communication was 11 times
    // better than that of the bus".  We check the order of magnitude.
    const auto tech = Technology::cmos_025um();
    const auto trace = apps::pi_trace(apps::PiDeployment{});

    // NoC: measured rounds * T_R (Eq. 2 with measured traffic).
    const auto noc = run_pi(0.5, FaultScenario::none(), 3);
    ASSERT_TRUE(noc.completed);
    GossipNetwork probe(Topology::mesh(5, 5), config_with_p(0.5),
                        FaultScenario::none(), 3);
    const double s_bits = static_cast<double>(noc.bits) /
                          static_cast<double>(noc.packets);
    RoundTiming timing;
    timing.link_frequency_hz = tech.link_frequency_hz;
    timing.packet_bits = s_bits;
    timing.packets_per_round = 1.0;
    const double noc_seconds = static_cast<double>(noc.rounds) * timing.round_seconds();

    SharedBus bus(25, tech);
    const auto bus_result = bus.run(trace);
    ASSERT_TRUE(bus_result.completed);
    // The bus carries far fewer bits but at 43 MHz with full serialisation
    // the NoC still wins clearly.
    EXPECT_LT(noc_seconds, bus_result.seconds);
}

TEST(Integration, GossipDeliversWhereXyRoutingDies) {
    // The Ch. 1 motivation, measured: same crash pattern, static XY loses
    // messages while gossip still completes.
    const auto mesh = Topology::mesh(5, 5);
    // Long corner-to-corner routes so crashes actually intersect XY paths.
    TrafficTrace trace;
    TrafficPhase phase;
    phase.messages.push_back({0, 24, 256});
    phase.messages.push_back({4, 20, 256});
    phase.messages.push_back({20, 4, 256});
    phase.messages.push_back({24, 0, 256});
    trace.phases.push_back(phase);
    const std::vector<TileId> endpoints{0, 4, 20, 24};

    int xy_lost_somewhere = 0, gossip_completed = 0;
    for (std::uint64_t seed = 0; seed < 10; ++seed) {
        FaultScenario s;
        s.p_tiles = 0.15;
        RngPool pool(seed);
        FaultInjector inj(s, pool);
        const auto crashes = inj.roll_crashes(mesh, endpoints);
        const auto xy = run_xy_trace(mesh, trace, crashes);
        if (xy.lost > 0) ++xy_lost_somewhere;

        GossipNetwork net(mesh, config_with_p(0.5, 40), s, seed);
        apps::TraceDriver driver(net, trace);
        for (TileId t : endpoints) net.protect(t);
        if (net.run_until([&driver] { return driver.complete(); }, 2000).completed)
            ++gossip_completed;
    }
    EXPECT_GT(xy_lost_somewhere, 0);
    // Gossip degrades gracefully: most runs still complete (an unlucky
    // crash pattern can isolate a corner, which no routing survives).
    EXPECT_GE(gossip_completed, 8);
}

TEST(Integration, EnergyAccountingConsistentAcrossModules) {
    const auto noc = run_pi(0.5, FaultScenario::none(), 5);
    ASSERT_TRUE(noc.completed);
    NetworkMetrics m;
    m.packets_sent = noc.packets;
    m.bits_sent = noc.bits;
    m.rounds = noc.rounds;
    const auto trace = apps::pi_trace(apps::PiDeployment{});
    const auto report = noc_energy(m, Technology::cmos_025um(), noc.seconds,
                                   trace.useful_bits());
    EXPECT_GT(report.joules, 0.0);
    EXPECT_GT(report.joules_per_useful_bit, Technology::cmos_025um().link_ebit_joules);
    EXPECT_GT(report.energy_delay_product, 0.0);
}

TEST(Integration, SameSeedSameEverything) {
    const auto a = run_pi(0.5, FaultScenario::none(), 11);
    const auto b = run_pi(0.5, FaultScenario::none(), 11);
    EXPECT_EQ(a.rounds, b.rounds);
    EXPECT_EQ(a.packets, b.packets);
    EXPECT_EQ(a.bits, b.bits);
    EXPECT_DOUBLE_EQ(a.seconds, b.seconds);
}

class UpsetSweep : public ::testing::TestWithParam<double> {};

TEST_P(UpsetSweep, PiStillCompletesUnderUpsets) {
    FaultScenario s;
    s.p_upset = GetParam();
    int completed = 0;
    for (std::uint64_t seed = 0; seed < 5; ++seed) {
        GossipNetwork net(Topology::mesh(5, 5), config_with_p(0.5, 60), s, seed);
        auto& master = apps::deploy_pi(net, apps::PiDeployment{});
        net.protect(12);
        if (net.run_until([&master] { return master.done(); }, 4000).completed)
            ++completed;
    }
    EXPECT_GE(completed, 4) << "p_upset=" << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Upsets, UpsetSweep, ::testing::Values(0.0, 0.3, 0.5, 0.7));

} // namespace
} // namespace snoc
