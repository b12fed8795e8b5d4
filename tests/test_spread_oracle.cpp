// The gossip engine against an independent oracle: the exact law of one
// rumor's spread (analytic::exact_spread).  Each case runs a unicast from
// one corner of a small mesh to the other many times at a fixed seed, and
// G-tests two histograms against the exact law: the round the
// destination first receives the rumor (or never), and how many tiles
// ever held it.  The significance level is alpha = 0.001 per histogram.
// The same sample must also reject the law of a forward probability 2%
// too high in at least one histogram, so the test is known to have the
// power to see such an error.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "core/analytic.hpp"
#include "core/engine.hpp"

namespace snoc {
namespace {

constexpr std::uint32_t kTag = 0x5052; // "PR"

class Source final : public IpCore {
public:
    Source(TileId destination, std::uint16_t ttl) : destination_(destination), ttl_(ttl) {}
    void on_start(TileContext& ctx) override {
        ctx.send(destination_, kTag, std::vector<std::byte>(8, std::byte{1}), ttl_);
    }
    void on_message(const Message&, TileContext&) override {}

private:
    TileId destination_;
    std::uint16_t ttl_;
};

/// Records the round the rumor is delivered in (0: never).
class Sink final : public IpCore {
public:
    explicit Sink(Round* delivered) : delivered_(delivered) {}
    void on_message(const Message& m, TileContext& ctx) override {
        if (m.tag == kTag) *delivered_ = ctx.round();
    }

private:
    Round* delivered_;
};

struct Case {
    std::string name;
    std::size_t side;
    double p;
    double p_upset;
    double p_tiles;
    std::uint16_t ttl; ///< forwarded in ttl - 1 rounds (injected at start).
    std::size_t trials;
};

/// Test names show the case's name, not its bytes.
void PrintTo(const Case& c, std::ostream* os) { *os << c.name; }

struct Histograms {
    std::vector<double> delivery; ///< [k]: delivered in round k; [0]: never.
    std::vector<double> coverage; ///< [c]: c tiles ever held the rumor.
};

Histograms monte_carlo(const Case& c, std::uint64_t seed) {
    const std::size_t tiles = c.side * c.side;
    const TileId source = 0, destination = static_cast<TileId>(tiles - 1);
    GossipConfig config;
    config.forward_p = c.p;
    FaultScenario scenario;
    scenario.p_upset = c.p_upset;
    scenario.p_tiles = c.p_tiles;
    Histograms h{std::vector<double>(c.ttl, 0.0), std::vector<double>(tiles + 1, 0.0)};
    for (std::size_t i = 0; i < c.trials; ++i) {
        GossipNetwork net(Topology::mesh(c.side, c.side), config, scenario,
                          derive_seed(seed, i));
        net.protect(source);
        Round delivered = 0;
        net.attach(source, std::make_unique<Source>(destination, c.ttl));
        net.attach(destination, std::make_unique<Sink>(&delivered));
        net.drain(c.ttl + 2);
        EXPECT_TRUE(net.quiescent());
        EXPECT_EQ(net.metrics().upsets_undetected, 0u);
        h.delivery.at(delivered) += 1.0;
        h.coverage.at(net.tiles_knowing(MessageId{source, 0})) += 1.0;
    }
    return h;
}

struct GTest {
    double statistic{0.0};
    std::size_t dof{0};
};

/// G-test of `observed` counts against the law `expected` (probabilities).
/// Adjacent bins are pooled, in index order, until each pooled bin expects
/// at least 5 observations; the pooling reads the law only.  An
/// observation in a bin the law calls impossible gives an infinite G.
GTest g_test(const std::vector<double>& observed, const std::vector<double>& expected) {
    EXPECT_EQ(observed.size(), expected.size());
    double n = 0.0;
    for (const double o : observed) n += o;
    std::vector<std::pair<double, double>> bins; // (observed, expected count)
    double o_run = 0.0, e_run = 0.0;
    for (std::size_t i = 0; i < observed.size(); ++i) {
        o_run += observed[i];
        e_run += n * expected[i];
        if (e_run >= 5.0) {
            bins.emplace_back(o_run, e_run);
            o_run = e_run = 0.0;
        }
    }
    if (bins.empty()) bins.emplace_back(0.0, 0.0);
    bins.back().first += o_run; // a short tail joins the last bin
    bins.back().second += e_run;
    GTest g;
    for (const auto& [o, e] : bins) {
        if (o == 0.0) continue;
        g.statistic += e > 0.0 ? 2.0 * o * std::log(o / e) : INFINITY;
    }
    g.dof = bins.size() - 1;
    return g;
}

/// Upper 0.1% point of chi-square with `dof` degrees of freedom
/// (Wilson-Hilferty; accurate to a few percent from dof = 1 up).
double chi_square_critical_999(std::size_t dof) {
    const double k = static_cast<double>(dof);
    const double z = 3.0902; // standard normal 0.999 quantile
    const double t = 1.0 - 2.0 / (9.0 * k) + z * std::sqrt(2.0 / (9.0 * k));
    return k * t * t * t;
}

analytic::SpreadLaw exact(const Case& c, double p) {
    GossipConfig config;
    config.forward_p = p;
    FaultScenario scenario;
    scenario.p_upset = c.p_upset;
    scenario.p_tiles = c.p_tiles;
    return analytic::exact_spread(Topology::mesh(c.side, c.side), 0, c.ttl - 1u, config,
                                  scenario);
}

class SpreadOracle : public ::testing::TestWithParam<Case> {};

TEST_P(SpreadOracle, MonteCarloMatchesExactLaw) {
    const Case& c = GetParam();
    const auto destination = static_cast<TileId>(c.side * c.side - 1);
    const Histograms mc = monte_carlo(c, 20031);
    const struct {
        double p;
        bool accept;
    } laws[] = {{c.p, true}, {c.p * 1.02, false}};
    for (const auto& law_of : laws) {
        const analytic::SpreadLaw law = exact(c, law_of.p);
        const struct {
            const char* name;
            const std::vector<double>& observed;
            std::vector<double> expected;
        } tests[] = {{"delivery round", mc.delivery, law.first_informed(destination)},
                     {"tiles reached", mc.coverage, law.final_count()}};
        bool rejected = false;
        for (const auto& t : tests) {
            const GTest g = g_test(t.observed, t.expected);
            ASSERT_GT(g.dof, 0u) << t.name;
            const bool reject = g.statistic > chi_square_critical_999(g.dof);
            EXPECT_TRUE(!law_of.accept || !reject)
                << t.name << ": G = " << g.statistic << " (dof " << g.dof << ")";
            rejected = rejected || reject;
        }
        EXPECT_TRUE(law_of.accept || rejected) << "the sample cannot tell p from p * 1.02";
    }
}

INSTANTIATE_TEST_SUITE_P(
    Meshes, SpreadOracle,
    ::testing::Values(Case{"mesh3x3_fault_free", 3, 0.5, 0.0, 0.0, 7, 30000},
                      Case{"mesh4x4_upsets", 4, 0.6, 0.25, 0.0, 9, 20000},
                      Case{"mesh3x3_tile_crashes", 3, 0.7, 0.0, 0.15, 7, 40000}),
    [](const ::testing::TestParamInfo<Case>& info) { return info.param.name; });

TEST(SpreadOracle, LawIsAProbabilityAndSeesTheSourceFirst) {
    const Case c{"", 3, 0.5, 0.2, 0.1, 6, 0};
    const analytic::SpreadLaw law = exact(c, c.p);
    ASSERT_EQ(law.informed.size(), 6u);
    for (const auto& round : law.informed) {
        double total = 0.0;
        for (const double pr : round) total += pr;
        EXPECT_NEAR(total, 1.0, 1e-12);
    }
    EXPECT_DOUBLE_EQ(law.informed[0][1], 1.0); // only the source knows
    const auto source = law.first_informed(0);
    EXPECT_DOUBLE_EQ(source[0], 0.0);
    // A neighbour of the source hears it in round 1 unless its crash, the
    // coin or an upset stops the one copy it can get then.
    EXPECT_NEAR(law.first_informed(1)[1], 0.9 * 0.5 * 0.8, 1e-12);
    // The far corner is 4 hops away.
    const auto corner = law.first_informed(8);
    for (std::size_t k = 1; k < 4; ++k) EXPECT_EQ(corner[k], 0.0) << k;
    EXPECT_GT(corner[4], 0.0);
}

TEST(SpreadOracle, RejectsWhatTheModelLeavesOut) {
    const Topology mesh = Topology::mesh(3, 3);
    const auto solve = [&](GossipConfig config, FaultScenario scenario) {
        return analytic::exact_spread(mesh, 0, 4, config, scenario);
    };
    FaultScenario skew;
    skew.sigma_synchr = 0.05;
    EXPECT_THROW(solve({}, skew), ContractViolation);
    FaultScenario overflow;
    overflow.p_overflow = 0.1;
    EXPECT_THROW(solve({}, overflow), ContractViolation);
    FaultScenario links;
    links.p_links = 0.1;
    EXPECT_THROW(solve({}, links), ContractViolation);
    GossipConfig stop;
    stop.stop_spread_on_delivery = true;
    EXPECT_THROW(solve(stop, {}), ContractViolation);
    GossipConfig narrow;
    narrow.in_buffer_capacity = 3; // the centre tile has four links in
    EXPECT_THROW(solve(narrow, {}), ContractViolation);
    GossipConfig secded;
    secded.link_protection = LinkProtection::SecdedCorrect;
    EXPECT_THROW(solve(secded, {}), ContractViolation);
    EXPECT_THROW(analytic::exact_spread(Topology::mesh(5, 4), 0, 4, {}, {}),
                 ContractViolation);
    EXPECT_NO_THROW(solve({}, {}));
}

} // namespace
} // namespace snoc
