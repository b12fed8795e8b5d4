#include "common/rng.hpp"

#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "common/stats.hpp"

namespace snoc {
namespace {

TEST(SplitMix, IsDeterministic) {
    EXPECT_EQ(splitmix64(0), splitmix64(0));
    EXPECT_NE(splitmix64(0), splitmix64(1));
}

TEST(KeyOf, DistinguishesNames) {
    EXPECT_NE(key_of("forward"), key_of("fault/upset"));
    EXPECT_EQ(key_of("app"), key_of("app"));
    EXPECT_NE(key_of(""), key_of("a"));
}

TEST(RngPool, SameSeedSamePurposeSameStream) {
    RngPool a(123), b(123);
    auto sa = a.stream("x", 7);
    auto sb = b.stream("x", 7);
    for (int i = 0; i < 100; ++i) EXPECT_EQ(sa.bits(), sb.bits());
}

TEST(RngPool, DifferentPurposeDiverges) {
    RngPool pool(123);
    auto s1 = pool.stream("x");
    auto s2 = pool.stream("y");
    int equal = 0;
    for (int i = 0; i < 64; ++i)
        if (s1.bits() == s2.bits()) ++equal;
    EXPECT_LE(equal, 1);
}

TEST(RngPool, DifferentIndexDiverges) {
    RngPool pool(99);
    auto s1 = pool.stream("tile", 0);
    auto s2 = pool.stream("tile", 1);
    int equal = 0;
    for (int i = 0; i < 64; ++i)
        if (s1.bits() == s2.bits()) ++equal;
    EXPECT_LE(equal, 1);
}

TEST(RngStream, BernoulliEdgeCases) {
    RngStream s(1);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(s.bernoulli(0.0));
        EXPECT_TRUE(s.bernoulli(1.0));
        EXPECT_FALSE(s.bernoulli(-0.5));
        EXPECT_TRUE(s.bernoulli(1.5));
    }
}

TEST(RngStream, BernoulliFrequency) {
    RngStream s(42);
    const int n = 20000;
    int hits = 0;
    for (int i = 0; i < n; ++i)
        if (s.bernoulli(0.3)) ++hits;
    // ~4 sigma band around 0.3.
    const double p = static_cast<double>(hits) / n;
    EXPECT_NEAR(p, 0.3, 4.0 * std::sqrt(0.3 * 0.7 / n));
}

TEST(RngStream, BelowStaysInRange) {
    RngStream s(7);
    for (int i = 0; i < 1000; ++i) {
        const auto v = s.below(13);
        EXPECT_LT(v, 13u);
    }
}

TEST(RngStream, BelowCoversAllValues) {
    RngStream s(7);
    std::vector<bool> seen(5, false);
    for (int i = 0; i < 500; ++i) seen[s.below(5)] = true;
    for (bool b : seen) EXPECT_TRUE(b);
}

TEST(RngStream, UniformInUnitInterval) {
    RngStream s(3);
    Accumulator acc;
    for (int i = 0; i < 20000; ++i) {
        const double u = s.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
        acc.add(u);
    }
    EXPECT_NEAR(acc.mean(), 0.5, 0.02);
    EXPECT_NEAR(acc.variance(), 1.0 / 12.0, 0.01);
}

TEST(RngStream, NormalMoments) {
    RngStream s(11);
    Accumulator acc;
    for (int i = 0; i < 20000; ++i) acc.add(s.normal(5.0, 2.0));
    EXPECT_NEAR(acc.mean(), 5.0, 0.1);
    EXPECT_NEAR(acc.stddev(), 2.0, 0.1);
}

TEST(RngStream, NormalZeroStddevIsDegenerate) {
    RngStream s(11);
    EXPECT_DOUBLE_EQ(s.normal(3.0, 0.0), 3.0);
    EXPECT_DOUBLE_EQ(s.normal(3.0, -1.0), 3.0);
}

// --- The in-tree engine against the standard one ------------------------

// The in-tree engine replaced a std::mt19937_64 member and must not be
// larger than it: every fault, clock and app stream is one.
static_assert(sizeof(Mt19937_64) <= sizeof(std::mt19937_64));
static_assert(sizeof(RngStream) <= sizeof(std::mt19937_64) + 2 * sizeof(std::uint64_t));

/// The stream draws of contract v4 restated over std::mt19937_64: what
/// RngStream's draws must return for the same seed.
class ReferenceStream {
public:
    explicit ReferenceStream(std::uint64_t seed) : engine_(seed) {}

    bool bernoulli(double p) {
        if (p <= 0.0) return false;
        if (p >= 1.0) return true;
        return engine_() < static_cast<std::uint64_t>(std::ldexp(p, 64));
    }
    std::uint64_t below(std::uint64_t bound) {
        const std::uint64_t reject = (std::uint64_t{0} - bound) % bound;
        for (;;) {
            const std::uint64_t r = engine_();
            if (r >= reject) return r % bound;
            ++rejections_;
        }
    }
    double uniform() { return static_cast<double>(engine_() >> 11) * 0x1.0p-53; }
    double normal(double mean, double stddev) {
        if (stddev <= 0.0) return mean;
        return std::normal_distribution<double>(mean, stddev)(engine_);
    }
    std::uint64_t bits() { return engine_(); }

    /// Words below() has thrown away so far.
    std::size_t rejections() const { return rejections_; }

private:
    std::mt19937_64 engine_;
    std::size_t rejections_{0};
};

/// The edge seeds plus 64 derived the way per-tile keys are.
std::vector<std::uint64_t> oracle_seeds() {
    std::vector<std::uint64_t> seeds{0, 1, 5489,
                                     std::numeric_limits<std::uint64_t>::max()};
    for (std::uint64_t i = 0; i < 64; ++i)
        seeds.push_back(derive_seed(derive_seed(20031, key_of("gossip/forward")), i));
    return seeds;
}

TEST(Rng, InTreeEngineMatchesStdMt19937_64) {
    // Four full regenerations of the 312-word state plus a partial fifth.
    constexpr std::size_t kWords = 4 * Mt19937_64::kStateWords + 100;
    for (const std::uint64_t seed : oracle_seeds()) {
        Mt19937_64 engine(seed);
        std::mt19937_64 oracle(seed);
        for (std::size_t i = 0; i < kWords; ++i)
            ASSERT_EQ(engine(), oracle()) << "seed " << seed << " word " << i;
    }

    // The draws, interleaved so each one starts mid-state; below(2^63 + 1)
    // rejects almost half its words, so its retry loop runs too.
    const std::array<std::uint64_t, 4> bounds{5, 13, (std::uint64_t{1} << 63) + 1,
                                              std::numeric_limits<std::uint64_t>::max()};
    const std::array<double, 5> ps{0.3, 0.5, 1e-9, 0.999, 0.3};
    for (const std::uint64_t seed : oracle_seeds()) {
        RngStream stream(seed);
        ReferenceStream reference(seed);
        for (std::size_t i = 0; i < 400; ++i) {
            const double p = ps[i % ps.size()];
            ASSERT_EQ(stream.bernoulli(p), reference.bernoulli(p)) << seed << " " << i;
            const std::uint64_t bound = bounds[i % bounds.size()];
            ASSERT_EQ(stream.below(bound), reference.below(bound)) << seed << " " << i;
            ASSERT_EQ(stream.uniform(), reference.uniform()) << seed << " " << i;
            ASSERT_EQ(stream.normal(5.0, 2.0), reference.normal(5.0, 2.0))
                << seed << " " << i;
            ASSERT_EQ(stream.bits(), reference.bits()) << seed << " " << i;
        }
        EXPECT_GT(reference.rejections(), 0u) << seed;
    }
}

TEST(Rng, ForwardCoinsFollowContractV4) {
    // Coin i of (round, tile) is splitmix64(key + i * gamma) < p * 2^64,
    // the key derived from the seed, "gossip/forward", the round and the
    // tile; masks of any length continue one sequence.
    constexpr std::uint64_t kGamma = 0x9e3779b97f4a7c15ULL;
    const std::array<std::size_t, 5> ns{0, 1, 3, 4, 64};
    for (const std::uint64_t seed : oracle_seeds())
        for (const double p : {0.5, 0.3}) {
            ForwardCoins coins(seed, p);
            const std::uint64_t threshold = bernoulli_threshold(p);
            for (const std::uint64_t round : {0u, 7u}) {
                coins.start_round(round);
                for (const std::uint64_t tile : {0u, 5u}) {
                    coins.start_tile(tile);
                    std::uint64_t key = derive_seed(
                        derive_seed(derive_seed(seed, key_of("gossip/forward")), round), tile);
                    for (const std::size_t n : ns) {
                        std::uint64_t expected = 0;
                        for (std::size_t i = 0; i < n; ++i, key += kGamma)
                            expected |= std::uint64_t{splitmix64(key) < threshold} << i;
                        ASSERT_EQ(coins.mask(n), expected)
                            << seed << " p=" << p << " round " << round << " tile " << tile
                            << " n=" << n;
                    }
                }
            }
        }
    // p <= 0 and p >= 1 draw no word: every mask is all-miss or all-hit.
    ForwardCoins never(1, 0.0), always(1, 1.0);
    for (ForwardCoins* coins : {&never, &always}) {
        coins->start_round(3);
        coins->start_tile(2);
    }
    for (const std::size_t n : ns) {
        EXPECT_EQ(never.mask(n), 0u) << n;
        EXPECT_EQ(always.mask(n), n == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << n) - 1)
            << n;
    }
}

} // namespace
} // namespace snoc
