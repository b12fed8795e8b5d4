#include "fault/injector.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/expect.hpp"
#include "common/stats.hpp"

namespace snoc {
namespace {

Packet sample_packet(std::size_t payload_bytes = 64) {
    Message m;
    m.id = MessageId{1, 2};
    m.source = 1;
    m.destination = 3;
    m.ttl = 10;
    m.payload.assign(payload_bytes, std::byte{0x5A});
    return Packet::encode(m);
}

TEST(FaultScenario, ValidateAcceptsDefaults) {
    EXPECT_NO_THROW(FaultScenario::none().validate());
}

TEST(FaultScenario, ValidateRejectsOutOfRange) {
    FaultScenario s;
    s.p_upset = 1.5;
    EXPECT_THROW(s.validate(), ContractViolation);
    s = {};
    s.p_tiles = -0.1;
    EXPECT_THROW(s.validate(), ContractViolation);
    s = {};
    s.sigma_synchr = -1.0;
    EXPECT_THROW(s.validate(), ContractViolation);
}

TEST(FaultScenario, DescribeMentionsEveryKnob) {
    FaultScenario s;
    s.p_tiles = 0.1;
    s.p_upset = 0.3;
    s.upset_model = UpsetModel::RandomErrorVector;
    const auto text = s.describe();
    EXPECT_NE(text.find("tiles=0.1"), std::string::npos);
    EXPECT_NE(text.find("upset=0.3"), std::string::npos);
    EXPECT_NE(text.find("random-error-vector"), std::string::npos);
}

TEST(FaultInjector, NoFaultsMeansNoEffects) {
    RngPool pool(1);
    FaultInjector inj(FaultScenario::none(), pool);
    auto p = sample_packet();
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(inj.maybe_upset(p));
        EXPECT_FALSE(inj.overflow_drop());
    }
    EXPECT_TRUE(p.crc_ok());
    EXPECT_EQ(inj.upsets_injected(), 0u);
}

TEST(FaultInjector, CrashRateMatchesProbability) {
    const auto topo = Topology::mesh(16, 16); // 256 tiles
    FaultScenario s;
    s.p_tiles = 0.3;
    Accumulator rate;
    for (std::uint64_t seed = 0; seed < 30; ++seed) {
        RngPool pool(seed);
        FaultInjector inj(s, pool);
        const auto crashes = inj.roll_crashes(topo);
        rate.add(static_cast<double>(crashes.dead_tile_count()) / 256.0);
    }
    EXPECT_NEAR(rate.mean(), 0.3, 0.03);
}

TEST(FaultInjector, ProtectedTilesNeverCrash) {
    const auto topo = Topology::mesh(4, 4);
    FaultScenario s;
    s.p_tiles = 0.9;
    for (std::uint64_t seed = 0; seed < 20; ++seed) {
        RngPool pool(seed);
        FaultInjector inj(s, pool);
        const auto crashes = inj.roll_crashes(topo, {5, 11});
        EXPECT_FALSE(crashes.dead_tiles[5]);
        EXPECT_FALSE(crashes.dead_tiles[11]);
    }
}

TEST(FaultInjector, ExactCrashCountIsExact) {
    const auto topo = Topology::mesh(5, 5);
    RngPool pool(9);
    FaultInjector inj(FaultScenario::none(), pool);
    for (std::size_t k : {0u, 1u, 5u, 12u}) {
        RngPool p2(k + 100);
        FaultInjector fresh(FaultScenario::none(), p2);
        const auto crashes = fresh.roll_exact_tile_crashes(topo, k, {12});
        EXPECT_EQ(crashes.dead_tile_count(), k);
        EXPECT_FALSE(crashes.dead_tiles[12]);
    }
}

TEST(FaultInjector, ExactCrashRespectsCandidateLimit) {
    const auto topo = Topology::mesh(2, 2);
    RngPool pool(3);
    FaultInjector inj(FaultScenario::none(), pool);
    EXPECT_THROW(inj.roll_exact_tile_crashes(topo, 4, {0}), ContractViolation);
}

TEST(FaultInjector, LinkCrashesIndependentOfTiles) {
    const auto topo = Topology::mesh(8, 8);
    FaultScenario s;
    s.p_links = 0.25;
    Accumulator rate;
    for (std::uint64_t seed = 0; seed < 30; ++seed) {
        RngPool pool(seed);
        FaultInjector inj(s, pool);
        const auto crashes = inj.roll_crashes(topo);
        EXPECT_EQ(crashes.dead_tile_count(), 0u);
        rate.add(static_cast<double>(crashes.dead_link_count()) /
                 static_cast<double>(topo.link_count()));
    }
    EXPECT_NEAR(rate.mean(), 0.25, 0.03);
}

TEST(FaultInjector, UpsetRateMatchesPUpset) {
    FaultScenario s;
    s.p_upset = 0.4;
    RngPool pool(5);
    FaultInjector inj(s, pool);
    int corrupted = 0;
    const int n = 5000;
    for (int i = 0; i < n; ++i) {
        auto p = sample_packet();
        if (inj.maybe_upset(p)) ++corrupted;
    }
    EXPECT_NEAR(static_cast<double>(corrupted) / n, 0.4, 0.03);
    EXPECT_EQ(inj.upsets_injected(), static_cast<std::size_t>(corrupted));
}

TEST(FaultInjector, BitErrorModelAlwaysChangesWire) {
    FaultScenario s;
    s.p_upset = 1.0;
    s.upset_model = UpsetModel::RandomBitError;
    RngPool pool(6);
    FaultInjector inj(s, pool);
    for (int i = 0; i < 200; ++i) {
        auto p = sample_packet();
        const auto original = p.wire();
        EXPECT_TRUE(inj.maybe_upset(p));
        EXPECT_NE(p.wire(), original);
    }
}

TEST(FaultInjector, BitErrorModelFlipsFewBits) {
    FaultScenario s;
    s.p_upset = 1.0;
    s.upset_model = UpsetModel::RandomBitError;
    RngPool pool(7);
    FaultInjector inj(s, pool);
    Accumulator flips;
    for (int i = 0; i < 500; ++i) {
        auto p = sample_packet();
        const auto original = p.wire();
        inj.maybe_upset(p);
        int diff = 0;
        for (std::size_t b = 0; b < original.size(); ++b) {
            auto x = static_cast<unsigned>(original[b] ^ p.wire()[b]);
            while (x) {
                diff += static_cast<int>(x & 1u);
                x >>= 1;
            }
        }
        EXPECT_GE(diff, 1);
        flips.add(diff);
    }
    // Conditioned on an upset, expected flips ~ 2 (documented burst shape).
    EXPECT_NEAR(flips.mean(), 2.0, 0.5);
}

TEST(FaultInjector, ErrorVectorModelScramblesManyBits) {
    FaultScenario s;
    s.p_upset = 1.0;
    s.upset_model = UpsetModel::RandomErrorVector;
    RngPool pool(8);
    FaultInjector inj(s, pool);
    Accumulator flips;
    for (int i = 0; i < 200; ++i) {
        auto p = sample_packet();
        const auto original = p.wire();
        inj.maybe_upset(p);
        int diff = 0;
        for (std::size_t b = 0; b < original.size(); ++b) {
            auto x = static_cast<unsigned>(original[b] ^ p.wire()[b]);
            while (x) {
                diff += static_cast<int>(x & 1u);
                x >>= 1;
            }
        }
        EXPECT_GE(diff, 1);
        flips.add(diff);
    }
    // Uniform error vector flips ~half the bits on average.
    const double nbits = static_cast<double>(sample_packet().bit_size());
    EXPECT_NEAR(flips.mean(), nbits / 2.0, nbits * 0.05);
}

TEST(FaultInjector, UpsetsAreCaughtByCrc) {
    FaultScenario s;
    s.p_upset = 1.0;
    for (auto model : {UpsetModel::RandomBitError, UpsetModel::RandomErrorVector}) {
        s.upset_model = model;
        RngPool pool(9);
        FaultInjector inj(s, pool);
        int undetected = 0;
        for (int i = 0; i < 500; ++i) {
            auto p = sample_packet();
            inj.maybe_upset(p);
            if (p.crc_ok()) ++undetected;
        }
        // CRC-32 misses with probability ~2^-32; 500 trials should all catch.
        EXPECT_EQ(undetected, 0) << to_string(model);
    }
}

TEST(FaultInjector, SampledFlipsAreApplyUpsetsDraws) {
    // The engine's sparse path samples flip positions where the byte path
    // scrambles a wire; both must consume the upset stream identically.
    FaultScenario s;
    s.p_upset = 1.0;
    FaultInjector bytes(s, RngPool(12));
    FaultInjector sparse(s, RngPool(12));
    std::vector<std::size_t> flips;
    for (std::size_t n = 1; n < 400; n += 7) {
        const auto original = std::vector<std::byte>(n, std::byte{0x5A});
        auto scrambled = original;
        bytes.apply_upset(scrambled);
        sparse.sample_flips(n * 8, flips);
        ASSERT_FALSE(flips.empty());
        EXPECT_TRUE(std::is_sorted(flips.begin(), flips.end()));
        EXPECT_EQ(std::adjacent_find(flips.begin(), flips.end()), flips.end());
        auto flipped = original;
        FaultInjector::flip_bits(flipped, flips);
        EXPECT_EQ(flipped, scrambled) << n << " bytes";
    }
    EXPECT_EQ(sparse.upsets_injected(), bytes.upsets_injected());
}

TEST(FaultInjector, OverflowRateMatchesProbability) {
    FaultScenario s;
    s.p_overflow = 0.2;
    RngPool pool(10);
    FaultInjector inj(s, pool);
    int drops = 0;
    const int n = 5000;
    for (int i = 0; i < n; ++i)
        if (inj.overflow_drop()) ++drops;
    EXPECT_NEAR(static_cast<double>(drops) / n, 0.2, 0.02);
    EXPECT_EQ(inj.overflows_forced(), static_cast<std::size_t>(drops));
}

TEST(FaultInjector, RoundDurationJitterMatchesSigma) {
    FaultScenario s;
    s.sigma_synchr = 0.1;
    RngPool pool(11);
    FaultInjector inj(s, pool);
    Accumulator acc;
    for (int i = 0; i < 5000; ++i) acc.add(inj.round_duration(1e-6, 0));
    EXPECT_NEAR(acc.mean(), 1e-6, 1e-8);
    EXPECT_NEAR(acc.stddev(), 0.1e-6, 0.01e-6);
}

TEST(FaultInjector, RoundDurationNeverNonPositive) {
    FaultScenario s;
    s.sigma_synchr = 3.0; // extreme jitter
    RngPool pool(12);
    FaultInjector inj(s, pool);
    for (int i = 0; i < 2000; ++i) EXPECT_GT(inj.round_duration(1e-6, 0), 0.0);
}

TEST(FaultInjector, DeterministicAcrossRuns) {
    FaultScenario s;
    s.p_upset = 0.5;
    s.p_overflow = 0.3;
    RngPool pool_a(77), pool_b(77);
    FaultInjector a(s, pool_a), b(s, pool_b);
    for (int i = 0; i < 100; ++i) {
        auto pa = sample_packet();
        auto pb = sample_packet();
        EXPECT_EQ(a.maybe_upset(pa), b.maybe_upset(pb));
        EXPECT_EQ(pa.wire(), pb.wire());
        EXPECT_EQ(a.overflow_drop(), b.overflow_drop());
    }
}

// --- Distribution oracle for the bit-error sampler ------------------------
//
// FaultInjector::corrupt jumps between flipped bits with geometric gaps.
// The law it must reproduce is the thesis's per-bit model: every wire bit
// flips independently with p_b = 2/n, and an upset that flipped nothing
// flips one uniformly chosen bit instead.  The reference below is that
// model written out literally, one Bernoulli draw per bit.  Both samplers
// run at fixed seeds and a two-sample chi-square test compares three
// histograms: flips per upset, flipped-bit positions, and multi-flip
// 64-bit words per upset (what decides SECDED correct vs. uncorrectable).

std::vector<std::byte> reference_upset(std::size_t bytes, RngStream& rng) {
    std::vector<std::byte> wire(bytes);
    const std::size_t nbits = bytes * 8;
    std::size_t flips = 0;
    for (std::size_t b = 0; b < nbits; ++b) {
        if (rng.bernoulli(2.0 / static_cast<double>(nbits))) {
            wire[b / 8] ^= static_cast<std::byte>(1u << (b % 8));
            ++flips;
        }
    }
    if (flips == 0) {
        const auto b = static_cast<std::size_t>(rng.below(nbits));
        wire[b / 8] ^= static_cast<std::byte>(1u << (b % 8));
    }
    return wire;
}

struct FlipHistograms {
    std::vector<double> flips;       ///< [k]: upsets with k flipped bits.
    std::vector<double> positions;   ///< [bin]: flipped bits per position bin.
    std::vector<double> multi_words; ///< [k]: upsets with k multi-flip words.
};

/// Fold one error vector (the XOR against the clean wire) into `h`.
void tally(const std::vector<std::byte>& error, FlipHistograms& h) {
    const std::size_t nbits = error.size() * 8;
    const std::size_t bins = std::min<std::size_t>(nbits, 128);
    if (h.positions.empty()) h.positions.assign(bins, 0.0);
    std::size_t flips = 0, multi = 0, in_word = 0;
    for (std::size_t b = 0; b < nbits; ++b) {
        if (b % 64 == 0) {
            multi += in_word >= 2 ? 1 : 0;
            in_word = 0;
        }
        if ((static_cast<unsigned>(error[b / 8]) >> (b % 8)) & 1u) {
            ++flips;
            ++in_word;
            h.positions[b * bins / nbits] += 1.0;
        }
    }
    multi += in_word >= 2 ? 1 : 0;
    const auto bump = [](std::vector<double>& v, std::size_t k) {
        if (v.size() <= k) v.resize(k + 1, 0.0);
        v[k] += 1.0;
    };
    bump(h.flips, flips);
    bump(h.multi_words, multi);
}

struct ChiSquare {
    double statistic{0.0};
    std::size_t dof{0};
};

/// Two-sample chi-square homogeneity test over aligned histograms `a` and
/// `b`.  Adjacent bins are pooled until each pooled bin holds at least 20
/// observations across both samples (an expected count of about 10 per
/// sample), so sparse tails do not dominate the statistic.
ChiSquare two_sample_chi_square(std::vector<double> a, std::vector<double> b) {
    const std::size_t n = std::max(a.size(), b.size());
    a.resize(n, 0.0);
    b.resize(n, 0.0);
    double total_a = 0.0, total_b = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        total_a += a[i];
        total_b += b[i];
    }
    // Pool left to right; a short tail joins the last pooled bin.
    std::vector<double> pa, pb;
    double run_a = 0.0, run_b = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        run_a += a[i];
        run_b += b[i];
        if (run_a + run_b >= 20.0) {
            pa.push_back(run_a);
            pb.push_back(run_b);
            run_a = run_b = 0.0;
        }
    }
    if (pa.empty()) return {};
    pa.back() += run_a;
    pb.back() += run_b;
    const double ka = std::sqrt(total_b / total_a), kb = std::sqrt(total_a / total_b);
    ChiSquare out;
    for (std::size_t i = 0; i < pa.size(); ++i) {
        const double d = ka * pa[i] - kb * pb[i];
        out.statistic += d * d / (pa[i] + pb[i]);
    }
    out.dof = pa.size() - 1;
    return out;
}

/// Upper 0.1% point of chi-square with `dof` degrees of freedom
/// (Wilson-Hilferty; accurate to a few percent from dof = 1 up).
double chi_square_critical_999(std::size_t dof) {
    const double k = static_cast<double>(dof);
    const double z = 3.0902; // standard normal 0.999 quantile
    const double t = 1.0 - 2.0 / (9.0 * k) + z * std::sqrt(2.0 / (9.0 * k));
    return k * t * t * t;
}

class UpsetSamplerOracle : public ::testing::TestWithParam<std::size_t> {};

TEST_P(UpsetSamplerOracle, MatchesPerBitReference) {
    const std::size_t bytes = GetParam();
    constexpr std::size_t kUpsets = 20000;
    FaultScenario s;
    s.p_upset = 1.0;
    s.upset_model = UpsetModel::RandomBitError;
    RngPool pool(20030 + bytes);
    FaultInjector injector(s, pool);
    RngStream reference_rng = RngPool(40060 + bytes).stream("reference");

    FlipHistograms sampled, reference;
    for (std::size_t i = 0; i < kUpsets; ++i) {
        std::vector<std::byte> wire(bytes); // all-zero: the wire is the error
        injector.apply_upset(wire);
        tally(wire, sampled);
        tally(reference_upset(bytes, reference_rng), reference);
    }
    EXPECT_EQ(injector.upsets_injected(), kUpsets);

    const struct {
        const char* name;
        const std::vector<double>& a;
        const std::vector<double>& b;
    } histograms[] = {
        {"flips per upset", sampled.flips, reference.flips},
        {"flipped-bit position", sampled.positions, reference.positions},
        {"multi-flip 64-bit words", sampled.multi_words, reference.multi_words},
    };
    for (const auto& h : histograms) {
        const ChiSquare chi = two_sample_chi_square(h.a, h.b);
        if (chi.dof == 0) continue; // one pooled bin: nothing to compare
        EXPECT_LT(chi.statistic, chi_square_critical_999(chi.dof))
            << h.name << " at " << bytes << " bytes (dof " << chi.dof << ")";
    }
    // Sanity on the law itself: an upset always flips something, and the
    // mean is 2 + P[no flip] (the fallback bit), which is ~2.13 for long
    // wires and 2.1 for a single byte.
    EXPECT_EQ(sampled.flips[0], 0.0);
    double mean = 0.0;
    for (std::size_t k = 0; k < sampled.flips.size(); ++k)
        mean += static_cast<double>(k) * sampled.flips[k];
    mean /= static_cast<double>(kUpsets);
    const double nbits = static_cast<double>(bytes * 8);
    EXPECT_NEAR(mean, 2.0 + std::pow(1.0 - 2.0 / nbits, nbits), 0.05);
}

// 1 byte: the shortest wire (p_b = 1/4); 37 bytes: an odd length whose
// last 64-bit word is partial; 295 bytes: the MP3 frame packet of Fig. 4-8.
INSTANTIATE_TEST_SUITE_P(WireLengths, UpsetSamplerOracle,
                         ::testing::Values(std::size_t{1}, std::size_t{37},
                                           std::size_t{295}));

} // namespace
} // namespace snoc
