#include "apps/mdct.hpp"

#include <cmath>
#include <numbers>
#include <thread>

#include <gtest/gtest.h>

#include "common/expect.hpp"
#include "common/rng.hpp"

namespace snoc::apps {
namespace {

std::vector<double> random_signal(std::size_t n, std::uint64_t seed) {
    snoc::RngStream rng(seed);
    std::vector<double> v(n);
    for (auto& x : v) x = 2.0 * rng.uniform() - 1.0;
    return v;
}

TEST(Mdct, OutputSizeIsHalfWindow) {
    Mdct m(64);
    EXPECT_EQ(m.size(), 64u);
    const auto coeffs = m.forward(std::vector<double>(128, 0.5));
    EXPECT_EQ(coeffs.size(), 64u);
    const auto time = m.inverse(coeffs);
    EXPECT_EQ(time.size(), 128u);
}

TEST(Mdct, RejectsWrongWindowLength) {
    Mdct m(64);
    EXPECT_THROW(m.forward(std::vector<double>(64)), snoc::ContractViolation);
    EXPECT_THROW(m.inverse(std::vector<double>(128)), snoc::ContractViolation);
}

TEST(Mdct, SineWindowPrincenBradley) {
    // w(i)^2 + w(i+N)^2 == 1 — the condition that makes TDAC work.
    Mdct m(32);
    for (std::size_t i = 0; i < 32; ++i) {
        const double a = m.window(i);
        const double b = m.window(i + 32);
        EXPECT_NEAR(a * a + b * b, 1.0, 1e-12);
    }
}

TEST(Mdct, ZeroInZeroOut) {
    Mdct m(16);
    for (double c : m.forward(std::vector<double>(32, 0.0)))
        EXPECT_DOUBLE_EQ(c, 0.0);
}

TEST(Mdct, Linearity) {
    Mdct m(32);
    const auto a = random_signal(64, 1);
    const auto b = random_signal(64, 2);
    std::vector<double> sum(64);
    for (std::size_t i = 0; i < 64; ++i) sum[i] = a[i] + 3.0 * b[i];
    const auto ca = m.forward(a);
    const auto cb = m.forward(b);
    const auto cs = m.forward(sum);
    for (std::size_t k = 0; k < 32; ++k)
        EXPECT_NEAR(cs[k], ca[k] + 3.0 * cb[k], 1e-9);
}

TEST(Mdct, TdacPerfectReconstruction) {
    // Overlap-add of IMDCT halves reconstructs the interior exactly.
    const std::size_t n = 64;
    Mdct m(n);
    const auto signal = random_signal(8 * n, 3);
    const auto frames = mdct_analyze(m, signal);
    const auto rebuilt = mdct_synthesize(m, frames);
    ASSERT_EQ(rebuilt.size(), signal.size());
    for (std::size_t i = 0; i < signal.size(); ++i)
        EXPECT_NEAR(rebuilt[i], signal[i], 1e-10) << "sample " << i;
}

TEST(Mdct, ToneEnergyConcentratesInNeighbouringBins) {
    const std::size_t n = 128;
    Mdct m(n);
    std::vector<double> window(2 * n);
    // Bin k of an MDCT of size n corresponds to frequency (k+0.5)/(2n) fs.
    const double k_target = 20.0;
    for (std::size_t i = 0; i < 2 * n; ++i)
        window[i] = std::cos(std::numbers::pi / n * (k_target + 0.5) *
                             (static_cast<double>(i) + 0.5 + n / 2.0));
    const auto coeffs = m.forward(window);
    double peak = 0.0;
    std::size_t peak_k = 0;
    for (std::size_t k = 0; k < n; ++k)
        if (std::abs(coeffs[k]) > peak) {
            peak = std::abs(coeffs[k]);
            peak_k = k;
        }
    EXPECT_EQ(peak_k, static_cast<std::size_t>(k_target));
}

// The direct formula, one std::cos per term, in the expression and
// summation order Mdct keeps: the table must reproduce it bit for bit.
double reference_basis(std::size_t n, std::size_t i, std::size_t k) {
    const double nd = static_cast<double>(n);
    return std::cos(std::numbers::pi / nd * (static_cast<double>(i) + 0.5 + nd / 2.0) *
                    (static_cast<double>(k) + 0.5));
}

std::vector<double> reference_forward(const Mdct& m, const std::vector<double>& x) {
    const std::size_t n = m.size();
    std::vector<double> out(n);
    for (std::size_t k = 0; k < n; ++k) {
        double acc = 0.0;
        for (std::size_t i = 0; i < 2 * n; ++i)
            acc += m.window(i) * x[i] * reference_basis(n, i, k);
        out[k] = acc;
    }
    return out;
}

std::vector<double> reference_inverse(const Mdct& m, const std::vector<double>& coeffs) {
    const std::size_t n = m.size();
    std::vector<double> out(2 * n);
    for (std::size_t i = 0; i < 2 * n; ++i) {
        double acc = 0.0;
        for (std::size_t k = 0; k < n; ++k) acc += coeffs[k] * reference_basis(n, i, k);
        out[i] = 2.0 / static_cast<double>(n) * acc * m.window(i);
    }
    return out;
}

TEST(Mdct, ForwardAndInverseMatchTheDirectFormulaBitForBit) {
    for (const std::size_t n : {16u, 64u, 128u}) {
        const Mdct m(n);
        for (std::size_t i = 0; i < 2 * n; ++i)
            EXPECT_EQ(m.window(i), std::sin(std::numbers::pi / (2.0 * static_cast<double>(n)) *
                                            (static_cast<double>(i) + 0.5)));
        for (std::uint64_t seed = 1; seed <= 4; ++seed) {
            const auto window = random_signal(2 * n, 100 * n + seed);
            const auto coeffs = random_signal(n, 200 * n + seed);
            const auto fwd = m.forward(window);
            const auto fwd_ref = reference_forward(m, window);
            const auto inv = m.inverse(coeffs);
            const auto inv_ref = reference_inverse(m, coeffs);
            for (std::size_t k = 0; k < n; ++k)
                EXPECT_EQ(fwd[k], fwd_ref[k]) << "n=" << n << " seed=" << seed << " k=" << k;
            for (std::size_t i = 0; i < 2 * n; ++i)
                EXPECT_EQ(inv[i], inv_ref[i]) << "n=" << n << " seed=" << seed << " i=" << i;
        }
    }
}

TEST(Mdct, ConcurrentConstructionAndForwardAgree) {
    // Two threads race to build and read the shared table of one size
    // (a ThreadSanitizer build runs this under the `parallel` label).
    const auto window = random_signal(128, 5);
    std::vector<double> results[2];
    std::thread threads[2];
    for (int t = 0; t < 2; ++t)
        threads[t] = std::thread([&window, &out = results[t]] {
            for (int rep = 0; rep < 50; ++rep) out = Mdct(64).forward(window);
        });
    for (auto& th : threads) th.join();
    EXPECT_EQ(results[0], results[1]);
    EXPECT_EQ(results[0], reference_forward(Mdct(64), window));
}

TEST(MdctAnalyze, FrameCountIsHopsPlusOne) {
    Mdct m(32);
    const auto frames = mdct_analyze(m, random_signal(32 * 5, 4));
    EXPECT_EQ(frames.size(), 6u);
    for (const auto& f : frames) EXPECT_EQ(f.size(), 32u);
}

TEST(MdctAnalyze, RejectsNonMultipleLength) {
    Mdct m(32);
    EXPECT_THROW(mdct_analyze(m, std::vector<double>(33)), snoc::ContractViolation);
}

class MdctSizeSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MdctSizeSweep, TdacHoldsForAllSizes) {
    const std::size_t n = GetParam();
    Mdct m(n);
    const auto signal = random_signal(4 * n, n);
    const auto rebuilt = mdct_synthesize(m, mdct_analyze(m, signal));
    double err = 0.0;
    for (std::size_t i = 0; i < signal.size(); ++i)
        err = std::max(err, std::abs(rebuilt[i] - signal[i]));
    EXPECT_LT(err, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Sizes, MdctSizeSweep, ::testing::Values(8, 16, 32, 128, 256));

} // namespace
} // namespace snoc::apps
