#include "common/stats.hpp"

#include <cmath>

#include <gtest/gtest.h>

#include "common/expect.hpp"

namespace snoc {
namespace {

TEST(Accumulator, EmptyState) {
    Accumulator a;
    EXPECT_TRUE(a.empty());
    EXPECT_EQ(a.count(), 0u);
    EXPECT_THROW(a.mean(), ContractViolation);
    EXPECT_THROW(a.min(), ContractViolation);
    EXPECT_THROW(a.max(), ContractViolation);
}

TEST(Accumulator, SingleSample) {
    Accumulator a;
    a.add(42.0);
    EXPECT_DOUBLE_EQ(a.mean(), 42.0);
    EXPECT_DOUBLE_EQ(a.variance(), 0.0);
    EXPECT_DOUBLE_EQ(a.min(), 42.0);
    EXPECT_DOUBLE_EQ(a.max(), 42.0);
    EXPECT_DOUBLE_EQ(a.sum(), 42.0);
}

TEST(Accumulator, KnownMeanAndVariance) {
    Accumulator a;
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) a.add(x);
    EXPECT_DOUBLE_EQ(a.mean(), 5.0);
    // Sample variance with n-1: sum of squares = 32, /7.
    EXPECT_NEAR(a.variance(), 32.0 / 7.0, 1e-12);
    EXPECT_NEAR(a.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
    EXPECT_DOUBLE_EQ(a.min(), 2.0);
    EXPECT_DOUBLE_EQ(a.max(), 9.0);
}

TEST(Accumulator, MergeMatchesSequential) {
    Accumulator whole, left, right;
    for (int i = 0; i < 50; ++i) {
        const double x = 0.37 * i * i - 3.0 * i + 1.0;
        whole.add(x);
        (i < 20 ? left : right).add(x);
    }
    left.merge(right);
    EXPECT_EQ(left.count(), whole.count());
    EXPECT_NEAR(left.mean(), whole.mean(), 1e-9);
    EXPECT_NEAR(left.variance(), whole.variance(), 1e-9);
    EXPECT_DOUBLE_EQ(left.min(), whole.min());
    EXPECT_DOUBLE_EQ(left.max(), whole.max());
}

TEST(Accumulator, MergeWithEmpty) {
    Accumulator a, empty;
    a.add(1.0);
    a.add(3.0);
    a.merge(empty);
    EXPECT_EQ(a.count(), 2u);
    EXPECT_DOUBLE_EQ(a.mean(), 2.0);
    empty.merge(a);
    EXPECT_EQ(empty.count(), 2u);
    EXPECT_DOUBLE_EQ(empty.mean(), 2.0);
}

TEST(SampleSet, PercentilesInterpolate) {
    SampleSet s;
    for (double x : {10.0, 20.0, 30.0, 40.0}) s.add(x);
    EXPECT_DOUBLE_EQ(s.percentile(0.0), 10.0);
    EXPECT_DOUBLE_EQ(s.percentile(1.0), 40.0);
    EXPECT_DOUBLE_EQ(s.median(), 25.0);
    EXPECT_DOUBLE_EQ(s.percentile(1.0 / 3.0), 20.0);
}

TEST(SampleSet, PercentileSingleSample) {
    SampleSet s;
    s.add(7.0);
    EXPECT_DOUBLE_EQ(s.percentile(0.5), 7.0);
    EXPECT_DOUBLE_EQ(s.ci95_halfwidth(), 0.0);
}

TEST(SampleSet, RejectsBadQuantile) {
    SampleSet s;
    s.add(1.0);
    EXPECT_THROW(s.percentile(-0.1), ContractViolation);
    EXPECT_THROW(s.percentile(1.1), ContractViolation);
}

TEST(SampleSet, CiShrinksWithSamples) {
    SampleSet small, large;
    for (int i = 0; i < 10; ++i) small.add(i % 2 ? 1.0 : -1.0);
    for (int i = 0; i < 1000; ++i) large.add(i % 2 ? 1.0 : -1.0);
    EXPECT_GT(small.ci95_halfwidth(), large.ci95_halfwidth());
}

TEST(SampleSet, AddingInvalidatesSortCache) {
    SampleSet s;
    s.add(5.0);
    EXPECT_DOUBLE_EQ(s.median(), 5.0);
    s.add(1.0);
    s.add(9.0);
    EXPECT_DOUBLE_EQ(s.median(), 5.0);
    s.add(100.0);
    EXPECT_DOUBLE_EQ(s.percentile(1.0), 100.0);
}

TEST(Histogram, BucketsAndClamping) {
    Histogram h(0.0, 10.0, 5);
    h.add(0.5);   // bucket 0
    h.add(9.9);   // bucket 4
    h.add(-3.0);  // clamps to 0
    h.add(42.0);  // clamps to 4
    h.add(5.0);   // bucket 2
    EXPECT_EQ(h.total(), 5u);
    EXPECT_EQ(h.count(0), 2u);
    EXPECT_EQ(h.count(2), 1u);
    EXPECT_EQ(h.count(4), 2u);
    EXPECT_DOUBLE_EQ(h.bucket_center(0), 1.0);
    EXPECT_DOUBLE_EQ(h.bucket_center(4), 9.0);
}

TEST(Histogram, RejectsDegenerateRange) {
    EXPECT_THROW(Histogram(1.0, 1.0, 4), ContractViolation);
    EXPECT_THROW(Histogram(0.0, 1.0, 0), ContractViolation);
}

TEST(Regression, ExactLineRecovered) {
    Regression r;
    for (double x : {0.0, 1.0, 2.0, 3.0, 4.0}) r.add(x, 3.0 * x - 2.0);
    const auto fit = r.fit();
    EXPECT_NEAR(fit.slope, 3.0, 1e-12);
    EXPECT_NEAR(fit.intercept, -2.0, 1e-12);
    EXPECT_NEAR(fit.r_squared, 1.0, 1e-12);
}

TEST(Regression, NegativeCorrelation) {
    Regression r;
    for (double x : {0.0, 1.0, 2.0, 3.0}) r.add(x, 10.0 - 2.0 * x);
    EXPECT_NEAR(r.fit().slope, -2.0, 1e-12);
}

TEST(Regression, NoisyDataLowersR2) {
    Regression r;
    const double noise[] = {0.5, -1.0, 0.8, -0.3, 0.6, -0.7, 0.2, -0.4};
    for (int i = 0; i < 8; ++i) r.add(i, 2.0 * i + noise[i]);
    const auto fit = r.fit();
    EXPECT_NEAR(fit.slope, 2.0, 0.2);
    EXPECT_LT(fit.r_squared, 1.0);
    EXPECT_GT(fit.r_squared, 0.9);
}

TEST(Regression, ConstantYIsPerfectFlatFit) {
    Regression r;
    for (double x : {1.0, 2.0, 3.0}) r.add(x, 7.0);
    const auto fit = r.fit();
    EXPECT_NEAR(fit.slope, 0.0, 1e-12);
    EXPECT_NEAR(fit.intercept, 7.0, 1e-12);
    EXPECT_DOUBLE_EQ(fit.r_squared, 1.0);
}

TEST(Regression, DegenerateInputsRejected) {
    Regression r;
    r.add(1.0, 2.0);
    EXPECT_THROW(r.fit(), ContractViolation); // one point
    r.add(1.0, 5.0);
    EXPECT_THROW(r.fit(), ContractViolation); // zero x variance
}

// Property sweep: Welford mean equals naive mean for many shapes.
class AccumulatorSweep : public ::testing::TestWithParam<int> {};

TEST_P(AccumulatorSweep, MeanMatchesNaive) {
    const int n = GetParam();
    Accumulator a;
    double sum = 0.0;
    for (int i = 0; i < n; ++i) {
        const double x = std::sin(0.1 * i) * 100.0 + i;
        a.add(x);
        sum += x;
    }
    EXPECT_NEAR(a.mean(), sum / n, 1e-9 * n);
    EXPECT_EQ(a.count(), static_cast<std::size_t>(n));
}

INSTANTIATE_TEST_SUITE_P(Sizes, AccumulatorSweep, ::testing::Values(1, 2, 7, 64, 1000));

} // namespace
} // namespace snoc
