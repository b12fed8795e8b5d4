// Tests of the benchmark's own arithmetic: percentile ranks and their
// tail samples, span self time, failure share, and the simulated counts
// that must repeat exactly between two runs at one seed.
//
//   cmake --build build-perfbench --target perfbench_tests
//   ctest --test-dir build-perfbench --output-on-failure
#include <gtest/gtest.h>

#include <numeric>
#include <stdexcept>

#include "bench_math.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

std::vector<double> one_to(std::size_t n) {
    std::vector<double> v(n);
    std::iota(v.begin(), v.end(), 1.0);
    return v;
}

TEST(Percentile, NearestRankOnUnsortedSamples) {
    std::vector<double> v = one_to(100);
    std::reverse(v.begin(), v.end());
    EXPECT_EQ(percentile(v, 50), 50.0);
    EXPECT_EQ(percentile(v, 90), 90.0);
    EXPECT_EQ(percentile(v, 100), 100.0);
    EXPECT_EQ(percentile({7.0}, 90), 7.0);
    EXPECT_EQ(percentile(one_to(10), 95), 10.0);
    EXPECT_THROW(percentile({}, 50), std::invalid_argument);
    EXPECT_THROW(percentile({1.0}, 0), std::invalid_argument);
}

TEST(Percentile, P90NeedsOneHundredSamplesForATailOfTen) {
    EXPECT_EQ(samples_above(100, 90), 10u);
    EXPECT_EQ(samples_above(99, 90), 9u);
    EXPECT_EQ(samples_above(1000, 99), 10u);
    EXPECT_EQ(min_samples_for(90, 10), 100u);
    EXPECT_EQ(min_samples_for(99, 10), 1000u);
    // Every sample above the reported value really is larger.
    const auto v = one_to(137);
    const double p90 = percentile(v, 90);
    std::size_t above = 0;
    for (double x : v) above += x > p90 ? 1 : 0;
    EXPECT_EQ(above, samples_above(v.size(), 90));
    EXPECT_GE(above, 10u);
}

TEST(FailureShare, CountsFailuresAgainstAttempts) {
    EXPECT_EQ(failure_share(0, 100), 0.0);
    EXPECT_DOUBLE_EQ(failure_share(3, 120), 0.025);
    EXPECT_EQ(failure_share(5, 5), 1.0);
    EXPECT_THROW(failure_share(0, 0), std::invalid_argument);
    EXPECT_THROW(failure_share(6, 5), std::invalid_argument);
}

TEST(SelfTime, SubtractsTheTimeDirectChildrenCover) {
    // root [0,10] > a [1,4] > a1 [2,3];  root > b [5,9]
    const std::vector<Span> spans{
        {"root", 0, -1, 0.0, 10.0},
        {"a", 0, 0, 1.0, 4.0},
        {"a1", 0, 1, 2.0, 3.0},
        {"b", 0, 0, 5.0, 9.0},
    };
    const auto self = self_times(spans);
    EXPECT_DOUBLE_EQ(self[0], 3.0); // 10 - 3 - 4; a1 is a's child, not root's
    EXPECT_DOUBLE_EQ(self[1], 2.0);
    EXPECT_DOUBLE_EQ(self[2], 1.0);
    EXPECT_DOUBLE_EQ(self[3], 4.0);

    std::map<std::string, LayerTotal> totals;
    accumulate_layers(spans, totals);
    EXPECT_EQ(totals["a"].calls, 1u);
    EXPECT_DOUBLE_EQ(totals["root"].seconds, 10.0);
    EXPECT_DOUBLE_EQ(totals["root"].self_seconds, 3.0);
}

TEST(SelfTime, OverlappingAndOverhangingChildrenCountOnce) {
    const std::vector<Span> spans{
        {"root", 0, -1, 0.0, 10.0},
        {"x", 0, 0, 1.0, 5.0},
        {"y", 0, 0, 3.0, 6.0},  // overlaps x by 2
        {"z", 0, 0, 8.0, 12.0}, // runs past the root's end
    };
    EXPECT_DOUBLE_EQ(self_times(spans)[0], 10.0 - 5.0 - 2.0);
}

TEST(Tracer, ScopedSpansNestAndShareTheTrialId) {
    Tracer tracer(42);
    {
        ScopedSpan root(&tracer, "trial");
        { ScopedSpan a(&tracer, "a"); }
        {
            ScopedSpan b(&tracer, "b");
            ScopedSpan c(&tracer, "c");
        }
    }
    const auto& s = tracer.spans();
    ASSERT_EQ(s.size(), 4u);
    EXPECT_EQ(s[0].parent, -1);
    EXPECT_EQ(s[1].parent, 0);
    EXPECT_EQ(s[2].parent, 0);
    EXPECT_EQ(s[3].parent, 2);
    for (const auto& span : s) {
        EXPECT_EQ(span.trial, 42u);
        EXPECT_GE(span.end, span.start);
    }
    ScopedSpan untraced(nullptr, "ignored"); // null tracer: a no-op
}

// The count metrics (core.*, router.*, noc.* statistics) are simulated
// quantities: two runs at one seed, in separately built workloads and in
// any trial order, must agree exactly.
TEST(Counts, RepeatExactlyBetweenTwoRuns) {
    for (const auto& name : workload_names()) {
        SCOPED_TRACE(name);
        auto first = make_workload(name);
        auto second = make_workload(name);
        ASSERT_TRUE(first && second);
        constexpr std::size_t kTrials = 3;
        first->build_inputs(11, kTrials);
        second->build_inputs(11, kTrials);
        std::vector<TrialResult> a, b;
        for (std::size_t i = 0; i < kTrials; ++i) a.push_back(first->run(i, false));
        for (std::size_t i = kTrials; i-- > 0;) b.insert(b.begin(), second->run(i, true));
        for (std::size_t i = 0; i < kTrials; ++i) {
            EXPECT_TRUE(a[i].ok) << a[i].error;
            EXPECT_EQ(a[i].stats, b[i].stats);
            EXPECT_EQ(a[i].packets, b[i].packets);
            EXPECT_GT(a[i].packets, 0u);
            EXPECT_TRUE(a[i].spans.empty());
            EXPECT_FALSE(b[i].spans.empty());
        }
        EXPECT_EQ(digest(a), digest(b));
        // A different seed gives different inputs.
        second->build_inputs(12, kTrials);
        std::vector<TrialResult> c;
        for (std::size_t i = 0; i < kTrials; ++i) c.push_back(second->run(i, false));
        EXPECT_NE(digest(a), digest(c));
    }
}

TEST(Workloads, UnknownNameIsRejected) {
    EXPECT_EQ(make_workload("sparse_wavefront"), nullptr);
}

} // namespace
} // namespace perfbench
