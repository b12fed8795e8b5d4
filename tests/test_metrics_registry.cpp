// MetricsRegistry tests: typed cell semantics (counter/gauge/histogram),
// deterministic snapshots, and the golden JSON + Prometheus expositions
// snoc_lint cross-checks against the SNOC_METRIC_LIST registry (every
// wire name must appear in both goldens; the lint holds them in
// lock-step with the X-macro table).
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "telemetry/metrics_registry.hpp"

namespace snoc {
namespace {

TEST(MetricsRegistry, CountersAccumulate) {
    MetricsRegistry reg;
    EXPECT_EQ(reg.value(MetricId::TrialsTotal), 0u);
    reg.inc(MetricId::TrialsTotal);
    reg.inc(MetricId::TrialsTotal, 41);
    EXPECT_EQ(reg.value(MetricId::TrialsTotal), 42u);
}

TEST(MetricsRegistry, GaugesMoveBothWays) {
    MetricsRegistry reg;
    reg.set(MetricId::ActiveTrials, 5);
    reg.inc(MetricId::ActiveTrials, 2);
    reg.dec(MetricId::ActiveTrials, 3);
    EXPECT_EQ(reg.value(MetricId::ActiveTrials), 4u);
    reg.set(MetricId::LastSweepCells, 9);
    EXPECT_EQ(reg.value(MetricId::LastSweepCells), 9u);
}

TEST(MetricsRegistry, HistogramBucketsAreCumulative) {
    MetricsRegistry reg;
    reg.observe(MetricId::TrialRounds, 1);   // bucket le=1
    reg.observe(MetricId::TrialRounds, 3);   // bucket le=4
    reg.observe(MetricId::TrialRounds, 100); // bucket le=128
    reg.observe(MetricId::TrialRounds, 1u << 20); // +Inf only
    EXPECT_EQ(reg.histogram_count(MetricId::TrialRounds), 4u);
    EXPECT_EQ(reg.histogram_sum(MetricId::TrialRounds),
              1u + 3u + 100u + (1u << 20));
    // Cumulative le semantics: each bucket counts everything at or below.
    EXPECT_EQ(reg.histogram_bucket(MetricId::TrialRounds, 0), 1u);  // le=1
    EXPECT_EQ(reg.histogram_bucket(MetricId::TrialRounds, 2), 2u);  // le=4
    EXPECT_EQ(reg.histogram_bucket(MetricId::TrialRounds, 7), 3u);  // le=128
    EXPECT_EQ(reg.histogram_bucket(MetricId::TrialRounds,
                                   kHistogramBucketCount - 1),
              4u); // +Inf
}

TEST(MetricsRegistry, ResetZeroesEverything) {
    MetricsRegistry reg;
    reg.inc(MetricId::SweepsTotal, 3);
    reg.observe(MetricId::TrialDeliveries, 17);
    reg.reset();
    EXPECT_EQ(reg.value(MetricId::SweepsTotal), 0u);
    EXPECT_EQ(reg.histogram_count(MetricId::TrialDeliveries), 0u);
    EXPECT_EQ(reg.histogram_bucket(MetricId::TrialDeliveries,
                                   kHistogramBucketCount - 1),
              0u);
}

TEST(MetricsRegistry, DescTableIsConsistent) {
    // Wire names are unique and Prometheus-legal; kinds are filled in.
    for (std::size_t i = 0; i < kMetricCount; ++i) {
        const MetricDesc& d = kMetricDescs[i];
        ASSERT_NE(d.wire, nullptr);
        ASSERT_NE(d.help, nullptr);
        EXPECT_EQ(std::string(d.wire).find_first_not_of(
                      "abcdefghijklmnopqrstuvwxyz0123456789_"),
                  std::string::npos)
            << d.wire;
        for (std::size_t j = i + 1; j < kMetricCount; ++j)
            EXPECT_STRNE(d.wire, kMetricDescs[j].wire);
    }
}

/// Fill every metric with a distinct, deterministic pattern so the
/// goldens exercise non-zero values for all 17 entries.
void fill(MetricsRegistry& reg) {
    for (std::size_t i = 0; i < kMetricCount; ++i) {
        const auto id = static_cast<MetricId>(i);
        switch (metric_desc(id).kind) {
        case MetricKind::Counter: reg.inc(id, 10 * (i + 1)); break;
        case MetricKind::Gauge: reg.set(id, i + 1); break;
        case MetricKind::Histogram:
            reg.observe(id, 1);
            reg.observe(id, 5 * (i + 1));
            reg.observe(id, 2000);
            break;
        }
    }
}

TEST(MetricsRegistry, SnapshotsAreDeterministic) {
    MetricsRegistry a;
    MetricsRegistry b;
    fill(a);
    fill(b);
    std::ostringstream ja, jb, pa, pb;
    a.write_json(ja);
    b.write_json(jb);
    a.write_prometheus(pa);
    b.write_prometheus(pb);
    EXPECT_EQ(ja.str(), jb.str());
    EXPECT_EQ(pa.str(), pb.str());
    // A snapshot is read-only: writing twice off one registry matches too.
    std::ostringstream ja2;
    a.write_json(ja2);
    EXPECT_EQ(ja.str(), ja2.str());
}

class ExpositionGolden : public ::testing::TestWithParam<const char*> {};

TEST_P(ExpositionGolden, MatchesCommittedBytes) {
    const std::string which = GetParam();
    MetricsRegistry reg;
    fill(reg);
    std::ostringstream os;
    if (which == "json")
        reg.write_json(os);
    else
        reg.write_prometheus(os);
    const std::string image = os.str();

    // Every wire name must appear in the exposition — the invariant
    // snoc_lint's registry check leans on.
    for (std::size_t i = 0; i < kMetricCount; ++i)
        EXPECT_NE(image.find(kMetricDescs[i].wire), std::string::npos)
            << kMetricDescs[i].wire << " missing from " << which;

    const std::string path = std::string(SNOC_GOLDEN_DIR) +
                             "/metrics_registry." + which + ".golden";
    if (std::getenv("SNOC_UPDATE_GOLDEN") != nullptr) {
        std::ofstream out(path, std::ios::binary);
        ASSERT_TRUE(out.good()) << "cannot write " << path;
        out << image;
        GTEST_SKIP() << "golden updated: " << path;
    }
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.good()) << "missing golden " << path
                           << " (run with SNOC_UPDATE_GOLDEN=1 to capture)";
    std::ostringstream golden;
    golden << in.rdbuf();
    EXPECT_EQ(image, golden.str());
}

INSTANTIATE_TEST_SUITE_P(Expositions, ExpositionGolden,
                         ::testing::Values("json", "prom"));

} // namespace
} // namespace snoc
