// The declarative experiment runner (sim/scenario.hpp): cell enumeration,
// the seeding/retry contract, aggregation semantics, and the headline
// determinism property — a sweep must produce bit-identical RunReports
// for any --jobs value.  Run under ThreadSanitizer via
// `cmake -DSNOC_SANITIZE=thread` + `ctest -L scenario`.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/expect.hpp"
#include "common/prof.hpp"
#include "sim/backends.hpp"
#include "sim/scenario.hpp"

namespace snoc {
namespace {

TrafficTrace small_trace() {
    TrafficTrace trace;
    TrafficPhase phase;
    phase.messages.push_back({0, 24, 256});
    phase.messages.push_back({24, 0, 256});
    trace.phases.push_back(phase);
    return trace;
}

ExperimentSpec trivial_spec() {
    ExperimentSpec spec;
    spec.trial = [](const SweepPoint&, std::uint64_t seed, TraceSink*) {
        RunReport r;
        r.completed = true;
        r.rounds = static_cast<Round>(seed);
        return r;
    };
    return spec;
}

TEST(ScenarioRunner, RequiresExactlyOneExecutionFlavour) {
    ExperimentSpec neither;
    EXPECT_THROW(ScenarioRunner{neither}, ContractViolation);

    ExperimentSpec both = trivial_spec();
    both.backend = [](const SweepPoint&, std::uint64_t seed) {
        return make_interconnect(BackendKind::Bus, FaultScenario::none(), seed);
    };
    both.trace = [](const SweepPoint&) { return TrafficTrace{}; };
    EXPECT_THROW(ScenarioRunner{both}, ContractViolation);

    EXPECT_NO_THROW(ScenarioRunner{trivial_spec()});
}

TEST(ScenarioRunner, CellsEnumerateRowMajor) {
    ExperimentSpec spec = trivial_spec();
    spec.axes = {{"a", {1, 2}}, {"b", {10, 20, 30}}};
    const auto cells = ScenarioRunner(spec).cells();
    ASSERT_EQ(cells.size(), 6u);
    // First axis slowest: (1,10) (1,20) (1,30) (2,10) (2,20) (2,30).
    EXPECT_DOUBLE_EQ(cells[0].value("a"), 1.0);
    EXPECT_DOUBLE_EQ(cells[0].value("b"), 10.0);
    EXPECT_DOUBLE_EQ(cells[2].value("b"), 30.0);
    EXPECT_DOUBLE_EQ(cells[3].value("a"), 2.0);
    EXPECT_DOUBLE_EQ(cells[3].value("b"), 10.0);
    EXPECT_EQ(cells[5].index_of("a"), 1u);
    EXPECT_EQ(cells[5].index_of("b"), 2u);
    EXPECT_EQ(cells[0].label(), "a=1 b=10");
}

TEST(SweepPoint, UnknownAxisThrows) {
    ExperimentSpec spec = trivial_spec();
    spec.axes = {{"p", {0.5}}};
    const auto cells = ScenarioRunner(spec).cells();
    EXPECT_THROW(cells[0].value("q"), ContractViolation);
    EXPECT_THROW(cells[0].index_of("q"), ContractViolation);
}

TEST(ScenarioRunner, RepeatSeedsAreBaseSeedPlusRepeat) {
    ExperimentSpec spec = trivial_spec();
    spec.repeats = 4;
    spec.base_seed = 100;
    const auto cells = ScenarioRunner(spec).run();
    ASSERT_EQ(cells.size(), 1u);
    ASSERT_EQ(cells[0].reports.size(), 4u);
    for (std::size_t r = 0; r < 4; ++r) {
        EXPECT_EQ(cells[0].reports[r].seed, 100u + r);
        EXPECT_EQ(cells[0].reports[r].attempts, 1u);
    }
}

TEST(ScenarioRunner, RetryPolicyRederivesSeedsAndStops) {
    // Completes only once the seed jumps two strides out.
    ExperimentSpec spec;
    spec.repeats = 1;
    spec.base_seed = 5;
    spec.max_attempts = 10;
    spec.retry_seed_stride = 100;
    spec.trial = [](const SweepPoint&, std::uint64_t seed, TraceSink*) {
        RunReport r;
        r.completed = seed >= 205;
        return r;
    };
    const auto cells = ScenarioRunner(spec).run();
    const RunReport& r = cells[0].reports[0];
    EXPECT_TRUE(r.completed);
    EXPECT_EQ(r.seed, 205u); // 5, 105, 205 — third attempt.
    EXPECT_EQ(r.attempts, 3u);
    EXPECT_EQ(cells[0].stats.attempts, 3u);
}

TEST(ScenarioRunner, RetryCapBoundsAttempts) {
    // The old fig4_6 loop retried forever; the runner must stop at the cap.
    ExperimentSpec spec;
    spec.max_attempts = 7;
    spec.trial = [](const SweepPoint&, std::uint64_t, TraceSink*) {
        return RunReport{}; // never completes.
    };
    const auto cells = ScenarioRunner(spec).run();
    const RunReport& r = cells[0].reports[0];
    EXPECT_FALSE(r.completed);
    EXPECT_EQ(r.attempts, 7u);
    EXPECT_DOUBLE_EQ(cells[0].stats.completion_rate, 0.0);
}

TEST(ScenarioRunner, ExtrasSurviveRetriesAndAggregateIgnoresThem) {
    // Each repeat completes on its third attempt; the reported attempt's
    // bench-defined extras must reach the cell untouched.
    ExperimentSpec spec;
    spec.repeats = 2;
    spec.max_attempts = 3;
    spec.trial = [](const SweepPoint&, std::uint64_t seed, TraceSink*) {
        RunReport r;
        r.completed = seed >= 200;
        r.rounds = 4;
        r.transmissions = 10 + seed;
        r.extras = {static_cast<double>(seed), 0.5};
        return r;
    };
    const auto cells = ScenarioRunner(spec).run();
    const auto& reports = cells[0].reports;
    ASSERT_EQ(reports.size(), 2u);
    for (std::size_t i = 0; i < reports.size(); ++i) {
        EXPECT_EQ(reports[i].attempts, 3u);
        EXPECT_EQ(reports[i].extras,
                  (std::vector<double>{200.0 + static_cast<double>(i), 0.5}));
    }

    std::vector<RunReport> scrambled = reports;
    for (auto& r : scrambled) r.extras = {1e9, -1e9, 7.0};
    const CellStats with = aggregate(reports);
    const CellStats without = aggregate(scrambled);
    EXPECT_EQ(with.completion_rate, without.completion_rate);
    EXPECT_EQ(with.rounds, without.rounds);
    EXPECT_EQ(with.transmissions, without.transmissions);
    EXPECT_EQ(with.attempts, without.attempts);
    EXPECT_DOUBLE_EQ(cells[0].stats.transmissions, 210.5);
}

TEST(ScenarioRunner, ProfScopeTimesEveryAttempt) {
    ExperimentSpec spec;
    spec.repeats = 2;
    spec.max_attempts = 3;
    spec.jobs = 1;
    spec.trial = [](const SweepPoint&, std::uint64_t, TraceSink*) {
        return RunReport{}; // never completes: 3 attempts per repeat.
    };
    prof::reset();
    (void)ScenarioRunner(spec).run();
    EXPECT_EQ(prof::snapshot().count("scenario/trial"), 0u) << "recorded while off";
    prof::set_enabled(true);
    (void)ScenarioRunner(spec).run();
    prof::set_enabled(false);
    EXPECT_EQ(prof::snapshot()["scenario/trial"].calls, 6u);
    prof::reset();
}

TEST(Aggregate, MeansAreOverCompletedRunsOnly) {
    std::vector<RunReport> reports(4);
    reports[0].completed = true;
    reports[0].rounds = 10;
    reports[0].transmissions = 100;
    reports[1].completed = false;
    reports[1].rounds = 999; // must not pollute the means.
    reports[2].completed = true;
    reports[2].rounds = 20;
    reports[2].transmissions = 300;
    reports[3].completed = false;
    const CellStats stats = aggregate(reports);
    EXPECT_DOUBLE_EQ(stats.completion_rate, 0.5);
    EXPECT_DOUBLE_EQ(stats.rounds, 15.0);
    EXPECT_DOUBLE_EQ(stats.transmissions, 200.0);
}

TEST(Aggregate, EmptyAndAllIncompleteAreZero) {
    EXPECT_DOUBLE_EQ(aggregate({}).completion_rate, 0.0);
    std::vector<RunReport> incomplete(3);
    const CellStats stats = aggregate(incomplete);
    EXPECT_DOUBLE_EQ(stats.completion_rate, 0.0);
    EXPECT_DOUBLE_EQ(stats.rounds, 0.0);
}

// The headline property: a real gossip sweep is bit-identical whether the
// fan-out uses one worker or eight.
TEST(ScenarioRunner, SweepIsDeterministicAcrossJobCounts) {
    const auto run_with_jobs = [](std::size_t jobs) {
        ExperimentSpec spec;
        spec.axes = {{"p_tiles", {0.0, 0.1, 0.2}}};
        spec.repeats = 4;
        spec.jobs = jobs;
        spec.max_rounds = 500;
        spec.backend = [](const SweepPoint& pt, std::uint64_t seed) {
            GossipSpec gspec;
            gspec.config.forward_p = 0.5;
            gspec.config.default_ttl = 40;
            gspec.protect = {0, 24};
            FaultScenario scenario;
            scenario.p_tiles = pt.value("p_tiles");
            return std::make_unique<GossipAdapter>(std::move(gspec), scenario,
                                                   seed);
        };
        spec.trace = [](const SweepPoint&) { return small_trace(); };
        return ScenarioRunner(spec).run();
    };
    const auto serial = run_with_jobs(1);
    const auto parallel = run_with_jobs(8);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t c = 0; c < serial.size(); ++c) {
        ASSERT_EQ(serial[c].reports.size(), parallel[c].reports.size());
        for (std::size_t r = 0; r < serial[c].reports.size(); ++r) {
            const RunReport& a = serial[c].reports[r];
            const RunReport& b = parallel[c].reports[r];
            EXPECT_EQ(a.completed, b.completed) << c << "," << r;
            EXPECT_EQ(a.rounds, b.rounds) << c << "," << r;
            EXPECT_EQ(a.transmissions, b.transmissions) << c << "," << r;
            EXPECT_EQ(a.bits, b.bits) << c << "," << r;
            EXPECT_EQ(a.deliveries, b.deliveries) << c << "," << r;
            EXPECT_EQ(a.seed, b.seed) << c << "," << r;
            EXPECT_DOUBLE_EQ(a.seconds, b.seconds) << c << "," << r;
        }
        EXPECT_DOUBLE_EQ(serial[c].stats.rounds, parallel[c].stats.rounds);
        EXPECT_DOUBLE_EQ(serial[c].stats.completion_rate,
                         parallel[c].stats.completion_rate);
    }
}

} // namespace
} // namespace snoc
