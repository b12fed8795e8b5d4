// The parallel Monte-Carlo trial runner (common/parallel.hpp) and its
// determinism contract: run_trials must return bit-identical results for
// any worker count, because every figure and ablation now routes its seed
// loop through it.  Run these under ThreadSanitizer via
// `cmake -DSNOC_SANITIZE=thread` + `ctest -L parallel`.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "bench_util.hpp"
#include "common/parallel.hpp"

namespace snoc {
namespace {

TEST(DefaultJobs, IsPositive) { EXPECT_GE(default_jobs(), 1u); }

TEST(ThreadPool, RunsSubmittedJobs) {
    ThreadPool pool(3);
    EXPECT_EQ(pool.size(), 3u);
    std::atomic<int> counter{0};
    for (int i = 0; i < 100; ++i)
        pool.submit([&counter] { counter.fetch_add(1); });
    pool.wait_idle();
    EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, WaitIdleOnEmptyPoolReturns) {
    ThreadPool pool(2);
    pool.wait_idle(); // must not deadlock with nothing queued
}

TEST(RunTrials, ResultsAreIndexedByTrial) {
    const auto results =
        run_trials(64, [](std::uint64_t i) { return i * i; }, 4);
    ASSERT_EQ(results.size(), 64u);
    for (std::uint64_t i = 0; i < 64; ++i) EXPECT_EQ(results[i], i * i);
}

TEST(RunTrials, ZeroTrialsYieldsEmpty) {
    const auto results = run_trials(0, [](std::uint64_t) { return 1; }, 4);
    EXPECT_TRUE(results.empty());
}

TEST(RunTrials, SerialPathMatchesParallelPath) {
    auto fn = [](std::uint64_t i) {
        RngStream rng(splitmix64(i));
        double acc = 0.0;
        for (int k = 0; k < 1000; ++k) acc += rng.uniform();
        return acc;
    };
    const auto serial = run_trials(32, fn, 1);
    const auto parallel = run_trials(32, fn, 4);
    EXPECT_EQ(serial, parallel); // bit-identical, not approximately equal
}

TEST(RunTrials, MoreJobsThanTrialsIsFine) {
    const auto results =
        run_trials(3, [](std::uint64_t i) { return i + 1; }, 16);
    EXPECT_EQ(results, (std::vector<std::uint64_t>{1, 2, 3}));
}

TEST(RunTrials, FirstExceptionPropagates) {
    auto boom = [](std::uint64_t i) -> int {
        if (i == 5) throw std::runtime_error("trial 5 failed");
        return static_cast<int>(i);
    };
    EXPECT_THROW((void)run_trials(16, boom, 4), std::runtime_error);
    EXPECT_THROW((void)run_trials(16, boom, 1), std::runtime_error);
}

// The headline determinism property: a full application trial (the pi
// Master-Slave workload, gossip network and all) produces identical
// per-seed measurements whether the fan-out uses one worker or four.
TEST(RunTrials, AppTrialsAreBitIdenticalAcrossJobCounts) {
    auto trial = [](std::uint64_t seed) {
        return bench::run_pi_once(bench::config_with_p(0.5, 30),
                                  FaultScenario::none(), 1, seed);
    };
    const auto serial = run_trials(6, trial, 1);
    const auto parallel = run_trials(6, trial, 4);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i].completed, parallel[i].completed) << i;
        EXPECT_EQ(serial[i].rounds, parallel[i].rounds) << i;
        EXPECT_EQ(serial[i].transmissions, parallel[i].transmissions) << i;
        EXPECT_EQ(serial[i].bits, parallel[i].bits) << i;
        EXPECT_DOUBLE_EQ(serial[i].seconds, parallel[i].seconds) << i;
    }
}

} // namespace
} // namespace snoc
