// Concurrency stress suite (DESIGN.md §16): hammer the lock-free shared
// state — MetricsRegistry's relaxed atomics — from >= 8 threads and
// assert exact totals afterwards.  Under a plain build these tests check
// the arithmetic contract (relaxed RMWs lose no increments); under
// SNOC_SANITIZE=thread (label `parallel`/`telemetry`, the CI
// thread-sanitizer leg) they are the probes that would surface a
// mis-relaxed ordering.
//
// Registry exposition is deliberately *concurrent* with the writers:
// that is its documented contract — it races with writers by design and
// takes a non-atomic snapshot.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/parallel.hpp"
#include "telemetry/heartbeat.hpp"
#include "telemetry/metrics_registry.hpp"

namespace snoc {
namespace {

constexpr std::size_t kThreads = 8;
constexpr std::size_t kIters = 20'000;

TEST(ConcurrencyStress, MetricsRegistryExactUnderContention) {
    MetricsRegistry reg;
    std::vector<std::thread> writers;
    writers.reserve(kThreads);
    for (std::size_t t = 0; t < kThreads; ++t) {
        writers.emplace_back([&reg] {
            for (std::size_t i = 0; i < kIters; ++i) {
                reg.inc(MetricId::EngineRoundsTotal);
                reg.inc(MetricId::TrialsTotal, 2);
                reg.observe(MetricId::TrialRounds, i % 64);
            }
        });
    }
    // Concurrent readers are part of the contract: exposition takes a
    // non-atomic snapshot while writers run (documented in the header),
    // so both exporters must at least be race-free and well-formed.
    std::atomic<bool> stop{false};
    std::thread reader([&reg, &stop] {
        while (!stop.load(std::memory_order_acquire)) {
            std::ostringstream json, prom;
            reg.write_json(json);
            reg.write_prometheus(prom);
            EXPECT_NE(json.str().find("snoc_engine_rounds_total"),
                      std::string::npos);
            EXPECT_NE(prom.str().find("# TYPE snoc_trial_rounds histogram"),
                      std::string::npos);
        }
    });
    for (auto& w : writers) w.join();
    stop.store(true, std::memory_order_release);
    reader.join();

    EXPECT_EQ(reg.value(MetricId::EngineRoundsTotal), kThreads * kIters);
    EXPECT_EQ(reg.value(MetricId::TrialsTotal), 2 * kThreads * kIters);
    EXPECT_EQ(reg.histogram_count(MetricId::TrialRounds), kThreads * kIters);
    std::uint64_t expected_sum = 0;
    for (std::size_t i = 0; i < kIters; ++i) expected_sum += i % 64;
    EXPECT_EQ(reg.histogram_sum(MetricId::TrialRounds),
              kThreads * expected_sum);
    // +Inf bucket is cumulative over everything observed.
    EXPECT_EQ(reg.histogram_bucket(MetricId::TrialRounds,
                                   kHistogramBucketCount - 1),
              kThreads * kIters);
}

TEST(ConcurrencyStress, RunTrialsFeedsSharedRegistryExactly) {
    // The composition the simulator actually runs: trial workers (the
    // shared ThreadPool, >= 8 lanes of work) bumping the global-style
    // registry through run_trials while a HeartbeatWriter-style reader
    // could snapshot at any time.
    MetricsRegistry reg;
    const auto results = run_trials(
        kThreads * 4,
        [&reg](std::uint64_t trial) {
            for (std::size_t i = 0; i < 1'000; ++i)
                reg.inc(MetricId::TrialsTotal);
            return trial;
        },
        kThreads);
    ASSERT_EQ(results.size(), kThreads * 4);
    for (std::size_t i = 0; i < results.size(); ++i)
        EXPECT_EQ(results[i], i);
    EXPECT_EQ(reg.value(MetricId::TrialsTotal),
              kThreads * 4 * 1'000);
}

TEST(ConcurrencyStress, HeartbeatWriterSerialisesConcurrentUpdates) {
    const std::string path = ::testing::TempDir() + "conc_stress_hb.jsonl";
    constexpr std::size_t kUpdates = 500;
    {
        HeartbeatWriter writer(path, 1);
        std::vector<std::thread> callers;
        callers.reserve(kThreads);
        for (std::size_t t = 0; t < kThreads; ++t) {
            callers.emplace_back([&writer, t] {
                for (std::size_t i = 0; i < kUpdates; ++i) {
                    ProgressUpdate u;
                    u.experiment = "stress";
                    u.trials_total = kThreads * kUpdates;
                    u.trials_done = t * kUpdates + i + 1;
                    writer.update(u);
                }
            });
        }
        for (auto& c : callers) c.join();
        EXPECT_EQ(writer.emitted(), kThreads * kUpdates);
    }
    // Every record made it to disk whole: seq numbers are a permutation
    // of 1..N (the writer's lock serialises emission), lines all parse.
    const auto records = load_heartbeats_file(path);
    ASSERT_EQ(records.size(), kThreads * kUpdates);
    std::vector<bool> seen(kThreads * kUpdates + 1, false);
    for (const auto& r : records) {
        ASSERT_GE(r.seq, 1u);
        ASSERT_LE(r.seq, kThreads * kUpdates);
        EXPECT_FALSE(seen[static_cast<std::size_t>(r.seq)]);
        seen[static_cast<std::size_t>(r.seq)] = true;
    }
    std::remove(path.c_str());
}

} // namespace
} // namespace snoc
