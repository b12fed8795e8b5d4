// Concurrency stress suite (DESIGN.md §16): hammer the lock-free shared
// state — MetricsRegistry's relaxed atomics and FlightRecorder's
// single-writer-per-lane rings — from >= 8 threads and assert exact
// totals afterwards.  Under a plain build these tests check the
// arithmetic contracts (relaxed RMWs lose no increments; lanes merge
// every event); under SNOC_SANITIZE=thread (label `parallel`/`telemetry`,
// the CI thread-sanitizer leg) they are the probes that would surface a
// mis-relaxed ordering or a lane accidentally shared between writers.
//
// The drain/size/write_* calls are deliberately *barriered* for the
// flight recorder (after join) and deliberately *concurrent* for the
// registry: that is each component's documented contract — recorder
// lanes are single-writer with a join before the merge, registry
// exposition races with writers by design and takes a non-atomic
// snapshot.
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
#include "sim/trace.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/heartbeat.hpp"
#include "telemetry/metrics_registry.hpp"

namespace snoc {
namespace {

constexpr std::size_t kThreads = 8;
constexpr std::size_t kIters = 20'000;

TraceEvent event(Round round, TraceEventKind kind, TileId tile) {
    TraceEvent e;
    e.round = round;
    e.kind = kind;
    e.tile = tile;
    return e;
}

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

TEST(ConcurrencyStress, FlightRecorderLanesExactAcrossDrains) {
    constexpr std::size_t kWaves = 3;
    constexpr std::size_t kPerWave = 4'000;
    // Capacity large enough that nothing is overwritten: the assertion
    // below is exact, not modulo ring wraparound.
    FlightRecorder recorder(kWaves * kPerWave, kThreads);
    for (std::size_t wave = 0; wave < kWaves; ++wave) {
        std::vector<std::thread> producers;
        producers.reserve(kThreads);
        for (std::size_t t = 0; t < kThreads; ++t) {
            producers.emplace_back([&recorder, wave, t] {
                TraceSink& sink = recorder.lane(t);
                for (std::size_t i = 0; i < kPerWave; ++i) {
                    sink.record(event(
                        static_cast<Round>(wave * kPerWave + i),
                        i % 2 ? TraceEventKind::Transmitted
                              : TraceEventKind::Delivered,
                        static_cast<TileId>(t)));
                }
            });
        }
        for (auto& p : producers) p.join();
        // Join above is the barrier the drain contract requires: lanes
        // are single-writer and the merger reads only quiesced lanes.
        const auto events = recorder.drain();
        ASSERT_EQ(events.size(), kThreads * kPerWave * (wave + 1));
        EXPECT_EQ(recorder.dropped(), 0u);
        // Merge order is deterministic: ascending round, ties by lane.
        for (std::size_t i = 1; i < events.size(); ++i)
            EXPECT_LE(events[i - 1].round, events[i].round);
    }
    const auto totals = recorder.kind_totals();
    std::size_t recorded = 0;
    for (const std::size_t n : totals) recorded += n;
    EXPECT_EQ(recorded, kThreads * kPerWave * kWaves);
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
