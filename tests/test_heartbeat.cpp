// Heartbeat streaming tests: record write/load round-trip (including
// torn-line tolerance, the state a tailing snoc_top actually sees),
// HeartbeatWriter cadence, the render_top terminal summary, and the
// ScenarioRunner integration — a progress sink is a pure observer, so
// sweep results must be bit-identical with and without one attached and
// for any --jobs value.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "sim/backends.hpp"
#include "sim/scenario.hpp"
#include "telemetry/heartbeat.hpp"

namespace snoc {
namespace {

HeartbeatRecord record(std::uint64_t seq, std::size_t trials_done,
                       std::size_t trials_total) {
    HeartbeatRecord r;
    r.seq = seq;
    r.elapsed_seconds = 0.25 * static_cast<double>(seq);
    r.experiment = "fig4_4";
    r.cells_total = 4;
    r.cells_done = trials_done / 2;
    r.trials_total = trials_total;
    r.trials_done = trials_done;
    r.retries = 1;
    r.rounds_total = 100 * seq;
    r.rounds_delta = 100;
    return r;
}

TEST(Heartbeat, WriteLoadRoundTrip) {
    std::ostringstream os;
    auto a = record(1, 3, 8);
    a.cell_seconds = 0.5;
    a.eta_seconds = 2.5;
    write_heartbeat(a, os);
    auto b = record(2, 8, 8);
    b.done = true;
    b.postmortems = 2;
    // Quote, backslash and every control byte but NUL read back as written.
    b.experiment = "fig \"q\" \\ x";
    for (char c = 0x01; c < 0x20; ++c) b.experiment += c;
    write_heartbeat(b, os);

    std::istringstream is(os.str());
    const auto loaded = load_heartbeats(is);
    ASSERT_EQ(loaded.size(), 2u);
    EXPECT_EQ(loaded[0].seq, 1u);
    EXPECT_EQ(loaded[0].experiment, "fig4_4");
    EXPECT_EQ(loaded[0].trials_done, 3u);
    EXPECT_EQ(loaded[0].trials_total, 8u);
    EXPECT_EQ(loaded[0].retries, 1u);
    EXPECT_NEAR(loaded[0].cell_seconds, 0.5, 1e-9);
    EXPECT_NEAR(loaded[0].eta_seconds, 2.5, 1e-9);
    EXPECT_EQ(loaded[0].rounds_total, 100u);
    EXPECT_FALSE(loaded[0].done);
    EXPECT_EQ(loaded[1].seq, 2u);
    EXPECT_EQ(loaded[1].experiment, b.experiment);
    EXPECT_EQ(loaded[1].postmortems, 2u);
    EXPECT_TRUE(loaded[1].done);
}

TEST(Heartbeat, LoaderSkipsTornAndForeignLines) {
    std::ostringstream os;
    write_heartbeat(record(1, 1, 4), os);
    std::string text = os.str();
    text += "{\"not\":\"a heartbeat\"}\n";
    // A sequence number no heartbeat has: unsigned fields take no sign.
    text += "{\"heartbeat\":1,\"seq\":-1,\"trials_done\":1}\n";
    text += "{\"heartbeat\":1,\"schema\":\"snoc-heartbeat-v1\",\"seq\":2,";
    // ^ torn mid-write: no trials_done, must be skipped, not crash.
    std::istringstream is(text);
    const auto loaded = load_heartbeats(is);
    ASSERT_EQ(loaded.size(), 1u);
    EXPECT_EQ(loaded[0].seq, 1u);
}

TEST(Heartbeat, RenderTopSummarizesLatest) {
    std::vector<HeartbeatRecord> records{record(1, 2, 8), record(2, 4, 8)};
    records[1].eta_seconds = 1.5;
    std::ostringstream os;
    render_top(records, os);
    const std::string text = os.str();
    EXPECT_NE(text.find("fig4_4"), std::string::npos);
    EXPECT_NE(text.find("running"), std::string::npos);
    EXPECT_NE(text.find("4/8"), std::string::npos); // trials
    EXPECT_NE(text.find("2/4"), std::string::npos); // cells
    EXPECT_EQ(text.find("postmortem"), std::string::npos);

    records.push_back(record(3, 8, 8));
    records.back().done = true;
    records.back().postmortems = 1;
    std::ostringstream done;
    render_top(records, done);
    EXPECT_NE(done.str().find("done"), std::string::npos);
    EXPECT_NE(done.str().find("postmortem"), std::string::npos);
}

TEST(Heartbeat, WriterHonoursCadenceAndBoundaries) {
    const std::string path = ::testing::TempDir() + "cadence.heartbeat.jsonl";
    {
        HeartbeatWriter writer(path, 3);
        ProgressUpdate u;
        u.experiment = "cadence";
        u.trials_total = 7;
        u.cells_total = 1;
        for (std::size_t done = 1; done <= 6; ++done) {
            u.trials_done = done;
            writer.update(u); // cadence hits at 3 and 6 only
        }
        u.trials_done = 7;
        u.cell_seconds = 0.125; // cell boundary always emits
        writer.update(u);
        u.cell_seconds = -1.0;
        u.cells_done = 1;
        u.sweep_done = true; // final record always emits
        writer.update(u);
        EXPECT_EQ(writer.emitted(), 4u);
    }
    const auto loaded = load_heartbeats_file(path);
    ASSERT_EQ(loaded.size(), 4u);
    EXPECT_EQ(loaded[0].trials_done, 3u);
    EXPECT_EQ(loaded[1].trials_done, 6u);
    EXPECT_EQ(loaded[2].trials_done, 7u);
    EXPECT_TRUE(loaded[3].done);
    // Sequence numbers are consecutive from 1; elapsed is monotone.
    for (std::size_t i = 0; i < loaded.size(); ++i) {
        EXPECT_EQ(loaded[i].seq, i + 1);
        if (i > 0) {
            EXPECT_GE(loaded[i].elapsed_seconds, loaded[i - 1].elapsed_seconds);
        }
    }
    std::remove(path.c_str());
}

/// Collects every update for the integration assertions below.
struct CollectingSink final : ProgressSink {
    std::vector<ProgressUpdate> updates;
    std::mutex mutex;
    void update(const ProgressUpdate& u) override {
        std::lock_guard<std::mutex> lock(mutex);
        updates.push_back(u);
    }
};

ExperimentSpec tiny_sweep(std::size_t jobs) {
    ExperimentSpec spec;
    spec.name = "heartbeat-sweep";
    spec.axes.push_back({"p", {0.4, 0.6}});
    spec.repeats = 3;
    spec.base_seed = 11;
    spec.max_rounds = 80;
    spec.jobs = jobs;
    spec.backend = [](const SweepPoint& point, std::uint64_t seed) {
        GossipSpec gs;
        gs.topology = Topology::mesh(4, 4);
        gs.config.forward_p = point.value("p");
        gs.config.default_ttl = 10;
        return make_interconnect(std::move(gs), FaultScenario::none(), seed);
    };
    spec.trace = [](const SweepPoint&) {
        TrafficTrace trace;
        TrafficPhase phase;
        phase.messages.push_back({0, 15, 64});
        phase.messages.push_back({15, 0, 64});
        trace.phases.push_back(phase);
        return trace;
    };
    return spec;
}

std::string result_image(const std::vector<CellResult>& cells) {
    std::ostringstream os;
    for (const CellResult& cell : cells)
        for (const RunReport& r : cell.reports)
            os << r.completed << ' ' << r.rounds << ' ' << r.transmissions
               << ' ' << r.deliveries << ' ' << r.seed << '\n';
    return os.str();
}

TEST(HeartbeatScenario, SinkIsAPureObserverAcrossJobs) {
    ScenarioRunner bare(tiny_sweep(1));
    const std::string want = result_image(bare.run());

    for (const std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
        ScenarioRunner watched(tiny_sweep(jobs));
        CollectingSink sink;
        watched.set_progress_sink(&sink);
        const auto results = watched.run();
        EXPECT_EQ(result_image(results), want) << "jobs " << jobs;

        // One update per trial, plus the final sweep-done record.
        ASSERT_EQ(sink.updates.size(), 7u) << "jobs " << jobs;
        std::size_t last_done = 0;
        for (std::size_t i = 0; i + 1 < sink.updates.size(); ++i) {
            EXPECT_EQ(sink.updates[i].trials_done, last_done + 1);
            last_done = sink.updates[i].trials_done;
            EXPECT_EQ(sink.updates[i].trials_total, 6u);
            EXPECT_FALSE(sink.updates[i].sweep_done);
        }
        const ProgressUpdate& final_update = sink.updates.back();
        EXPECT_TRUE(final_update.sweep_done);
        EXPECT_EQ(final_update.trials_done, 6u);
        EXPECT_EQ(final_update.cells_done, 2u);
        // Exactly two updates closed a cell (cell_seconds stamped).
        std::size_t closed = 0;
        for (const ProgressUpdate& u : sink.updates)
            if (u.cell_seconds >= 0.0) ++closed;
        EXPECT_EQ(closed, 2u);
    }
}

TEST(HeartbeatScenario, WriterStreamsTheSweep) {
    const std::string path = ::testing::TempDir() + "sweep.heartbeat.jsonl";
    auto spec = tiny_sweep(2);
    spec.telemetry.heartbeat_out = path;
    spec.telemetry.heartbeat_every = 1;
    ScenarioRunner runner(std::move(spec));
    runner.run();

    const auto loaded = load_heartbeats_file(path);
    ASSERT_GE(loaded.size(), 2u);
    EXPECT_EQ(loaded.front().experiment, "heartbeat-sweep");
    EXPECT_TRUE(loaded.back().done);
    EXPECT_EQ(loaded.back().trials_done, 6u);
    EXPECT_GT(loaded.back().rounds_total, 0u);
    std::ostringstream os;
    render_top(loaded, os);
    EXPECT_NE(os.str().find("heartbeat-sweep"), std::string::npos);
    std::remove(path.c_str());
}

} // namespace
} // namespace snoc
