// The refactor proof for the layered router core (src/router/): the XY,
// wormhole and deflection backends must produce byte-identical RunReports
// and trace JSONL before and after being re-expressed as configurations
// of the shared core.  The golden files under tests/golden/ were captured
// from the pre-refactor implementations; this suite replays the same
// (config, scenario, seed) grid and compares bytes.  The store-forward,
// cut-through and adaptive cells pin RouterCore's own cycle the same way.
// The `contended` cell runs a 200-message trace through all five
// cycle-stepped backends on a crashed mesh: enough load to fill every
// wormhole VC and every router FIFO, kept small as one report line and
// one digest per backend.
//
// Regenerating (only legitimate when a deliberate behaviour change is
// being made, never to paper over an accidental divergence):
//   SNOC_UPDATE_GOLDEN=1 build/tests/test_router_golden
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <iterator>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "common/rng.hpp"
#include "noc/packet.hpp"
#include "sim/backends.hpp"
#include "telemetry/export.hpp"
#include "telemetry/telemetry.hpp"

namespace snoc {
namespace {

TrafficTrace corner_trace() {
    TrafficTrace trace;
    TrafficPhase phase;
    phase.messages.push_back({0, 24, 256});
    phase.messages.push_back({4, 20, 256});
    phase.messages.push_back({20, 4, 256});
    phase.messages.push_back({24, 0, 256});
    trace.phases.push_back(phase);
    return trace;
}

/// Two phases with crossing flows: enough contention that arbitration,
/// VC allocation and deflection-shuffle order all leave fingerprints in
/// the event stream.
TrafficTrace crossing_trace() {
    TrafficTrace trace;
    TrafficPhase a;
    a.messages.push_back({0, 24, 128});
    a.messages.push_back({1, 23, 128});
    a.messages.push_back({2, 22, 128});
    a.messages.push_back({10, 14, 64});
    a.messages.push_back({14, 10, 64});
    trace.phases.push_back(a);
    TrafficPhase b;
    b.messages.push_back({24, 0, 256});
    b.messages.push_back({20, 4, 256});
    b.messages.push_back({12, 0, 32});
    trace.phases.push_back(b);
    return trace;
}

/// Two phases of 100 seeded messages among the 8 edge endpoints (the
/// perfbench router_mesh shape): worms queue behind each other on every
/// path, so VC allocation and credit stalls carry the result.
TrafficTrace contended_trace() {
    constexpr TileId kEndpoints[] = {0, 2, 4, 10, 14, 20, 22, 24};
    constexpr std::size_t kCount = std::size(kEndpoints);
    RngStream rng(splitmix64(1));
    TrafficTrace trace;
    trace.phases.assign(2, {});
    for (auto& phase : trace.phases)
        for (std::size_t m = 0; m < 100; ++m) {
            const auto src = static_cast<std::size_t>(rng.below(kCount));
            auto dst = static_cast<std::size_t>(rng.below(kCount - 1));
            if (dst >= src) ++dst;
            phase.messages.push_back(
                {kEndpoints[src], kEndpoints[dst], 256 + kWireOverheadBytes * 8});
        }
    return trace;
}

/// The RunReport's scalar fields on one line.
std::string report_line(const RunReport& r) {
    std::ostringstream os;
    os << r.completed << ' ' << r.rounds << ' '
       << std::hexfloat << r.seconds << std::defaultfloat << ' '
       << r.transmissions << ' ' << r.bits << ' ' << r.messages << ' '
       << r.deliveries << ' ' << r.dropped << ' '
       << std::hexfloat << r.joules << std::defaultfloat << ' '
       << r.seed << ' ' << r.attempts << '\n';
    return os.str();
}

std::string serialize_report(const RunReport& r) {
    std::ostringstream os;
    os << report_line(r);
    write_metrics_json(r.metrics, os);
    return os.str();
}

/// RunReport bytes + trace JSONL bytes for one adapter-driven run.
std::string run_image(Interconnect& backend, const TrafficTrace& trace,
                      Round limit) {
    Telemetry telemetry;
    backend.set_trace_sink(&telemetry);
    const RunReport report = backend.run(trace, limit);
    std::ostringstream os;
    os << serialize_report(report);
    os << "--- jsonl ---\n";
    write_jsonl(telemetry, os);
    return os.str();
}

FaultScenario faulty(double p_tiles = 0.12) {
    FaultScenario s;
    s.p_tiles = p_tiles;
    return s;
}

/// RouterCore cells: the spec's stage selection on the shared grid.
/// `adaptive_b1` squeezes every input FIFO to one packet and crashes more
/// tiles, so detours contend for downstream credit within a cycle.
template <class Spec>
std::string router_core_image(const FaultScenario& scenario, std::uint64_t seed,
                              const TrafficTrace& trace,
                              std::size_t buffer_packets = 4) {
    Spec spec;
    spec.protect = {0, 4, 20, 24};
    spec.config.buffer_packets = buffer_packets;
    SteppedAdapter<Spec> adapter(std::move(spec), scenario, seed);
    return run_image(adapter, trace, 10000);
}

/// One report line plus an FNV-1a digest of the metrics JSON and the full
/// event JSONL (every packet's injection, hops and fate, with cycles) per
/// backend, on the contended trace with the endpoints protected.  The
/// fault-free pass runs the full contended trace on all five; seeds 1 and
/// 3 at p_tiles = 0.1 wedge wormhole and cost every other backend drops
/// or detours.
std::string contended_image() {
    const TrafficTrace trace = contended_trace();
    const std::vector<TileId> endpoints{0, 2, 4, 10, 14, 20, 22, 24};
    std::ostringstream os;
    FaultScenario scenario = FaultScenario::none();
    const auto cell = [&](auto spec, std::uint64_t seed) {
        spec.protect = endpoints;
        const auto backend = make_interconnect(std::move(spec), scenario, seed);
        Telemetry telemetry;
        backend->set_trace_sink(&telemetry);
        const RunReport report = backend->run(trace, 10000);
        std::ostringstream records;
        write_metrics_json(report.metrics, records);
        write_jsonl(telemetry, records);
        char digest[17];
        std::snprintf(digest, sizeof digest, "%016llx",
                      static_cast<unsigned long long>(key_of(records.str())));
        os << "# " << to_string(backend->kind()) << " p_tiles=" << scenario.p_tiles
           << " seed=" << seed << '\n'
           << report_line(report) << "digest " << digest << '\n';
    };
    const auto all_backends = [&](std::uint64_t seed) {
        cell(WormholeSpec{}, seed);
        cell(DeflectionSpec{}, seed);
        cell(StoreForwardSpec{}, seed);
        cell(CutThroughSpec{}, seed);
        cell(AdaptiveSpec{}, seed);
    };
    all_backends(1);
    scenario = faulty(0.1);
    for (const std::uint64_t seed : {1, 3}) all_backends(seed);
    return os.str();
}

/// The pre/post-refactor comparison grid: every packet-switched backend x
/// {fault-free, crashing} x seeds, on both traces.
std::string golden_image(const std::string& name) {
    if (name == "contended") return contended_image();
    const std::vector<TileId> corners{0, 4, 20, 24};
    std::ostringstream os;
    for (const bool faults : {false, true}) {
        const FaultScenario scenario =
            faults ? faulty(name == "adaptive_b1" ? 0.2 : 0.12)
                   : FaultScenario::none();
        for (std::uint64_t seed = 1; seed <= 3; ++seed) {
            for (const bool crossing : {false, true}) {
                const auto trace = crossing ? crossing_trace() : corner_trace();
                os << "# faults=" << faults << " seed=" << seed
                   << " crossing=" << crossing << '\n';
                if (name == "xy") {
                    XyAdapter adapter(XySpec{Topology::mesh(5, 5), corners},
                                      scenario, seed);
                    os << run_image(adapter, trace, 0);
                } else if (name == "wormhole_xy" || name == "wormhole_wf") {
                    WormholeSpec spec;
                    spec.protect = corners;
                    spec.config.routing = name == "wormhole_wf"
                                              ? wormhole::Routing::WestFirst
                                              : wormhole::Routing::Xy;
                    SteppedAdapter<WormholeSpec> adapter(std::move(spec), scenario, seed);
                    os << run_image(adapter, trace, 10000);
                } else if (name == "deflection") {
                    DeflectionSpec spec;
                    spec.protect = corners;
                    SteppedAdapter<DeflectionSpec> adapter(std::move(spec), scenario, seed);
                    os << run_image(adapter, trace, 10000);
                } else if (name == "store_forward") {
                    os << router_core_image<StoreForwardSpec>(
                        scenario, seed, trace);
                } else if (name == "cut_through") {
                    os << router_core_image<CutThroughSpec>(
                        scenario, seed, trace);
                } else if (name == "adaptive") {
                    os << router_core_image<AdaptiveSpec>(
                        scenario, seed, trace);
                } else if (name == "adaptive_b1") {
                    os << router_core_image<AdaptiveSpec>(
                        scenario, seed, trace, /*buffer_packets=*/1);
                } else {
                    ADD_FAILURE() << "unknown golden backend " << name;
                }
            }
        }
    }
    return os.str();
}

class RouterGolden : public ::testing::TestWithParam<const char*> {};

TEST_P(RouterGolden, BytesMatchPreRefactorCapture) {
    const std::string name = GetParam();
    const std::string path =
        std::string(SNOC_GOLDEN_DIR) + "/router_" + name + ".golden";
    const std::string image = golden_image(name);
    ASSERT_FALSE(image.empty());

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
    EXPECT_EQ(image, golden.str())
        << name << " diverged from the pre-refactor capture";
}

INSTANTIATE_TEST_SUITE_P(PacketSwitched, RouterGolden,
                         ::testing::Values("xy", "wormhole_xy", "wormhole_wf",
                                           "deflection", "store_forward",
                                           "cut_through", "adaptive",
                                           "adaptive_b1", "contended"));

} // namespace
} // namespace snoc
