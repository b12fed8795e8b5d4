// google-benchmark microbenchmarks of the hot paths: CRC, packet codec,
// a full gossip round (byte-free clean transmissions vs the byte-level
// reference path), a router-core cycle, a wormhole cycle,
// the parallel trial fan-out, FFT and MDCT kernels.  Not a paper figure —
// this guards the simulator's own performance.
#include <benchmark/benchmark.h>

#include <array>
#include <chrono>
#include <cstdio>
#include <memory>

#include "apps/fft.hpp"
#include "apps/mdct.hpp"
#include "common/cli.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "core/engine.hpp"
#include "fault/injector.hpp"
#include "noc/crc.hpp"
#include "noc/packet.hpp"
#include "router/core.hpp"
#include "telemetry/telemetry.hpp"
#include "wormhole/router.hpp"

namespace {

using namespace snoc;

void BM_Crc32(benchmark::State& state) {
    std::vector<std::byte> data(static_cast<std::size_t>(state.range(0)),
                                std::byte{0x5A});
    for (auto _ : state)
        benchmark::DoNotOptimize(crc::crc32(std::span<const std::byte>(data)));
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                            state.range(0));
}
BENCHMARK(BM_Crc32)->Arg(64)->Arg(1024)->Arg(65536);

void BM_PacketEncodeDecode(benchmark::State& state) {
    Message m;
    m.id = MessageId{3, 9};
    m.payload.assign(static_cast<std::size_t>(state.range(0)), std::byte{0x42});
    for (auto _ : state) {
        auto p = Packet::encode(m);
        benchmark::DoNotOptimize(p.decode());
    }
}
BENCHMARK(BM_PacketEncodeDecode)->Arg(32)->Arg(512)->Arg(4096);

class BroadcastSource final : public IpCore {
public:
    void on_start(TileContext& ctx) override {
        ctx.send(kBroadcast, 1, std::vector<std::byte>(32, std::byte{1}));
    }
    void on_message(const Message&, TileContext&) override {}
};

void gossip_round_impl(benchmark::State& state, bool reference_encode,
                       TraceSink* sink = nullptr) {
    const auto side = static_cast<std::size_t>(state.range(0));
    GossipConfig c;
    c.forward_p = 0.5;
    c.default_ttl = 1000; // keep the rumor alive through the benchmark
    c.reference_encode_path = reference_encode;
    for (auto _ : state) {
        state.PauseTiming();
        GossipNetwork net(Topology::mesh(side, side), c, FaultScenario::none(), 1);
        if (sink) net.set_trace_sink(sink);
        net.attach(0, std::make_unique<BroadcastSource>());
        for (int i = 0; i < 5; ++i) net.step(); // warm the spread up
        state.ResumeTiming();
        for (int i = 0; i < 10; ++i) net.step();
    }
    state.SetItemsProcessed(state.iterations() * 10);
}

// Production path: clean transmissions carry the sender's shared message
// body and no bytes; only an upset transmission materialises a wire.
void BM_GossipRound(benchmark::State& state) { gossip_round_impl(state, false); }
BENCHMARK(BM_GossipRound)->Arg(4)->Arg(8)->Arg(16)->Unit(benchmark::kMicrosecond);

// Reference path: encode every transmission and FEC-strip, CRC-check and
// decode every arrival (the byte-level oracle).  The delta against
// BM_GossipRound is what skipping the bytes of clean copies saves.
void BM_GossipRoundReference(benchmark::State& state) {
    gossip_round_impl(state, true);
}
BENCHMARK(BM_GossipRoundReference)
    ->Arg(4)
    ->Arg(8)
    ->Arg(16)
    ->Unit(benchmark::kMicrosecond);

// A sink that keeps nothing.  Attaching any sink puts a round on the
// traced path, which enqueues and receives every duplicate copy that an
// untraced round counts at send time (DESIGN.md §12).
class NullSink final : public TraceSink {
public:
    void record(const TraceEvent&) override {}
};

// The traced path with nothing recorded: the baseline of the flight
// recorder's overhead.
void BM_GossipRoundNullSink(benchmark::State& state) {
    NullSink sink;
    gossip_round_impl(state, false, &sink);
}
BENCHMARK(BM_GossipRoundNullSink)
    ->Arg(4)
    ->Arg(8)
    ->Arg(16)
    ->Unit(benchmark::kMicrosecond);

// Same round loop with a flight recorder attached (a Telemetry window of
// 4096 events, the --flight-capacity default).  Both this and
// BM_GossipRoundNullSink take the traced path, so their ratio is what
// recording itself costs; scripts/bench_snapshot.sh records it as
// flight_recorder_overhead.
void BM_GossipRoundRecorded(benchmark::State& state) {
    Telemetry recorder(4096);
    gossip_round_impl(state, false, &recorder);
}
BENCHMARK(BM_GossipRoundRecorded)
    ->Arg(4)
    ->Arg(8)
    ->Arg(16)
    ->Unit(benchmark::kMicrosecond);

// Sparse-activity workload: a corner broadcast with a short TTL is a
// travelling wavefront — a thin band of active tiles crossing an
// otherwise idle mesh, the shape of the late gossip tail and the low-p
// fault sweeps.  The executor pays O(active band) per round, so ns per
// round should stay nearly flat as the mesh grows; scripts/bench_snapshot.sh
// records the series.  The iteration count is fixed: Google Benchmark
// sizes it on the timed rounds alone, and each iteration also builds a
// whole mesh off the timer, so a free count ran 256x256 for minutes.
constexpr benchmark::IterationCount kSparseBroadcastIterations = 50;
void BM_SparseBroadcast(benchmark::State& state) {
    const auto side = static_cast<std::size_t>(state.range(0));
    GossipConfig c;
    c.forward_p = 0.5;
    c.default_ttl = 20; // the rumor dies ~20 rounds in; the mesh does not
    std::int64_t rounds = 0;
    for (auto _ : state) {
        // Construction, start-up and teardown are one-time O(tiles)
        // costs, not round throughput — keep them off the timer.
        state.PauseTiming();
        auto net = std::make_unique<GossipNetwork>(Topology::mesh(side, side), c,
                                                   FaultScenario::none(), 1);
        net->attach(0, std::make_unique<BroadcastSource>());
        net->step();
        state.ResumeTiming();
        net->drain(500); // runs to quiescence: full broadcast lifetime
        rounds += static_cast<std::int64_t>(net->round()) - 1;
        state.PauseTiming();
        net.reset();
        state.ResumeTiming();
    }
    state.SetItemsProcessed(rounds); // items/s = simulated rounds/s
}
BENCHMARK(BM_SparseBroadcast)
    ->Arg(32)
    ->Arg(64)
    ->Arg(128)
    ->Arg(256)
    ->Iterations(kSparseBroadcastIterations)
    ->Unit(benchmark::kMillisecond);

// One router-core trial shaped like perfbench's router_mesh: 16 phases of
// 100 packets between eight protected endpoints of a 5x5 mesh, each phase
// run to idle (or a 5000-cycle cap).  Arg 0 is the adaptive core under
// p_tiles = 0.1, where detours make most of the hops; Arg 1 is fault-free
// store-and-forward.  Reports ns per simulated cycle.
void BM_RouterCycle(benchmark::State& state) {
    constexpr std::array<TileId, 8> kEndpoints{0, 2, 4, 10, 14, 20, 22, 24};
    constexpr std::size_t kPhases = 16;
    constexpr std::size_t kMessagesPerPhase = 100;
    constexpr std::size_t kCycleCap = 5000;
    const bool adaptive = state.range(0) == 0;
    router::RouterConfig config;
    FaultScenario scenario = FaultScenario::none();
    if (adaptive) {
        config.flow = router::FlowControl::CutThrough;
        config.policy = router::PolicyKind::FaultAdaptive;
        scenario.p_tiles = 0.1;
    }
    const Topology mesh = Topology::mesh(5, 5);
    const std::vector<TileId> protect(kEndpoints.begin(), kEndpoints.end());
    // Seed 3 kills tiles 11 and 19, near the 1.7 that p_tiles expects
    // of the 17 unprotected tiles.
    const CrashState crashes =
        FaultInjector(scenario, RngPool(3)).roll_crashes(mesh, protect);
    RngStream rng(splitmix64(1));
    std::vector<std::vector<std::pair<TileId, TileId>>> phases(kPhases);
    for (auto& phase : phases)
        for (std::size_t m = 0; m < kMessagesPerPhase; ++m) {
            const auto src = static_cast<std::size_t>(rng.below(kEndpoints.size()));
            auto dst = static_cast<std::size_t>(rng.below(kEndpoints.size() - 1));
            if (dst >= src) ++dst;
            phase.emplace_back(kEndpoints[src], kEndpoints[dst]);
        }

    std::int64_t cycles = 0;
    for (auto _ : state) {
        state.PauseTiming();
        auto core = std::make_unique<router::RouterCore>(mesh, config);
        core->apply_crashes(crashes);
        state.ResumeTiming();
        for (const auto& phase : phases) {
            for (const auto& [src, dst] : phase)
                core->inject(src, dst, 256 + kWireOverheadBytes * 8);
            while (!core->idle() && core->cycle() < kCycleCap) core->step();
        }
        cycles += static_cast<std::int64_t>(core->cycle());
        benchmark::DoNotOptimize(core->delivered());
        state.PauseTiming();
        core.reset();
        state.ResumeTiming();
    }
    state.SetItemsProcessed(cycles); // items/s = simulated cycles/s
    state.counters["ns_per_cycle"] = benchmark::Counter(
        static_cast<double>(cycles) * 1e-9,
        benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
    state.counters["dead_tiles"] =
        static_cast<double>(crashes.dead_tile_count());
}
BENCHMARK(BM_RouterCycle)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// A saturated 5x5 wormhole mesh (default config: XY, 2 VCs of 4 flits,
// 5-flit worms): every tile queues two all-to-all waves, then the mesh is
// stepped kSteps cycles, far fewer than it needs to drain.  Arg 0 is
// fault-free; Arg 1 kills the centre router, so the worms routed through
// it wedge and back up into every VC behind them.  Reports ns per cycle.
void BM_WormholeStep(benchmark::State& state) {
    constexpr std::size_t kSide = 5;
    constexpr std::size_t kWaves = 2;
    constexpr std::size_t kSteps = 2000;
    const bool crashed = state.range(0) == 1;
    const auto tiles = static_cast<TileId>(kSide * kSide);
    std::int64_t cycles = 0;
    for (auto _ : state) {
        state.PauseTiming();
        auto net = std::make_unique<wormhole::Network>(kSide, kSide,
                                                       wormhole::Config{});
        CrashState crashes{std::vector<bool>(tiles, false), {}};
        crashes.dead_tiles[tiles / 2] = crashed;
        net->apply_crashes(crashes);
        for (std::size_t w = 0; w < kWaves; ++w)
            for (TileId s = 0; s < tiles; ++s)
                for (TileId d = 0; d < tiles; ++d)
                    if (s != d) net->inject(s, d, 256);
        state.ResumeTiming();
        for (std::size_t i = 0; i < kSteps; ++i) net->step();
        cycles += static_cast<std::int64_t>(kSteps);
        benchmark::DoNotOptimize(net->delivered());
        state.PauseTiming();
        net.reset();
        state.ResumeTiming();
    }
    state.SetItemsProcessed(cycles);
    state.counters["ns_per_cycle"] = benchmark::Counter(
        static_cast<double>(cycles) * 1e-9,
        benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_WormholeStep)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

/// One self-contained Monte-Carlo trial: a 5x5 broadcast driven to
/// quiescence, all randomness derived from the trial index.
std::size_t broadcast_trial(std::uint64_t seed) {
    GossipConfig c;
    c.forward_p = 0.5;
    c.default_ttl = 20;
    GossipNetwork net(Topology::mesh(5, 5), c, FaultScenario::none(), seed);
    net.attach(0, std::make_unique<BroadcastSource>());
    net.drain(200);
    return net.metrics().packets_sent;
}

// run_trials scaling: Arg is the jobs count.  Compare against /1 to see
// the fan-out speedup on this machine.
void BM_TrialFanout(benchmark::State& state) {
    const auto jobs = static_cast<std::size_t>(state.range(0));
    constexpr std::size_t kTrials = 32;
    for (auto _ : state) {
        auto results = run_trials(kTrials, broadcast_trial, jobs);
        benchmark::DoNotOptimize(results.data());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(kTrials));
}
BENCHMARK(BM_TrialFanout)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_Fft(benchmark::State& state) {
    std::vector<apps::Complex> v(static_cast<std::size_t>(state.range(0)));
    for (std::size_t i = 0; i < v.size(); ++i)
        v[i] = apps::Complex(static_cast<double>(i % 7), 0.0);
    for (auto _ : state) {
        auto copy = v;
        apps::fft(copy);
        benchmark::DoNotOptimize(copy.data());
    }
}
BENCHMARK(BM_Fft)->Arg(256)->Arg(1024)->Arg(4096);

void BM_Mdct(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    apps::Mdct mdct(n);
    std::vector<double> window(2 * n, 0.25);
    for (auto _ : state) benchmark::DoNotOptimize(mdct.forward(window));
}
BENCHMARK(BM_Mdct)->Arg(64)->Arg(128)->Arg(256)->Unit(benchmark::kMicrosecond);

/// After the registered benchmarks, print a plain serial-vs-parallel
/// wall-clock summary of the trial fan-out (and assert bit-identical
/// results) — the acceptance check for the parallel runner in one place.
void print_fanout_summary() {
    using clock = std::chrono::steady_clock;
    constexpr std::size_t kTrials = 64;
    const std::size_t hw = default_jobs();

    const auto t0 = clock::now();
    const auto serial = run_trials(kTrials, broadcast_trial, 1);
    const auto t1 = clock::now();
    const auto parallel = run_trials(kTrials, broadcast_trial, hw);
    const auto t2 = clock::now();

    const auto ms = [](clock::time_point a, clock::time_point b) {
        return std::chrono::duration<double, std::milli>(b - a).count();
    };
    const double serial_ms = ms(t0, t1);
    const double parallel_ms = ms(t1, t2);
    std::printf("\n-- run_trials fan-out summary (%zu broadcast trials) --\n",
                kTrials);
    std::printf("serial   (jobs=1):  %8.2f ms\n", serial_ms);
    std::printf("parallel (jobs=%zu): %8.2f ms  (%.2fx)\n", hw, parallel_ms,
                parallel_ms > 0.0 ? serial_ms / parallel_ms : 0.0);
    std::printf("results bit-identical: %s\n",
                serial == parallel ? "yes" : "NO - DETERMINISM BROKEN");
}

} // namespace

int main(int argc, char** argv) {
    reject_engine_selector(CliArgs(argc, argv), argv[0]);
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    print_fanout_summary();
    return 0;
}
