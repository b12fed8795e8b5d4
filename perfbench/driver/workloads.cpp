#include "workloads.hpp"

#include <array>
#include <exception>
#include <optional>

#include "apps/mp3_app.hpp"
#include "check/invariant_auditor.hpp"
#include "common/rng.hpp"
#include "core/engine.hpp"
#include "fault/injector.hpp"
#include "noc/packet.hpp"
#include "sim/backends.hpp"

namespace perfbench {
namespace {

using namespace snoc;

double seconds_since(double start) { return now_seconds() - start; }

/// Gossip counters every gossip trial reports, in digest order.
void add_gossip_stats(const NetworkMetrics& m, TrialResult& out) {
    out.packets = m.packets_sent;
    out.stats.insert(out.stats.end(),
                     {{"core.rounds", m.rounds},
                      {"core.packets_sent", m.packets_sent},
                      {"core.packets_accepted", m.packets_accepted},
                      {"core.duplicates_ignored", m.duplicates_ignored},
                      {"core.crc_drops", m.crc_drops},
                      {"core.upsets_undetected", m.upsets_undetected},
                      {"core.deliveries", m.deliveries},
                      {"core.ttl_expired", m.ttl_expired},
                      {"noc.bits", m.bits_sent},
                      {"noc.packets", m.packets_sent}});
}

/// Step `net` until `done()` or `max_rounds`, one span per
/// GossipNetwork::step — run_until's loop, made visible round by round.
template <typename Done>
void step_until(GossipNetwork& net, Tracer* tracer, Round max_rounds, Done done) {
    do {
        ScopedSpan span(tracer, "core.step");
        net.step();
    } while (!done() && net.round() < max_rounds);
}

// --- upset_sweep -------------------------------------------------------------

/// fig4_8_mp3_latency with the frame count cut to 4: the MP3 pipeline on a
/// 4x4 mesh under the default RandomBitError upsets, over a 2x3 grid of
/// (p, p_upset) cells.
class UpsetSweep final : public Workload {
public:
    std::string_view name() const override { return "upset_sweep"; }
    std::size_t cells() const override { return kPs.size() * kUpsets.size(); }
    double nominal_trials_per_s() const override { return 13.0; }

    void build_inputs(std::uint64_t seed, std::size_t n_trials) override {
        seeds_.resize(n_trials);
        for (std::size_t i = 0; i < n_trials; ++i) seeds_[i] = derive_seed(seed, i);
    }

protected:
    std::string run_trial(std::size_t index, Tracer* tracer,
                          TrialResult& out) const override {
        const std::size_t cell = index % cells();
        GossipConfig config;
        config.forward_p = kPs[cell / kUpsets.size()];
        config.default_ttl = 60;
        FaultScenario scenario;
        scenario.p_upset = kUpsets[cell % kUpsets.size()];

        std::optional<GossipNetwork> net;
        {
            ScopedSpan span(tracer, "sim.build");
            net.emplace(Topology::mesh(4, 4), config, scenario, seeds_[index]);
        }
        apps::Mp3OutputIp* output = nullptr;
        {
            ScopedSpan span(tracer, "apps.deploy");
            output = &apps::deploy_mp3(*net, mp3_config());
        }
        step_until(*net, tracer, kMaxRounds, [output] { return output->complete(); });

        add_gossip_stats(net->metrics(), out);
        out.stats.emplace_back("apps.frames_received", output->frames_received());
        out.stats.emplace_back("apps.frames_skipped", output->frames_skipped());
        out.stats.emplace_back("apps.coded_bits", output->total_coded_bits());
        if (!output->complete()) return "MP3 output incomplete at the round cap";
        if (output->frames_received() != kFrames) return "MP3 frames missing";
        return {};
    }

private:
    static constexpr std::size_t kFrames = 4;
    static constexpr Round kMaxRounds = 4000;
    static constexpr std::array<double, 2> kPs{0.5, 1.0};
    static constexpr std::array<double, 3> kUpsets{0.2, 0.4, 0.6};

    static apps::Mp3Config mp3_config() {
        apps::Mp3Config c; // fig4_8's configuration, 4 frames
        c.frame_samples = 64;
        c.frame_count = kFrames;
        c.frame_interval = 2;
        c.band_count = 8;
        c.frame_budget_bits = 400;
        c.reservoir_capacity = 800;
        return c;
    }

    std::vector<std::uint64_t> seeds_;
};

// --- dense_broadcast ---------------------------------------------------------

class BroadcastSource final : public IpCore {
public:
    void on_start(TileContext& ctx) override {
        ctx.send(kBroadcast, 1, std::vector<std::byte>(32, std::byte{1}));
    }
    void on_message(const Message&, TileContext&) override {}
};

/// One fault-free broadcast from a seed-chosen tile of a 32x32 mesh
/// (p = 0.5, TTL 128), stepped until no copy is alive anywhere.
class DenseBroadcast final : public Workload {
public:
    std::string_view name() const override { return "dense_broadcast"; }
    std::size_t cells() const override { return 1; }
    double nominal_trials_per_s() const override { return 20.0; }

    void build_inputs(std::uint64_t seed, std::size_t n_trials) override {
        trials_.resize(n_trials);
        for (std::size_t i = 0; i < n_trials; ++i) {
            const std::uint64_t s = derive_seed(seed, i);
            trials_[i] = {s, static_cast<TileId>(splitmix64(s) % (kSide * kSide))};
        }
    }

protected:
    std::string run_trial(std::size_t index, Tracer* tracer,
                          TrialResult& out) const override {
        const auto& [seed, source] = trials_[index];
        GossipConfig config;
        config.forward_p = 0.5;
        config.default_ttl = 128;

        std::optional<GossipNetwork> net;
        {
            ScopedSpan span(tracer, "sim.build");
            net.emplace(Topology::mesh(kSide, kSide), config, FaultScenario::none(),
                        seed);
            net->attach(source, std::make_unique<BroadcastSource>());
        }
        step_until(*net, tracer, kMaxRounds, [&net] { return net->quiescent(); });

        add_gossip_stats(net->metrics(), out);
        if (!net->quiescent()) return "broadcast still alive at the round cap";
        // Every other tile accepted the rumor exactly once: full coverage.
        if (net->metrics().packets_accepted != kSide * kSide - 1)
            return "broadcast did not reach every tile";
        return {};
    }

private:
    static constexpr std::size_t kSide = 32;
    static constexpr Round kMaxRounds = 1000;
    std::vector<std::pair<std::uint64_t, TileId>> trials_;
};

// --- router_mesh -------------------------------------------------------------

/// One seeded 5x5 traffic trace per trial, replayed through the five
/// packet-switched backends; odd trials crash tiles with p_tiles = 0.1.
class RouterMesh final : public Workload {
public:
    std::string_view name() const override { return "router_mesh"; }
    std::size_t cells() const override { return 2; }
    double nominal_trials_per_s() const override { return 15.0; }

    void build_inputs(std::uint64_t seed, std::size_t n_trials) override {
        trials_.resize(n_trials);
        for (std::size_t i = 0; i < n_trials; ++i) {
            auto& [trial_seed, trace] = trials_[i];
            trial_seed = derive_seed(seed, i);
            RngStream rng(splitmix64(trial_seed));
            trace.phases.assign(kPhases, {});
            for (auto& phase : trace.phases)
                for (std::size_t m = 0; m < kMessagesPerPhase; ++m) {
                    const auto src = static_cast<std::size_t>(rng.below(kEndpoints.size()));
                    auto dst = static_cast<std::size_t>(rng.below(kEndpoints.size() - 1));
                    if (dst >= src) ++dst;
                    // Wire-framed like ablation_flow_control: header + CRC.
                    phase.messages.push_back({kEndpoints[src], kEndpoints[dst],
                                              256 + kWireOverheadBytes * 8});
                }
        }
    }

protected:
    std::string run_trial(std::size_t index, Tracer* tracer,
                          TrialResult& out) const override {
        const auto& [seed, trace] = trials_[index];
        FaultScenario scenario;
        if (index % 2 == 1) scenario.p_tiles = 0.1;
        const std::vector<TileId> protect(kEndpoints.begin(), kEndpoints.end());

        std::uint64_t hops = 0, cycles = 0, delivered = 0, messages = 0, capped = 0,
                      bits = 0;
        std::string failure;
        for (const BackendKind kind : kKinds) {
            std::unique_ptr<Interconnect> backend;
            {
                ScopedSpan span(tracer, "sim.build");
                backend = make_backend(kind, protect, scenario, seed);
            }
            check::InvariantAuditor auditor;
            backend->set_auditor(&auditor);
            RunReport report;
            {
                ScopedSpan span(tracer, kRunSpan[static_cast<std::size_t>(kind)]);
                report = backend->run(trace, kCycleCap);
            }
            const std::string prefix = std::string("router.") + to_string(kind);
            out.stats.insert(out.stats.end(),
                             {{prefix + ".completed", report.completed ? 1u : 0u},
                              {prefix + ".cycles", report.rounds},
                              {prefix + ".hops", report.transmissions},
                              {prefix + ".deliveries", report.deliveries},
                              {prefix + ".dropped", report.dropped},
                              {prefix + ".bits", report.bits}});
            hops += report.transmissions;
            cycles += report.rounds;
            delivered += report.deliveries;
            messages += report.messages;
            bits += report.bits;
            // Hitting the cycle cap (a stuck wormhole) is a simulated
            // outcome, counted below; broken accounting is a failure.
            if (report.rounds >= kCycleCap) ++capped;
            if (failure.empty() && report.deliveries + report.dropped != report.messages)
                failure = prefix + ": deliveries + dropped != messages";
            if (failure.empty() && report.messages != trace.message_count())
                failure = prefix + ": messages offered != trace size";
            if (failure.empty() && report.audit_violations != 0)
                failure = prefix + ": " + auditor.summary();
        }
        out.packets = hops;
        out.stats.insert(out.stats.end(), {{"router.hops", hops},
                                           {"router.cycles", cycles},
                                           {"router.deliveries", delivered},
                                           {"router.messages", messages},
                                           {"router.capped", capped},
                                           {"router.runs", std::size(kKinds)},
                                           {"noc.bits", bits},
                                           {"noc.packets", hops}});
        return failure;
    }

private:
    static constexpr std::size_t kPhases = 16;
    static constexpr std::size_t kMessagesPerPhase = 100;
    static constexpr Round kCycleCap = 5000;
    static constexpr std::array<TileId, 8> kEndpoints{0, 2, 4, 10, 14, 20, 22, 24};
    static constexpr BackendKind kKinds[] = {
        BackendKind::Wormhole,   BackendKind::Deflection, BackendKind::StoreForward,
        BackendKind::CutThrough, BackendKind::Adaptive,
    };
    /// Span names by BackendKind (string literals: spans keep the pointer).
    static constexpr const char* kRunSpan[] = {
        "sim.run.gossip",     "sim.run.bus",         "sim.run.xy",
        "sim.run.wormhole",   "sim.run.deflection",  "sim.run.store-forward",
        "sim.run.cut-through", "sim.run.adaptive",
    };
    static_assert(std::size(kRunSpan) == std::size(kBackendKinds));

    /// The endpoints are protected, as ablation_flow_control protects its
    /// deployment, so crashes cut the routes between them.
    static std::unique_ptr<Interconnect> make_backend(BackendKind kind,
                                                      const std::vector<TileId>& protect,
                                                      const FaultScenario& scenario,
                                                      std::uint64_t seed) {
        const auto build = [&](auto spec) {
            spec.protect = protect;
            return make_interconnect(std::move(spec), scenario, seed);
        };
        switch (kind) {
        case BackendKind::Wormhole: return build(WormholeSpec{});
        case BackendKind::Deflection: return build(DeflectionSpec{});
        case BackendKind::StoreForward: return build(StoreForwardSpec{});
        case BackendKind::CutThrough: return build(CutThroughSpec{});
        default: return build(AdaptiveSpec{});
        }
    }

    std::vector<std::pair<std::uint64_t, TrafficTrace>> trials_;
};

/// A message whose wire image is `wire_bytes` long, payload from `seed`.
Message replay_message(std::size_t wire_bytes, std::uint64_t seed) {
    RngStream rng(seed);
    Message m;
    m.id = MessageId{3, 9};
    m.destination = kBroadcast;
    m.ttl = 60;
    m.payload.resize(wire_bytes > kWireOverheadBytes ? wire_bytes - kWireOverheadBytes
                                                     : 0);
    for (auto& b : m.payload) b = static_cast<std::byte>(rng.bits() & 0xFF);
    return m;
}

constexpr std::size_t kReplayCalls = 20000;

} // namespace

TrialResult Workload::run(std::size_t index, bool traced) const {
    TrialResult out;
    std::optional<Tracer> tracer;
    if (traced) tracer.emplace(index);
    const double start = now_seconds();
    try {
        ScopedSpan span(tracer ? &*tracer : nullptr, "trial");
        out.error = run_trial(index, tracer ? &*tracer : nullptr, out);
        out.ok = out.error.empty();
    } catch (const std::exception& e) {
        out.error = std::string("threw: ") + e.what();
    } catch (...) {
        out.error = "threw a non-standard exception";
    }
    out.host_seconds = seconds_since(start);
    if (tracer) out.spans = std::move(tracer->spans());
    return out;
}

std::vector<std::string> workload_names() {
    return {"upset_sweep", "dense_broadcast", "router_mesh"};
}

std::unique_ptr<Workload> make_workload(std::string_view name) {
    if (name == "upset_sweep") return std::make_unique<UpsetSweep>();
    if (name == "dense_broadcast") return std::make_unique<DenseBroadcast>();
    if (name == "router_mesh") return std::make_unique<RouterMesh>();
    return nullptr;
}

std::uint64_t digest(const std::vector<TrialResult>& results) {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    const auto mix = [&h](std::uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xFF;
            h *= 0x100000001b3ULL;
        }
    };
    for (const auto& r : results)
        for (const auto& [name, value] : r.stats) {
            mix(key_of(name));
            mix(value);
        }
    return h;
}

double replay_upset_us(std::size_t wire_bytes, std::uint64_t seed) {
    FaultScenario scenario; // default upset model: RandomBitError
    scenario.p_upset = 1.0;
    FaultInjector injector(scenario, RngPool(seed));
    std::vector<std::byte> wire = Packet::encode(replay_message(wire_bytes, seed)).wire();
    const double start = now_seconds();
    for (std::size_t i = 0; i < kReplayCalls; ++i) injector.apply_upset(wire);
    return seconds_since(start) * 1e6 / static_cast<double>(kReplayCalls);
}

double replay_encode_ns(std::size_t wire_bytes, std::uint64_t seed) {
    const Message m = replay_message(wire_bytes, seed);
    std::size_t sink = 0;
    const double start = now_seconds();
    for (std::size_t i = 0; i < kReplayCalls; ++i) sink += Packet::encode(m).byte_size();
    const double elapsed = seconds_since(start);
    if (sink != kReplayCalls * Packet::encode(m).byte_size()) return -1.0;
    return elapsed * 1e9 / static_cast<double>(kReplayCalls);
}

double replay_decode_ns(std::size_t wire_bytes, std::uint64_t seed) {
    const Message m = replay_message(wire_bytes, seed);
    const std::vector<std::byte> wire = Packet::encode(m).wire();
    std::size_t decoded = 0;
    const double start = now_seconds();
    for (std::size_t i = 0; i < kReplayCalls; ++i)
        decoded += Packet::decode_wire(wire).has_value() ? 1 : 0;
    const double elapsed = seconds_since(start);
    if (decoded != kReplayCalls) return -1.0;
    return elapsed * 1e9 / static_cast<double>(kReplayCalls);
}

} // namespace perfbench
