// Byte-free clean transmissions and the in-flight ring buffer are pure
// optimisations: for any fixed seed the network must behave exactly as if
// every transmission serialised its own packet and every arrival were
// FEC-stripped, CRC-checked and decoded from those bytes (the
// reference_encode_path knob, the byte-level oracle).  These tests run
// the same scenario both ways and require NetworkMetrics, the whole trace
// and elapsed local time to match — any divergence means a clean shortcut
// decided differently from the bytes, a shared body leaked a mutation, an
// RNG draw moved or a ring bucket aliased a live round.
//
// The same scenario grid is also pinned against golden captures
// (tests/golden/engine_<scenario>.golden): full metrics JSON plus digests
// of the per-round/per-tile/per-link series and of the complete trace
// JSONL.  The oracle comparison cannot catch a change that moves both
// paths the same way (an active tile skipped, a phase reordered); the
// goldens can.  Regenerating is only
// legitimate for a deliberate behaviour change (e.g. a new draw sequence
// on one RNG stream), never to paper over an accidental divergence:
//   SNOC_UPDATE_GOLDEN=1 build/tests/test_engine_equivalence
#include <gtest/gtest.h>

#include <array>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "apps/master_slave_pi.hpp"
#include "check/invariant_auditor.hpp"
#include "core/engine.hpp"
#include "telemetry/export.hpp"
#include "telemetry/telemetry.hpp"

namespace snoc {
namespace {

class BroadcastSource final : public IpCore {
public:
    explicit BroadcastSource(std::size_t payload_bytes) : payload_bytes_(payload_bytes) {}
    void on_start(TileContext& ctx) override {
        ctx.send(kBroadcast, 0xEE, std::vector<std::byte>(payload_bytes_, std::byte{7}));
    }
    void on_message(const Message&, TileContext&) override {}

private:
    std::size_t payload_bytes_;
};

class ChattySource final : public IpCore {
public:
    explicit ChattySource(TileId dest) : dest_(dest) {}
    void on_round(TileContext& ctx) override {
        if (ctx.round() % 3 == 0 && sent_ < 6) {
            ctx.send(dest_, 0xC0 + sent_, {static_cast<std::byte>(sent_)});
            ++sent_;
        }
    }
    void on_message(const Message&, TileContext&) override {}

private:
    TileId dest_;
    std::size_t sent_{0};
};

class Sink final : public IpCore {
public:
    void on_message(const Message&, TileContext&) override {}
};

struct Scenario {
    std::string name;
    GossipConfig config;
    FaultScenario faults;
    bool unicast_traffic{false};
    bool use_pi_app{false};
    bool forward_cap{false};
    bool gated{false};
    bool islands{false};
    std::size_t broadcast_payload{24};
    std::size_t width{4};
    std::size_t height{4};
};

std::vector<Scenario> scenarios() {
    std::vector<Scenario> out;

    Scenario plain;
    plain.name = "plain_broadcast";
    plain.config.forward_p = 0.5;
    plain.config.default_ttl = 16;
    out.push_back(plain);

    Scenario upsets = plain;
    upsets.name = "heavy_upsets";
    upsets.faults.p_upset = 0.4;
    out.push_back(upsets);

    Scenario secded = upsets;
    secded.name = "secded_upsets";
    secded.config.link_protection = LinkProtection::SecdedCorrect;
    out.push_back(secded);

    Scenario secded_clean = plain;
    secded_clean.name = "secded_clean";
    secded_clean.config.link_protection = LinkProtection::SecdedCorrect;
    out.push_back(secded_clean);

    Scenario skew = plain;
    skew.name = "clock_skew";
    skew.faults.sigma_synchr = 0.6; // exercises the round+2 ring bucket
    out.push_back(skew);

    Scenario crashes = upsets;
    crashes.name = "crashes_and_upsets";
    crashes.faults.p_tiles = 0.1;
    crashes.faults.p_links = 0.05;
    out.push_back(crashes);

    Scenario unicast = plain;
    unicast.name = "stop_spread_unicast";
    unicast.config.stop_spread_on_delivery = true;
    unicast.unicast_traffic = true;
    out.push_back(unicast);

    Scenario capped = plain;
    capped.name = "forward_capacity";
    capped.forward_cap = true;
    capped.unicast_traffic = true;
    out.push_back(capped);

    Scenario island = plain;
    island.name = "islands_with_skew";
    island.islands = true;
    island.faults.sigma_synchr = 0.4;
    out.push_back(island);

    Scenario app = plain;
    app.name = "pi_app_upsets";
    app.use_pi_app = true;
    app.width = app.height = 5;
    app.faults.p_upset = 0.2;
    app.config.default_ttl = 30;
    out.push_back(app);

    // Every transmission upset: each copy's verdict comes from its flips
    // (or, rarely, from bytes), on a broadcast spanning 32 SECDED words
    // and 1-byte unicasts that fit in 4.
    Scenario all_crc = plain;
    all_crc.name = "all_upsets_crc";
    all_crc.faults.p_upset = 1.0;
    all_crc.unicast_traffic = true;
    all_crc.broadcast_payload = 226;
    out.push_back(all_crc);

    Scenario all_secded = all_crc;
    all_secded.name = "all_upsets_secded";
    all_secded.config.link_protection = LinkProtection::SecdedCorrect;
    out.push_back(all_secded);

    // Every gate on the forward loop at once: budgets of 1, 2 and 3
    // under a degree of 4 (the budget stops the coin draws), route
    // filters, dead links and upsets.
    Scenario gated = plain;
    gated.name = "gated_forwarding";
    gated.gated = true;
    gated.unicast_traffic = true;
    gated.faults.p_links = 0.1;
    gated.faults.p_upset = 0.3;
    out.push_back(gated);

    return out;
}

/// Everything a run can observably produce: metrics, per-kind trace
/// counts, local time and the spread count of the broadcast rumor, plus
/// the full trace stream as JSONL (for the golden digests).
struct RunOutput {
    NetworkMetrics metrics;
    std::array<std::size_t, kTraceEventKinds> trace_counts{};
    double elapsed{0.0};
    std::size_t spread{0};
    std::size_t trace_events{0};
    std::string trace_jsonl;
};

RunOutput collect(const GossipNetwork& net, const Telemetry& telemetry) {
    RunOutput out;
    out.metrics = net.metrics();
    for (std::size_t k = 0; k < kTraceEventKinds; ++k)
        out.trace_counts[k] = telemetry.count(static_cast<TraceEventKind>(k));
    out.elapsed = net.elapsed_seconds();
    out.trace_events = telemetry.events().size();
    std::ostringstream jsonl;
    write_jsonl(telemetry, jsonl);
    out.trace_jsonl = jsonl.str();
    return out;
}

/// What watches a run: a trace sink and an auditor called at every round
/// boundary (either may be null), and the first boundary at which the
/// network was quiescent.
struct Watch {
    TraceSink* sink{nullptr};
    check::InvariantAuditor* auditor{nullptr};
    std::optional<Round> quiet_at;

    void boundary(const GossipNetwork& net) {
        if (auditor) auditor->check_round(net);
        if (!quiet_at && net.quiescent()) quiet_at = net.round();
    }
};

/// Build `s`'s network and run it to quiescence under `watch`: 40 rounds
/// and a drain for the traffic scenarios, the master's completion and a
/// drain for the pi app.  The network comes back detached from the sink.
std::unique_ptr<GossipNetwork> run_network(const Scenario& s, std::uint64_t seed,
                                           bool reference_encode, Watch& watch) {
    GossipConfig config = s.config;
    config.reference_encode_path = reference_encode;
    auto net = std::make_unique<GossipNetwork>(Topology::mesh(s.width, s.height), config,
                                               s.faults, seed);
    net->set_trace_sink(watch.sink);
    const auto step = [&] {
        net->step();
        watch.boundary(*net);
    };
    // GossipNetwork::drain, one audited round at a time.
    const auto drain = [&](Round max_extra_rounds) {
        for (Round i = 0; i < max_extra_rounds && !net->quiescent(); ++i) step();
    };
    if (s.use_pi_app) {
        apps::PiDeployment d;
        auto& master = apps::deploy_pi(*net, d);
        net->protect(d.master_tile);
        net->run_until(
            [&] {
                watch.boundary(*net);
                return master.done();
            },
            2000);
        drain(1000);
    } else {
        net->attach(0, std::make_unique<BroadcastSource>(s.broadcast_payload));
        if (s.unicast_traffic) {
            net->attach(5, std::make_unique<ChattySource>(15));
            net->attach(15, std::make_unique<Sink>());
        }
        if (s.forward_cap) {
            net->set_forward_capacity(5, 2);
            net->set_forward_capacity(6, 1);
        }
        if (s.gated) {
            net->set_forward_capacity(5, 2);
            net->set_forward_capacity(6, 1);
            net->set_forward_capacity(10, 3);
            net->set_route_filter(9, [](const MessageBody&, TileId next) { return next != 13; });
            net->set_route_filter(10, [](const MessageBody& body, TileId next) {
                return body.destination == kBroadcast || next < 10;
            });
        }
        if (s.islands) {
            net->set_clock_scale(3, 2.0);
            net->set_clock_scale(12, 3.0);
        }
        for (int i = 0; i < 40; ++i) step();
        drain(200);
    }
    net->set_trace_sink(nullptr);
    return net;
}

RunOutput run_output(const Scenario& s, std::uint64_t seed, bool reference_encode) {
    Telemetry telemetry;
    Watch watch;
    watch.sink = &telemetry;
    const auto net = run_network(s, seed, reference_encode, watch);
    RunOutput out = collect(*net, telemetry);
    if (!s.use_pi_app) out.spread = net->tiles_knowing(MessageId{0, 0}); // the broadcast rumor
    return out;
}

void expect_metrics_equal(const NetworkMetrics& a, const NetworkMetrics& b,
                          const std::string& label) {
    EXPECT_EQ(a.rounds, b.rounds) << label;
    EXPECT_EQ(a.packets_sent, b.packets_sent) << label;
    EXPECT_EQ(a.bits_sent, b.bits_sent) << label;
    EXPECT_EQ(a.messages_created, b.messages_created) << label;
    EXPECT_EQ(a.deliveries, b.deliveries) << label;
    EXPECT_EQ(a.duplicates_ignored, b.duplicates_ignored) << label;
    EXPECT_EQ(a.crc_drops, b.crc_drops) << label;
    EXPECT_EQ(a.upsets_undetected, b.upsets_undetected) << label;
    EXPECT_EQ(a.overflow_drops, b.overflow_drops) << label;
    EXPECT_EQ(a.ttl_expired, b.ttl_expired) << label;
    EXPECT_EQ(a.skew_deferrals, b.skew_deferrals) << label;
    EXPECT_EQ(a.fec_corrected, b.fec_corrected) << label;
    EXPECT_EQ(a.fec_uncorrectable, b.fec_uncorrectable) << label;
    EXPECT_EQ(a.packets_per_round, b.packets_per_round) << label;
    EXPECT_EQ(a.bits_sent_by_tile, b.bits_sent_by_tile) << label;
    EXPECT_EQ(a.packets_by_link, b.packets_by_link) << label;
}

void expect_outputs_equal(const RunOutput& a, const RunOutput& b,
                          const std::string& label) {
    expect_metrics_equal(a.metrics, b.metrics, label);
    for (std::size_t k = 0; k < kTraceEventKinds; ++k)
        EXPECT_EQ(a.trace_counts[k], b.trace_counts[k])
            << label << " trace kind "
            << to_string(static_cast<TraceEventKind>(k));
    EXPECT_EQ(a.elapsed, b.elapsed) << label; // bitwise, not approximate
    EXPECT_EQ(a.spread, b.spread) << label;
}

TEST(EngineEquivalence, SharedWireMatchesReferenceEncodePath) {
    for (const Scenario& s : scenarios()) {
        for (std::uint64_t seed : {1ull, 7ull, 42ull}) {
            const auto label = s.name + " seed=" + std::to_string(seed);
            const auto shared = run_output(s, seed, false);
            const auto reference = run_output(s, seed, true);
            expect_outputs_equal(shared, reference, label);
            EXPECT_EQ(shared.trace_jsonl, reference.trace_jsonl) << label;
        }
    }
}

TEST(EngineEquivalence, ScenariosActuallyExerciseTheHotPaths) {
    // Guard against the equivalence test silently testing nothing: the
    // grid must produce traffic, upsets, skew deferrals and FEC repairs.
    std::size_t packets = 0, crc_drops = 0, skew = 0, fec = 0;
    for (const Scenario& s : scenarios()) {
        const auto m = run_output(s, 1, false).metrics;
        packets += m.packets_sent;
        crc_drops += m.crc_drops;
        skew += m.skew_deferrals;
        fec += m.fec_corrected;
    }
    EXPECT_GT(packets, 1000u);
    EXPECT_GT(crc_drops, 0u);
    EXPECT_GT(skew, 0u);
    EXPECT_GT(fec, 0u);
}

// --- Known duplicates counted at send time --------------------------------
//
// Without a trace sink, a clean copy to a live tile that already knows its
// rumor is counted as a duplicate when it is sent and never enters the
// in-flight ring (DESIGN.md §12).  A traced run and the byte oracle
// enqueue every copy, and the goldens below record through Telemetry, so
// only this test takes the untraced path.

/// The grid, plus a fault-free 16x16 broadcast and a line of tiles with
/// two-packet input buffers, which bind in the rounds where a tile holds
/// two rumors (the elision is off in those rounds and on in the others).
std::vector<Scenario> elision_scenarios() {
    std::vector<Scenario> out = scenarios();

    Scenario wide;
    wide.name = "broadcast_16x16";
    wide.config.forward_p = 0.5;
    wide.config.default_ttl = 16;
    wide.width = wide.height = 16;
    out.push_back(wide);

    Scenario tight = wide;
    tight.name = "tight_input_buffers";
    tight.height = 1;
    tight.config.in_buffer_capacity = 2;
    tight.unicast_traffic = true;
    out.push_back(tight);
    return out;
}

struct Observed {
    std::string metrics_json;
    NetworkMetrics metrics;
    std::optional<Round> quiet_at;
    std::size_t violations{0};
};

Observed observe(const Scenario& s, std::uint64_t seed, bool traced, bool reference_encode) {
    Telemetry telemetry;
    check::InvariantAuditor auditor;
    auditor.begin_run(s.name);
    Watch watch;
    watch.sink = traced ? &telemetry : nullptr;
    watch.auditor = &auditor;
    const auto net = run_network(s, seed, reference_encode, watch);
    auditor.check_final(*net);
    std::ostringstream json;
    write_metrics_json(net->metrics(), json);
    return {json.str(), net->metrics(), watch.quiet_at, auditor.violation_count()};
}

TEST(EngineEquivalence, UntracedRunsMatchTracedAndReferenceRuns) {
    std::size_t crash_drops = 0, port_overflow_drops = 0;
    for (const Scenario& s : elision_scenarios()) {
        for (std::uint64_t seed : {1ull, 7ull, 42ull}) {
            const auto label = s.name + " seed=" + std::to_string(seed);
            const Observed untraced = observe(s, seed, false, false);
            const Observed traced = observe(s, seed, true, false);
            const Observed reference = observe(s, seed, false, true);
            for (const Observed* other : {&traced, &reference}) {
                EXPECT_EQ(untraced.metrics_json, other->metrics_json) << label;
                expect_metrics_equal(untraced.metrics, other->metrics, label);
                EXPECT_EQ(untraced.quiet_at, other->quiet_at) << label;
            }
            EXPECT_TRUE(untraced.quiet_at.has_value()) << label;
            for (const Observed* o : {&untraced, &traced, &reference})
                EXPECT_EQ(o->violations, 0u) << label;
            crash_drops += untraced.metrics.crash_drops;
            port_overflow_drops += untraced.metrics.port_overflow_drops;
        }
    }
    // Copies into dead tiles, and input buffers that bind.
    EXPECT_GT(crash_drops, 0u);
    EXPECT_GT(port_overflow_drops, 0u);
}

// --- Golden captures ----------------------------------------------------

/// FNV-1a over a series spelled as comma-separated decimals.
template <typename T>
std::uint64_t series_digest(const std::vector<T>& values) {
    std::ostringstream os;
    for (const T& v : values) os << v << ',';
    return key_of(os.str());
}

/// The golden text of one run: the metrics JSON verbatim, then digests of
/// everything too long to pin inline.
std::string golden_section(const RunOutput& out) {
    std::ostringstream os;
    write_metrics_json(out.metrics, os);
    os << std::hex << "packets_per_round=" << series_digest(out.metrics.packets_per_round)
       << " bits_sent_by_tile=" << series_digest(out.metrics.bits_sent_by_tile)
       << " packets_by_link=" << series_digest(out.metrics.packets_by_link) << '\n'
       << std::hexfloat << "elapsed=" << out.elapsed << std::defaultfloat
       << std::dec << " spread=" << out.spread << '\n'
       << "trace_events=" << out.trace_events << " trace_jsonl_fnv=" << std::hex
       << key_of(out.trace_jsonl) << std::dec << '\n';
    return os.str();
}

/// Two seeds.  The section headers keep the `engine=lockstep` label the
/// captures were first taken under, so the files stay byte-identical.
std::string golden_image(const Scenario& s) {
    std::ostringstream os;
    for (const std::uint64_t seed : {1ull, 7ull})
        os << "# engine=lockstep seed=" << seed << '\n'
           << golden_section(run_output(s, seed, false));
    return os.str();
}

class EngineGolden : public ::testing::TestWithParam<std::size_t> {};

TEST_P(EngineGolden, MetricsAndTraceDigestsMatchCapture) {
    const Scenario s = scenarios().at(GetParam());
    const std::string path =
        std::string(SNOC_GOLDEN_DIR) + "/engine_" + s.name + ".golden";
    const std::string image = golden_image(s);

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
    EXPECT_EQ(image, golden.str()) << s.name << " diverged from its golden capture";
}

INSTANTIATE_TEST_SUITE_P(
    Scenarios, EngineGolden, ::testing::Range(std::size_t{0}, scenarios().size()),
    [](const ::testing::TestParamInfo<std::size_t>& info) {
        return scenarios().at(info.param).name;
    });

} // namespace
} // namespace snoc
