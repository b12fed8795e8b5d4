// Static deadlock/livelock verification suite (label `verify`): the CDG
// analysis engine, the registry verdict sweep (golden-checked so a new
// BackendKind/PolicyKind cannot ship without a verdict), the
// deliberately-broken probes, and the DeadlockSentinel cross-check that
// the static verdicts and the runtime watchdog agree on what a deadlock
// is.
//
// Regenerating the verdict golden (legitimate only when the registry or
// the analysis deliberately changed):
//   SNOC_UPDATE_GOLDEN=1 build/tests/test_verify
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "analysis/cdg.hpp"
#include "analysis/probes.hpp"
#include "analysis/verify.hpp"
#include "common/expect.hpp"
#include "router/ports.hpp"
#include "sim/backends.hpp"

namespace snoc::analysis {
namespace {

// --- CDG engine ----------------------------------------------------------

TEST(Cdg, XyAcyclicOnEveryVerifiedMesh) {
    const auto policy = router::make_policy(router::PolicyKind::DimensionOrder);
    for (const MeshShape& m : verified_meshes()) {
        const Topology topo = Topology::mesh(m.width, m.height);
        const CdgResult r = analyze_cdg(topo, *policy);
        EXPECT_TRUE(r.acyclic()) << m.width << 'x' << m.height << ": "
                                 << cycle_to_string(topo, r.cycle);
        // XY uses every channel of the mesh and the analysis must see that.
        EXPECT_EQ(r.reachable, topo.link_count());
        EXPECT_GT(r.dependencies, 0u);
    }
}

TEST(Cdg, WestFirstAcyclicOnEveryVerifiedMesh) {
    const auto policy = router::make_policy(router::PolicyKind::WestFirst);
    for (const MeshShape& m : verified_meshes()) {
        const Topology topo = Topology::mesh(m.width, m.height);
        const CdgResult r = analyze_cdg(topo, *policy);
        EXPECT_TRUE(r.acyclic()) << m.width << 'x' << m.height << ": "
                                 << cycle_to_string(topo, r.cycle);
    }
}

// West-first offers more turns than XY (the adaptive non-west choices),
// so its dependency relation must be a strict superset in size — if the
// analysis reported otherwise it would be inventing or dropping edges.
TEST(Cdg, WestFirstHasMoreDependenciesThanXy) {
    const Topology topo = Topology::mesh(5, 5);
    const CdgResult xy =
        analyze_cdg(topo, *router::make_policy(router::PolicyKind::DimensionOrder));
    const CdgResult wf =
        analyze_cdg(topo, *router::make_policy(router::PolicyKind::WestFirst));
    EXPECT_GT(wf.dependencies, xy.dependencies);
}

TEST(Cdg, CyclicTurnPolicyYieldsConcreteCycle) {
    const Topology topo = Topology::mesh(2, 2);
    const CdgResult r = analyze_cdg(topo, CyclicTurnPolicy{});
    ASSERT_FALSE(r.acyclic());
    // Witness validity: consecutive channels chain head-to-tail and the
    // last one feeds the first — a closed walk a packet could block on.
    ASSERT_GE(r.cycle.size(), 2u);
    for (std::size_t i = 0; i < r.cycle.size(); ++i) {
        const LinkEnd& cur = topo.link(r.cycle[i]);
        const LinkEnd& nxt = topo.link(r.cycle[(i + 1) % r.cycle.size()]);
        EXPECT_EQ(cur.to, nxt.from) << "witness breaks at channel " << i;
    }
    // On the 2x2 mesh the only cycle is the full 4-channel ring.
    EXPECT_EQ(r.cycle.size(), 4u);
    EXPECT_EQ(cycle_to_string(topo, r.cycle),
              "(0,0)->(1,0)->(1,1)->(0,1)->(0,0)");
}

// A policy that actually uses wrap-around links closes a ring cycle on a
// torus — the canonical Dally-Seitz example, and proof the analysis is
// seeing real channel structure rather than rubber-stamping meshes.
class RingEastPolicy final : public router::RoutingPolicy {
public:
    router::PolicyKind kind() const override {
        return router::PolicyKind::DimensionOrder;
    }
    router::PortList candidates(
        const Topology& topo, TileId at, TileId from, TileId dst,
        const std::vector<bool>& dead) const override {
        (void)from;
        (void)dead;
        router::PortList out;
        if (at == dst) return out;
        const std::size_t x = topo.x_of(at), y = topo.y_of(at);
        const TileId east = topo.at((x + 1) % topo.width(), y);
        if (const auto p = router::port_to(topo, at, east)) out.push_back(*p);
        return out;
    }
};

TEST(Cdg, RingRoutingOnTorusIsDeadlockCapable) {
    const Topology torus = Topology::torus(4, 2);
    const CdgResult r = analyze_cdg(torus, RingEastPolicy{});
    ASSERT_FALSE(r.acyclic());
    EXPECT_EQ(r.cycle.size(), 4u) << cycle_to_string(torus, r.cycle);
}

TEST(Cdg, DeadTilesDropOutOfTheGraph) {
    const Topology topo = Topology::mesh(3, 3);
    std::vector<bool> dead(topo.node_count(), false);
    dead[4] = true; // the centre tile.
    const CdgResult whole = analyze_cdg(topo, CyclicTurnPolicy{});
    const CdgResult holed = analyze_cdg(topo, CyclicTurnPolicy{}, dead);
    EXPECT_LT(holed.channels, whole.channels);
    // The broken turn set still closes a perimeter cycle around the hole.
    EXPECT_FALSE(holed.acyclic());
}

TEST(Cdg, TarjanSccMatchesHandComputedComponents) {
    // 0->1->2->0 (one SCC), 3->4 (none), 5 self-contained.
    const std::vector<std::vector<std::size_t>> adj{
        {1}, {2}, {0}, {4}, {}, {}};
    const auto sccs = strongly_connected_components(adj);
    ASSERT_EQ(sccs.size(), 1u);
    EXPECT_EQ(sccs[0], (std::vector<std::size_t>{0, 1, 2}));
}

// --- Verdict model -------------------------------------------------------

TEST(Verdict, ObligationsCoverEveryRegisteredPolicy) {
    for (std::size_t p = 0; p < router::kPolicyKinds; ++p) {
        const auto kind = static_cast<router::PolicyKind>(p);
        // Must not throw: a new PolicyKind needs an obligation before it
        // can ship (plus the -Wswitch complaint in obligation_for itself).
        EXPECT_NO_THROW((void)obligation_for(kind)) << router::to_string(kind);
    }
    EXPECT_EQ(obligation_for(router::PolicyKind::DimensionOrder),
              PolicyObligation::AcyclicCdg);
    EXPECT_EQ(obligation_for(router::PolicyKind::Productive),
              PolicyObligation::BoundedMisroute);
}

TEST(Verdict, MisroutePoliciesRequireAFiniteBudget) {
    const MeshShape mesh{5, 5};
    const ConfigVerdict bounded = verify_policy(
        router::PolicyKind::FaultAdaptive, mesh, router::FlowControl::CutThrough,
        router::RouterConfig{}.max_hops);
    EXPECT_EQ(bounded.verdict, Verdict::LivelockBounded);
    EXPECT_NE(bounded.detail.find("hop budget=256"), std::string::npos);

    const ConfigVerdict unbounded = verify_policy(
        router::PolicyKind::FaultAdaptive, mesh, router::FlowControl::CutThrough,
        unbounded_deflection_budget());
    EXPECT_EQ(unbounded.verdict, Verdict::LivelockUnbounded);
    EXPECT_FALSE(verdict_ok(unbounded.verdict));
}

TEST(Verdict, EveryBackendKindGetsAnAcceptableVerdict) {
    for (const BackendKind kind : kBackendKinds) {
        const ConfigVerdict v = verify_backend(kind);
        EXPECT_TRUE(verdict_ok(v.verdict))
            << v.subject << ": " << to_string(v.verdict) << " [" << v.detail
            << "]";
        EXPECT_EQ(v.subject, std::string("backend ") + to_string(kind));
        EXPECT_FALSE(v.detail.empty()) << v.subject << " verdict lacks evidence";
    }
}

TEST(Verdict, RegistrySweepCoversEveryPolicyMeshFlowCell) {
    const auto verdicts = verify_registry();
    const std::size_t policy_cells = router::kPolicyKinds *
                                     verified_meshes().size() *
                                     std::size(router::kFlowControlNames);
    EXPECT_EQ(verdicts.size(), policy_cells + std::size(kBackendKinds));
    for (const ConfigVerdict& v : verdicts)
        EXPECT_TRUE(verdict_ok(v.verdict))
            << v.subject << ": " << to_string(v.verdict) << " [" << v.detail
            << "]";
}

// The registry verdict table is golden-checked byte-for-byte: growing
// SNOC_BACKEND_KIND_LIST or SNOC_ROUTING_POLICY_LIST without extending
// the verification plan changes these bytes and fails here.
TEST(Verdict, RegistryReportMatchesGolden) {
    const std::string path =
        std::string(SNOC_GOLDEN_DIR) + "/verify_registry.golden";
    std::ostringstream os;
    write_report(verify_registry(), os);
    const std::string image = os.str();
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
        << "registry verdicts diverged — if a backend/policy was added or "
           "the analysis deliberately changed, regenerate the golden";
}

TEST(Verdict, SarifIsWellFormedAndEmptyForCleanRegistry) {
    std::ostringstream os;
    write_sarif(verify_registry(), os);
    const std::string sarif = os.str();
    EXPECT_NE(sarif.find("\"version\": \"2.1.0\""), std::string::npos);
    EXPECT_NE(sarif.find("\"name\": \"snoc_verify\""), std::string::npos);
    EXPECT_NE(sarif.find("\"results\": []"), std::string::npos)
        << "clean registry must produce an empty result set";
}

TEST(Verdict, SarifCarriesOneResultPerViolation) {
    std::ostringstream os;
    write_sarif(probe_verdicts("cyclic-turn"), os);
    const std::string sarif = os.str();
    EXPECT_NE(sarif.find("verify-deadlock"), std::string::npos);
    EXPECT_NE(sarif.find("deadlock-capable"), std::string::npos);
    EXPECT_EQ(sarif.find("\"results\": []"), std::string::npos);
}

TEST(Verdict, UnknownProbeNameIsAContractViolation) {
    EXPECT_THROW((void)probe_verdicts("no-such-probe"), ContractViolation);
}

// --- DeadlockSentinel (the dynamic half of the cross-check) --------------

TEST(Sentinel, CyclicPolicyWedgesAndTripsTheWatchdog) {
    const DynamicProbeResult r = probe_dynamic_deadlock();
    EXPECT_TRUE(r.wedged) << "ring traffic drained under the cyclic turn set";
    EXPECT_TRUE(r.sentinel_fired);
    EXPECT_GE(r.stalled_cycles, 64u);
    EXPECT_TRUE(r.control_drained)
        << "the XY control could not drain the same traffic";
    EXPECT_FALSE(r.control_sentinel)
        << "the sentinel fired on a statically-acyclic configuration";
}

TEST(Sentinel, FiringOnAVerifiedConfigIsAnInvariantViolation) {
    router::RouterConfig config;
    config.flits_per_packet = 1;
    config.buffer_packets = 1;
    config.max_hops = 4096;
    config.stall_limit = 32;
    config.expect_deadlock_free = true; // a lie, which must be caught.
    router::RouterCore core(Topology::mesh(2, 2), config,
                            std::make_unique<CyclicTurnPolicy>());
    for (std::size_t burst = 0; burst < 8; ++burst) {
        core.inject(0, 3, 64);
        core.inject(1, 2, 64);
        core.inject(3, 0, 64);
        core.inject(2, 1, 64);
    }
    EXPECT_THROW(core.run(4096), ContractViolation);
}

TEST(Sentinel, SilentOnADrainingRun) {
    router::RouterConfig config;
    config.expect_deadlock_free = true;
    router::RouterCore core(Topology::mesh(4, 4), config);
    for (TileId t = 1; t < 16; ++t) core.inject(t, 0, 128);
    core.run(10000);
    EXPECT_TRUE(core.idle());
    EXPECT_FALSE(core.sentinel_fired());
    EXPECT_EQ(core.stalled_cycles(), 0u);
}

TEST(Sentinel, AutoStallLimitScalesWithTheMesh) {
    const router::RouterConfig config;
    router::RouterCore small(Topology::mesh(2, 2), config);
    router::RouterCore large(Topology::mesh(8, 8), config);
    EXPECT_GT(large.stall_limit(), small.stall_limit());
    router::RouterConfig pinned;
    pinned.stall_limit = 99;
    router::RouterCore explicit_limit(Topology::mesh(4, 4), pinned);
    EXPECT_EQ(explicit_limit.stall_limit(), 99u);
}

} // namespace
} // namespace snoc::analysis
