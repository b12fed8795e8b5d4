#include "analysis/verify.hpp"

#include <ostream>
#include <sstream>

#include "analysis/cdg.hpp"
#include "analysis/probes.hpp"
#include "bus/deflection.hpp"
#include "common/expect.hpp"
#include "common/json.hpp"
#include "core/gossip_config.hpp"

namespace snoc::analysis {

const char* to_string(Verdict v) {
    switch (v) {
    case Verdict::DeadlockFree: return "deadlock-free";
    case Verdict::DeadlockCapable: return "deadlock-capable";
    case Verdict::LivelockBounded: return "livelock-bounded";
    case Verdict::LivelockUnbounded: return "livelock-unbounded";
    }
    return "?";
}

PolicyObligation obligation_for(router::PolicyKind kind) {
    switch (kind) {
    case router::PolicyKind::DimensionOrder:
    case router::PolicyKind::WestFirst:
        return PolicyObligation::AcyclicCdg;
    case router::PolicyKind::Productive:
    case router::PolicyKind::FaultAdaptive:
        return PolicyObligation::BoundedMisroute;
    }
    SNOC_ENSURE(false && "unregistered routing policy");
    return PolicyObligation::AcyclicCdg;
}

const std::vector<MeshShape>& verified_meshes() {
    static const std::vector<MeshShape> meshes{{3, 3}, {5, 5}, {8, 8}};
    return meshes;
}

namespace {

std::string mesh_name(const MeshShape& mesh) {
    std::ostringstream os;
    os << mesh.width << 'x' << mesh.height;
    return os.str();
}

ConfigVerdict cdg_verdict(std::string subject, const Topology& topo,
                          const router::RoutingPolicy& policy) {
    const CdgResult cdg = analyze_cdg(topo, policy);
    ConfigVerdict verdict{std::move(subject), Verdict::DeadlockFree, ""};
    std::ostringstream detail;
    if (cdg.acyclic()) {
        detail << "cdg acyclic: channels=" << cdg.channels
               << " reachable=" << cdg.reachable
               << " deps=" << cdg.dependencies;
    } else {
        verdict.verdict = Verdict::DeadlockCapable;
        detail << "cdg cycle (" << cdg.cycle.size()
               << " channels): " << cycle_to_string(topo, cdg.cycle);
    }
    verdict.detail = detail.str();
    return verdict;
}

ConfigVerdict budget_verdict(std::string subject, std::size_t budget,
                             std::size_t diameter, const char* budget_name) {
    ConfigVerdict verdict{std::move(subject), Verdict::LivelockBounded, ""};
    std::ostringstream detail;
    if (budget == 0) {
        verdict.verdict = Verdict::LivelockUnbounded;
        detail << "no finite " << budget_name
               << ": misrouting may circulate forever";
    } else {
        detail << budget_name << '=' << budget
               << " bounds residence (mesh diameter=" << diameter << ')';
    }
    verdict.detail = detail.str();
    return verdict;
}

} // namespace

ConfigVerdict verify_policy(router::PolicyKind kind, const MeshShape& mesh,
                            router::FlowControl flow,
                            std::size_t misroute_budget) {
    std::ostringstream subject;
    subject << "policy " << router::to_string(kind) << " flow "
            << router::to_string(flow) << " mesh " << mesh_name(mesh);
    const Topology topo = Topology::mesh(mesh.width, mesh.height);
    switch (obligation_for(kind)) {
    case PolicyObligation::AcyclicCdg:
        return cdg_verdict(subject.str(), topo, *router::make_policy(kind));
    case PolicyObligation::BoundedMisroute:
        return budget_verdict(subject.str(), misroute_budget,
                              (mesh.width - 1) + (mesh.height - 1),
                              "hop budget");
    }
    SNOC_ENSURE(false && "unhandled policy obligation");
    return {};
}

ConfigVerdict verify_backend(BackendKind kind) {
    const std::string subject = std::string("backend ") + to_string(kind);
    const MeshShape anchor{5, 5}; // the zoo's default shape.
    const std::size_t diameter = (anchor.width - 1) + (anchor.height - 1);
    // Default-free switch: a new SNOC_BACKEND_KIND_LIST row without a
    // verification plan is a -Wswitch warning here and a golden mismatch.
    switch (kind) {
    case BackendKind::Gossip:
        return budget_verdict(subject, GossipConfig{}.default_ttl, diameter,
                              "ttl budget (rounds)");
    case BackendKind::Bus:
        return ConfigVerdict{subject, Verdict::DeadlockFree,
                             "single shared channel: no channel-wait cycle is "
                             "expressible; rotating arbiter is starvation-free"};
    case BackendKind::Xy:
        return cdg_verdict(subject, Topology::mesh(anchor.width, anchor.height),
                           *router::make_policy(router::PolicyKind::DimensionOrder));
    case BackendKind::Wormhole: {
        // Both registered wormhole routing functions must prove out.
        const Topology topo = Topology::mesh(anchor.width, anchor.height);
        ConfigVerdict xy = cdg_verdict(
            subject, topo, *router::make_policy(router::PolicyKind::DimensionOrder));
        const ConfigVerdict wf = cdg_verdict(
            subject, topo, *router::make_policy(router::PolicyKind::WestFirst));
        if (!verdict_ok(wf.verdict)) return wf;
        if (!verdict_ok(xy.verdict)) return xy;
        xy.detail = "xy and west-first turn sets both acyclic (" + xy.detail +
                    " / " + wf.detail + ")";
        return xy;
    }
    case BackendKind::Deflection:
        return budget_verdict(subject, deflection::Config{}.max_hops, diameter,
                              "hop budget");
    case BackendKind::StoreForward:
        return cdg_verdict(subject, Topology::mesh(anchor.width, anchor.height),
                           *router::make_policy(router::PolicyKind::DimensionOrder));
    case BackendKind::CutThrough:
        return cdg_verdict(subject, Topology::mesh(anchor.width, anchor.height),
                           *router::make_policy(router::PolicyKind::DimensionOrder));
    case BackendKind::Adaptive:
        return budget_verdict(subject, router::RouterConfig{}.max_hops, diameter,
                              "hop budget");
    }
    SNOC_ENSURE(false && "BackendKind without a verification plan");
    return {};
}

std::vector<ConfigVerdict> verify_registry() {
    std::vector<ConfigVerdict> verdicts;
    for (std::size_t p = 0; p < router::kPolicyKinds; ++p) {
        const auto kind = static_cast<router::PolicyKind>(p);
        for (const MeshShape& mesh : verified_meshes()) {
            const std::size_t flows = std::size(router::kFlowControlNames);
            for (std::size_t f = 0; f < flows; ++f)
                verdicts.push_back(verify_policy(
                    kind, mesh, static_cast<router::FlowControl>(f),
                    router::RouterConfig{}.max_hops));
        }
    }
    for (const BackendKind kind : kBackendKinds)
        verdicts.push_back(verify_backend(kind));
    return verdicts;
}

std::vector<ConfigVerdict> probe_verdicts(const std::string& name) {
    std::vector<ConfigVerdict> verdicts;
    if (name == "cyclic-turn") {
        // The re-enabled forbidden turn on the smallest ring it can close.
        const Topology topo = Topology::mesh(2, 2);
        verdicts.push_back(
            cdg_verdict("probe cyclic-turn mesh 2x2", topo, CyclicTurnPolicy{}));
        verdicts.push_back(cdg_verdict(
            "probe cyclic-turn mesh 3x3", Topology::mesh(3, 3), CyclicTurnPolicy{}));
    } else if (name == "unbounded-deflection") {
        for (const MeshShape& mesh : verified_meshes())
            verdicts.push_back(verify_policy(
                router::PolicyKind::Productive, mesh,
                router::FlowControl::CutThrough, unbounded_deflection_budget()));
    } else {
        SNOC_EXPECT(false && "unknown probe (cyclic-turn, unbounded-deflection)");
    }
    return verdicts;
}

void write_report(const std::vector<ConfigVerdict>& verdicts, std::ostream& os) {
    os << "# snoc_verify verdicts\n"
       << "# policies=" << router::kPolicyKinds
       << " flow-controls=" << std::size(router::kFlowControlNames)
       << " backends=" << std::size(kBackendKinds) << " meshes=";
    for (std::size_t i = 0; i < verified_meshes().size(); ++i)
        os << (i ? "," : "") << mesh_name(verified_meshes()[i]);
    os << '\n';
    for (const ConfigVerdict& v : verdicts)
        os << v.subject << ": " << to_string(v.verdict) << " [" << v.detail
           << "]\n";
}

void write_sarif(const std::vector<ConfigVerdict>& verdicts, std::ostream& os) {
    os << "{\n"
       << "  \"$schema\": \"https://raw.githubusercontent.com/oasis-tcs/"
          "sarif-spec/master/Schemata/sarif-schema-2.1.0.json\",\n"
       << "  \"version\": \"2.1.0\",\n"
       << "  \"runs\": [{\n"
       << "    \"tool\": {\"driver\": {\n"
       << "      \"name\": \"snoc_verify\",\n"
       << "      \"informationUri\": \"https://example.invalid/snoc_verify\",\n"
       << "      \"rules\": [\n"
       << "        {\"id\": \"verify-deadlock\", \"shortDescription\": {\"text\": "
          "\"channel dependency graph has a cycle\"}, \"defaultConfiguration\": "
          "{\"level\": \"error\"}},\n"
       << "        {\"id\": \"verify-livelock\", \"shortDescription\": {\"text\": "
          "\"misrouting policy lacks a finite hop budget\"}, "
          "\"defaultConfiguration\": {\"level\": \"error\"}}\n"
       << "      ]\n"
       << "    }},\n"
       << "    \"originalUriBaseIds\": {\"SRCROOT\": {\"uri\": \"file:///\"}},\n"
       << "    \"results\": [";
    bool first = true;
    for (const ConfigVerdict& v : verdicts) {
        if (verdict_ok(v.verdict)) continue;
        const char* rule = v.verdict == Verdict::DeadlockCapable
                               ? "verify-deadlock"
                               : "verify-livelock";
        os << (first ? "\n" : ",\n")
           << "      {\"ruleId\": \"" << rule << "\", \"level\": \"error\", "
           << "\"message\": {\"text\": "
           << json::quoted(v.subject + ": " + to_string(v.verdict) + " — " +
                           v.detail)
           << "}, \"locations\": [{\"physicalLocation\": "
              "{\"artifactLocation\": {\"uri\": \"src/router/policy.hpp\", "
              "\"uriBaseId\": \"SRCROOT\"}, \"region\": {\"startLine\": 1}}}]}";
        first = false;
    }
    os << (first ? "]\n" : "\n    ]\n") << "  }]\n}\n";
}

} // namespace snoc::analysis
