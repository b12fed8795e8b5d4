// Ablation (ours): three ways to tell every tile something.
//
//   * spanning-tree broadcast — optimal cost (n-1 transmissions) and
//     latency (eccentricity), but a dead tile silently loses its subtree;
//   * gossip at p = 0.5 — probabilistic redundancy, graceful under crashes;
//   * flooding (p = 1) — gossip's latency-optimal, energy-worst corner.
//
// Reported per crash count: tiles reached [%] and transmissions, averaged
// over seeds.  This sandwiches Fig. 4-4's trade-off between the
// deterministic optimum and the brute-force maximum.
#include <iostream>
#include <memory>

#include "bench_util.hpp"
#include "bus/broadcast_tree.hpp"

namespace {

class Announcer final : public snoc::IpCore {
public:
    void on_start(snoc::TileContext& ctx) override {
        ctx.send(snoc::kBroadcast, 0xAD, {std::byte{1}});
    }
    void on_message(const snoc::Message&, snoc::TileContext&) override {}
};

} // namespace

int main(int argc, char** argv) {
    using namespace snoc;
    const auto opt = bench::options(argc, argv, 15);
    const auto topo = Topology::mesh(5, 5);
    constexpr TileId kRoot = 12;
    const std::vector<double> kCrashed{0, 1, 2, 4, 6};

    // One cell per (crash count, scheme).  A report's deliveries are the
    // tiles reached, its transmissions the broadcast's cost.
    auto spec = bench::sweep(opt, "ablation_broadcast");
    spec.axes = {{"crashed", kCrashed}, {"scheme", {0, 1, 2}}}; // tree, gossip, flood
    spec.trial = [&](const SweepPoint& pt, std::uint64_t seed, TraceSink* sink) {
        const auto k = static_cast<std::size_t>(pt.value("crashed"));
        const std::size_t scheme = pt.index_of("scheme");
        if (scheme == 0) {
            RngPool pool(seed);
            FaultInjector inj(FaultScenario::none(), pool);
            const auto t =
                tree_broadcast(topo, kRoot, inj.roll_exact_tile_crashes(topo, k, {kRoot}));
            RunReport report;
            report.completed = true;
            report.deliveries = t.reached;
            report.transmissions = t.transmissions;
            return report;
        }
        GossipSpec gs;
        gs.topology = topo;
        gs.config = bench::config_with_p(scheme == 1 ? 0.5 : 1.0, 20);
        gs.protect = {kRoot};
        gs.exact_tile_crashes = k;
        GossipAdapter adapter(std::move(gs), FaultScenario::none(), seed);
        adapter.set_trace_sink(sink);
        GossipNetwork& net = adapter.network();
        net.attach(kRoot, std::make_unique<Announcer>());
        // Spread to quiescence, at most 100 rounds.
        RunReport report = adapter.run_until([&net] { return net.quiescent(); }, 100);
        report.deliveries = net.tiles_knowing({kRoot, 0});
        return report;
    };
    const auto cells = ScenarioRunner(std::move(spec)).run();

    Table table({"crashed tiles", "tree reach [%]", "gossip reach [%]",
                 "flood reach [%]", "tree tx", "gossip tx", "flood tx"});
    for (std::size_t c = 0; c < kCrashed.size(); ++c) {
        const auto live = 25.0 - kCrashed[c];
        std::vector<std::string> reach, tx;
        for (std::size_t scheme = 0; scheme < 3; ++scheme) {
            const CellResult& cell = cells[3 * c + scheme];
            const auto reached = bench::accumulate(cell, [live](const RunReport& r) {
                return 100.0 * static_cast<double>(r.deliveries) / live;
            });
            const auto sent = bench::accumulate(cell, [](const RunReport& r) {
                return static_cast<double>(r.transmissions);
            });
            reach.push_back(format_number(reached.mean(), 1));
            tx.push_back(format_number(sent.mean(), 0));
        }
        table.add_row({std::to_string(static_cast<std::size_t>(kCrashed[c])), reach[0],
                       reach[1], reach[2], tx[0], tx[1], tx[2]});
    }
    bench::emit(table, opt,
                "Ablation: spanning tree vs gossip vs flooding broadcast "
                "(5x5, reach among live tiles)");
    std::cout << "\nReading: the tree is 25x cheaper but sheds whole subtrees\n"
                 "per crash; gossip pays redundancy for graceful reach; \n"
                 "flooding pays double gossip for ~1 round less latency.\n";
    return 0;
}
