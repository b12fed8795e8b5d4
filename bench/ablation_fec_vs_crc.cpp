// Ablation (ours): link protection — CRC-detect-and-drop (the thesis'
// scheme) vs Hamming(72,64) SECDED forward error correction.
//
// Chapter 3 argues FEC "incurs significant additional processing
// complexity" and picks error-detection + gossip redundancy instead.
// This bench measures the actual trade: SECDED repairs most single-burst
// upsets (fewer losses, lower latency at high p_upset) but pays ~12.5%
// wire overhead on every packet, upset or not.
#include <iostream>

#include "bench_util.hpp"

int main(int argc, char** argv) {
    using namespace snoc;
    const auto opt = bench::options(argc, argv, 10);

    auto spec = bench::sweep(opt, "ablation_fec_vs_crc");
    spec.axes = {{"p_upset", {0.0, 0.2, 0.4, 0.6, 0.8, 0.9}}, {"secded", {0, 1}}};
    spec.trial = [](const SweepPoint& pt, std::uint64_t seed, TraceSink* sink) {
        FaultScenario s;
        s.p_upset = pt.value("p_upset");
        GossipSpec gs;
        gs.config = bench::config_with_p(0.5, 60);
        gs.config.link_protection = pt.index_of("secded") == 0
                                        ? LinkProtection::CrcDetect
                                        : LinkProtection::SecdedCorrect;
        gs.drain = true;
        GossipAdapter net(std::move(gs), s, seed);
        net.set_trace_sink(sink);
        apps::PiDeployment d;
        auto& master = apps::deploy_pi(net.network(), d);
        net.network().protect(d.master_tile);
        return net.run_until([&master] { return master.done(); }, 3000);
    };
    const auto cells = ScenarioRunner(std::move(spec)).run();

    Table table({"p_upset", "CRC latency", "FEC latency", "CRC loss [%]",
                 "FEC loss [%]", "CRC bits", "FEC bits"});
    for (std::size_t c = 0; c < cells.size(); c += 2) {
        std::vector<std::string> latency, loss, bits;
        for (const CellResult* cell : {&cells[c], &cells[c + 1]}) {
            if (cell->stats.completion_rate == 0.0) {
                for (auto* col : {&latency, &loss, &bits}) col->push_back("DNF");
                continue;
            }
            const auto lost = bench::accumulate(
                *cell,
                [](const RunReport& r) {
                    const auto& m = r.metrics;
                    return 100.0 *
                           static_cast<double>(m.crc_drops + m.fec_uncorrectable) /
                           static_cast<double>(m.packets_sent);
                },
                true);
            latency.push_back(format_number(cell->stats.rounds, 1));
            loss.push_back(format_number(lost.mean(), 1));
            bits.push_back(format_sci(cell->stats.bits, 2));
        }
        table.add_row({format_number(cells[c].point.value("p_upset"), 2), latency[0],
                       latency[1], loss[0], loss[1], bits[0], bits[1]});
    }
    bench::emit(table, opt,
                "Ablation: CRC-drop vs SECDED link protection (Master-Slave, p=0.5)");
    std::cout << "\nReading: FEC turns packet losses into corrections (lower\n"
                 "latency under heavy upsets) but every packet pays the Hamming\n"
                 "overhead even on a clean chip - the thesis' argument for\n"
                 "detection + gossip redundancy at low upset rates.\n";
    return 0;
}
