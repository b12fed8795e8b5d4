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
    reject_telemetry_flags(opt, argv[0]);

    struct Trial {
        bool completed{false};
        double latency{0.0}, loss{0.0}, bits{0.0};
    };

    Table table({"p_upset", "CRC latency", "FEC latency", "CRC loss [%]",
                 "FEC loss [%]", "CRC bits", "FEC bits"});
    for (double upset : {0.0, 0.2, 0.4, 0.6, 0.8, 0.9}) {
        struct Stats {
            Accumulator latency, loss, bits;
            std::size_t completed{0};
        };
        Stats stats[2];
        for (int mode = 0; mode < 2; ++mode) {
            const auto prot = mode == 0 ? LinkProtection::CrcDetect
                                        : LinkProtection::SecdedCorrect;
            const auto trials = run_trials(
                opt.repeats,
                [&](std::uint64_t seed) {
                    FaultScenario s;
                    s.p_upset = upset;
                    GossipConfig c = bench::config_with_p(0.5, 60);
                    c.link_protection = prot;
                    GossipNetwork net(Topology::mesh(5, 5), c, s, seed);
                    apps::PiDeployment d;
                    auto& master = apps::deploy_pi(net, d);
                    net.protect(d.master_tile);
                    const auto r =
                        net.run_until([&master] { return master.done(); }, 3000);
                    Trial out;
                    if (!r.completed) return out;
                    out.completed = true;
                    out.latency = static_cast<double>(r.rounds);
                    net.drain();
                    const auto& m = net.metrics();
                    out.loss = 100.0 *
                               static_cast<double>(m.crc_drops + m.fec_uncorrectable) /
                               static_cast<double>(m.packets_sent);
                    out.bits = static_cast<double>(m.bits_sent);
                    return out;
                },
                opt.jobs);
            for (const Trial& t : trials) {
                if (!t.completed) continue;
                ++stats[mode].completed;
                stats[mode].latency.add(t.latency);
                stats[mode].loss.add(t.loss);
                stats[mode].bits.add(t.bits);
            }
        }
        auto cell = [](const Stats& s, auto f) {
            return s.completed ? f() : std::string("DNF");
        };
        table.add_row(
            {format_number(upset, 2),
             cell(stats[0], [&] { return format_number(stats[0].latency.mean(), 1); }),
             cell(stats[1], [&] { return format_number(stats[1].latency.mean(), 1); }),
             cell(stats[0], [&] { return format_number(stats[0].loss.mean(), 1); }),
             cell(stats[1], [&] { return format_number(stats[1].loss.mean(), 1); }),
             cell(stats[0], [&] { return format_sci(stats[0].bits.mean(), 2); }),
             cell(stats[1], [&] { return format_sci(stats[1].bits.mean(), 2); })});
    }
    bench::emit(table, opt,
                "Ablation: CRC-drop vs SECDED link protection (Master-Slave, p=0.5)");
    std::cout << "\nReading: FEC turns packet losses into corrections (lower\n"
                 "latency under heavy upsets) but every packet pays the Hamming\n"
                 "overhead even on a clean chip - the thesis' argument for\n"
                 "detection + gossip redundancy at low upset rates.\n";
    return 0;
}
