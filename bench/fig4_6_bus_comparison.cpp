// Figure 4-6: stochastic NoC vs. a bus-based solution (Sec. 4.1.4).
//
// Same application traffic (Master-Slave pi), same 0.25um technology:
// tile link 381 MHz / 2.4e-10 J/bit, bus 43 MHz / 21.6e-10 J/bit.
// Three runs + average, as in the thesis.  Expected shape: the NoC's
// energy per useful bit lands near the bus's (within a small factor, the
// thesis reports +5%), while its latency is an order of magnitude better
// (the thesis reports 11x) — so the energy x delay product strongly
// favours the NoC (7e-12 vs 133e-12 J*s/bit in the thesis).
#include <iostream>

#include "bench_util.hpp"
#include "bus/bus.hpp"

int main(int argc, char** argv) {
    using namespace snoc;
    const auto opt = bench::options(argc, argv, 3);
    const auto tech = Technology::cmos_025um();
    const apps::PiDeployment deployment;
    auto trace = apps::pi_trace(deployment);
    const std::size_t useful = trace.useful_bits();
    // Fair framing: the bus carries the same packets (header + CRC), not
    // bare payloads.
    for (auto& phase : trace.phases)
        for (auto& m : phase.messages) m.bits += kWireOverheadBytes * 8;

    // TTL scaled to the spread bound of Sec. 3.1 (O(ln n) rounds, ln 25 ~
    // 3.2): the broadcast is stopped once the message has reached its
    // destination w.h.p., which is what keeps gossip's redundancy within
    // an order of magnitude of the bus (the knob the thesis turns when it
    // reports near-parity energy).
    constexpr std::uint16_t kTunedTtl = 8;

    Table table({"run", "latency [us]", "energy [J/bit]", "ExD [J*s/bit]"});

    // --- Stochastic NoC runs -------------------------------------------
    // The comparison runs the chip-is-healthy case (Sec. 4.1.4), so we
    // enable the Sec. 3.2.2 spread-stop optimisation and direct
    // addressing: a rumor stops being relayed once its destination has
    // it, which is what keeps gossip's energy in the bus's ballpark.
    // TTL-tuned gossip leaves a small per-run chance that a rumor dies
    // before reaching its destination; like the thesis we report
    // (averages over) completed runs — the runner's retry policy re-rolls
    // an incomplete run from a far-away seed, with a hard attempt cap
    // instead of the old unbounded `seed += 100` spin.
    auto spec = bench::sweep(opt, "fig4_6 NoC");
    spec.max_attempts = 50;
    spec.retry_seed_stride = 100;
    spec.trial = [&](const SweepPoint&, std::uint64_t seed, TraceSink* sink) {
        auto config = bench::config_with_p(0.5, kTunedTtl);
        config.stop_spread_on_delivery = true;
        return bench::run_pi_once(config, FaultScenario::none(), 0, seed,
                                  /*duplicate_slaves=*/false, 3000,
                                  /*direct_addressing=*/true, nullptr, sink);
    };
    const auto cells = ScenarioRunner(spec).run();
    const auto& runs = cells.front().reports;

    Accumulator noc_lat, noc_energy_pb, noc_exd;
    std::size_t completed_runs = 0;
    for (std::size_t run = 0; run < runs.size(); ++run) {
        const RunReport& r = runs[run];
        if (!r.completed) continue; // cap exhausted; count below.
        ++completed_runs;
        // Eq. 2: T_R from the measured average packet size; a link carries
        // ~1 packet per round on average in this workload.
        const double s_bits = static_cast<double>(r.bits) /
                              std::max<std::size_t>(r.transmissions, 1);
        RoundTiming timing;
        timing.link_frequency_hz = tech.link_frequency_hz;
        timing.packet_bits = s_bits;
        const double latency_s =
            static_cast<double>(r.rounds) * timing.round_seconds();
        const double jpb = bench::joules_per_useful_bit(
            static_cast<double>(r.bits), useful);
        noc_lat.add(latency_s * 1e6);
        noc_energy_pb.add(jpb);
        noc_exd.add(jpb * latency_s);
        table.add_row({"NoC run " + std::to_string(run + 1),
                       format_number(latency_s * 1e6, 3), format_sci(jpb, 2),
                       format_sci(jpb * latency_s, 2)});
    }
    table.add_row({"NoC average", format_number(noc_lat.mean(), 3),
                   format_sci(noc_energy_pb.mean(), 2), format_sci(noc_exd.mean(), 2)});

    // --- Bus baseline ---------------------------------------------------
    BusAdapter bus(BusSpec{25, tech}, FaultScenario::none(), opt.seed);
    const auto bus_result = bus.run(trace, 0);
    const double bus_jpb = bus_result.joules / static_cast<double>(useful);
    table.add_row({"Bus", format_number(bus_result.seconds * 1e6, 3),
                   format_sci(bus_jpb, 2),
                   format_sci(bus_jpb * bus_result.seconds, 2)});

    bench::emit(table, opt, "Fig. 4-6: stochastic NoC vs bus-based solution");

    std::cout << "\nretry attempts per NoC run (cap " << spec.max_attempts << "):";
    for (const RunReport& r : runs) std::cout << ' ' << r.attempts;
    std::cout << " (" << completed_runs << '/' << runs.size() << " completed)\n";

    const double latency_gain = bus_result.seconds / (noc_lat.mean() * 1e-6);
    const double energy_ratio = noc_energy_pb.mean() / bus_jpb;
    const double exd_gain = (bus_jpb * bus_result.seconds) / noc_exd.mean();
    std::cout << "NoC latency advantage: " << format_number(latency_gain, 1)
              << "x (paper: ~11x)\n"
              << "NoC/bus energy-per-bit ratio: " << format_number(energy_ratio, 2)
              << " (paper: ~1.05)\n"
              << "energy x delay advantage: " << format_number(exd_gain, 1)
              << "x (paper: ~19x)\n";
    return latency_gain > 1.0 && completed_runs == runs.size() ? 0 : 1;
}
