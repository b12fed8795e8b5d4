#include "energy/energy.hpp"

#include <gtest/gtest.h>

#include "sim/round_clock.hpp"

namespace snoc {
namespace {

TEST(Technology, PaperConstants) {
    const auto tech = Technology::cmos_025um();
    EXPECT_DOUBLE_EQ(tech.link_frequency_hz, 381e6);
    EXPECT_DOUBLE_EQ(tech.link_ebit_joules, 2.4e-10);
    EXPECT_DOUBLE_EQ(tech.bus_frequency_hz, 43e6);
    EXPECT_DOUBLE_EQ(tech.bus_ebit_joules, 21.6e-10);
}

TEST(NocEnergy, Eq3Arithmetic) {
    NetworkMetrics m;
    m.packets_sent = 100;
    m.bits_sent = 100 * 256; // S = 256 bits
    const auto report = noc_energy(m, Technology::cmos_025um(), 1e-5, 1000);
    // E = N * S * E_bit.
    EXPECT_DOUBLE_EQ(report.joules, 100.0 * 256.0 * 2.4e-10);
    EXPECT_DOUBLE_EQ(report.joules_per_useful_bit, report.joules / 1000.0);
    EXPECT_DOUBLE_EQ(report.seconds, 1e-5);
    EXPECT_DOUBLE_EQ(report.energy_delay_product,
                     report.joules_per_useful_bit * 1e-5);
}

TEST(NocEnergy, ZeroUsefulBitsLeavesRatiosZero) {
    NetworkMetrics m;
    m.bits_sent = 1000;
    const auto report = noc_energy(m, Technology::cmos_025um(), 1.0, 0);
    EXPECT_GT(report.joules, 0.0);
    EXPECT_DOUBLE_EQ(report.joules_per_useful_bit, 0.0);
    EXPECT_DOUBLE_EQ(report.energy_delay_product, 0.0);
}

TEST(BusEnergy, SerialisedTimeAndEnergy) {
    const auto report = bus_energy(43'000'000, Technology::cmos_025um(), 43'000'000);
    EXPECT_NEAR(report.seconds, 1.0, 1e-9); // 43 Mbit over a 43 MHz bus
    EXPECT_DOUBLE_EQ(report.joules, 43e6 * 21.6e-10);
    EXPECT_DOUBLE_EQ(report.joules_per_useful_bit, 21.6e-10);
}

TEST(BusEnergy, PerBitEnergyIsTechnologyConstant) {
    // Without gossip redundancy every bus bit is useful: J/bit == E_bit.
    for (std::size_t bits : {100u, 10000u, 1000000u}) {
        const auto report = bus_energy(bits, Technology::cmos_025um(), bits);
        EXPECT_DOUBLE_EQ(report.joules_per_useful_bit, 21.6e-10);
    }
}

TEST(Comparison, PaperEnergyRatioPerBit) {
    // Raw per-bit energies differ 9x (21.6 / 2.4); gossip redundancy eats
    // most of that margin, which is why Fig. 4-6 lands within ~5%.
    const auto tech = Technology::cmos_025um();
    EXPECT_NEAR(tech.bus_ebit_joules / tech.link_ebit_joules, 9.0, 1e-9);
}

TEST(NetworkMetrics, DerivedAverages) {
    NetworkMetrics m;
    m.rounds = 10;
    m.packets_sent = 200;
    m.bits_sent = 200 * 128;
    EXPECT_DOUBLE_EQ(m.average_packet_bits(), 128.0);
    NetworkMetrics empty;
    EXPECT_DOUBLE_EQ(empty.average_packet_bits(), 0.0);
}

TEST(RoundTiming, Eq2) {
    RoundTiming t;
    t.link_frequency_hz = 381e6;
    t.packets_per_round = 3.0;
    t.packet_bits = 127.0;
    EXPECT_DOUBLE_EQ(t.round_seconds(), 3.0 * 127.0 / 381e6);
}

} // namespace
} // namespace snoc
