// Tunables of the stochastic communication scheme (Sec. 3.2).
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/expect.hpp"
#include "sim/round_clock.hpp"

namespace snoc {

/// How a link protects packets against data upsets (the ARQ-vs-FEC
/// discussion of Ch. 3).  `CrcDetect` is the thesis' scheme: scrambled
/// packets are dropped and gossip redundancy replaces retransmission.
/// `SecdedCorrect` adds Hamming(72,64) forward error correction under the
/// CRC: single-bit upsets per 64-bit word are repaired at the receiver at
/// the cost of 12.5% wire overhead.
enum class LinkProtection : std::uint8_t { CrcDetect, SecdedCorrect };

constexpr const char* to_string(LinkProtection p) {
    switch (p) {
    case LinkProtection::CrcDetect: return "crc-detect";
    case LinkProtection::SecdedCorrect: return "secded-correct";
    }
    return "?";
}

struct GossipConfig {
    /// p — probability that a message in the send buffer is forwarded over
    /// each output link in a round.  p = 1 degenerates to flooding
    /// (latency-optimal, energy-worst); the thesis sweeps {1, .75, .5, .25}.
    double forward_p{0.5};

    /// TTL assigned to newly created messages; decremented every round a
    /// copy is held, garbage-collected at 0.  Bounds bandwidth and energy.
    std::uint16_t default_ttl{24};

    /// Capacity of a tile's send buffer (list of messages to forward).
    std::size_t send_buffer_capacity{256};

    /// Capacity of each input port buffer.
    std::size_t in_buffer_capacity{256};

    /// Timing parameters for Eq. 2 (latency in seconds, Fig. 4-6).
    RoundTiming timing{};

    /// Sec. 3.2.2: "since a message might reach its destination before the
    /// broadcast is completed, the spread could be terminated even earlier
    /// in order to reduce the number of messages transmitted".  When set,
    /// a unicast rumor stops being forwarded network-wide once its
    /// destination has received it (an oracle idealisation of that
    /// optimisation — real hardware would approximate it with a small TTL
    /// or kill messages).  Broadcast rumors are unaffected.  Used by the
    /// energy accounting of the Fig. 4-6 comparison.
    bool stop_spread_on_delivery{false};

    /// Link-level protection scheme (see LinkProtection).
    LinkProtection link_protection{LinkProtection::CrcDetect};

    /// Diagnostic knob: the byte-level oracle.  Every port transmission
    /// serialises (and CRC / FEC-protects) its own wire image, and every
    /// arrival — clean duplicates included — is FEC-stripped, CRC-checked
    /// and decoded from those bytes.  The production path instead carries
    /// the sender's shared message body and materialises bytes only for
    /// upset transmissions.  Observable behaviour must be identical
    /// either way — test_engine_equivalence asserts it metric-for-metric
    /// and trace-for-trace, and perf_microbench's BM_GossipRoundReference
    /// measures what the shortcut saves.  Never set this in real
    /// experiments.
    bool reference_encode_path{false};

    void validate() const {
        SNOC_EXPECT(forward_p >= 0.0 && forward_p <= 1.0);
        SNOC_EXPECT(default_ttl > 0);
        SNOC_EXPECT(send_buffer_capacity > 0);
        SNOC_EXPECT(in_buffer_capacity > 0);
    }

    static GossipConfig flooding() {
        GossipConfig c;
        c.forward_p = 1.0;
        return c;
    }
};

} // namespace snoc
