// Run-level counters: everything Sec. 3.3 declares relevant — rounds
// (latency), packets sent (bandwidth / energy via Eq. 3), drop taxonomy
// (fault-tolerance), plus the per-round spread curve used by Fig. 3-1.
#pragma once

#include <cstddef>
#include <vector>

namespace snoc {

struct NetworkMetrics {
    std::size_t rounds{0};            ///< rounds executed.
    std::size_t packets_sent{0};      ///< total link transmissions.
    std::size_t bits_sent{0};         ///< exact wire bits (for Eq. 3).
    std::size_t messages_created{0};  ///< unique messages injected by IPs.
    std::size_t deliveries{0};        ///< first-time deliveries to destination IPs.
    std::size_t duplicates_ignored{0};///< re-received known messages.
    std::size_t crc_drops{0};         ///< packets discarded by CRC check.
    std::size_t upsets_undetected{0}; ///< corrupted packets the CRC missed.
    std::size_t overflow_drops{0};    ///< forced p_overflow + capacity drops.
    std::size_t ttl_expired{0};       ///< messages garbage-collected at TTL 0.
    // Conservation-ledger taxonomy (see check/ledger.hpp): these three
    // complete the per-copy fate accounting so the InvariantAuditor can
    // verify injected == delivered + dropped(...) + in-flight exactly.
    std::size_t crash_drops{0};         ///< transmissions sunk into dead tiles.
    std::size_t port_overflow_drops{0}; ///< the receive-side slice of
                                        ///< overflow_drops (the rest are
                                        ///< send-buffer evictions).
    std::size_t packets_accepted{0};    ///< wire copies merged into a send
                                        ///< buffer (non-duplicate receives).
    std::size_t skew_deferrals{0};    ///< arrivals pushed a round by clock skew.
    std::size_t fec_corrected{0};     ///< SECDED words repaired at receivers.
    std::size_t fec_uncorrectable{0}; ///< packets lost to multi-bit upsets.

    /// packets sent in each round (index = round).
    std::vector<std::size_t> packets_per_round;

    /// wire bits transmitted by each tile (index = tile) — lets island-
    /// aware energy models weight traffic by the sender's supply voltage.
    std::vector<std::size_t> bits_sent_by_tile;

    /// packets carried by each directed link (index = LinkId).  Sec. 3.3.1:
    /// "This protocol spreads the traffic onto all the links in the
    /// network, thereby reducing the chances that packets are delayed
    /// because of congestion" — this is the evidence.
    std::vector<std::size_t> packets_by_link;

    /// Max-to-mean ratio of per-link traffic (1 = perfectly even).
    double link_hotspot_factor() const {
        if (packets_by_link.empty() || packets_sent == 0) return 0.0;
        std::size_t max = 0;
        for (auto n : packets_by_link) max = n > max ? n : max;
        const double mean = static_cast<double>(packets_sent) /
                            static_cast<double>(packets_by_link.size());
        return mean > 0.0 ? static_cast<double>(max) / mean : 0.0;
    }

    /// Average packet size S in bits (Eq. 2 / Eq. 3).
    double average_packet_bits() const {
        if (packets_sent == 0) return 0.0;
        return static_cast<double>(bits_sent) / static_cast<double>(packets_sent);
    }
};

} // namespace snoc
