// What a receiver's link checks make of an arriving packet (Fig. 3-4:
// send_buffer <- {m received | CRC_OK(m)}, after the optional SECDED
// layer), decided two ways:
//
//   * from the wire bytes: FEC-strip, CRC-check and decode — the
//     reference, and what any arrival carrying bytes goes through;
//   * from an upset's flip positions alone.  CRC-32 and Hamming(72,64)
//     are both linear, so a corrupted copy of a valid wire passes or
//     fails each check as a function of the error vector only: the
//     message bytes never need to exist.
//
// The sparse verdict declines (nullopt) exactly when corrupted content
// could get through, so the bytes must tell what arrives: a vector the
// CRC would pass, a flip in SECDED's unprotected length prefix that
// leaves the frame size intact, or a SECDED miscorrection whose data
// residual reaches the payload.  tests/test_verdict.cpp checks the two
// against each other on random and adversarial vectors.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "noc/crc.hpp"
#include "noc/packet.hpp"

namespace snoc {

enum class WireAction : std::uint8_t {
    Deliver, ///< the link checks pass; the (decoded) message arrives.
    CrcDrop, ///< the CRC rejects it (or its framing is broken).
    FecDrop, ///< a SECDED word is uncorrectable, or the framing broke.
};

struct LinkVerdict {
    WireAction action{WireAction::Deliver};
    /// SECDED words repaired before the CRC saw the packet (also counted
    /// when the CRC then drops it).
    std::size_t fec_corrected{0};
};

struct WireDecode {
    LinkVerdict verdict;
    std::optional<Message> message; ///< set iff verdict.action == Deliver.
};

/// The byte path: strip SECDED (when `secded`), then CRC-check and
/// decode.  Timed as `noc/secded` and `noc/crc` unless `timed` is false
/// (a cross-check that must not show up in profiles).
WireDecode decode_link_wire(const std::vector<std::byte>& wire, bool secded,
                            bool timed = true);

/// CRC-32's distance on every wire this simulator sends: no pattern of
/// fewer than kCrcDistance flipped bits anywhere on a wire of at most
/// kCrcDistanceWireBytes bytes (CRC field included) passes the CRC.
/// tests/test_verdict.cpp proves it over every weight-1, -2 and -3
/// pattern at that length, which covers every shorter wire, and finds a
/// weight-4 pattern that passes within it.  The length is at least the
/// longest wire any bench or test sends (554 bytes).
inline constexpr std::size_t kCrcDistance = 4;
inline constexpr std::size_t kCrcDistanceWireBytes = 1024;

/// Verdicts on upset copies of valid wires from their flip positions.
/// Holds the CRC column table, grown to the longest packet seen.
class SparseVerdicts {
public:
    /// The verdict on a valid wire of a `packet_bytes`-byte packet
    /// (Packet::wire_bytes; SECDED-protected when `secded`) with the
    /// given wire bits flipped, or nullopt if only the bytes can tell.
    /// `flips` is non-empty and ascending.  Times itself as `noc/crc` or
    /// `noc/secded` unless it declines: the byte path then times the
    /// arrival instead.
    std::optional<LinkVerdict> decide(std::size_t packet_bytes,
                                      std::span<const std::size_t> flips, bool secded);

    /// True iff every pattern of `flips` flipped bits on a valid
    /// CRC-only wire of a `packet_bytes`-byte packet fails the CRC, so the
    /// upset is a CRC drop whichever bits it hit.
    static constexpr bool crc_drops_any(std::size_t packet_bytes, std::size_t flips) {
        return flips > 0 && flips < kCrcDistance && packet_bytes <= kCrcDistanceWireBytes;
    }

private:
    std::optional<LinkVerdict> crc_verdict(std::size_t packet_bytes,
                                           std::span<const std::size_t> flips);
    static std::optional<LinkVerdict> secded_verdict(std::size_t packet_bytes,
                                                     std::span<const std::size_t> flips);

    crc::Crc32Columns columns_;
};

} // namespace snoc
