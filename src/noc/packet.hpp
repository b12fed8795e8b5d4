// On-chip packets and their wire representation.
//
// Messages are the unit the gossip algorithm manipulates (Fig. 3-4);
// Packets are the serialised bits that traverse a link and that data
// upsets corrupt.  The gossip engine usually decides an upset packet's
// CRC and SECDED verdict from its flip positions alone (noc/verdict.hpp):
// both codes are linear, so the verdict depends on the error vector only.
// Whenever corrupted content could get through (a vector the CRC passes,
// a SECDED miscorrection, a length-prefix hit that keeps the frame size),
// the flips are applied to real bytes and checked by the real CRC, so the
// (tiny) undetected-error path exists in code exactly as it would on
// silicon.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/types.hpp"

namespace snoc {

/// Destination value meaning "broadcast: every tile is interested".
inline constexpr TileId kBroadcast = kNoTile;

/// The trailing CRC-32 field: the last bytes of every wire image.
inline constexpr std::size_t kWireCrcBytes = 4;

/// Framing cost of one packet: header (origin, seq, src, dst, tag, ttl,
/// payload length) plus the trailing CRC-32.  Any medium carrying a
/// message pays this overhead on top of the payload.
inline constexpr std::size_t kWireOverheadBytes = 26 + kWireCrcBytes;

/// Everything a rumor's copies share: what the sender's IP created, minus
/// the TTL.  The gossip engine allocates one immutable body per send() and
/// hands the same body to every send-buffer entry and in-flight copy of
/// that rumor (core/send_buffer.hpp).  Replicas sent with the same id from
/// different tiles differ in `source`, so a body is never keyed by id.
struct MessageBody {
    MessageId id{};           ///< (origin, sequence) — unique network-wide.
    TileId source{0};         ///< tile that created the message.
    TileId destination{0};    ///< tile whose IP should consume it (or kBroadcast).
    std::uint32_t tag{0};     ///< application-defined type discriminator.
    std::vector<std::byte> payload;

    /// Two messages are "the same rumor" iff their ids match; the
    /// send-buffer dedups on this (Sec. 3.2.3).  Equality ignores the TTL.
    friend bool operator==(const MessageBody& a, const MessageBody& b) {
        return a.id == b.id && a.source == b.source &&
               a.destination == b.destination && a.tag == b.tag &&
               a.payload == b.payload;
    }
};

/// An application-level message travelling through the NoC: a body plus
/// the copy's remaining hop budget.
struct Message : MessageBody {
    std::uint16_t ttl{0};     ///< remaining hops before garbage collection.
};

/// Serialised form: header + payload + trailing CRC-32.
class Packet {
public:
    /// Serialise a message (computes and appends the CRC).
    static Packet encode(const Message& m) { return encode(m, m.ttl); }
    /// Same, for a shared body carried with a separate TTL.
    static Packet encode(const MessageBody& body, std::uint16_t ttl);

    /// Wire size of a message with `payload_bytes` of payload — what
    /// encode() produces, known without serialising anything.
    static constexpr std::size_t wire_bytes(std::size_t payload_bytes) {
        return kWireOverheadBytes + payload_bytes;
    }

    /// Construct from raw wire bytes (e.g. after corruption).
    static Packet from_wire(std::vector<std::byte> wire);

    /// CRC check: true iff the trailing CRC matches the content.
    bool crc_ok() const;

    /// Deserialise; nullopt if the CRC fails or the framing is invalid.
    /// (Fig. 3-4: send_buffer <- {m received | CRC_OK(m)}.)
    std::optional<Message> decode() const;

    /// Same checks straight off raw wire bytes — the receive path decodes
    /// a wire image shared by several transmissions without constructing
    /// (and copying into) a Packet first.
    static bool crc_ok_wire(std::span<const std::byte> wire);
    static std::optional<Message> decode_wire(std::span<const std::byte> wire);

    /// Size on the wire, in bits — the S of Eq. 2/3.
    std::size_t bit_size() const { return wire_.size() * 8; }
    std::size_t byte_size() const { return wire_.size(); }

    const std::vector<std::byte>& wire() const { return wire_; }
    std::vector<std::byte>& mutable_wire() { return wire_; }

private:
    explicit Packet(std::vector<std::byte> wire) : wire_(std::move(wire)) {}
    std::vector<std::byte> wire_;
};

} // namespace snoc
