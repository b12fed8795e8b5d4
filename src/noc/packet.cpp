#include "noc/packet.hpp"

#include <cstring>
#include <span>

#include "common/expect.hpp"
#include "noc/crc.hpp"

namespace snoc {

namespace {

// Little-endian scalar append/read helpers over the wire buffer.
template <typename T>
void put(std::vector<std::byte>& out, T v) {
    static_assert(std::is_integral_v<T>);
    for (std::size_t i = 0; i < sizeof(T); ++i)
        out.push_back(static_cast<std::byte>((static_cast<std::uint64_t>(v) >> (8 * i)) & 0xFF));
}

template <typename T>
bool get(std::span<const std::byte> in, std::size_t& pos, T& v) {
    if (pos + sizeof(T) > in.size()) return false;
    std::uint64_t acc = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i)
        acc |= static_cast<std::uint64_t>(in[pos + i]) << (8 * i);
    v = static_cast<T>(acc);
    pos += sizeof(T);
    return true;
}

constexpr std::size_t kHeaderBytes = 4 /*origin*/ + 4 /*seq*/ + 4 /*src*/ +
                                     4 /*dst*/ + 4 /*tag*/ + 2 /*ttl*/ +
                                     4 /*payload len*/;
constexpr std::size_t kCrcBytes = kWireCrcBytes;

static_assert(kHeaderBytes + kCrcBytes == kWireOverheadBytes);

} // namespace

Packet Packet::encode(const MessageBody& m, std::uint16_t ttl) {
    std::vector<std::byte> wire;
    wire.reserve(wire_bytes(m.payload.size()));
    put<std::uint32_t>(wire, m.id.origin);
    put<std::uint32_t>(wire, m.id.sequence);
    put<std::uint32_t>(wire, m.source);
    put<std::uint32_t>(wire, m.destination);
    put<std::uint32_t>(wire, m.tag);
    put<std::uint16_t>(wire, ttl);
    put<std::uint32_t>(wire, static_cast<std::uint32_t>(m.payload.size()));
    wire.insert(wire.end(), m.payload.begin(), m.payload.end());
    const std::uint32_t crc = crc::crc32(std::span<const std::byte>(wire));
    put<std::uint32_t>(wire, crc);
    return Packet(std::move(wire));
}

Packet Packet::from_wire(std::vector<std::byte> wire) { return Packet(std::move(wire)); }

bool Packet::crc_ok() const { return crc_ok_wire(wire_); }

std::optional<Message> Packet::decode() const { return decode_wire(wire_); }

bool Packet::crc_ok_wire(std::span<const std::byte> wire) {
    if (wire.size() < kHeaderBytes + kCrcBytes) return false;
    const std::size_t body = wire.size() - kCrcBytes;
    std::size_t pos = body;
    std::uint32_t stored = 0;
    if (!get(wire, pos, stored)) return false;
    const std::uint32_t computed = crc::crc32(wire.subspan(0, body));
    return stored == computed;
}

std::optional<Message> Packet::decode_wire(std::span<const std::byte> wire) {
    if (!crc_ok_wire(wire)) return std::nullopt;
    std::size_t pos = 0;
    Message m;
    std::uint32_t payload_len = 0;
    if (!get(wire, pos, m.id.origin) || !get(wire, pos, m.id.sequence) ||
        !get(wire, pos, m.source) || !get(wire, pos, m.destination) ||
        !get(wire, pos, m.tag) || !get(wire, pos, m.ttl) || !get(wire, pos, payload_len))
        return std::nullopt;
    if (pos + payload_len + kCrcBytes != wire.size()) return std::nullopt;
    const auto* base = wire.data() + pos;
    m.payload.assign(base, base + payload_len);
    return m;
}

} // namespace snoc
