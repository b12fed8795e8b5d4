// Codec invariants and hostile input for the packet wire format and the
// SECDED framing.
//
// The gossip engine never serialises a clean transmission: it accounts a
// wire's size from Packet::wire_bytes / fec::protected_bytes and carries
// the sender's message body instead of bytes.  That is exact only if the
// size helpers equal what the encoders produce and a clean wire decodes
// back to every field it was built from — pinned here across payload
// sizes that straddle the 8-byte SECDED word boundary.
//
// The decoders, in turn, only ever see corrupted bytes.  A seeded in-tree
// mutator (truncate, extend, rewrite the length field, random bit flips)
// throws damaged images at Packet::decode_wire and fec::recover; every
// call must either reject the input or return a well-formed result.  The
// sanitizer CI legs run this file like any other, so an out-of-bounds
// read or overflow in either decoder fails there.
#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "noc/crc.hpp"
#include "noc/fec.hpp"
#include "noc/packet.hpp"

namespace snoc {
namespace {

constexpr std::size_t kLengthOffset = 22; // origin, seq, src, dst, tag, ttl
constexpr std::size_t kCrcBytes = 4;

Message random_message(RngStream& rng, std::size_t payload_bytes) {
    Message m;
    m.id = MessageId{static_cast<TileId>(rng.below(1u << 20)),
                     static_cast<std::uint32_t>(rng.bits())};
    m.source = static_cast<TileId>(rng.below(1u << 20));
    m.destination = rng.below(4) == 0 ? kBroadcast : static_cast<TileId>(rng.below(4096));
    m.tag = static_cast<std::uint32_t>(rng.bits());
    m.ttl = static_cast<std::uint16_t>(rng.bits());
    m.payload.resize(payload_bytes);
    for (auto& b : m.payload) b = static_cast<std::byte>(rng.bits() & 0xFF);
    return m;
}

void put_u32(std::vector<std::byte>& wire, std::size_t at, std::uint32_t v) {
    for (std::size_t i = 0; i < 4; ++i)
        wire[at + i] = static_cast<std::byte>((v >> (8 * i)) & 0xFF);
}

std::uint32_t get_u32(const std::vector<std::byte>& wire, std::size_t at) {
    std::uint32_t v = 0;
    for (std::size_t i = 0; i < 4; ++i)
        v |= static_cast<std::uint32_t>(wire[at + i]) << (8 * i);
    return v;
}

/// Recompute the trailing CRC-32 so a mutation reaches the framing
/// checks behind the CRC gate.
void fix_crc(std::vector<std::byte>& wire) {
    if (wire.size() < kCrcBytes) return;
    const std::size_t body = wire.size() - kCrcBytes;
    put_u32(wire, body, crc::crc32(std::span<const std::byte>(wire).first(body)));
}

// --- Invariants -------------------------------------------------------

class CodecInvariants : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CodecInvariants, DecodeOfEncodeReproducesEveryField) {
    RngStream rng(GetParam() * 977 + 3);
    for (int i = 0; i < 8; ++i) {
        const Message m = random_message(rng, GetParam());
        const auto decoded = Packet::decode_wire(Packet::encode(m).wire());
        ASSERT_TRUE(decoded.has_value());
        EXPECT_EQ(decoded->id, m.id);
        EXPECT_EQ(decoded->source, m.source);
        EXPECT_EQ(decoded->destination, m.destination);
        EXPECT_EQ(decoded->tag, m.tag);
        EXPECT_EQ(decoded->ttl, m.ttl);
        EXPECT_EQ(decoded->payload, m.payload);
        // A shared body plus a separate TTL encodes to the same bytes.
        const MessageBody& body = m;
        EXPECT_EQ(Packet::encode(body, m.ttl).wire(), Packet::encode(m).wire());
    }
}

TEST_P(CodecInvariants, SizeHelpersMatchTheEncoders) {
    RngStream rng(GetParam() * 131 + 5);
    const Message m = random_message(rng, GetParam());
    const Packet p = Packet::encode(m);
    EXPECT_EQ(Packet::wire_bytes(GetParam()), p.byte_size());
    const auto protected_wire = fec::protect(p.wire());
    EXPECT_EQ(fec::protected_bytes(p.byte_size()), protected_wire.bytes.size());
    // And the protected image recovers to the plain one, correction-free.
    const auto recovered = fec::recover(protected_wire.bytes);
    ASSERT_TRUE(recovered.ok);
    EXPECT_EQ(recovered.corrected_words, 0u);
    EXPECT_EQ(recovered.payload, p.wire());
}

INSTANTIATE_TEST_SUITE_P(PayloadBytes, CodecInvariants,
                         ::testing::Values(0, 1, 7, 8, 9, 32, 295, 4096));

// --- Hostile input ----------------------------------------------------

enum class Mutation { Truncate, Extend, RewriteLength, Flip, kCount };

/// Apply one seeded mutation.  `length_at` is where the image keeps its
/// length field; `crc` says whether the image ends in a CRC-32 to fix up
/// (half the time) after the mutation.
std::vector<std::byte> mutate(std::vector<std::byte> wire, RngStream& rng,
                              std::size_t length_at, bool crc) {
    switch (static_cast<Mutation>(rng.below(static_cast<std::uint64_t>(Mutation::kCount)))) {
    case Mutation::Truncate:
        wire.resize(rng.below(wire.size() + 1));
        break;
    case Mutation::Extend:
        for (std::uint64_t n = 1 + rng.below(24); n > 0; --n)
            wire.push_back(static_cast<std::byte>(rng.bits() & 0xFF));
        break;
    case Mutation::RewriteLength: {
        if (wire.size() < length_at + 4) break;
        const std::uint32_t old = get_u32(wire, length_at);
        const std::uint32_t candidates[] = {0u,         old + 1,     old - 1,
                                            old + 8,    old - 8,     0xFFFFFFFFu,
                                            0x7FFFFFFFu, static_cast<std::uint32_t>(rng.bits())};
        put_u32(wire, length_at, candidates[rng.below(std::size(candidates))]);
        break;
    }
    case Mutation::Flip:
        if (wire.empty()) break;
        for (std::uint64_t n = 1 + rng.below(8); n > 0; --n) {
            const std::size_t bit = rng.below(wire.size() * 8);
            wire[bit / 8] ^= static_cast<std::byte>(1u << (bit % 8));
        }
        break;
    case Mutation::kCount:
        break;
    }
    if (crc && rng.below(2) == 0) fix_crc(wire);
    return wire;
}

constexpr std::size_t kPayloadSizes[] = {0, 1, 7, 8, 9, 32, 295};
constexpr int kMutantsPerSize = 1500;

TEST(CodecHostileInput, DecodeWireRejectsOrReturnsAWellFormedMessage) {
    RngStream rng(20031);
    std::size_t accepted = 0;
    std::size_t rejected = 0;
    for (std::size_t size : kPayloadSizes) {
        const auto wire = Packet::encode(random_message(rng, size)).wire();
        for (int i = 0; i < kMutantsPerSize; ++i) {
            const auto bad = mutate(wire, rng, kLengthOffset, /*crc=*/true);
            const auto decoded = Packet::decode_wire(bad);
            if (!decoded) {
                ++rejected;
                continue;
            }
            ++accepted;
            // Well-formed: the framing accounts for every byte, and the
            // message re-encodes to exactly the image that was accepted.
            ASSERT_EQ(Packet::wire_bytes(decoded->payload.size()), bad.size());
            ASSERT_EQ(Packet::encode(*decoded).wire(), bad);
        }
    }
    // Both outcomes occur: CRC fix-ups of size-preserving flips are valid
    // packets; everything else is turned away.
    EXPECT_GT(accepted, 0u);
    EXPECT_GT(rejected, accepted);
}

TEST(CodecHostileInput, RecoverRejectsOrReturnsAWellFramedPayload) {
    RngStream rng(7);
    std::size_t accepted = 0;
    std::size_t rejected = 0;
    for (std::size_t size : kPayloadSizes) {
        const auto plain = Packet::encode(random_message(rng, size)).wire();
        const auto wire = fec::protect(plain).bytes;
        for (int i = 0; i < kMutantsPerSize; ++i) {
            const auto bad = mutate(wire, rng, /*length_at=*/0, /*crc=*/false);
            const auto recovered = fec::recover(bad);
            if (!recovered.ok) {
                ++rejected;
                continue;
            }
            ++accepted;
            ASSERT_EQ(recovered.payload.size(), get_u32(bad, 0));
            ASSERT_EQ(fec::protected_bytes(recovered.payload.size()), bad.size());
            if (recovered.corrected_words == 0) {
                // Uncorrected words pass through verbatim, cut at the
                // declared length (the last word's padding is not data).
                std::vector<std::byte> data;
                for (std::size_t base = 4; base < bad.size(); base += 9)
                    data.insert(data.end(), bad.begin() + base, bad.begin() + base + 8);
                data.resize(recovered.payload.size());
                ASSERT_EQ(recovered.payload, data);
            }
            // Whatever SECDED hands on, the packet decoder copes with.
            const auto decoded = Packet::decode_wire(recovered.payload);
            if (decoded) {
                ASSERT_EQ(Packet::encode(*decoded).wire(), recovered.payload);
            }
        }
    }
    EXPECT_GT(accepted, 0u);
    EXPECT_GT(rejected, 0u);
}

} // namespace
} // namespace snoc
