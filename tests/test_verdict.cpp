// Oracle for the sparse upset verdicts (noc/verdict.hpp).  The gossip
// engine decides an upset packet's CRC and SECDED fate from its flip
// positions and never builds the bytes unless that verdict declines.
// Here every verdict is checked against the byte path it replaces:
// corrupt a real wire with the same flips, then fec::recover (under
// SECDED) and Packet::decode_wire.  Action, repaired-word count and the
// delivered message must all agree.  A declined verdict must be one the
// bytes really need: a vector the CRC passes, a length-prefix hit that
// keeps the frame size, or a SECDED miscorrection that reaches the CRC.
//
// Random wires of 30-1000 bytes (the shortest packet is 30) with 1-4
// random flips, plus forced cases: header and CRC-field hits, every
// length-prefix bit, last-word padding, 2- and 3-flip SECDED words
// (miscorrections included) and a CRC-passing vector.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "fault/injector.hpp"
#include "noc/fec.hpp"
#include "noc/packet.hpp"
#include "noc/verdict.hpp"

namespace snoc {
namespace {

constexpr std::size_t kHeaderBytes = kWireOverheadBytes - kWireCrcBytes;

/// A valid wire image and what it was built from.
struct Wire {
    Message message;
    std::vector<std::byte> plain; ///< header + payload + CRC.
    std::vector<std::byte> bytes; ///< what the link carries.
    bool secded{false};
};

Message random_message(RngStream& rng, std::size_t payload_bytes) {
    Message m;
    m.id = MessageId{static_cast<TileId>(rng.below(1u << 20)),
                     static_cast<std::uint32_t>(rng.bits())};
    m.source = static_cast<TileId>(rng.below(1u << 20));
    m.destination = static_cast<TileId>(rng.below(4096));
    m.tag = static_cast<std::uint32_t>(rng.bits());
    m.ttl = static_cast<std::uint16_t>(1 + rng.below(64));
    m.payload.resize(payload_bytes);
    for (auto& b : m.payload) b = static_cast<std::byte>(rng.bits() & 0xFF);
    return m;
}

Wire make_wire(Message m, bool secded) {
    Wire w;
    w.plain = Packet::encode(m).wire();
    w.bytes = secded ? fec::protect(w.plain).bytes : w.plain;
    w.message = std::move(m);
    w.secded = secded;
    return w;
}

/// Wire bit of plain-wire bit `bit` (SECDED: skip the prefix and the
/// check bytes).
std::size_t wire_bit(const Wire& w, std::size_t bit) {
    if (!w.secded) return bit;
    return fec::kLengthPrefixBits + (bit / 64) * fec::kCodewordBits + bit % 64;
}

/// Wire bit of bit `k` (0..71) of SECDED codeword `word`.
std::size_t codeword_bit(std::size_t word, std::size_t k) {
    return fec::kLengthPrefixBits + word * fec::kCodewordBits + k;
}

struct Tally {
    std::size_t deliver{0}, crc_drop{0}, fec_drop{0}, declined{0};
};

/// Check the sparse verdict for `flips` on `w` against the byte path.
/// Returns the sparse verdict (nullopt when it declined).
std::optional<LinkVerdict> check(SparseVerdicts& sparse, const Wire& w,
                                 std::vector<std::size_t> flips, const std::string& label,
                                 Tally* tally = nullptr) {
    std::sort(flips.begin(), flips.end());
    std::vector<std::byte> corrupted = w.bytes;
    FaultInjector::flip_bits(corrupted, flips);
    const WireDecode bytes = decode_link_wire(corrupted, w.secded);
    const auto verdict = sparse.decide(w.plain.size(), flips, w.secded);
    if (!verdict) {
        if (tally) ++tally->declined;
        // Declined: corrupted content would reach (or pass) the CRC.
        if (!w.secded) {
            EXPECT_TRUE(Packet::crc_ok_wire(corrupted)) << label << ": needless decline";
        } else {
            const auto recovered = fec::recover(corrupted);
            std::uint32_t length = 0;
            for (std::size_t i = 0; i < 4; ++i)
                length |= static_cast<std::uint32_t>(corrupted[i]) << (8 * i);
            const bool reframed = length != w.plain.size() &&
                                  fec::protected_bytes(length) == corrupted.size();
            EXPECT_TRUE(reframed || (recovered.ok && recovered.payload != w.plain))
                << label << ": needless decline";
        }
        return verdict;
    }
    EXPECT_EQ(verdict->action, bytes.verdict.action) << label;
    EXPECT_EQ(verdict->fec_corrected, bytes.verdict.fec_corrected) << label;
    if (verdict->action == WireAction::Deliver) {
        // The sparse path delivers the sender's own (body, ttl).
        EXPECT_TRUE(bytes.message.has_value()) << label;
        if (bytes.message) {
            EXPECT_EQ(static_cast<const MessageBody&>(*bytes.message),
                      static_cast<const MessageBody&>(w.message))
                << label;
            EXPECT_EQ(bytes.message->ttl, w.message.ttl) << label;
        }
    }
    if (tally) {
        switch (verdict->action) {
        case WireAction::Deliver: ++tally->deliver; break;
        case WireAction::CrcDrop: ++tally->crc_drop; break;
        case WireAction::FecDrop: ++tally->fec_drop; break;
        }
    }
    return verdict;
}

TEST(SparseVerdict, RandomFlipsMatchTheBytePath) {
    RngStream rng(20031);
    SparseVerdicts sparse;
    Tally crc, fec;
    for (int i = 0; i < 3000; ++i) {
        const bool secded = i % 2 == 1;
        const auto payload = static_cast<std::size_t>(rng.below(1000 - kWireOverheadBytes + 1));
        const Wire w = make_wire(random_message(rng, payload), secded);
        const std::size_t nbits = w.bytes.size() * 8;
        std::vector<std::size_t> flips;
        const std::size_t count = 1 + static_cast<std::size_t>(rng.below(4));
        while (flips.size() < count) {
            const auto bit = static_cast<std::size_t>(rng.below(nbits));
            if (std::find(flips.begin(), flips.end(), bit) == flips.end()) flips.push_back(bit);
        }
        check(sparse, w, flips, "random #" + std::to_string(i), secded ? &fec : &crc);
    }
    // CRC-32 catches every 1-3 bit error at these lengths (the CrcDistance
    // tests below) and a random 4-bit one all but surely.
    EXPECT_EQ(crc.crc_drop, 1500u);
    EXPECT_EQ(crc.declined, 0u);
    // SECDED repairs most, drops some, and hands a few to the bytes.
    EXPECT_GT(fec.deliver, 1000u);
    EXPECT_GT(fec.fec_drop, 0u);
    EXPECT_EQ(fec.crc_drop, 0u);
    EXPECT_LT(fec.declined, 100u);
}

TEST(SparseVerdict, UpsetSamplerFlipsMatchTheBytePath) {
    // The upsets the engine actually draws: FaultInjector::draw_bit_upset
    // and the positions keyed to each.  Where the flip count alone makes
    // a CRC-only upset a drop, so must its bytes.
    FaultScenario scenario;
    scenario.p_upset = 1.0;
    FaultInjector injector(scenario, RngPool(5));
    RngStream rng(5);
    SparseVerdicts sparse;
    std::vector<std::size_t> flips;
    std::size_t counted = 0;
    for (int i = 0; i < 2000; ++i) {
        const Wire w = make_wire(random_message(rng, static_cast<std::size_t>(rng.below(400))),
                                 i % 2 == 1);
        const FaultInjector::BitUpset upset = injector.draw_bit_upset(w.bytes.size() * 8);
        FaultInjector::flip_positions(upset, flips);
        const std::string label = "sampled #" + std::to_string(i);
        const auto verdict = check(sparse, w, flips, label);
        if (!w.secded && SparseVerdicts::crc_drops_any(w.plain.size(), upset.flips)) {
            ++counted;
            ASSERT_TRUE(verdict.has_value()) << label;
            EXPECT_EQ(verdict->action, WireAction::CrcDrop) << label;
        }
    }
    // About 6 in 7 upsets flip fewer than 4 bits.
    EXPECT_GT(counted, 700u);
}

TEST(SparseVerdict, HeaderAndCrcFieldHits) {
    RngStream rng(11);
    SparseVerdicts sparse;
    for (const bool secded : {false, true}) {
        for (const std::size_t payload : {0u, 5u, 64u, 295u}) {
            const Wire w = make_wire(random_message(rng, payload), secded);
            const std::size_t crc_bit = (w.plain.size() - kWireCrcBytes) * 8;
            const std::string label = std::string(secded ? "secded" : "crc") +
                                      " payload=" + std::to_string(payload);
            for (std::size_t bit = 0; bit < kHeaderBytes * 8; ++bit) {
                const auto v = check(sparse, w, {wire_bit(w, bit)}, label + " header");
                ASSERT_TRUE(v);
                EXPECT_EQ(v->action, secded ? WireAction::Deliver : WireAction::CrcDrop);
            }
            for (std::size_t bit = crc_bit; bit < crc_bit + 32; ++bit) {
                const auto v = check(sparse, w, {wire_bit(w, bit)}, label + " crc field");
                ASSERT_TRUE(v);
                EXPECT_EQ(v->action, secded ? WireAction::Deliver : WireAction::CrcDrop);
                // A header hit plus a CRC-field hit, and two field hits.
                check(sparse, w, {wire_bit(w, bit % 200), wire_bit(w, bit)}, label + " both");
                if (bit + 1 < crc_bit + 32)
                    check(sparse, w, {wire_bit(w, bit), wire_bit(w, bit + 1)},
                          label + " two field bits");
            }
        }
    }
}

TEST(SparseVerdict, LengthPrefixHits) {
    RngStream rng(13);
    SparseVerdicts sparse;
    std::size_t reframed = 0, dropped = 0;
    for (const std::size_t payload : {0u, 1u, 2u, 7u, 8u, 13u, 295u}) {
        const Wire w = make_wire(random_message(rng, payload), true);
        for (std::size_t bit = 0; bit < fec::kLengthPrefixBits; ++bit) {
            const std::string label = "payload=" + std::to_string(payload) +
                                      " prefix bit " + std::to_string(bit);
            const auto v = check(sparse, w, {bit}, label);
            if (v) {
                EXPECT_EQ(v->action, WireAction::FecDrop) << label;
                ++dropped;
            } else {
                ++reframed;
            }
            // With a data-word hit behind it, the prefix still decides.
            check(sparse, w, {bit, codeword_bit(0, 3)}, label + " + word 0");
        }
    }
    EXPECT_GT(reframed, 0u); // low length bits that keep the word count
    EXPECT_GT(dropped, 0u);
}

TEST(SparseVerdict, LastWordPaddingHits) {
    RngStream rng(17);
    SparseVerdicts sparse;
    std::size_t padding_miscorrections = 0;
    for (const std::size_t payload : {1u, 4u, 9u, 291u}) {
        const Wire w = make_wire(random_message(rng, payload), true);
        const std::size_t words = (w.plain.size() + 7) / 8;
        const std::size_t last = words - 1;
        const std::size_t kept = w.plain.size() - last * 8;
        ASSERT_LT(kept, 8u) << "payload must leave padding";
        const std::string label = "payload=" + std::to_string(payload);
        for (std::size_t k = kept * 8; k < 64; ++k) {
            const auto v = check(sparse, w, {codeword_bit(last, k)}, label + " padding");
            ASSERT_TRUE(v);
            EXPECT_EQ(v->action, WireAction::Deliver);
            EXPECT_EQ(v->fec_corrected, 1u);
        }
        // Three flips that SECDED miscorrects: the sparse verdict delivers
        // when the residual stays in the padding, and declines otherwise.
        for (std::size_t a = 0; a < 72; ++a)
            for (std::size_t b = a + 1; b < 72; ++b)
                for (std::size_t c = b + 1; c < 72; c += 7) {
                    fec::Codeword e;
                    fec::flip_bit(e, a);
                    fec::flip_bit(e, b);
                    fec::flip_bit(e, c);
                    const auto d = fec::decode_word(e);
                    if (d.status == fec::WordStatus::Uncorrectable || d.data == 0) continue;
                    const bool in_padding = (d.data >> (8 * kept)) << (8 * kept) == d.data;
                    const auto v = check(
                        sparse, w,
                        {codeword_bit(last, a), codeword_bit(last, b), codeword_bit(last, c)},
                        label + " miscorrection");
                    EXPECT_EQ(v.has_value(), in_padding) << label;
                    if (in_padding) ++padding_miscorrections;
                }
    }
    EXPECT_GT(padding_miscorrections, 0u);
}

TEST(SparseVerdict, MultiFlipSecdedWords) {
    RngStream rng(19);
    SparseVerdicts sparse;
    const Wire w = make_wire(random_message(rng, 120), true);
    const std::size_t words = (w.plain.size() + 7) / 8;
    std::size_t miscorrections = 0, declines = 0;
    for (std::size_t word = 0; word < words; ++word) {
        const std::string label = "word " + std::to_string(word);
        // Two flips in one word: always detected, never corrected.
        for (int i = 0; i < 40; ++i) {
            const auto a = static_cast<std::size_t>(rng.below(72));
            const auto b = static_cast<std::size_t>(rng.below(72));
            if (a == b) continue;
            const auto v =
                check(sparse, w, {codeword_bit(word, a), codeword_bit(word, b)}, label);
            ASSERT_TRUE(v);
            EXPECT_EQ(v->action, WireAction::FecDrop);
        }
        // Three flips: odd parity, so SECDED "corrects" a fourth bit.
        for (int i = 0; i < 40; ++i) {
            std::vector<std::size_t> bits;
            while (bits.size() < 3) {
                const auto k = static_cast<std::size_t>(rng.below(72));
                if (std::find(bits.begin(), bits.end(), k) == bits.end()) bits.push_back(k);
            }
            fec::Codeword e;
            for (const std::size_t k : bits) fec::flip_bit(e, k);
            if (fec::decode_word(e).status == fec::WordStatus::Corrected) ++miscorrections;
            std::vector<std::size_t> flips;
            for (const std::size_t k : bits) flips.push_back(codeword_bit(word, k));
            if (!check(sparse, w, flips, label + " triple")) ++declines;
            // ... next to a clean single repair in another word.
            flips.push_back(codeword_bit((word + 1) % words, 5));
            check(sparse, w, flips, label + " triple + single");
        }
        // One repair per word in several words at once.
        std::vector<std::size_t> singles;
        for (std::size_t other = word; other < words; other += 3)
            singles.push_back(codeword_bit(other, static_cast<std::size_t>(rng.below(72))));
        const auto v = check(sparse, w, singles, label + " singles");
        ASSERT_TRUE(v);
        EXPECT_EQ(v->fec_corrected, singles.size());
    }
    EXPECT_GT(miscorrections, 0u);
    EXPECT_GT(declines, 0u);
}

TEST(SparseVerdict, CrcPassingVectorFallsBackToTheBytes) {
    // e = wire_a ^ wire_b turns one valid wire into another: the CRC
    // passes, so the sparse verdict must decline and let the bytes
    // deliver message b with no repaired word — which the engine counts
    // as an upset that slipped through undetected, as its byte path does.
    RngStream rng(23);
    SparseVerdicts sparse;
    for (const bool secded : {false, true}) {
        const Wire a = make_wire(random_message(rng, 40), secded);
        const Wire b = make_wire(random_message(rng, 40), secded);
        ASSERT_EQ(a.bytes.size(), b.bytes.size());
        std::vector<std::size_t> flips;
        for (std::size_t i = 0; i < a.bytes.size() * 8; ++i)
            if (((a.bytes[i / 8] ^ b.bytes[i / 8]) >> (i % 8) & std::byte{1}) != std::byte{0})
                flips.push_back(i);
        EXPECT_FALSE(sparse.decide(a.plain.size(), flips, secded).has_value());
        std::vector<std::byte> corrupted = a.bytes;
        FaultInjector::flip_bits(corrupted, flips);
        ASSERT_EQ(corrupted, b.bytes);
        const WireDecode read = decode_link_wire(corrupted, secded);
        EXPECT_EQ(read.verdict.action, WireAction::Deliver);
        EXPECT_EQ(read.verdict.fec_corrected, 0u);
        ASSERT_TRUE(read.message.has_value());
        EXPECT_EQ(read.message->id, b.message.id);
        EXPECT_EQ(read.message->payload, b.message.payload);
    }
}

TEST(SparseVerdict, CrcColumnsAreTheLinearPartOfCrc32) {
    // crc32(x ^ e) == crc32(x) ^ lin(e), lin(e) the XOR of e's columns.
    RngStream rng(29);
    crc::Crc32Columns columns;
    for (int i = 0; i < 200; ++i) {
        std::vector<std::byte> x(1 + rng.below(300));
        for (auto& b : x) b = static_cast<std::byte>(rng.bits() & 0xFF);
        std::vector<std::byte> y = x;
        std::uint32_t lin = 0;
        for (int f = 0; f < 3; ++f) {
            const auto bit = static_cast<std::size_t>(rng.below(x.size() * 8));
            y[bit / 8] ^= static_cast<std::byte>(1u << (bit % 8));
            lin ^= columns.column(x.size() - 1 - bit / 8, bit % 8);
        }
        EXPECT_EQ(crc::crc32(y), crc::crc32(x) ^ lin);
    }
}

// --- CRC-32's distance, proved rather than trusted ------------------------
//
// The engine takes an upset of fewer than kCrcDistance flips on a CRC-only
// wire of at most kCrcDistanceWireBytes bytes for a CRC drop without
// drawing where the flips fell (SparseVerdicts::crc_drops_any).  A flip
// pattern passes crc_verdict's syndrome test iff the XOR of its bits'
// columns is zero: body bit b of the byte d bytes before the body's end
// has Crc32Columns::column(d, b), and bit j of the CRC field has 1 << j.
// A shorter wire's columns are a subset of a longer one's, so a proof at
// the longest wire the rule trusts covers every wire it trusts.

/// Every bit's column on a `wire_bytes`-byte wire: the CRC field's 32
/// first, then the body's by distance from its end.
std::vector<std::uint32_t> wire_columns(std::size_t wire_bytes) {
    const std::size_t body_bytes = wire_bytes - kWireCrcBytes;
    crc::Crc32Columns table;
    std::vector<std::uint32_t> columns;
    for (unsigned j = 0; j < 32; ++j) columns.push_back(1u << j);
    for (std::size_t d = 0; d < body_bytes; ++d)
        for (unsigned b = 0; b < 8; ++b) columns.push_back(table.column(d, b));
    return columns;
}

/// The wire bit whose column is columns[i] of wire_columns(wire_bytes).
std::size_t column_bit(std::size_t i, std::size_t wire_bytes) {
    const std::size_t body_bits = (wire_bytes - kWireCrcBytes) * 8;
    if (i < 32) return body_bits + i;
    const std::size_t d = (i - 32) / 8;
    return body_bits - 8 * (d + 1) + (i - 32) % 8;
}

/// Indices of four distinct columns XOR-ing to zero, if any: two pairs
/// with equal XOR.  When all columns are distinct and non-zero, such
/// pairs cannot share a column.
std::optional<std::array<std::size_t, 4>> weight_four_pattern(
    const std::vector<std::uint32_t>& columns) {
    const std::size_t n = columns.size();
    std::vector<std::uint32_t> xors;
    xors.reserve(n * (n - 1) / 2);
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = i + 1; j < n; ++j) xors.push_back(columns[i] ^ columns[j]);
    std::sort(xors.begin(), xors.end());
    const auto twin = std::adjacent_find(xors.begin(), xors.end());
    if (twin == xors.end()) return std::nullopt;
    std::vector<std::size_t> found;
    for (std::size_t i = 0; i < n && found.size() < 4; ++i)
        for (std::size_t j = i + 1; j < n && found.size() < 4; ++j)
            if ((columns[i] ^ columns[j]) == *twin) {
                found.push_back(i);
                found.push_back(j);
            }
    return std::array<std::size_t, 4>{found[0], found[1], found[2], found[3]};
}

TEST(CrcDistance, NoPatternBelowTheDistancePassesTheTrustedLength) {
    ASSERT_EQ(kCrcDistance, 4u) << "this proof covers weights 1 to 3";
    std::vector<std::uint32_t> columns = wire_columns(kCrcDistanceWireBytes);
    // Weight 1: no column is zero.  Weight 2: no two columns are equal.
    std::vector<std::uint32_t> sorted = columns;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_NE(sorted.front(), 0u);
    EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()), sorted.end());
    // Weight 3: no pair XORs to a third column.  Columns are distinct and
    // non-zero, so a column equal to c_i ^ c_j is neither c_i nor c_j.
    // Membership by an open-addressing table, one lookup per pair.
    std::size_t slots = 1;
    while (slots < 4 * columns.size()) slots *= 2;
    std::vector<std::uint32_t> table(slots, 0); // 0 marks an empty slot
    const auto home = [slots](std::uint32_t c) {
        return static_cast<std::size_t>(c * 0x9e3779b1u) & (slots - 1);
    };
    for (const std::uint32_t c : columns) {
        std::size_t h = home(c);
        while (table[h] != 0) h = (h + 1) & (slots - 1);
        table[h] = c;
    }
    std::size_t passing = 0;
    for (std::size_t i = 0; i < columns.size(); ++i)
        for (std::size_t j = i + 1; j < columns.size(); ++j) {
            const std::uint32_t x = columns[i] ^ columns[j];
            for (std::size_t h = home(x); table[h] != 0; h = (h + 1) & (slots - 1))
                if (table[h] == x) {
                    ++passing;
                    break;
                }
        }
    EXPECT_EQ(passing, 0u) << "weight-3 patterns pass the CRC on a "
                           << kCrcDistanceWireBytes << "-byte wire";
}

TEST(CrcDistance, AWeightFourPatternPassesWithinTheTrustedLength) {
    // So the count rule is as strong as the code allows, and no stronger:
    // in line with Koopman (2002), who gives IEEE 802.3 CRC-32 distance 5
    // up to 2974 data bits, the first weight-4 pattern appears on a
    // 376-byte wire (2976 body bits), within the trusted length.
    constexpr std::size_t kFirstWireBytes = 376;
    ASSERT_LE(kFirstWireBytes, kCrcDistanceWireBytes);
    EXPECT_FALSE(weight_four_pattern(wire_columns(kFirstWireBytes - 1)).has_value());
    const auto pattern = weight_four_pattern(wire_columns(kFirstWireBytes));
    ASSERT_TRUE(pattern.has_value());
    // The pattern passes a real wire's CRC, so the rule must leave a
    // 4-flip upset of that wire to its positions.
    RngStream rng(376);
    const Wire w = make_wire(random_message(rng, kFirstWireBytes - kWireOverheadBytes), false);
    ASSERT_EQ(w.bytes.size(), kFirstWireBytes);
    std::vector<std::size_t> flips;
    for (const std::size_t i : *pattern) flips.push_back(column_bit(i, kFirstWireBytes));
    std::sort(flips.begin(), flips.end());
    std::vector<std::byte> corrupted = w.bytes;
    FaultInjector::flip_bits(corrupted, flips);
    EXPECT_TRUE(Packet::crc_ok_wire(corrupted));
    SparseVerdicts sparse;
    EXPECT_FALSE(sparse.decide(w.plain.size(), flips, false).has_value());
    EXPECT_FALSE(SparseVerdicts::crc_drops_any(w.plain.size(), flips.size()));
    EXPECT_TRUE(SparseVerdicts::crc_drops_any(w.plain.size(), flips.size() - 1));
}

} // namespace
} // namespace snoc
