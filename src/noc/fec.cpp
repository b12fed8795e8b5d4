#include "noc/fec.hpp"

#include <array>
#include <bit>
#include <cstring>

#include "common/expect.hpp"

namespace snoc::fec {

namespace {

constexpr bool is_pow2(unsigned x) { return x != 0 && (x & (x - 1)) == 0; }

/// Codeword position (1-based, 1..71) of each of the 64 data bits: the
/// non-power-of-two positions in order.
constexpr std::array<std::uint8_t, 64> make_data_positions() {
    std::array<std::uint8_t, 64> pos{};
    std::size_t k = 0;
    for (unsigned p = 1; p <= 71 && k < 64; ++p)
        if (!is_pow2(p)) pos[k++] = static_cast<std::uint8_t>(p);
    return pos;
}

constexpr auto kDataPos = make_data_positions();

/// Hamming syndrome contribution of the data bits alone.
std::uint8_t data_syndrome(std::uint64_t data) {
    std::uint8_t syndrome = 0;
    for (; data != 0; data &= data - 1)
        syndrome ^= kDataPos[static_cast<std::size_t>(std::countr_zero(data))];
    return syndrome;
}

bool parity64(std::uint64_t v) {
    v ^= v >> 32;
    v ^= v >> 16;
    v ^= v >> 8;
    v ^= v >> 4;
    v ^= v >> 2;
    v ^= v >> 1;
    return v & 1u;
}

bool parity8(std::uint8_t v) { return parity64(v); }

} // namespace

Codeword encode_word(std::uint64_t data) {
    Codeword w;
    w.data = data;
    // Check bits 0..6: make each Hamming group XOR to zero.
    const std::uint8_t syndrome = data_syndrome(data);
    w.check = syndrome & 0x7Fu;
    // Check bit 7: overall parity over data + the 7 Hamming bits.
    const bool overall = parity64(data) ^ parity8(w.check & 0x7Fu);
    if (overall) w.check |= 0x80u;
    return w;
}

DecodeResult decode_word(Codeword word) {
    DecodeResult out;
    const std::uint8_t syndrome =
        data_syndrome(word.data) ^ (word.check & 0x7Fu);
    const bool overall_mismatch = parity64(word.data) ^
                                  parity8(word.check & 0x7Fu) ^
                                  ((word.check >> 7) & 1u);
    if (syndrome == 0 && !overall_mismatch) {
        out.data = word.data;
        out.status = WordStatus::Clean;
        return out;
    }
    if (syndrome == 0 && overall_mismatch) {
        // The overall parity bit itself flipped; data is intact.
        out.data = word.data;
        out.status = WordStatus::Corrected;
        return out;
    }
    if (!overall_mismatch) {
        // Non-zero syndrome with even overall parity: two bit errors.
        out.data = word.data;
        out.status = WordStatus::Uncorrectable;
        return out;
    }
    // Single error at position `syndrome`.
    if (syndrome > 71) {
        out.data = word.data;
        out.status = WordStatus::Uncorrectable; // invalid position
        return out;
    }
    if (is_pow2(syndrome)) {
        // A Hamming check bit flipped; data is intact.
        out.data = word.data;
        out.status = WordStatus::Corrected;
        return out;
    }
    std::uint64_t repaired = word.data;
    for (std::size_t k = 0; k < 64; ++k) {
        if (kDataPos[k] == syndrome) {
            repaired ^= (1ULL << k);
            break;
        }
    }
    out.data = repaired;
    out.status = WordStatus::Corrected;
    return out;
}

void flip_bit(Codeword& word, std::size_t bit) {
    SNOC_EXPECT(bit < 72);
    if (bit < 64)
        word.data ^= (1ULL << bit);
    else
        word.check ^= static_cast<std::uint8_t>(1u << (bit - 64));
}

ProtectedPayload protect(const std::vector<std::byte>& payload) {
    ProtectedPayload out;
    const auto length = static_cast<std::uint32_t>(payload.size());
    out.bytes.reserve(protected_bytes(payload.size()));
    for (std::size_t i = 0; i < 4; ++i)
        out.bytes.push_back(static_cast<std::byte>((length >> (8 * i)) & 0xFF));
    for (std::size_t offset = 0; offset < payload.size(); offset += 8) {
        std::uint64_t word = 0;
        const std::size_t n = std::min<std::size_t>(8, payload.size() - offset);
        std::memcpy(&word, payload.data() + offset, n);
        const Codeword cw = encode_word(word);
        for (std::size_t i = 0; i < 8; ++i)
            out.bytes.push_back(static_cast<std::byte>((cw.data >> (8 * i)) & 0xFF));
        out.bytes.push_back(static_cast<std::byte>(cw.check));
    }
    return out;
}

RecoverResult recover(const std::vector<std::byte>& bytes) {
    RecoverResult out;
    if (bytes.size() < 4) {
        out.ok = false;
        return out;
    }
    std::uint32_t length = 0;
    for (std::size_t i = 0; i < 4; ++i)
        length |= static_cast<std::uint32_t>(bytes[i]) << (8 * i);
    const std::size_t words = (static_cast<std::size_t>(length) + 7) / 8;
    if (bytes.size() != protected_bytes(length)) {
        out.ok = false;
        return out;
    }
    out.payload.reserve(length);
    for (std::size_t w = 0; w < words; ++w) {
        const std::size_t base = 4 + w * 9;
        Codeword cw;
        for (std::size_t i = 0; i < 8; ++i)
            cw.data |= static_cast<std::uint64_t>(bytes[base + i]) << (8 * i);
        cw.check = static_cast<std::uint8_t>(bytes[base + 8]);
        const auto decoded = decode_word(cw);
        if (decoded.status == WordStatus::Uncorrectable) out.ok = false;
        if (decoded.status == WordStatus::Corrected) ++out.corrected_words;
        const std::size_t n = std::min<std::size_t>(8, length - w * 8);
        for (std::size_t i = 0; i < n; ++i)
            out.payload.push_back(
                static_cast<std::byte>((decoded.data >> (8 * i)) & 0xFF));
    }
    return out;
}

} // namespace snoc::fec
