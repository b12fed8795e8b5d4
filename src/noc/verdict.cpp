#include "noc/verdict.hpp"

#include <algorithm>

#include "common/prof.hpp"
#include "noc/fec.hpp"

namespace snoc {

WireDecode decode_link_wire(const std::vector<std::byte>& wire, bool secded, bool timed) {
    const char* const secded_label = timed ? "noc/secded" : nullptr;
    const char* const crc_label = timed ? "noc/crc" : nullptr;
    WireDecode out;
    std::optional<fec::RecoverResult> recovered;
    if (secded) {
        // Single-bit upsets per word are repaired here, before the CRC
        // ever sees them.
        prof::Scope scope(secded_label);
        recovered = fec::recover(wire);
        if (!recovered->ok) {
            out.verdict.action = WireAction::FecDrop;
            return out;
        }
        out.verdict.fec_corrected = recovered->corrected_words;
    }
    prof::Scope scope(crc_label);
    out.message = Packet::decode_wire(recovered ? recovered->payload : wire);
    if (!out.message) out.verdict.action = WireAction::CrcDrop;
    return out;
}

std::optional<LinkVerdict> SparseVerdicts::decide(std::size_t packet_bytes,
                                                  std::span<const std::size_t> flips,
                                                  bool secded) {
    prof::Scope scope(secded ? "noc/secded" : "noc/crc");
    auto verdict =
        secded ? secded_verdict(packet_bytes, flips) : crc_verdict(packet_bytes, flips);
    if (!verdict) scope.discard();
    return verdict;
}

std::optional<LinkVerdict> SparseVerdicts::crc_verdict(std::size_t packet_bytes,
                                                       std::span<const std::size_t> flips) {
    // The corrupted wire passes iff lin(e_body) == e_crc: the body's
    // error syndrome equals the error in the stored CRC field.
    const std::size_t body_bytes = packet_bytes - kWireCrcBytes;
    const std::size_t body_bits = body_bytes * 8;
    columns_.grow(body_bytes);
    std::uint32_t syndrome = 0;
    std::uint32_t field_error = 0;
    for (const std::size_t bit : flips) {
        if (bit < body_bits)
            syndrome ^= columns_.column(body_bytes - 1 - bit / 8, bit % 8);
        else
            field_error ^= 1u << (bit - body_bits); // the field is little-endian
    }
    if (syndrome == field_error) return std::nullopt; // passes: decode the bytes
    return LinkVerdict{WireAction::CrcDrop, 0};
}

std::optional<LinkVerdict> SparseVerdicts::secded_verdict(std::size_t packet_bytes,
                                                          std::span<const std::size_t> flips) {
    // The length prefix is unprotected, and recover() reads it first: a
    // length whose frame size differs from the wire's fails framing before
    // any word is decoded.  One that keeps the size reframes the payload,
    // which only the bytes can tell.  Flips ascend, so prefix hits lead.
    std::size_t i = 0;
    std::uint32_t length_error = 0;
    for (; i < flips.size() && flips[i] < fec::kLengthPrefixBits; ++i)
        length_error ^= 1u << flips[i];
    if (length_error != 0) {
        const std::size_t read = static_cast<std::uint32_t>(packet_bytes) ^ length_error;
        if (fec::protected_bytes(read) != fec::protected_bytes(packet_bytes))
            return LinkVerdict{WireAction::FecDrop, 0};
        return std::nullopt;
    }
    LinkVerdict verdict;
    bool miscorrected = false;
    while (i < flips.size()) {
        // A valid codeword plus error e decodes as e does: the syndrome
        // is e's, and the decoded data is the valid data XOR e's residual.
        const std::size_t word = (flips[i] - fec::kLengthPrefixBits) / fec::kCodewordBits;
        fec::Codeword error;
        for (; i < flips.size(); ++i) {
            const std::size_t bit = flips[i] - fec::kLengthPrefixBits;
            if (bit / fec::kCodewordBits != word) break;
            fec::flip_bit(error, bit % fec::kCodewordBits);
        }
        const fec::DecodeResult decoded = fec::decode_word(error);
        // Any uncorrectable word drops the packet, whatever the others do.
        if (decoded.status == fec::WordStatus::Uncorrectable)
            return LinkVerdict{WireAction::FecDrop, 0};
        if (decoded.status == fec::WordStatus::Corrected) ++verdict.fec_corrected;
        // recover() keeps only the payload bytes of the zero-padded last
        // word, so a residual in its padding never reaches the CRC.
        const std::size_t kept = std::min<std::size_t>(8, packet_bytes - word * 8);
        const std::uint64_t mask = kept == 8 ? ~0ULL : (1ULL << (8 * kept)) - 1;
        miscorrected = miscorrected || (decoded.data & mask) != 0;
    }
    if (miscorrected) return std::nullopt; // corrupted content reaches the CRC
    return verdict;
}

} // namespace snoc
