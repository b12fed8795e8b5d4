// Forward error correction for on-chip links.
//
// Chapter 3 weighs ARQ against FEC: "FEC is appropriate when a return
// channel is not available ... FEC, however, is less reliable than ARQ
// and incurs significant additional processing complexity".  Stochastic
// communication chooses a third road (error-detection + natural
// retransmission), but to make the trade-off measurable we implement the
// classic on-chip FEC: a Hamming(72,64) SECDED code — single-error
// correction, double-error detection, the code DRAM and on-chip buses
// actually use.
//
// Layout: 64 data bits + 8 check bits per word.  Check bits 0..6 are the
// Hamming parity bits over positions whose index has that bit set (in the
// 72-bit codeword, 1-based positions, parity positions at powers of two);
// check bit 7 is overall parity (the SECDED extension).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

namespace snoc::fec {

/// Outcome of decoding one 72-bit word.
enum class WordStatus : std::uint8_t {
    Clean,          ///< no error detected.
    Corrected,      ///< single-bit error corrected.
    Uncorrectable,  ///< double (or worse) error detected.
};

struct Codeword {
    std::uint64_t data{0};
    std::uint8_t check{0};
};

/// Encode 64 data bits into a SECDED codeword.
Codeword encode_word(std::uint64_t data);

struct DecodeResult {
    std::uint64_t data{0};
    WordStatus status{WordStatus::Clean};
};

/// Decode (and possibly repair) a codeword.
DecodeResult decode_word(Codeword word);

/// Flip one bit of a codeword (bit < 72; bits 64..71 hit the check byte).
void flip_bit(Codeword& word, std::size_t bit);

/// --- Byte-stream framing ---------------------------------------------
/// Protect an arbitrary byte payload: the stream is chunked into 8-byte
/// words (zero-padded), each carried with its check byte.  Overhead is
/// 1/8 plus padding.

struct ProtectedPayload {
    std::vector<std::byte> bytes; ///< 9 bytes per 8 payload bytes + length.
};

ProtectedPayload protect(const std::vector<std::byte>& payload);

/// Size of protect()'s output for an `n`-byte payload: the 4-byte length
/// prefix plus 9 bytes per (zero-padded) 8-byte word.
constexpr std::size_t protected_bytes(std::size_t n) { return 4 + ((n + 7) / 8) * 9; }

/// Bit layout of protect()'s output, for locating a flipped wire bit (bit
/// b is bit b % 8 of byte b / 8): the unprotected length prefix, then one
/// 72-bit codeword per word.  Bit k of a codeword is flip_bit()'s bit k,
/// so word w's data bit k is payload bit 64 * w + k.
inline constexpr std::size_t kLengthPrefixBits = 32;
inline constexpr std::size_t kCodewordBits = 72;

struct RecoverResult {
    std::vector<std::byte> payload;
    std::size_t corrected_words{0};
    bool ok{true}; ///< false if any word was uncorrectable / framing broke.
};

RecoverResult recover(const std::vector<std::byte>& protected_bytes);

} // namespace snoc::fec
