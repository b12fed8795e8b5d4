// Cyclic redundancy checks, implemented from scratch (table-driven, tables
// generated at compile time).  The thesis protects every packet with a CRC
// (Sec. 3.2.2): "CRC encoders and decoders are easy to implement in
// hardware, as they only require one shift register".
//
// The packet code is CRC-32 (IEEE 802.3, reflected poly 0xEDB88320,
// init ~0, final xor ~0).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace snoc::crc {

namespace detail {

constexpr std::array<std::uint32_t, 256> make_crc32_table() {
    std::array<std::uint32_t, 256> table{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int k = 0; k < 8; ++k)
            c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
        table[i] = c;
    }
    return table;
}

inline constexpr auto kCrc32Table = make_crc32_table();

} // namespace detail

/// CRC-32 (IEEE 802.3) of a byte span.
constexpr std::uint32_t crc32(std::span<const std::byte> data) {
    std::uint32_t c = 0xFFFFFFFFu;
    for (std::byte b : data)
        c = detail::kCrc32Table[(c ^ static_cast<std::uint32_t>(b)) & 0xFFu] ^ (c >> 8);
    return c ^ 0xFFFFFFFFu;
}

/// Columns of CRC-32's linear part, for deciding a corrupted packet's
/// CRC check from its error vector alone.  The register update is linear
/// over GF(2) in (register, data) and the init and final XORs cancel
/// between two equal-length spans, so crc32(b ^ e) == crc32(b) ^ lin(e),
/// where lin(e) runs the table with a zero register and no final XOR.
/// lin(e) is the XOR of one column per set bit of e, and a bit's column
/// depends only on its bit index and how many bytes follow it in the
/// span: T[1 << bit] pushed through that many zero bytes.  The table
/// grows on demand, 8 columns per byte of distance, one table step each.
class Crc32Columns {
public:
    /// lin() of the span whose only set bit is bit `bit` (0..7) of the
    /// byte `bytes_after` bytes before the span's end.
    std::uint32_t column(std::size_t bytes_after, unsigned bit) {
        grow(bytes_after + 1);
        return columns_[bytes_after * 8 + bit];
    }

    /// Make column() allocation-free for spans of up to `bytes` bytes.
    void grow(std::size_t bytes) {
        std::size_t have = columns_.size() / 8;
        if (have >= bytes) return;
        columns_.resize(bytes * 8);
        for (; have < bytes; ++have)
            for (unsigned bit = 0; bit < 8; ++bit) {
                std::uint32_t& c = columns_[have * 8 + bit];
                if (have == 0) {
                    c = detail::kCrc32Table[1u << bit];
                } else {
                    const std::uint32_t prev = columns_[(have - 1) * 8 + bit];
                    c = detail::kCrc32Table[prev & 0xFFu] ^ (prev >> 8);
                }
            }
    }

private:
    std::vector<std::uint32_t> columns_;
};

} // namespace snoc::crc
