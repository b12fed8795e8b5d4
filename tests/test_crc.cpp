#include "noc/crc.hpp"

#include <string_view>
#include <vector>

#include <gtest/gtest.h>

namespace snoc {
namespace {

std::vector<std::byte> bytes_of(std::string_view s) {
    std::vector<std::byte> out;
    out.reserve(s.size());
    for (char c : s) out.push_back(static_cast<std::byte>(c));
    return out;
}

// "123456789" is the standard CRC check string.
TEST(Crc32, KnownCheckValue) {
    const auto data = bytes_of("123456789");
    EXPECT_EQ(crc::crc32(data), 0xCBF43926u);
}

TEST(Crc32, EmptyInput) {
    EXPECT_EQ(crc::crc32({}), 0x00000000u);
}

TEST(Crc32, DetectsEverySingleBitFlip) {
    auto data = bytes_of("stochastic communication");
    const auto clean = crc::crc32(data);
    for (std::size_t bit = 0; bit < data.size() * 8; ++bit) {
        data[bit / 8] ^= static_cast<std::byte>(1u << (bit % 8));
        EXPECT_NE(crc::crc32(data), clean) << "missed flip at bit " << bit;
        data[bit / 8] ^= static_cast<std::byte>(1u << (bit % 8));
    }
    EXPECT_EQ(crc::crc32(data), clean);
}

TEST(Crc32, DetectsAllDoubleBitFlipsInShortMessage) {
    auto data = bytes_of("NoC");
    const auto clean = crc::crc32(data);
    const std::size_t nbits = data.size() * 8;
    for (std::size_t i = 0; i < nbits; ++i) {
        for (std::size_t j = i + 1; j < nbits; ++j) {
            data[i / 8] ^= static_cast<std::byte>(1u << (i % 8));
            data[j / 8] ^= static_cast<std::byte>(1u << (j % 8));
            EXPECT_NE(crc::crc32(data), clean) << i << "," << j;
            data[i / 8] ^= static_cast<std::byte>(1u << (i % 8));
            data[j / 8] ^= static_cast<std::byte>(1u << (j % 8));
        }
    }
}

TEST(Crc32, DetectsBurstErrors) {
    // CRC-32 detects all burst errors up to 32 bits.
    auto data = bytes_of("burst error detection property");
    const auto clean = crc::crc32(data);
    for (std::size_t start = 0; start + 32 <= data.size() * 8; start += 3) {
        auto corrupted = data;
        for (std::size_t b = start; b < start + 32; ++b)
            corrupted[b / 8] ^= static_cast<std::byte>(1u << (b % 8));
        EXPECT_NE(crc::crc32(corrupted), clean);
    }
}

TEST(Crc32, IsConstexpr) {
    constexpr std::array<std::byte, 3> data{std::byte{'a'}, std::byte{'b'},
                                            std::byte{'c'}};
    constexpr auto value = crc::crc32(std::span<const std::byte>(data));
    static_assert(value == 0x352441C2u); // crc32("abc")
    EXPECT_EQ(value, 0x352441C2u);
}

TEST(Crc, DifferentMessagesDifferentCrc) {
    EXPECT_NE(crc::crc32(bytes_of("tile 6")), crc::crc32(bytes_of("tile 7")));
    EXPECT_NE(crc::crc32(bytes_of("network-on-chip")),
              crc::crc32(bytes_of("network-on-chiq")));
}

} // namespace
} // namespace snoc
