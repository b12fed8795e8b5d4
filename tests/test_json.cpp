// The telemetry JSON codec (common/json.hpp): the escaper's exact bytes,
// the reader as its inverse over every byte, and the reader's strictness
// on hostile lines — every malformed field reads as absent.
#include "common/json.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <sstream>
#include <string>

#include "common/rng.hpp"

namespace snoc {
namespace {

std::string quote(const std::string& text) {
    std::ostringstream os;
    os << json::quoted(text);
    return os.str();
}

TEST(Json, QuotedEscapesQuoteBackslashAndControlBytes) {
    EXPECT_EQ(quote("plain — utf-8"), "\"plain — utf-8\"");
    EXPECT_EQ(quote("a\"b\\c"), "\"a\\\"b\\\\c\"");
    EXPECT_EQ(quote("\n\r\t"), "\"\\n\\r\\t\"");
    EXPECT_EQ(quote(std::string("\x00\x01\x1f", 3)), "\"\\u0000\\u0001\\u001f\"");
}

TEST(Json, StringFieldInvertsQuotedForEveryByte) {
    std::string text;
    for (int b = 0; b < 256; ++b) text += static_cast<char>(b);
    const std::string line = "{\"k\":" + quote(text) + ",\"n\":1}";
    EXPECT_EQ(json::string_field(line, "k"), text);
    EXPECT_EQ(json::number_field<std::uint64_t>(line, "n"), 1u);
}

TEST(Json, FieldsAreTopLevelKeysOnly) {
    // A key's text inside another field's string value, or inside a nested
    // object, is not that key.
    const std::string line =
        "{\"detail\":\"\\\"round\\\":9,\\\\\",\"m\":{\"tile\":5, \"x\":[\"}\"]},"
        "\"round\":2}";
    EXPECT_EQ(json::number_field<std::uint64_t>(line, "round"), 2u);
    EXPECT_EQ(json::string_field(line, "detail"), "\"round\":9,\\");
    EXPECT_FALSE(json::field(line, "tile").has_value());
    EXPECT_EQ(json::field(line, "m"), "{\"tile\":5, \"x\":[\"}\"]}");
}

TEST(Json, MalformedFieldsReadAsAbsent) {
    const auto absent_string = [](const std::string& line) {
        return !json::string_field(line, "k").has_value();
    };
    EXPECT_TRUE(absent_string("{\"k\":\"unterminated"));
    EXPECT_TRUE(absent_string("{\"k\":\"ends in a backslash\\"));
    EXPECT_TRUE(absent_string("{\"k\":\"bad \\u00zz escape\"}"));
    EXPECT_TRUE(absent_string("{\"k\":\"short \\u00\"}"));
    EXPECT_TRUE(absent_string("{\"k\":\"not written: \\u0041\"}"));
    EXPECT_TRUE(absent_string("{\"k\":\"not written: \\/\"}"));
    EXPECT_TRUE(absent_string("{\"k\":\"raw \t tab\"}"));
    EXPECT_TRUE(absent_string("{\"k\":5}"));
    EXPECT_TRUE(absent_string("\"k\":\"no object\""));

    const auto absent_u64 = [](const std::string& line) {
        return !json::number_field<std::uint64_t>(line, "k").has_value();
    };
    EXPECT_TRUE(absent_u64("{\"k\":18446744073709551616}")); // 2^64
    EXPECT_TRUE(absent_u64("{\"k\":-1}"));
    EXPECT_TRUE(absent_u64("{\"k\":+1}"));
    EXPECT_TRUE(absent_u64("{\"k\": 1}"));
    EXPECT_TRUE(absent_u64("{\"k\":1.5}"));
    EXPECT_TRUE(absent_u64("{\"k\":}"));
    EXPECT_TRUE(absent_u64("{\"k\":12")); // truncated: the value may go on
    EXPECT_TRUE(absent_u64("{\"a\":\"x\",\"k"));
    EXPECT_TRUE(absent_u64("{\"a\":1 \"k\":2}"));
    EXPECT_EQ(json::number_field<std::uint64_t>("{\"k\":18446744073709551615}", "k"),
              UINT64_MAX);
    EXPECT_FALSE(json::number_field<std::uint32_t>("{\"k\":4294967296}", "k"));
    EXPECT_EQ(json::number_field<double>("{\"k\":-1.500000}", "k"), -1.5);
}

// Seeded hostile lines: a bundle-shaped line truncated, overwritten with
// JSON's structural bytes or bit-flipped.  Each sits in a buffer of exactly
// its length, so an address-sanitized run catches any read past the line;
// any string that does read back survives another round trip.
TEST(Json, MutatedLinesAreReadWithinTheLine) {
    const std::string original =
        "{\"postmortem\":1,\"detail\":\"a \\\"q\\\" \\\\ \\u001f\",\"m\":{\"r\": [5]},"
        "\"round\":3,\"kind\":\"delivered\",\"peer\":4,\"msg\":\"1:2\"}";
    const std::string structural = "\"\\{}[],:u0-";
    RngStream rng(11);
    for (int trial = 0; trial < 20000; ++trial) {
        std::string line = original;
        for (int m = 0; m < 3 && !line.empty(); ++m) {
            const std::size_t at = rng.below(line.size());
            switch (rng.below(3)) {
            case 0: line.resize(at); break;
            case 1: line[at] = structural[rng.below(structural.size())]; break;
            default: line[at] ^= static_cast<char>(1u << rng.below(8)); break;
            }
        }
        const auto exact = std::make_unique<char[]>(line.size());
        std::memcpy(exact.get(), line.data(), line.size());
        const std::string_view view(exact.get(), line.size());
        for (const char* key : {"postmortem", "detail", "m", "r", "round", "kind",
                                "peer", "msg"}) {
            (void)json::number_field<std::uint32_t>(view, key);
            (void)json::number_field<double>(view, key);
            if (const auto s = json::string_field(view, key)) {
                const std::string again = "{\"k\":" + quote(*s) + "}";
                EXPECT_EQ(json::string_field(again, "k"), s) << line;
            }
        }
    }
}

} // namespace
} // namespace snoc
