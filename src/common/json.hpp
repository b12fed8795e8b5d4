// The JSON dialect of every telemetry file (trace dumps, post-mortem
// bundles, heartbeat streams, manifests, SARIF, --json tables): one string
// escaper, and one reader of the fields of a flat one-object-per-line
// JSONL record.
//
// Contract: string_field() is quoted()'s exact inverse, so any byte
// string written through quoted() reads back equal.  The reader is strict
// and never reads past the line: a field it cannot read (unterminated
// string, an escape quoted() never writes, a number with a sign, a space
// or too big for its type) is absent, never an abort.
#pragma once

#include <charconv>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>

namespace snoc::json {

/// `os << json::quoted(text)` writes `text` as a JSON string literal:
/// `"` and `\` backslash-escaped, `\n` `\r` `\t` by name, every other
/// byte below 0x20 as `\u00xx`, all other bytes verbatim.  Holds a view:
/// use it within the expression that makes it.
struct Quoted {
    std::string_view text;
};
inline Quoted quoted(std::string_view text) { return Quoted{text}; }
std::ostream& operator<<(std::ostream& os, Quoted q);

/// The raw text of top-level field `key` of the compact JSON object `line`
/// (`{"a":1,"b":"x"}`, no whitespace between tokens): a string with its
/// quotes, a nested object or array whole, or a scalar up to the next `,`
/// or `}`.  Nullopt when the key is absent or the object breaks off before
/// the key's value ends.  Keys are compared as written, unescaped.
std::optional<std::string_view> field(std::string_view line, std::string_view key);

/// Field `key` as a string, unescaped; nullopt unless it is a string
/// quoted() could have written.
std::optional<std::string> string_field(std::string_view line, std::string_view key);

/// Field `key` as a T (an unsigned integer or double) read by
/// std::from_chars over its whole text; nullopt when it is absent, not a
/// number, or out of T's range (so a sign or a space makes an unsigned
/// field absent).
template <typename T>
std::optional<T> number_field(std::string_view line, std::string_view key) {
    const auto text = field(line, key);
    if (!text) return std::nullopt;
    const char* end = text->data() + text->size();
    T value{};
    const auto [ptr, ec] = std::from_chars(text->data(), end, value);
    if (ec != std::errc{} || ptr != end) return std::nullopt;
    return value;
}

} // namespace snoc::json
