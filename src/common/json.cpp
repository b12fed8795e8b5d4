#include "common/json.hpp"

namespace snoc::json {

namespace {

constexpr auto npos = std::string_view::npos;
constexpr char kHex[] = "0123456789abcdef";

/// One past the closing quote of the string starting at line[i] (its
/// opening quote), or npos when the line ends first.
std::size_t string_end(std::string_view line, std::size_t i) {
    for (++i; i < line.size(); ++i) {
        if (line[i] == '\\')
            ++i; // the escaped byte cannot close the string
        else if (line[i] == '"')
            return i + 1;
    }
    return npos;
}

/// One past the end of the value starting at line[i], or npos when the
/// line ends first.  Nested objects and arrays are skipped by depth.
std::size_t value_end(std::string_view line, std::size_t i) {
    if (i >= line.size()) return npos;
    if (line[i] == '"') return string_end(line, i);
    if (line[i] != '{' && line[i] != '[') return line.find_first_of(",}", i);
    std::size_t depth = 0;
    while (i < line.size()) {
        const char c = line[i];
        if (c == '"') {
            i = string_end(line, i);
            if (i == npos) return npos;
            continue;
        }
        if (c == '{' || c == '[') {
            ++depth;
        } else if (c == '}' || c == ']') {
            if (--depth == 0) return i + 1;
        }
        ++i;
    }
    return npos;
}

} // namespace

std::ostream& operator<<(std::ostream& os, Quoted q) {
    os << '"';
    for (const char c : q.text) {
        switch (c) {
        case '"': os << "\\\""; break;
        case '\\': os << "\\\\"; break;
        case '\n': os << "\\n"; break;
        case '\r': os << "\\r"; break;
        case '\t': os << "\\t"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20)
                os << "\\u00" << kHex[(c >> 4) & 0xF] << kHex[c & 0xF];
            else
                os << c;
        }
    }
    return os << '"';
}

std::optional<std::string_view> field(std::string_view line, std::string_view key) {
    if (line.empty() || line.front() != '{') return std::nullopt;
    std::size_t i = 1;
    while (i < line.size() && line[i] == '"') {
        const std::size_t key_end = string_end(line, i);
        if (key_end == npos || key_end >= line.size() || line[key_end] != ':')
            return std::nullopt;
        const std::size_t begin = key_end + 1;
        const std::size_t end = value_end(line, begin);
        if (end == npos) return std::nullopt;
        if (line.substr(i + 1, key_end - i - 2) == key)
            return line.substr(begin, end - begin);
        if (end >= line.size() || line[end] != ',') return std::nullopt;
        i = end + 1;
    }
    return std::nullopt;
}

std::optional<std::string> string_field(std::string_view line, std::string_view key) {
    const auto raw = field(line, key);
    if (!raw || raw->size() < 2 || raw->front() != '"') return std::nullopt;
    const std::string_view body = raw->substr(1, raw->size() - 2);
    std::string out;
    out.reserve(body.size());
    for (std::size_t i = 0; i < body.size(); ++i) {
        const char c = body[i];
        if (static_cast<unsigned char>(c) < 0x20) return std::nullopt;
        if (c != '\\') {
            out += c;
            continue;
        }
        // field() ends a string at an unescaped quote, so a backslash is
        // never the body's last byte.
        switch (body[++i]) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
            // Only the \u00xx that quoted() writes: a byte below 0x20.
            if (body.size() - i < 5 || body.substr(i + 1, 2) != "00")
                return std::nullopt;
            const char* hex = body.data() + i + 3;
            unsigned byte = 0;
            if (std::from_chars(hex, hex + 2, byte, 16).ptr != hex + 2 || byte >= 0x20)
                return std::nullopt;
            out += static_cast<char>(byte);
            i += 4;
            break;
        }
        default:
            return std::nullopt;
        }
    }
    return out;
}

} // namespace snoc::json
