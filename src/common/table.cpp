#include "common/table.hpp"

#include <algorithm>
#include <cstdio>
#include <ostream>

#include "common/expect.hpp"
#include "common/json.hpp"

namespace snoc {

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {
    SNOC_EXPECT(!headers_.empty());
}

void Table::add_row(std::vector<std::string> cells) {
    SNOC_EXPECT(cells.size() == headers_.size());
    rows_.push_back(std::move(cells));
}

const std::vector<std::string>& Table::row(std::size_t i) const {
    SNOC_EXPECT(i < rows_.size());
    return rows_[i];
}

void Table::print(std::ostream& os) const {
    std::vector<std::size_t> widths(headers_.size());
    for (std::size_t c = 0; c < headers_.size(); ++c) widths[c] = headers_[c].size();
    for (const auto& row : rows_)
        for (std::size_t c = 0; c < row.size(); ++c)
            widths[c] = std::max(widths[c], row[c].size());

    auto rule = [&] {
        os << '+';
        for (std::size_t w : widths) {
            for (std::size_t i = 0; i < w + 2; ++i) os << '-';
            os << '+';
        }
        os << '\n';
    };
    auto line = [&](const std::vector<std::string>& cells) {
        os << '|';
        for (std::size_t c = 0; c < cells.size(); ++c) {
            os << ' ' << cells[c];
            for (std::size_t i = cells[c].size(); i < widths[c]; ++i) os << ' ';
            os << " |";
        }
        os << '\n';
    };

    rule();
    line(headers_);
    rule();
    for (const auto& row : rows_) line(row);
    rule();
}

namespace {
std::string csv_escape(const std::string& cell) {
    if (cell.find_first_of(",\"\n") == std::string::npos) return cell;
    std::string out = "\"";
    for (char ch : cell) {
        if (ch == '"') out += "\"\"";
        else out += ch;
    }
    out += '"';
    return out;
}
} // namespace

void Table::print_csv(std::ostream& os) const {
    auto emit = [&](const std::vector<std::string>& cells) {
        for (std::size_t c = 0; c < cells.size(); ++c) {
            if (c) os << ',';
            os << csv_escape(cells[c]);
        }
        os << '\n';
    };
    emit(headers_);
    for (const auto& row : rows_) emit(row);
}

void Table::print_json(std::ostream& os) const {
    os << "[";
    for (std::size_t r = 0; r < rows_.size(); ++r) {
        os << (r ? ",\n " : "\n ") << '{';
        for (std::size_t c = 0; c < headers_.size(); ++c) {
            if (c) os << ", ";
            os << json::quoted(headers_[c]) << ": " << json::quoted(rows_[r][c]);
        }
        os << '}';
    }
    os << "\n]\n";
}

std::string format_number(double value, int precision) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.*f", precision, value);
    std::string s(buf);
    if (s.find('.') != std::string::npos) {
        while (!s.empty() && s.back() == '0') s.pop_back();
        if (!s.empty() && s.back() == '.') s.pop_back();
    }
    return s;
}

std::string format_sci(double value, int precision) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.*e", precision, value);
    return {buf};
}

} // namespace snoc
