#include "telemetry/query.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <fstream>
#include <istream>
#include <map>
#include <set>
#include <sstream>

#include "common/json.hpp"
#include "telemetry/export.hpp"

namespace snoc::tracequery {

namespace {

std::size_t kind_index(TraceEventKind k) { return static_cast<std::size_t>(k); }

bool is_drop(TraceEventKind k) {
    switch (k) {
    case TraceEventKind::CrcDrop:
    case TraceEventKind::FecUncorrectable:
    case TraceEventKind::OverflowDrop:
    case TraceEventKind::CrashDrop:
    case TraceEventKind::BufferEvicted:
        return true;
    default:
        return false;
    }
}

} // namespace

std::optional<MessageId> parse_message_id(std::string_view text) {
    const auto colon = text.find(':');
    if (colon == std::string_view::npos) return std::nullopt;
    std::uint32_t origin = 0, sequence = 0;
    const auto* s = text.data();
    const auto r1 = std::from_chars(s, s + colon, origin);
    if (r1.ec != std::errc{} || r1.ptr != s + colon) return std::nullopt;
    const auto* rest = s + colon + 1;
    const auto* end = s + text.size();
    const auto r2 = std::from_chars(rest, end, sequence);
    if (r2.ec != std::errc{} || r2.ptr != end) return std::nullopt;
    return MessageId{origin, sequence};
}

// Tolerant by design: a line missing a required field (or a kind this
// binary doesn't know) is counted in `skipped`, not fatal, so newer dumps
// degrade gracefully in older tools.  A number its type cannot hold is as
// malformed as a missing one (json::number_field): truncated, a round
// would size per_round's table.
LoadResult load_jsonl(std::istream& is) {
    LoadResult result;
    std::string line;
    while (std::getline(is, line)) {
        if (line.empty()) continue;
        if (!result.postmortem && json::field(line, "postmortem") == "1") {
            PostmortemHeader header;
            if (auto v = json::string_field(line, "reason")) header.reason = *v;
            if (auto v = json::string_field(line, "detail")) header.detail = *v;
            if (auto v = json::string_field(line, "experiment"))
                header.experiment = *v;
            if (auto v = json::string_field(line, "backend")) header.backend = *v;
            if (auto v = json::number_field<std::uint64_t>(line, "seed"))
                header.seed = *v;
            if (auto v = json::number_field<std::size_t>(line, "events"))
                header.events = *v;
            if (auto v = json::number_field<std::size_t>(line, "events_overwritten"))
                header.events_overwritten = *v;
            if (auto v = json::number_field<Round>(line, "first_round"))
                header.first_round = *v;
            if (auto v = json::number_field<Round>(line, "last_round"))
                header.last_round = *v;
            result.postmortem = std::move(header);
            continue;
        }
        const auto round = json::number_field<Round>(line, "round");
        const auto kind_name = json::string_field(line, "kind");
        const auto tile = json::number_field<TileId>(line, "tile");
        const auto kind =
            kind_name ? trace_kind_from_string(*kind_name) : std::nullopt;
        if (!round || !kind || !tile) {
            ++result.skipped;
            continue;
        }
        TraceEvent e;
        e.round = *round;
        e.kind = *kind;
        e.tile = *tile;
        if (const auto peer = json::number_field<TileId>(line, "peer")) e.peer = *peer;
        if (const auto msg = json::string_field(line, "msg"))
            if (const auto id = parse_message_id(*msg)) e.message = *id;
        result.events.push_back(e);
    }
    return result;
}

LoadResult load_jsonl_file(const std::string& path) {
    std::ifstream is(path, std::ios::binary);
    if (!is.is_open()) return {};
    return load_jsonl(is);
}

std::vector<TraceEvent> since_round(const std::vector<TraceEvent>& events,
                                    Round round) {
    std::vector<TraceEvent> out;
    for (const TraceEvent& e : events)
        if (e.round >= round) out.push_back(e);
    return out;
}

std::vector<TraceEvent> last_rounds(const std::vector<TraceEvent>& events,
                                    std::size_t n) {
    if (events.empty() || n == 0) return {};
    Round last = 0;
    for (const TraceEvent& e : events) last = std::max(last, e.round);
    const Round cutoff =
        n > static_cast<std::size_t>(last) ? 0
                                           : last - static_cast<Round>(n) + 1;
    return since_round(events, cutoff);
}

std::string header_summary(const PostmortemHeader& header) {
    std::ostringstream os;
    os << "post-mortem: " << header.reason << '\n';
    os << "  detail:     " << header.detail << '\n';
    os << "  experiment: " << header.experiment << '\n';
    os << "  backend:    " << header.backend << '\n';
    os << "  seed:       " << header.seed << '\n';
    os << "  events:     " << header.events << " retained, "
       << header.events_overwritten << " overwritten, rounds "
       << header.first_round << ".." << header.last_round << '\n';
    return os.str();
}

std::string summary(const std::vector<TraceEvent>& events) {
    std::array<std::size_t, kTraceEventKinds> counts{};
    Round last_round = 0;
    std::set<TileId> tiles;
    std::set<MessageId> messages;
    for (const TraceEvent& e : events) {
        ++counts[kind_index(e.kind)];
        last_round = std::max(last_round, e.round);
        tiles.insert(e.tile);
        if (e.message.origin != kNoTile) messages.insert(e.message);
    }
    std::size_t drops = 0;
    for (std::size_t k = 0; k < kTraceEventKinds; ++k)
        if (is_drop(static_cast<TraceEventKind>(k))) drops += counts[k];
    std::ostringstream os;
    os << "events " << events.size() << ", rounds "
       << (events.empty() ? 0 : last_round + 1) << ", tiles " << tiles.size()
       << ", messages " << messages.size() << '\n';
    os << "created " << counts[kind_index(TraceEventKind::MessageCreated)]
       << ", transmitted " << counts[kind_index(TraceEventKind::Transmitted)]
       << ", delivered " << counts[kind_index(TraceEventKind::Delivered)]
       << ", drops " << drops << '\n';
    os << "by kind:\n";
    for (std::size_t k = 0; k < kTraceEventKinds; ++k)
        os << "  " << kTraceEventKindNames[k] << ' ' << counts[k] << '\n';
    return os.str();
}

std::string per_round(const std::vector<TraceEvent>& events) {
    std::size_t rounds = 0;
    for (const TraceEvent& e : events)
        rounds = std::max(rounds, static_cast<std::size_t>(e.round) + 1);
    std::vector<std::array<std::size_t, kTraceEventKinds>> table(rounds);
    for (const TraceEvent& e : events) ++table[e.round][kind_index(e.kind)];
    std::ostringstream os;
    os << "round";
    for (std::size_t k = 0; k < kTraceEventKinds; ++k)
        os << ' ' << kTraceEventKindNames[k];
    os << '\n';
    for (std::size_t r = 0; r < rounds; ++r) {
        os << r;
        for (std::size_t k = 0; k < kTraceEventKinds; ++k)
            os << ' ' << table[r][k];
        os << '\n';
    }
    return os.str();
}

std::string lifeline(const std::vector<TraceEvent>& events, MessageId id) {
    std::ostringstream os;
    std::size_t touched = 0;
    for (const TraceEvent& e : events) {
        if (!(e.message == id)) continue;
        ++touched;
        os << format_event(e) << '\n';
    }
    if (touched == 0)
        os << "no events for msg " << id.origin << ':' << id.sequence << '\n';
    return os.str();
}

std::string top_tiles(const std::vector<TraceEvent>& events, std::size_t k) {
    std::map<TileId, std::size_t> drops_by_tile;
    for (const TraceEvent& e : events)
        if (is_drop(e.kind)) ++drops_by_tile[e.tile];
    std::vector<std::pair<TileId, std::size_t>> rows(drops_by_tile.begin(),
                                                     drops_by_tile.end());
    std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
        if (a.second != b.second) return a.second > b.second;
        return a.first < b.first;
    });
    if (rows.size() > k) rows.resize(k);
    std::ostringstream os;
    os << "tile drops\n";
    for (const auto& [tile, drops] : rows) os << tile << ' ' << drops << '\n';
    return os.str();
}

std::string top_links(const std::vector<TraceEvent>& events, std::size_t k) {
    std::map<std::pair<TileId, TileId>, std::size_t> by_link;
    for (const TraceEvent& e : events)
        if (e.kind == TraceEventKind::Transmitted && e.peer != kNoTile)
            ++by_link[{e.tile, e.peer}];
    std::vector<std::pair<std::pair<TileId, TileId>, std::size_t>> rows(
        by_link.begin(), by_link.end());
    std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
        if (a.second != b.second) return a.second > b.second;
        return a.first < b.first;
    });
    if (rows.size() > k) rows.resize(k);
    std::ostringstream os;
    os << "from to transmissions\n";
    for (const auto& [link, count] : rows)
        os << link.first << ' ' << link.second << ' ' << count << '\n';
    return os.str();
}

} // namespace snoc::tracequery
