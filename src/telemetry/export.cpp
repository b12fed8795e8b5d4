#include "telemetry/export.hpp"

#include <algorithm>
#include <fstream>
#include <map>
#include <ostream>
#include <sstream>
#include <utility>
#include <vector>

#include "common/expect.hpp"
#include "common/prof.hpp"

namespace snoc {

namespace {

std::ofstream open_or_die(const std::string& path) {
    std::ofstream os(path, std::ios::binary); // binary: no \r\n surprises
    SNOC_EXPECT(os.is_open());
    return os;
}

// Chrome's trace viewer wants microsecond timestamps; one simulated
// round maps to 1 ms so rounds are legible at default zoom.
constexpr long long kMicrosPerRound = 1000;

bool terminal_kind(TraceEventKind k) {
    return k == TraceEventKind::Delivered || k == TraceEventKind::TtlExpired ||
           k == TraceEventKind::BufferEvicted;
}

// Per-tile per-kind counts, index [tile][kind], derived from the full
// log: one row for every tile up to the highest one any event names.
std::vector<Telemetry::KindCounts> tile_counts(const Telemetry& telemetry) {
    std::vector<Telemetry::KindCounts> tiles;
    for (const TraceEvent& e : telemetry.events()) {
        if (e.tile == kNoTile) continue;
        if (tiles.size() <= e.tile) tiles.resize(static_cast<std::size_t>(e.tile) + 1);
        ++tiles[e.tile][static_cast<std::size_t>(e.kind)];
    }
    return tiles;
}

// (from, to) -> transmissions over that directed link.  Ordered, so the
// CSV rows come out in a deterministic order.
std::map<std::pair<TileId, TileId>, std::size_t> link_counts(const Telemetry& telemetry) {
    std::map<std::pair<TileId, TileId>, std::size_t> links;
    for (const TraceEvent& e : telemetry.events())
        if (e.kind == TraceEventKind::Transmitted && e.tile != kNoTile &&
            e.peer != kNoTile)
            ++links[{e.tile, e.peer}];
    return links;
}

std::string async_span_id(const MessageId& id) {
    // Stable 64-bit id: origin in the high word, sequence in the low.
    std::ostringstream os;
    os << "0x" << std::hex
       << ((static_cast<unsigned long long>(id.origin) << 32) | id.sequence);
    return os.str();
}

} // namespace

std::string format_message_id(const MessageId& id) {
    std::ostringstream os;
    os << id.origin << ':' << id.sequence;
    return os.str();
}

void write_event_line(const TraceEvent& e, std::ostream& os) {
    os << "{\"round\":" << e.round << ",\"kind\":\"" << to_string(e.kind)
       << "\",\"tile\":" << e.tile;
    if (e.peer != kNoTile) os << ",\"peer\":" << e.peer;
    if (e.message.origin != kNoTile)
        os << ",\"msg\":\"" << format_message_id(e.message) << '"';
    os << "}\n";
}

void write_jsonl(const Telemetry& telemetry, std::ostream& os) {
    SNOC_PROF("telemetry/export");
    for (const TraceEvent& e : telemetry.events()) write_event_line(e, os);
}

void write_jsonl(const Telemetry& telemetry, const std::string& path) {
    auto os = open_or_die(path);
    write_jsonl(telemetry, os);
}

void write_chrome_trace(const Telemetry& telemetry, std::ostream& os) {
    SNOC_PROF("telemetry/export");
    os << "{\"traceEvents\":[\n";
    bool first = true;
    const auto emit = [&](const std::string& line) {
        if (!first) os << ",\n";
        first = false;
        os << line;
    };

    emit("{\"ph\":\"M\",\"pid\":0,\"name\":\"process_name\","
         "\"args\":{\"name\":\"snoc\"}}");
    const std::size_t tiles = tile_counts(telemetry).size();
    for (std::size_t t = 0; t < tiles; ++t) {
        std::ostringstream line;
        line << "{\"ph\":\"M\",\"pid\":0,\"tid\":" << t
             << ",\"name\":\"thread_name\",\"args\":{\"name\":\"tile " << t
             << "\"}}";
        emit(line.str());
    }

    // One instant per event, on the track of the tile it happened at.
    for (const TraceEvent& e : telemetry.events()) {
        std::ostringstream line;
        line << "{\"ph\":\"i\",\"pid\":0,\"tid\":" << e.tile << ",\"ts\":"
             << static_cast<long long>(e.round) * kMicrosPerRound
             << ",\"s\":\"t\",\"name\":\"" << to_string(e.kind) << '"';
        if (e.message.origin != kNoTile || e.peer != kNoTile) {
            line << ",\"args\":{";
            bool comma = false;
            if (e.message.origin != kNoTile) {
                line << "\"msg\":\"" << format_message_id(e.message) << '"';
                comma = true;
            }
            if (e.peer != kNoTile) {
                if (comma) line << ',';
                line << "\"peer\":" << e.peer;
            }
            line << '}';
        }
        line << '}';
        emit(line.str());
    }

    // One async span per message lifetime.  Begin at its MessageCreated;
    // end at the *last* terminal event (a broadcast rumor delivers many
    // times and its copies age out tile by tile — the span covers the
    // whole lifetime).  Spans still open at the end of the recording are
    // closed one round past the last event and flagged unterminated.
    struct Lifetime {
        Round begin{0};
        TileId origin_tile{0};
        Round end{0};
        const char* outcome{nullptr};
    };
    std::map<MessageId, Lifetime> lifetimes; // ordered: deterministic output
    Round last_round = 0;
    for (const TraceEvent& e : telemetry.events()) {
        last_round = std::max(last_round, e.round);
        if (e.message.origin == kNoTile) continue;
        if (e.kind == TraceEventKind::MessageCreated) {
            auto [it, inserted] = lifetimes.try_emplace(e.message);
            if (inserted) {
                it->second.begin = e.round;
                it->second.origin_tile = e.tile;
            }
        } else if (terminal_kind(e.kind)) {
            auto it = lifetimes.find(e.message);
            if (it == lifetimes.end()) continue; // no recorded birth
            if (!it->second.outcome || e.round >= it->second.end) {
                it->second.end = e.round;
                it->second.outcome = to_string(e.kind);
            }
        }
    }
    for (const auto& [id, life] : lifetimes) {
        const bool unterminated = life.outcome == nullptr;
        const Round end_round = unterminated ? last_round + 1 : life.end;
        std::ostringstream begin;
        begin << "{\"ph\":\"b\",\"cat\":\"msg\",\"pid\":0,\"tid\":"
              << life.origin_tile << ",\"ts\":"
              << static_cast<long long>(life.begin) * kMicrosPerRound
              << ",\"id\":\"" << async_span_id(id) << "\",\"name\":\"msg "
              << format_message_id(id) << "\"}";
        emit(begin.str());
        std::ostringstream end;
        end << "{\"ph\":\"e\",\"cat\":\"msg\",\"pid\":0,\"tid\":"
            << life.origin_tile << ",\"ts\":"
            << static_cast<long long>(end_round) * kMicrosPerRound
            << ",\"id\":\"" << async_span_id(id) << "\",\"name\":\"msg "
            << format_message_id(id) << "\",\"args\":{\"outcome\":\""
            << (unterminated ? "unterminated" : life.outcome) << "\"}}";
        emit(end.str());
    }

    os << "\n]}\n";
}

void write_chrome_trace(const Telemetry& telemetry, const std::string& path) {
    auto os = open_or_die(path);
    write_chrome_trace(telemetry, os);
}

void write_heatmap_csv(const Telemetry& telemetry, std::ostream& os,
                       std::size_t grid_width) {
    SNOC_PROF("telemetry/export");
    os << "tile";
    if (grid_width > 0) os << ",x,y";
    for (std::size_t k = 0; k < kTraceEventKinds; ++k)
        os << ',' << kTraceEventKindNames[k];
    os << '\n';
    const auto tiles = tile_counts(telemetry);
    for (std::size_t t = 0; t < tiles.size(); ++t) {
        os << t;
        if (grid_width > 0) os << ',' << t % grid_width << ',' << t / grid_width;
        for (std::size_t k = 0; k < kTraceEventKinds; ++k)
            os << ',' << tiles[t][k];
        os << '\n';
    }
}

void write_heatmap_csv(const Telemetry& telemetry, const std::string& path,
                       std::size_t grid_width) {
    auto os = open_or_die(path);
    write_heatmap_csv(telemetry, os, grid_width);
}

void write_link_csv(const Telemetry& telemetry, std::ostream& os) {
    SNOC_PROF("telemetry/export");
    os << "from,to,transmissions\n";
    for (const auto& [link, count] : link_counts(telemetry))
        os << link.first << ',' << link.second << ',' << count << '\n';
}

void write_link_csv(const Telemetry& telemetry, const std::string& path) {
    auto os = open_or_die(path);
    write_link_csv(telemetry, os);
}

void write_metrics_json(const NetworkMetrics& metrics, std::ostream& os) {
    SNOC_PROF("telemetry/export");
    bool first = true;
    const auto field = [&](const char* name, std::size_t value) {
        os << (first ? "{\n" : ",\n") << "  \"" << name << "\": " << value;
        first = false;
    };
    field("rounds", metrics.rounds);
    field("packets_sent", metrics.packets_sent);
    field("bits_sent", metrics.bits_sent);
    field("messages_created", metrics.messages_created);
    field("deliveries", metrics.deliveries);
    field("duplicates_ignored", metrics.duplicates_ignored);
    field("crc_drops", metrics.crc_drops);
    field("upsets_undetected", metrics.upsets_undetected);
    field("overflow_drops", metrics.overflow_drops);
    field("ttl_expired", metrics.ttl_expired);
    field("crash_drops", metrics.crash_drops);
    field("port_overflow_drops", metrics.port_overflow_drops);
    field("packets_accepted", metrics.packets_accepted);
    field("skew_deferrals", metrics.skew_deferrals);
    field("fec_corrected", metrics.fec_corrected);
    field("fec_uncorrectable", metrics.fec_uncorrectable);
    // Derived figures, with fixed precision so output stays byte-stable.
    std::ostringstream derived;
    derived.setf(std::ios::fixed);
    derived.precision(6);
    derived << ",\n  \"link_hotspot_factor\": " << metrics.link_hotspot_factor()
            << ",\n  \"average_packet_bits\": " << metrics.average_packet_bits();
    os << derived.str() << "\n}\n";
}

void write_metrics_json(const NetworkMetrics& metrics, const std::string& path) {
    auto os = open_or_die(path);
    write_metrics_json(metrics, os);
}

} // namespace snoc
