#include "telemetry/flight_recorder.hpp"

#include <algorithm>
#include <fstream>
#include <ostream>
#include <sstream>
#include <utility>

#include "common/expect.hpp"
#include "telemetry/export.hpp"
#include "telemetry/manifest.hpp"
#include "telemetry/metrics_registry.hpp"

namespace snoc {

FlightRecorder::FlightRecorder(std::size_t capacity)
    : capacity_(capacity), totals_(kTraceEventKinds, 0) {
    SNOC_EXPECT(capacity >= 1);
    // Preallocate so steady-state record() never allocates.
    ring_.reserve(capacity_);
}

void FlightRecorder::record(const TraceEvent& event) {
    ++totals_[static_cast<std::size_t>(event.kind)];
    if (ring_.size() < capacity_) {
        ring_.push_back(event);
        return;
    }
    ring_[next_] = event;
    next_ = next_ + 1 == capacity_ ? 0 : next_ + 1;
    ++dropped_;
}

std::vector<TraceEvent> FlightRecorder::drain() const {
    // The oldest retained event sits at `next_` once the ring has wrapped.
    const auto split = ring_.begin() + static_cast<std::ptrdiff_t>(next_);
    std::vector<TraceEvent> events(split, ring_.end());
    events.insert(events.end(), ring_.begin(), split);
    return events;
}

void FlightRecorder::clear() {
    ring_.clear();
    next_ = 0;
    dropped_ = 0;
    std::fill(totals_.begin(), totals_.end(), 0);
}

namespace {

// Minimal JSON string escaping for detector-formatted detail text.
void write_json_string(std::ostream& os, const std::string& text) {
    os << '"';
    for (const char c : text) {
        switch (c) {
        case '"': os << "\\\""; break;
        case '\\': os << "\\\\"; break;
        case '\n': os << "\\n"; break;
        case '\r': os << "\\r"; break;
        case '\t': os << "\\t"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20)
                os << ' '; // control characters never carry meaning here
            else
                os << c;
        }
    }
    os << '"';
}

} // namespace

void write_postmortem_bundle(const FlightRecorder& recorder,
                             const PostmortemInfo& info, std::ostream& os) {
    const auto events = recorder.drain();
    Round first_round = 0, last_round = 0;
    if (!events.empty()) {
        first_round = events.front().round;
        last_round = events.back().round;
        for (const TraceEvent& e : events)
            last_round = std::max(last_round, e.round);
    }
    os << "{\"postmortem\":1,\"schema\":\"snoc-postmortem-v1\",\"reason\":";
    write_json_string(os, info.reason);
    os << ",\"detail\":";
    write_json_string(os, info.detail);
    os << ",\"experiment\":";
    write_json_string(os, info.experiment);
    os << ",\"backend\":";
    write_json_string(os, info.backend);
    os << ",\"seed\":" << info.seed << ",\"git_sha\":\"" << build_git_sha()
       << "\",\"check_level\":" << SNOC_CHECK_LEVEL
       << ",\"events\":" << events.size()
       << ",\"events_overwritten\":" << recorder.dropped()
       << ",\"first_round\":" << first_round << ",\"last_round\":" << last_round
       << ",\"kind_totals\":{";
    const auto& totals = recorder.kind_totals();
    for (std::size_t k = 0; k < totals.size(); ++k)
        os << (k ? "," : "") << '"' << kTraceEventKindNames[k]
           << "\":" << totals[k];
    os << '}';
    if (info.has_metrics) {
        // Reuse the canonical flat metrics object (snoc_lint holds it in
        // lock-step with NetworkMetrics), inlined under one key.
        std::ostringstream metrics;
        write_metrics_json(info.metrics, metrics);
        std::string flat = metrics.str();
        // write_metrics_json pretty-prints over several lines; the bundle
        // header must stay a single JSONL line.
        std::string one_line;
        one_line.reserve(flat.size());
        for (const char c : flat)
            if (c != '\n') one_line += c;
        os << ",\"metrics\":" << one_line;
    }
    os << "}\n";
    for (const TraceEvent& e : events) {
        os << "{\"round\":" << e.round << ",\"kind\":\"" << to_string(e.kind)
           << "\",\"tile\":" << e.tile;
        if (e.peer != kNoTile) os << ",\"peer\":" << e.peer;
        if (e.message.origin != kNoTile)
            os << ",\"msg\":\"" << format_message_id(e.message) << '"';
        os << "}\n";
    }
}

void write_postmortem_bundle(const FlightRecorder& recorder,
                             const PostmortemInfo& info,
                             const std::string& path) {
    std::ofstream os(path, std::ios::binary);
    SNOC_EXPECT(os.is_open());
    write_postmortem_bundle(recorder, info, os);
}

PostmortemDumper::PostmortemDumper(std::string path,
                                   const FlightRecorder* recorder,
                                   PostmortemInfo info)
    : path_(std::move(path)),
      recorder_(recorder),
      info_(std::move(info)),
      scope_([this](const postmortem::Context& ctx) {
          if (dumped_ || recorder_ == nullptr || path_.empty()) return;
          dumped_ = true; // first failure wins; set before I/O can throw.
          info_.reason = ctx.reason;
          info_.detail = ctx.detail;
          if (const NetworkMetrics* live =
                  metrics_source_ ? metrics_source_() : nullptr) {
              info_.has_metrics = true;
              info_.metrics = *live;
          }
          write_postmortem_bundle(*recorder_, info_, path_);
          MetricsRegistry::global().inc(MetricId::PostmortemsTotal);
      }) {}

} // namespace snoc
