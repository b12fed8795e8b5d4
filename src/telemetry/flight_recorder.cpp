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

void write_postmortem_bundle(const Telemetry& recorder, const PostmortemInfo& info,
                             std::ostream& os, std::size_t max_events) {
    const auto events = recorder.newest(max_events);
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
       << ",\"events_overwritten\":" << bundle_overwritten(recorder, max_events)
       << ",\"first_round\":" << first_round << ",\"last_round\":" << last_round
       << ",\"kind_totals\":{";
    const auto& totals = recorder.totals();
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

void write_postmortem_bundle(const Telemetry& recorder, const PostmortemInfo& info,
                             const std::string& path, std::size_t max_events) {
    std::ofstream os(path, std::ios::binary);
    SNOC_EXPECT(os.is_open());
    write_postmortem_bundle(recorder, info, os, max_events);
}

PostmortemDumper::PostmortemDumper(std::string path, const Telemetry& recorder,
                                   PostmortemInfo info, std::size_t max_events)
    : path_(std::move(path)),
      recorder_(recorder),
      max_events_(max_events),
      info_(std::move(info)),
      scope_([this](const postmortem::Context& ctx) {
          if (dumped_ || path_.empty()) return;
          dumped_ = true; // first failure wins; set before I/O can throw.
          info_.reason = ctx.reason;
          info_.detail = ctx.detail;
          if (const NetworkMetrics* live =
                  metrics_source_ ? metrics_source_() : nullptr) {
              info_.has_metrics = true;
              info_.metrics = *live;
          }
          write_postmortem_bundle(recorder_, info_, path_, max_events_);
          MetricsRegistry::global().inc(MetricId::PostmortemsTotal);
      }) {}

} // namespace snoc
