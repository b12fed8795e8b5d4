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

FlightRecorder::FlightRecorder(std::size_t capacity, std::size_t lanes)
    : capacity_(capacity), lanes_(std::max<std::size_t>(lanes, 1)) {
    SNOC_EXPECT(capacity >= 1);
    for (Lane& lane : lanes_) {
        lane.capacity = capacity_;
        lane.totals.assign(kTraceEventKinds, 0);
        // Preallocate so steady-state record() never allocates.
        lane.ring.reserve(capacity_);
    }
}

void FlightRecorder::Lane::record(const TraceEvent& event) {
    ++totals[static_cast<std::size_t>(event.kind)];
    if (ring.size() < capacity) {
        ring.push_back(event);
        return;
    }
    ring[next] = event;
    next = next + 1 == capacity ? 0 : next + 1;
    ++dropped;
}

void FlightRecorder::record(const TraceEvent& event) { lanes_[0].record(event); }

TraceSink& FlightRecorder::lane(std::size_t lane) {
    SNOC_EXPECT(lane < lanes_.size());
    return lanes_[lane];
}

std::size_t FlightRecorder::size() const {
    std::size_t n = 0;
    for (const Lane& lane : lanes_) n += lane.ring.size();
    return n;
}

std::size_t FlightRecorder::dropped() const {
    std::size_t n = 0;
    for (const Lane& lane : lanes_) n += lane.dropped;
    return n;
}

std::vector<std::size_t> FlightRecorder::kind_totals() const {
    std::vector<std::size_t> totals(kTraceEventKinds, 0);
    for (const Lane& lane : lanes_)
        for (std::size_t k = 0; k < kTraceEventKinds; ++k)
            totals[k] += lane.totals[k];
    return totals;
}

std::vector<TraceEvent> FlightRecorder::drain() const {
    // Each lane's retained events in insertion order: the ring's oldest
    // element sits at `next` once it has wrapped.
    std::vector<std::vector<TraceEvent>> per_lane;
    per_lane.reserve(lanes_.size());
    std::size_t total = 0;
    for (const Lane& lane : lanes_) {
        std::vector<TraceEvent> events;
        events.reserve(lane.ring.size());
        if (lane.ring.size() < lane.capacity) {
            events.assign(lane.ring.begin(), lane.ring.end());
        } else {
            events.insert(events.end(), lane.ring.begin() +
                                            static_cast<std::ptrdiff_t>(lane.next),
                          lane.ring.end());
            events.insert(events.end(), lane.ring.begin(),
                          lane.ring.begin() +
                              static_cast<std::ptrdiff_t>(lane.next));
        }
        total += events.size();
        per_lane.push_back(std::move(events));
    }
    if (per_lane.size() == 1) return std::move(per_lane.front());

    // Deterministic cross-lane merge: ascending round, ties by lane index
    // then intra-lane order.  Rounds are monotone within a lane, so one
    // k-way front scan suffices.
    std::vector<TraceEvent> merged;
    merged.reserve(total);
    std::vector<std::size_t> cursor(per_lane.size(), 0);
    while (merged.size() < total) {
        std::size_t best = per_lane.size();
        for (std::size_t l = 0; l < per_lane.size(); ++l) {
            if (cursor[l] >= per_lane[l].size()) continue;
            if (best == per_lane.size() ||
                per_lane[l][cursor[l]].round < per_lane[best][cursor[best]].round)
                best = l;
        }
        SNOC_ENSURE(best < per_lane.size());
        merged.push_back(per_lane[best][cursor[best]++]);
    }
    return merged;
}

void FlightRecorder::clear() {
    for (Lane& lane : lanes_) {
        lane.ring.clear();
        lane.next = 0;
        lane.dropped = 0;
        std::fill(lane.totals.begin(), lane.totals.end(), 0);
    }
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
