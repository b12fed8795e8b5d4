// Exporters over a Telemetry recording:
//
//   * JSONL   — one event per line, the interchange format snoc_trace
//               and the query engine load back,
//   * Chrome  — `trace_event`-format JSON for chrome://tracing/Perfetto:
//               one track (thread) per tile carrying instant events, plus
//               one async span per message lifetime (MessageCreated to
//               its last Delivered/TtlExpired/BufferEvicted),
//   * CSV     — per-tile heatmap rows (x,y + one column per event kind)
//               and per-link transmission counts.
//
// Every writer reads the full event log: the per-tile and per-link counts
// are derived from it as the export is written, and a recorder whose
// window has overwritten events fails SNOC_EXPECT.  All writers are
// deterministic: identical recordings produce byte-identical output (the
// golden-file tests depend on it).
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>

#include "core/metrics.hpp"
#include "telemetry/telemetry.hpp"

namespace snoc {

/// One trace event as its JSONL line (trailing newline): the line format
/// of trace dumps and post-mortem bundles alike, which
/// tracequery::load_jsonl reads back.
void write_event_line(const TraceEvent& event, std::ostream& os);

void write_jsonl(const Telemetry& telemetry, std::ostream& os);
void write_jsonl(const Telemetry& telemetry, const std::string& path);

void write_chrome_trace(const Telemetry& telemetry, std::ostream& os);
void write_chrome_trace(const Telemetry& telemetry, const std::string& path);

/// One row per tile: tile id, (x, y) when `grid_width` > 0, then one
/// column per event kind.  Tiles that never appeared in an event still
/// get a zero row so the heatmap is a full rectangle.
void write_heatmap_csv(const Telemetry& telemetry, std::ostream& os,
                       std::size_t grid_width);
void write_heatmap_csv(const Telemetry& telemetry, const std::string& path,
                       std::size_t grid_width);

/// One row per directed link that carried at least one transmission.
void write_link_csv(const Telemetry& telemetry, std::ostream& os);
void write_link_csv(const Telemetry& telemetry, const std::string& path);

/// Run-counter summary: one flat JSON object naming every scalar
/// NetworkMetrics counter (snoc_lint's registry checker holds this
/// exporter and the invariant auditor in lock-step with metrics.hpp —
/// adding a counter without exporting it here fails the lint), plus the
/// derived hotspot/packet-size figures.  Deterministic: fixed key order,
/// no floats (derived ratios are printed with fixed precision).
void write_metrics_json(const NetworkMetrics& metrics, std::ostream& os);
void write_metrics_json(const NetworkMetrics& metrics, const std::string& path);

/// "5:12" <-> MessageId{5, 12} wire spelling used by JSONL and the CLI.
std::string format_message_id(const MessageId& id);

} // namespace snoc
