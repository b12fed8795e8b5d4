// Accounting stage of the layered router core: the one place packet
// backends turn simulation happenings into NetworkMetrics counters and
// TraceEvents.  Every packet-switched backend used to hand-roll both —
// a private trace_event() helper and ad-hoc counter arithmetic — which
// is exactly how counters drift from the event stream.  Here each
// happening updates the counters and fires the event in one call, so
// the InvariantAuditor's record-vs-counter and histogram checks hold by
// construction.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>

#include "common/types.hpp"
#include "core/metrics.hpp"
#include "noc/topology.hpp"
#include "sim/trace.hpp"

namespace snoc::router {

/// One injected packet's life, kept by every cycle-stepped packet
/// simulator (the router core, wormhole, deflection) and checked by the
/// auditor's record law (InvariantAuditor::check_records).  A simulator
/// that does not model a field leaves it at its default: wormhole counts
/// neither bits nor per-packet hops and never drops.
struct PacketRecord {
    std::uint32_t id{0};
    TileId source{0};
    TileId destination{0};
    std::size_t bits{0};
    std::size_t injected_cycle{0};
    std::optional<std::size_t> delivered_cycle;
    std::size_t hops{0};  ///< link traversals (minimal + detours); a
                          ///< deflection stall counts as one.
    bool dropped{false};  ///< crash-dropped or hop budget exhausted.
};

/// Fire one trace event at an attached sink (no-op when detached) — the
/// emission idiom every backend used to hand-roll privately.
inline void emit(TraceSink* sink, Round round, TraceEventKind kind, TileId tile,
                 TileId peer, MessageId id) {
    if (!sink) return;
    TraceEvent event;
    event.round = round;
    event.kind = kind;
    event.tile = tile;
    event.peer = peer;
    event.message = id;
    sink->record(event);
}

/// Shared metrics + trace bookkeeping for packet backends.  Maintains the
/// full NetworkMetrics taxonomy the auditor's check_metrics law covers:
/// the per-round, per-tile and per-link histograms always sum to the
/// matching global counters.
class Accounting {
public:
    Accounting() = default;

    /// Size the per-tile / per-link histograms for `topo`.
    void attach(const Topology& topo);

    void set_trace_sink(TraceSink* sink) { sink_ = sink; }
    TraceSink* trace_sink() const { return sink_; }

    const NetworkMetrics& metrics() const { return metrics_; }

    /// Record that the clock reached `round` (metrics.rounds is the
    /// furthest round seen; events may not cover every round).
    void advance_to(Round round);

    void created(Round round, TileId tile, MessageId id);
    void transmitted(Round round, TileId from, TileId to, LinkId link,
                     MessageId id, std::size_t bits);
    void delivered(Round round, TileId tile, MessageId id);
    void crash_drop(Round round, TileId tile, MessageId id);
    void ttl_expired(Round round, TileId tile, MessageId id);

    /// Push the counters accumulated since the previous call into the
    /// process-wide MetricsRegistry (router_* namespace).  Called once
    /// per router cycle, not per packet, so the live registry stays a
    /// cycle fresh at the cost of five relaxed atomic adds per step.
    void publish_registry();

private:
    struct Published {
        std::size_t created{0};
        std::size_t transmitted{0};
        std::size_t delivered{0};
        std::size_t crash_drops{0};
        std::size_t ttl_expired{0};
    };

    NetworkMetrics metrics_;
    TraceSink* sink_{nullptr};
    Published published_; ///< high-water marks already in the registry.
};

} // namespace snoc::router
