// The Telemetry recorder: the simulator's one TraceSink that keeps what
// it hears.  It holds the events oldest first and per-kind totals over
// every event recorded since the last clear().
//
//   * Unbounded (the default) it keeps every event: the full log the
//     exporters (export.hpp) and the query engine read.  Per-tile and
//     per-link counts are derived from that log when an export is
//     written, not kept here.
//   * Built with a window N it is the flight recorder: it keeps only the
//     newest N events in a ring preallocated at construction, so
//     record() is one store plus an index bump and never allocates.
//     Overwritten events are counted, and the totals still cover them;
//     a post-mortem bundle (flight_recorder.hpp) says what it lost.
//
// It is backend-agnostic: anything that speaks the TraceSink API (gossip
// engine, bus, XY, wormhole, deflection) feeds it the same way.  Like
// every sink it is write-only from the engine's point of view and holds
// no engine state, so attaching one cannot perturb a simulation.
//
// Concurrency (DESIGN.md §16): single-writer by contract and free of
// locks and atomics.  A trial records into its own recorder, and the
// recorder is read only from that thread or after it has joined, so
// there is nothing for a mutex or an atomic to protect.
#pragma once

#include <array>
#include <cstddef>
#include <limits>
#include <vector>

#include "sim/trace.hpp"

namespace snoc {

class Telemetry final : public TraceSink {
public:
    using KindCounts = std::array<std::size_t, kTraceEventKinds>;

    /// Unbounded: every event is kept.
    Telemetry() = default;
    /// Keeps the newest `window` (>= 1) events; older ones are
    /// overwritten and counted in overwritten().
    explicit Telemetry(std::size_t window);

    void record(const TraceEvent& event) override;

    /// Forget everything recorded so far (retry loops re-record an attempt
    /// from scratch); the storage keeps its capacity.
    void clear();

    /// Every event recorded since the last clear(), oldest first.  Only a
    /// complete log has them all: once a window has overwritten an event
    /// this fails SNOC_EXPECT, and newest() is the way to read it.
    const std::vector<TraceEvent>& events() const;

    /// The newest min(n, size()) events held, oldest first.
    std::vector<TraceEvent> newest(std::size_t n) const;

    /// Events held (at most the window).
    std::size_t size() const { return events_.size(); }
    /// Events a window has overwritten since the last clear().
    std::size_t overwritten() const { return overwritten_; }

    std::size_t count(TraceEventKind kind) const {
        return totals_[static_cast<std::size_t>(kind)];
    }
    /// Per-kind totals over every event recorded, overwritten ones too.
    const KindCounts& totals() const { return totals_; }
    /// Every event recorded: size() + overwritten().
    std::size_t total() const { return events_.size() + overwritten_; }

private:
    std::size_t window_{std::numeric_limits<std::size_t>::max()};
    std::size_t next_{0};        ///< oldest held event once the ring wraps.
    std::size_t overwritten_{0};
    std::vector<TraceEvent> events_;
    KindCounts totals_{};
};

} // namespace snoc
