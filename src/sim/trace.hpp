// Structured event tracing: the vocabulary every backend emits.
//
// The engine emits one TraceEvent per interesting happening (creation,
// transmission, delivery, each drop cause, TTL expiry, skew deferral)
// into at most one attached TraceSink.  This header holds the event
// kinds, the event record, the sink interface and a human-readable
// formatter.  The telemetry layer's Telemetry (telemetry/telemetry.hpp)
// is the sink that keeps them: the full log for exports, or the newest N
// events as the flight recorder for post-mortems.  Tracing is off unless
// a sink is attached, and sinks are engine-agnostic (pure data in, no
// calls back), so they cannot perturb a simulation.
#pragma once

#include <cstdint>
#include <iterator>
#include <optional>
#include <string>
#include <string_view>

#include "common/types.hpp"

namespace snoc {

/// The single source of truth for event kinds.  Enumerator, wire name and
/// count are all generated from this table, so adding a kind cannot
/// desynchronize Telemetry's per-kind totals, to_string, from_string or any
/// exporter — extend the list and everything follows.
#define SNOC_TRACE_EVENT_KIND_LIST(X)                                          \
    X(MessageCreated, "created")     /* a fresh rumor entered a send buffer */ \
    X(Transmitted, "transmitted")    /* one link (or bus/flit) traversal */    \
    X(Accepted, "accepted")          /* received copy merged into a buffer */  \
    X(Delivered, "delivered")        /* first-time delivery to the dest IP */  \
    X(CrcDrop, "crc-drop")           /* scrambled packet caught by the CRC */  \
    X(FecUncorrectable, "fec-drop")  /* multi-bit upset beyond SECDED */       \
    X(OverflowDrop, "overflow-drop") /* port-buffer overflow (forced/cap) */   \
    X(DuplicateIgnored, "duplicate") /* re-received known message */           \
    X(TtlExpired, "ttl-expired")     /* rumor garbage-collected at TTL 0 */    \
    X(SkewDeferral, "skew-deferral") /* arrival pushed a round by skew */      \
    X(CrashDrop, "crash-drop")       /* transmission sunk into a dead tile */  \
    X(BufferEvicted, "buffer-evicted") /* send-buffer overflow eviction */

enum class TraceEventKind : std::uint8_t {
#define SNOC_TRACE_EVENT_KIND_ENUM(name, str) name,
    SNOC_TRACE_EVENT_KIND_LIST(SNOC_TRACE_EVENT_KIND_ENUM)
#undef SNOC_TRACE_EVENT_KIND_ENUM
};

inline constexpr const char* kTraceEventKindNames[] = {
#define SNOC_TRACE_EVENT_KIND_NAME(name, str) str,
    SNOC_TRACE_EVENT_KIND_LIST(SNOC_TRACE_EVENT_KIND_NAME)
#undef SNOC_TRACE_EVENT_KIND_NAME
};

inline constexpr std::size_t kTraceEventKinds = std::size(kTraceEventKindNames);

// The one place the count is spelled out, so a stray edit to the X-macro
// (or a hand-added enumerator bypassing it) fails to compile rather than
// silently shearing counters off their labels.
static_assert(kTraceEventKinds == 12,
              "TraceEventKind changed: update this count and audit every "
              "exporter/test that enumerates kinds");
static_assert(static_cast<std::size_t>(TraceEventKind::BufferEvicted) + 1 ==
                  kTraceEventKinds,
              "enum and name table fell out of step");

constexpr const char* to_string(TraceEventKind k) {
    const auto i = static_cast<std::size_t>(k);
    return i < kTraceEventKinds ? kTraceEventKindNames[i] : "?";
}

/// Inverse of to_string, for trace loaders; nullopt on unknown names.
std::optional<TraceEventKind> trace_kind_from_string(std::string_view name);

struct TraceEvent {
    Round round{0};
    TraceEventKind kind{TraceEventKind::MessageCreated};
    TileId tile{0};          ///< where it happened.
    TileId peer{kNoTile};    ///< other endpoint (transmissions), if any.
    /// Rumor identity when known; origin == kNoTile means "no message"
    /// (e.g. a CRC drop, where the id was unreadable by definition).
    MessageId message{kNoTile, 0};
};

class TraceSink {
public:
    virtual ~TraceSink() = default;
    virtual void record(const TraceEvent& event) = 0;
};

/// "r12 transmitted tile 5 -> 6 msg (5,0)" style formatting.
std::string format_event(const TraceEvent& event);

} // namespace snoc
