// The post-mortem notification hook: the one seam between the layers
// that *detect* a fatal condition (contract checks in common, the
// invariant auditor in check, the DeadlockSentinel in router) and the
// layer that can *preserve evidence* about it (the telemetry flight
// recorder, which sits far above all of them).
//
// A detector calls `postmortem::notify(reason, detail)` immediately
// before it records/throws its violation.  If the current thread has a
// handler installed (a ScopedHandler, normally owned by a telemetry
// PostmortemDumper wrapping the trial's Telemetry), the handler runs right
// there — while the evidence still exists — and typically dumps a
// `*.postmortem.jsonl` bundle.  With no handler armed, notify() is a
// cheap no-op, so detectors may call it unconditionally.
//
// The handler is thread-local on purpose: Monte-Carlo trials run
// concurrently on the shared ThreadPool and each trial owns its own
// recorder, so a violation on one worker must never dump a sibling
// trial's events.  notify() also re-enters safely: the handler is
// disarmed while it runs, so a contract failure *inside* a dump cannot
// recurse.
#pragma once

#include <functional>
#include <string>

namespace snoc::postmortem {

/// What the detector knows at the moment of failure.
struct Context {
    const char* reason; ///< short machine-readable cause, e.g. "invariant".
    std::string detail; ///< pre-formatted offending values / message.
};

using Handler = std::function<void(const Context&)>;

/// Install `handler` as this thread's post-mortem handler for the scope's
/// lifetime; the previous handler (normally none) is restored on exit.
class ScopedHandler {
public:
    explicit ScopedHandler(Handler handler);
    ~ScopedHandler();
    ScopedHandler(const ScopedHandler&) = delete;
    ScopedHandler& operator=(const ScopedHandler&) = delete;

private:
    Handler previous_;
};

/// True when the current thread has a handler armed (and not already
/// running) — lets a detector skip building an expensive `detail` string.
bool armed();

/// Invoke the current thread's handler, if any.  No-op when none is
/// installed or when called from inside a running handler.
void notify(const char* reason, const std::string& detail);

} // namespace snoc::postmortem
