#include "telemetry/telemetry.hpp"

#include <algorithm>

#include "common/expect.hpp"

namespace snoc {

Telemetry::Telemetry(std::size_t window) : window_(window) {
    SNOC_EXPECT(window >= 1);
    // Preallocate so a full window's record() never allocates.
    events_.reserve(window_);
}

void Telemetry::record(const TraceEvent& event) {
    ++totals_[static_cast<std::size_t>(event.kind)];
    if (events_.size() < window_) {
        events_.push_back(event);
        return;
    }
    events_[next_] = event;
    next_ = next_ + 1 == window_ ? 0 : next_ + 1;
    ++overwritten_;
}

void Telemetry::clear() {
    events_.clear();
    next_ = 0;
    overwritten_ = 0;
    totals_.fill(0);
}

const std::vector<TraceEvent>& Telemetry::events() const {
    SNOC_EXPECT(overwritten_ == 0 && "the window overwrote events: read newest()");
    return events_;
}

std::vector<TraceEvent> Telemetry::newest(std::size_t n) const {
    n = std::min(n, events_.size());
    std::vector<TraceEvent> out;
    out.reserve(n);
    // The oldest held event sits at next_ (0 until the ring wraps).
    for (std::size_t i = events_.size() - n; i < events_.size(); ++i)
        out.push_back(events_[(next_ + i) % events_.size()]);
    return out;
}

} // namespace snoc
