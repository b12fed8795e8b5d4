#include "sim/trace.hpp"

#include <sstream>

namespace snoc {

std::optional<TraceEventKind> trace_kind_from_string(std::string_view name) {
    for (std::size_t i = 0; i < kTraceEventKinds; ++i)
        if (name == kTraceEventKindNames[i])
            return static_cast<TraceEventKind>(i);
    return std::nullopt;
}

std::string format_event(const TraceEvent& event) {
    std::ostringstream os;
    os << 'r' << event.round << ' ' << to_string(event.kind) << " tile "
       << event.tile;
    if (event.peer != kNoTile) os << " -> " << event.peer;
    if (event.message.origin != kNoTile)
        os << " msg (" << event.message.origin << ',' << event.message.sequence
           << ')';
    return os.str();
}

} // namespace snoc
