// Replays a backend-independent TrafficTrace over the stochastic NoC.
//
// Each phase's source tiles inject their messages as soon as the phase
// opens; the next phase opens when every message of the current phase has
// been delivered.  (The harness owns the global phase view — in the real
// applications the data dependencies create the phases naturally, see
// PiMasterIp / FftRootIp; this driver exists so the *same* traffic can be
// pushed through the gossip NoC, the shared bus and the XY mesh.)
#pragma once

#include <cstddef>
#include <memory>

#include "core/engine.hpp"
#include "core/ip_core.hpp"
#include "noc/traffic.hpp"

namespace snoc::apps {

inline constexpr std::uint32_t kTraceTagBase = 0x54520000; // 'TR'<<16

class TraceDriver {
public:
    /// Attach replay IPs for `trace` onto `net` (must not have IPs on the
    /// involved tiles yet).
    TraceDriver(GossipNetwork& net, TrafficTrace trace);

    bool complete() const { return state_->phase >= state_->trace.phases.size(); }
    std::size_t current_phase() const { return state_->phase; }
    std::size_t delivered_messages() const { return state_->total_delivered; }

private:
    // Shared by every replay IP of one network.  Each trace message is
    // counted exactly once (per-IP seen_ dedup), and the phase advances
    // only after every message of the open phase has been counted.
    struct State {
        TrafficTrace trace;
        std::size_t phase{0};
        std::size_t delivered_in_phase{0};
        std::size_t total_delivered{0};
    };

    class TraceIp;

    std::shared_ptr<State> state_;
};

} // namespace snoc::apps
