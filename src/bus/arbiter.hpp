// Round-robin bus arbitration.  "Because a bus is a shared communication
// channel, it requires arbitration in order to ensure the mutual exclusion
// between the components accessing the channel" (Ch. 1).  The rotating
// priority guarantees starvation freedom: a requester waits at most
// (n - 1) grants.
//
// The mechanism is the arbitration stage of the layered router core
// (router/arbiter.hpp); this wrapper keeps the bus-facing vocabulary
// (modules requesting a shared channel) over the same rotating scan.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "router/arbiter.hpp"

namespace snoc {

class RoundRobinArbiter {
public:
    explicit RoundRobinArbiter(std::size_t modules) : rotor_(modules) {}

    /// Grant the bus to the requesting module closest (cyclically) after
    /// the previous grant.  Returns nullopt when nobody requests.
    std::optional<std::size_t> grant(const std::vector<bool>& requests) {
        return rotor_.grant(requests);
    }

private:
    router::RotatingArbiter rotor_;
};

} // namespace snoc
