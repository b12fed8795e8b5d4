// Design-space tuning helper (Sec. 3.2.2 / 4.1.3): p and TTL are the
// knobs that trade performance against energy.
//
//   * estimate_ttl   — closed-form first cut: the broadcast wave advances
//                      about p hops per round toward any tile, so a rumor
//                      needs ~diameter/p rounds plus logarithmic slack.
//
// ablation_ttl measures delivery against TTL on the real engine.
#pragma once

#include <cstddef>
#include <cstdint>

namespace snoc {

/// Closed-form TTL first cut for a topology of the given diameter.
std::uint16_t estimate_ttl(std::size_t diameter, double forward_p);

} // namespace snoc
