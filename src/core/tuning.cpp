#include "core/tuning.hpp"

#include <cmath>

#include "common/expect.hpp"

namespace snoc {

std::uint16_t estimate_ttl(std::size_t diameter, double forward_p) {
    SNOC_EXPECT(forward_p > 0.0 && forward_p <= 1.0);
    const double hops = static_cast<double>(diameter);
    // Wave speed ~ p hops/round toward a fixed tile plus log-ish slack for
    // the stochastic tail.
    const double rounds = hops / forward_p + 2.0 * std::log2(hops + 2.0);
    return static_cast<std::uint16_t>(std::ceil(rounds));
}

} // namespace snoc
