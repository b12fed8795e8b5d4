#include "core/tuning.hpp"

#include <gtest/gtest.h>

#include "common/expect.hpp"

namespace snoc {
namespace {

TEST(EstimateTtl, FloodingNeedsAboutDiameterRounds) {
    // p = 1: diameter plus slack.
    const auto ttl = estimate_ttl(6, 1.0);
    EXPECT_GE(ttl, 6u);
    EXPECT_LE(ttl, 14u);
}

TEST(EstimateTtl, LowerPNeedsMoreRounds) {
    EXPECT_GT(estimate_ttl(6, 0.25), estimate_ttl(6, 0.5));
    EXPECT_GT(estimate_ttl(6, 0.5), estimate_ttl(6, 1.0));
}

TEST(EstimateTtl, GrowsWithDiameter) {
    EXPECT_GT(estimate_ttl(14, 0.5), estimate_ttl(6, 0.5));
}

TEST(EstimateTtl, RejectsBadP) {
    EXPECT_THROW(estimate_ttl(6, 0.0), ContractViolation);
    EXPECT_THROW(estimate_ttl(6, 1.5), ContractViolation);
}

} // namespace
} // namespace snoc
