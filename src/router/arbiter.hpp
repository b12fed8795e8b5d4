// Rotating-priority arbitration — the arbitration stage of the layered
// router core.  "Because a bus is a shared communication channel, it
// requires arbitration in order to ensure the mutual exclusion between
// the components accessing the channel" (Ch. 1); the same rotating scan
// arbitrates a router's switch ports.  The rotating priority guarantees
// starvation freedom: a requester waits at most (slots - 1) grants
// (test_router_stress proves it under full injection).
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <type_traits>
#include <vector>

#include "common/expect.hpp"

namespace snoc::router {

/// One rotating-priority arbiter over a fixed set of request slots.  The
/// scan starts just past the previous winner and priority advances only
/// on an actual grant — the rule the shared bus and the wormhole switch
/// each used to hand-roll.
class RotatingArbiter {
public:
    explicit RotatingArbiter(std::size_t slots)
        : slots_(slots), grants_(slots, 0) {
        SNOC_EXPECT(slots > 0);
    }

    /// Grant the first slot (cyclically after the previous winner) whose
    /// `request(slot)` returns true.  `request` may do the caller's full
    /// eligibility work — route lookup, credit checks, downstream VC
    /// claims — including side effects that persist across a refusal;
    /// the arbiter only promises the scan order and that priority moves
    /// past winners alone.  Returns nullopt when every slot refuses.
    template <class Request,
              class = std::enable_if_t<
                  std::is_invocable_r_v<bool, Request&, std::size_t>>>
    std::optional<std::size_t> grant(Request&& request) {
        std::size_t slot = last_ + 1 == slots_ ? 0 : last_ + 1;
        for (std::size_t i = 0; i < slots_; ++i) {
            if (request(slot)) {
                last_ = slot;
                ++grants_[slot];
                return slot;
            }
            if (++slot == slots_) slot = 0;
        }
        return std::nullopt;
    }

    /// grant() over the slots whose bit is set in `candidates`, visited in
    /// the same cyclic order: the caller vouches that every other slot
    /// would refuse without a side effect, so skipping it changes nothing.
    /// Needs slot_count() <= 64.
    template <class Request,
              class = std::enable_if_t<
                  std::is_invocable_r_v<bool, Request&, std::size_t>>>
    std::optional<std::size_t> grant_among(std::uint64_t candidates,
                                           Request&& request) {
        SNOC_EXPECT(slots_ <= 64 && (slots_ == 64 || candidates >> slots_ == 0));
        const std::size_t start = last_ + 1 == slots_ ? 0 : last_ + 1;
        const std::uint64_t from_start = candidates & (~std::uint64_t{0} << start);
        for (std::uint64_t part : {from_start, candidates & ~from_start})
            for (; part != 0; part &= part - 1) {
                const auto slot = static_cast<std::size_t>(std::countr_zero(part));
                if (request(slot)) {
                    last_ = slot;
                    ++grants_[slot];
                    return slot;
                }
            }
        return std::nullopt;
    }

    /// Plain request-vector flavour (the shared-bus shape).
    std::optional<std::size_t> grant(const std::vector<bool>& requests) {
        SNOC_EXPECT(requests.size() == slots_);
        return grant([&](std::size_t slot) { return requests[slot]; });
    }

    std::size_t slot_count() const { return slots_; }

    /// Grants won by `slot` so far — the observable the starvation-
    /// freedom stress test asserts on.
    std::size_t grants(std::size_t slot) const {
        SNOC_EXPECT(slot < slots_);
        return grants_[slot];
    }

private:
    std::size_t slots_;
    std::size_t last_{0};
    std::vector<std::size_t> grants_;
};

} // namespace snoc::router
