// The send buffer of Fig. 3-5: the list of messages a tile has to forward.
// "If a message is already present, a duplicate message will not be
// inserted" — membership is by MessageId.  Capacity is finite; on overflow
// the oldest entry is dropped (Ch. 2 overflow policy).
#pragma once

#include <cstddef>
#include <memory>
#include <unordered_set>
#include <vector>

#include "common/types.hpp"
#include "noc/packet.hpp"

namespace snoc {

/// One held rumor: the immutable body every copy of it shares, plus this
/// copy's remaining TTL — the only field that differs between copies.
struct HeldMessage {
    std::shared_ptr<const MessageBody> body;
    std::uint16_t ttl{0};

    const MessageId& id() const { return body->id; }
    /// A standalone Message (one payload copy), for IP cores.
    Message message() const { return Message{*body, ttl}; }
};

class SendBuffer {
public:
    explicit SendBuffer(std::size_t capacity);

    /// Insert unless a message with the same id is already held or was
    /// held before (no resurrection of garbage-collected rumors).
    /// Returns true iff inserted; bumps the overflow counter when the
    /// oldest entry had to be evicted to make room.  When `evicted` is
    /// non-null the victim's id is written there (for tracing); it is
    /// left untouched when nothing was evicted.
    bool insert(HeldMessage message, MessageId* evicted = nullptr);
    /// Convenience: wraps `message` in a fresh body of its own.
    bool insert(Message message, MessageId* evicted = nullptr);

    /// True iff this id is currently held *or was ever held* by this tile.
    bool knows(const MessageId& id) const { return known_.contains(id); }

    /// Decrement every held message's TTL; remove those reaching 0.
    /// Returns the number of expired messages (Fig. 3-4 GC step).  When
    /// `expired_ids` is non-null the collected rumor ids are appended
    /// (for tracing).
    std::size_t age_and_collect(std::vector<MessageId>* expired_ids = nullptr);

    std::size_t size() const { return messages_.size(); }
    bool empty() const { return messages_.empty(); }
    std::size_t capacity() const { return capacity_; }
    std::size_t overflow_drops() const { return overflow_drops_; }

    const std::vector<HeldMessage>& messages() const { return messages_; }

    /// Every id this tile has ever held (a superset of messages(): ids
    /// survive ageing and eviction).  The event engine's bootstrap counts
    /// knowers from it; iteration order is unspecified, so only
    /// order-insensitive accounting may read it.
    const std::unordered_set<MessageId>& known() const { return known_; }

    void clear();

private:
    std::size_t capacity_;
    std::vector<HeldMessage> messages_;
    std::unordered_set<MessageId> known_;
    std::size_t overflow_drops_{0};
};

} // namespace snoc
