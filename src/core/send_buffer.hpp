// The send buffer of Fig. 3-5: the list of messages a tile has to forward.
// "If a message is already present, a duplicate message will not be
// inserted" — membership is by MessageId.  Capacity is finite; on overflow
// the oldest entry is dropped (Ch. 2 overflow policy).
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "common/expect.hpp"
#include "common/types.hpp"
#include "noc/packet.hpp"

namespace snoc {

/// One held rumor: the immutable body every copy of it shares, plus this
/// copy's remaining TTL — the only field that differs between copies.
struct HeldMessage {
    std::shared_ptr<const MessageBody> body;
    std::uint16_t ttl{0};
    /// Every live neighbour of the holding tile, over a live link,
    /// already knows this rumor.  The forward phase checks it after a
    /// round in which every copy it looked up went to a knower, and sets
    /// it once true; it never goes false again, since knowers only grow
    /// and crashes roll only at start.
    bool neighbours_know{false};

    const MessageId& id() const { return body->id; }
    /// A standalone Message (one payload copy), for IP cores.
    Message message() const { return Message{*body, ttl}; }
};
// The flag sits in the padding after the TTL: a send buffer holds one of
// these per rumor on every tile.
static_assert(sizeof(HeldMessage) == 24);

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
    /// (for tracing).  A call in which nothing expires moves nothing.
    std::size_t age_and_collect(std::vector<MessageId>* expired_ids = nullptr) {
        bool any_expired = false;
        for (auto& m : messages_) {
            // Per-message-per-round hot path: leveled so a
            // SNOC_CHECK_LEVEL=0 build strips it (a TTL-0 entry here is a
            // protocol bug — ageing must never wrap around).
            SNOC_CHECK(1, m.ttl > 0);
            any_expired |= --m.ttl == 0;
        }
        return any_expired ? collect_expired(expired_ids) : 0;
    }

    std::size_t size() const { return messages_.size(); }
    bool empty() const { return messages_.empty(); }
    std::size_t capacity() const { return capacity_; }
    std::size_t overflow_drops() const { return overflow_drops_; }

    const std::vector<HeldMessage>& messages() const { return messages_; }
    /// The held messages in place, for the forward phase's
    /// HeldMessage::neighbours_know flag.
    std::span<HeldMessage> messages() { return messages_; }

    void clear();

private:
    /// Remove the messages whose TTL reached 0, keeping the others'
    /// order; the age_and_collect() of a call in which one expired.
    std::size_t collect_expired(std::vector<MessageId>* expired_ids);

    /// Membership set of message ids: open addressing with linear
    /// probing in a power-of-two table kept at most half full.  An origin
    /// of kNoTile marks an empty slot (no real id has it).  One flat
    /// array per tile keeps the dedup lookup every arrival makes to about
    /// one cache line; a node-based hash set costs several dependent
    /// misses on a large mesh.
    class IdSet {
    public:
        bool contains(const MessageId& id) const {
            if (slots_.empty()) return false;
            const std::size_t mask = slots_.size() - 1;
            for (std::size_t i = std::hash<MessageId>{}(id) & mask;; i = (i + 1) & mask) {
                if (slots_[i] == id) return true;
                if (slots_[i].origin == kNoTile) return false;
            }
        }
        /// True iff `id` was not a member yet.
        bool insert(const MessageId& id);
        void clear();

    private:
        void place(const MessageId& id);
        std::vector<MessageId> slots_;
        std::size_t size_{0};
    };

    std::size_t capacity_;
    std::vector<HeldMessage> messages_;
    IdSet known_;
    std::size_t overflow_drops_{0};
};

} // namespace snoc
