// The send buffer of Fig. 3-5: the list of messages a tile has to forward.
// "If a message is already present, a duplicate message will not be
// inserted" — membership is by MessageId.  Capacity is finite; on overflow
// the oldest entry is dropped (Ch. 2 overflow policy).
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
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

    void clear();

private:
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
