#include "core/send_buffer.hpp"

#include <algorithm>

#include "common/expect.hpp"

namespace snoc {

bool SendBuffer::IdSet::insert(const MessageId& id) {
    if (contains(id)) return false;
    if (2 * (size_ + 1) > slots_.size()) {
        std::vector<MessageId> old(std::max<std::size_t>(8, 2 * slots_.size()),
                                   MessageId{kNoTile, 0});
        old.swap(slots_);
        for (const MessageId& m : old)
            if (m.origin != kNoTile) place(m);
    }
    place(id);
    ++size_;
    return true;
}

void SendBuffer::IdSet::place(const MessageId& id) {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = std::hash<MessageId>{}(id) & mask;
    while (slots_[i].origin != kNoTile) i = (i + 1) & mask;
    slots_[i] = id;
}

void SendBuffer::IdSet::clear() {
    slots_.clear();
    size_ = 0;
}

SendBuffer::SendBuffer(std::size_t capacity) : capacity_(capacity) {
    SNOC_EXPECT(capacity > 0);
}

bool SendBuffer::insert(HeldMessage message, MessageId* evicted) {
    if (!known_.insert(message.id())) return false;
    if (messages_.size() == capacity_) {
        if (evicted) *evicted = messages_.front().id();
        messages_.erase(messages_.begin());
        ++overflow_drops_;
    }
    messages_.push_back(std::move(message));
    return true;
}

bool SendBuffer::insert(Message message, MessageId* evicted) {
    const std::uint16_t ttl = message.ttl;
    return insert(HeldMessage{std::make_shared<const MessageBody>(std::move(message)), ttl},
                  evicted);
}

std::size_t SendBuffer::age_and_collect(std::vector<MessageId>* expired_ids) {
    for (auto& m : messages_) {
        // Per-message-per-round hot path: leveled so a SNOC_CHECK_LEVEL=0
        // build strips it (a TTL-0 entry here is a protocol bug — ageing
        // must never wrap around).
        SNOC_CHECK(1, m.ttl > 0);
        --m.ttl;
    }
    const auto first_dead = std::stable_partition(
        messages_.begin(), messages_.end(),
        [](const HeldMessage& m) { return m.ttl > 0; });
    const auto expired = static_cast<std::size_t>(messages_.end() - first_dead);
    if (expired_ids)
        for (auto it = first_dead; it != messages_.end(); ++it)
            expired_ids->push_back(it->id());
    messages_.erase(first_dead, messages_.end());
    return expired;
}

void SendBuffer::clear() {
    messages_.clear();
    known_.clear();
    overflow_drops_ = 0;
}

} // namespace snoc
