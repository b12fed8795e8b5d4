// The Producer - Consumer walkthrough of Sec. 3.2.1 / Fig. 3-3: a producer
// on one tile streams numbered items; a consumer on another tile collects
// them.  Neither knows where the other lives — the gossip layer finds it.
#pragma once

#include <cstdint>
#include <vector>

#include "core/engine.hpp"
#include "core/ip_core.hpp"

namespace snoc::apps {

inline constexpr std::uint32_t kItemTag = 0x50524F44; // 'PROD'

class ProducerIp final : public IpCore {
public:
    /// Emit `item_count` items, one every `interval` rounds, addressed to
    /// `consumer_tile`.
    ProducerIp(TileId consumer_tile, std::size_t item_count, Round interval = 1);

    void on_round(TileContext& ctx) override;
    void on_message(const Message&, TileContext&) override {}

private:
    TileId consumer_;
    std::size_t item_count_;
    Round interval_;
    std::size_t next_item_{0};
};

class ConsumerIp final : public IpCore {
public:
    explicit ConsumerIp(std::size_t expected) : expected_(expected) {}

    void on_message(const Message& message, TileContext& ctx) override;

    std::size_t received_count() const { return received_items_.size(); }
    bool complete() const { return received_items_.size() >= expected_; }
    /// Round at which each item arrived (index = arrival order).
    const std::vector<Round>& arrival_rounds() const { return arrival_rounds_; }
    const std::vector<std::uint64_t>& received_items() const { return received_items_; }

private:
    std::size_t expected_;
    std::vector<std::uint64_t> received_items_;
    std::vector<Round> arrival_rounds_;
};

/// Wire the Fig. 3-3 scenario onto a network: producer on `producer_tile`,
/// consumer on `consumer_tile`.  Returns the consumer for inspection (owned
/// by the network).
ConsumerIp& make_producer_consumer(GossipNetwork& net, TileId producer_tile,
                                   TileId consumer_tile, std::size_t items,
                                   Round interval = 1);

} // namespace snoc::apps
