#include "apps/trace_app.hpp"

#include <set>

#include "common/expect.hpp"

namespace snoc::apps {

class TraceDriver::TraceIp final : public IpCore {
public:
    TraceIp(std::shared_ptr<State> state, TileId tile) : state_(std::move(state)), tile_(tile) {}

    void on_round(TileContext& ctx) override {
        auto& s = *state_;
        const std::size_t open = s.phase;
        if (open >= s.trace.phases.size()) return;
        if (sent_phase_ == open) return; // already injected for this phase
        const auto& phase = s.trace.phases[open];
        for (std::size_t i = 0; i < phase.messages.size(); ++i) {
            const auto& m = phase.messages[i];
            if (m.src != tile_) continue;
            // Payload sized to the logical message (rounded up to bytes).
            std::vector<std::byte> payload((m.bits + 7) / 8, std::byte{0xA5});
            const auto tag =
                static_cast<std::uint32_t>(kTraceTagBase | (open << 8) | i);
            ctx.send(m.dst, tag, std::move(payload));
        }
        sent_phase_ = open;
    }

    void on_message(const Message& message, TileContext&) override {
        if ((message.tag & 0xFFFF0000u) != kTraceTagBase) return;
        auto& s = *state_;
        const std::size_t phase = (message.tag >> 8) & 0xFFu;
        const std::size_t index = message.tag & 0xFFu;
        // Stale rumor from an earlier phase?  A *first* copy of a phase-k
        // message can never observe phase > k: the k -> k+1 transition
        // requires every phase-k message (this one included) counted.
        if (phase != s.phase) return;
        SNOC_EXPECT(phase < s.trace.phases.size());
        SNOC_EXPECT(index < s.trace.phases[phase].messages.size());
        if (s.trace.phases[phase].messages[index].dst != message.destination) return;
        const auto key = phase << 8 | index;
        if (!seen_.insert(key).second) return;
        ++s.total_delivered;
        if (++s.delivered_in_phase == s.trace.phases[phase].messages.size()) {
            s.delivered_in_phase = 0;
            ++s.phase;
        }
    }

private:
    std::shared_ptr<State> state_;
    TileId tile_;
    std::size_t sent_phase_{static_cast<std::size_t>(-1)};
    std::set<std::size_t> seen_;
};

TraceDriver::TraceDriver(GossipNetwork& net, TrafficTrace trace)
    : state_(std::make_shared<State>()) {
    state_->trace = std::move(trace);
    std::set<TileId> tiles;
    for (const auto& phase : state_->trace.phases) {
        for (const auto& m : phase.messages) {
            SNOC_EXPECT(m.src < net.topology().node_count());
            SNOC_EXPECT(m.dst < net.topology().node_count());
            SNOC_EXPECT(phase.messages.size() <= 256); // tag packing limit
            tiles.insert(m.src);
            tiles.insert(m.dst);
        }
    }
    SNOC_EXPECT(state_->trace.phases.size() <= 256);
    for (TileId t : tiles) net.attach(t, std::make_unique<TraceIp>(state_, t));
}

} // namespace snoc::apps
