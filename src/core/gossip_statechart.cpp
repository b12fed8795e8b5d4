#include "core/gossip_statechart.hpp"

namespace snoc::sc {

GossipTileChart::GossipTileChart(double forward_p, std::size_t buffer_capacity,
                                 std::uint64_t seed, TransmitFn transmit)
    : forward_p_(forward_p),
      buffer_(buffer_capacity),
      rng_(splitmix64(seed)),
      transmit_(std::move(transmit)) {
    SNOC_EXPECT(forward_p >= 0.0 && forward_p <= 1.0);
    SNOC_EXPECT(transmit_ != nullptr);
    build();
}

void GossipTileChart::build() {
    const StateId tile = chart_.add_state("Tile", Composition::Parallel);

    // --- RoundLoop region: Receive -> GarbageCollect -> Send -> Receive.
    const StateId loop = chart_.add_state("RoundLoop", Composition::Exclusive, tile);
    receive_ = chart_.add_state("Receive", Composition::Leaf, loop);
    collect_ = chart_.add_state("GarbageCollect", Composition::Leaf, loop);
    send_ = chart_.add_state("Send", Composition::Leaf, loop);
    chart_.set_initial(loop, receive_);

    // Receive: CRC-clean messages merge into the send buffer (dedup).
    Transition take;
    take.from = receive_;
    take.to = receive_;
    take.trigger = kEvMessage;
    take.action = [this](const Event& e) {
        SNOC_EXPECT(inbox_ != nullptr);
        const auto slot = static_cast<std::size_t>(e.arg);
        SNOC_EXPECT(slot < inbox_->size());
        buffer_.insert((*inbox_)[slot]);
    };
    chart_.add_transition(take);

    // Receive -> GarbageCollect on end of the receive phase: TTL
    // decrement and removal of expired rumors (Fig. 3-4 middle boxes).
    Transition age;
    age.from = receive_;
    age.to = collect_;
    age.trigger = kEvEndReceive;
    age.action = [this](const Event&) { ttl_expired_ += buffer_.age_and_collect(); };
    chart_.add_transition(age);

    // GarbageCollect -> Send: per message, roll the four port gates and
    // transmit through the open ones.
    Transition to_send;
    to_send.from = collect_;
    to_send.to = send_;
    to_send.trigger = kEvSendMessage;
    chart_.add_transition(to_send);

    Transition send_more;
    send_more.from = send_;
    send_more.to = send_;
    send_more.trigger = kEvSendMessage;
    chart_.add_transition(send_more);

    Transition wrap;
    wrap.from = send_;
    wrap.to = receive_;
    wrap.trigger = kEvEndRound;
    wrap.action = [this](const Event&) { ++rounds_; };
    chart_.add_transition(wrap);

    // Degenerate round with nothing to send: GarbageCollect -> Receive.
    Transition wrap_empty;
    wrap_empty.from = collect_;
    wrap_empty.to = receive_;
    wrap_empty.trigger = kEvEndRound;
    wrap_empty.action = [this](const Event&) { ++rounds_; };
    chart_.add_transition(wrap_empty);

    // --- PortGates region: four parallel {Closed, Open} toggles.
    const StateId gates = chart_.add_state("PortGates", Composition::Parallel, tile);
    for (std::size_t p = 0; p < kPortCount; ++p) {
        const auto port = static_cast<Port>(p);
        const StateId gate = chart_.add_state(std::string("Gate") + to_string(port),
                                              Composition::Exclusive, gates);
        gate_closed_[p] = chart_.add_state("Closed", Composition::Leaf, gate);
        gate_open_[p] = chart_.add_state("Open", Composition::Leaf, gate);
        chart_.set_initial(gate, gate_closed_[p]);

        // On every send event the gate re-rolls: Closed->Open w.p. p,
        // Open->Closed w.p. 1-p; staying put is the complementary case.
        // The RND circuit of Fig. 3-5 is drawn once per (message, port).
        Transition open;
        open.from = gate_closed_[p];
        open.to = gate_open_[p];
        open.trigger = kEvSendMessage;
        open.guard = [this](const Event&) { return rng_.bernoulli(forward_p_); };
        chart_.add_transition(open);

        Transition close;
        close.from = gate_open_[p];
        close.to = gate_closed_[p];
        close.trigger = kEvSendMessage;
        close.guard = [this](const Event&) { return !rng_.bernoulli(forward_p_); };
        chart_.add_transition(close);
    }

    chart_.start();
}

void GossipTileChart::create(Message message) { buffer_.insert(std::move(message)); }

void GossipTileChart::run_round(const std::vector<Message>& received) {
    inbox_ = &received;
    chart_.dispatch(Event{kEvRoundStart, 0});
    for (std::size_t i = 0; i < received.size(); ++i)
        chart_.dispatch(Event{kEvMessage, static_cast<std::int64_t>(i)});
    chart_.dispatch(Event{kEvEndReceive, 0});
    inbox_ = nullptr;

    // Snapshot: gates re-roll per message; open gates transmit.
    const auto messages = buffer_.messages(); // copy: transmit sees stable data
    for (const auto& m : messages) {
        chart_.dispatch(Event{kEvSendMessage, 0});
        for (std::size_t p = 0; p < kPortCount; ++p)
            if (chart_.in(gate_open_[p])) transmit_(m.message(), static_cast<Port>(p));
    }
    chart_.dispatch(Event{kEvEndRound, 0});
}

} // namespace snoc::sc
