#include "router/core.hpp"

#include <algorithm>
#include <bit>

#include "common/expect.hpp"
#include "common/postmortem.hpp"
#include "common/prof.hpp"

namespace snoc::router {

void RouterConfig::validate() const {
    SNOC_EXPECT(flits_per_packet >= 1);
    SNOC_EXPECT(buffer_packets >= 1);
    SNOC_EXPECT(max_hops >= 1);
}

RouterCore::RouterCore(Topology topo, RouterConfig config)
    : RouterCore(std::move(topo), config, make_policy(config.policy)) {}

RouterCore::RouterCore(Topology topo, RouterConfig config,
                       std::unique_ptr<const RoutingPolicy> policy)
    : topo_(std::move(topo)),
      config_(config),
      ports_(topo_),
      routes_(topo_, std::move(policy)),
      dead_tiles_(topo_.node_count(), false),
      fifo_(ports_.slot_count()),
      occupied_(topo_.node_count(), 0),
      doomed_(topo_.node_count(), 0),
      link_free_at_(ports_.link_slot_count(), 0),
      pending_(topo_.node_count()) {
    config_.validate();
    SNOC_EXPECT(topo_.is_grid());
    // Auto watchdog threshold: by the time every buffer slot in the mesh
    // could have streamed a full packet, a silent network is wedged, not
    // slow.  The slack term keeps tiny meshes from hair-triggering.
    stall_limit_ = config_.stall_limit != 0
                       ? config_.stall_limit
                       : topo_.node_count() * config_.buffer_packets *
                                 config_.flits_per_packet +
                             128;
    accounting_.attach(topo_);
    ring_.resize(ports_.slot_count() * config_.buffer_packets);
    arbiters_.reserve(ports_.slot_count());
    for (TileId t = 0; t < topo_.node_count(); ++t) {
        // Port sets are bit masks and port numbers bytes in the decide
        // phase; a grid tile has at most PortList::kCapacity links.
        SNOC_EXPECT(ports_.degree(t) <= PortList::kCapacity);
        for (std::size_t out = 0; out <= ports_.degree(t); ++out)
            arbiters_.emplace_back(ports_.degree(t) + 1);
    }
}

void RouterCore::apply_crashes(const CrashState& crashes) {
    SNOC_EXPECT(crashes.dead_tiles.size() == topo_.node_count());
    SNOC_EXPECT(crashes.dead_links.size() == topo_.link_count());
    SNOC_EXPECT(records_.empty() && "apply crashes before injecting");
    dead_tiles_ = crashes.dead_tiles;
    routes_.reset(crashes.dead_tiles, crashes.dead_links);
}

std::uint32_t RouterCore::inject(TileId source, TileId destination,
                                 std::size_t bits) {
    SNOC_EXPECT(source < topo_.node_count());
    SNOC_EXPECT(destination < topo_.node_count());
    SNOC_EXPECT(source != destination);
    const auto id = static_cast<std::uint32_t>(records_.size());
    records_.push_back(PacketRecord{id, source, destination, bits,
                                    cycle_, std::nullopt, 0, false});
    const MessageId mid{source, id};
    accounting_.created(static_cast<Round>(cycle_), source, mid);
    if (dead_tiles_[source]) {
        // A dead source accepts nothing: the packet dies where it was born.
        records_.back().dropped = true;
        ++dropped_;
        accounting_.crash_drop(static_cast<Round>(cycle_), source, mid);
        return id;
    }
    ++outstanding_;
    pending_[source].push_back(id);
    return id;
}

RouterCore::Buffered RouterCore::pop(TileId t, std::size_t ip) {
    const std::size_t slot = ports_.slot(t, ip);
    const Buffered head = front(slot);
    Ring& r = fifo_[slot];
    if (++r.head == config_.buffer_packets) r.head = 0;
    if (--r.size == 0) occupied_[t] &= ~(1U << ip);
    return head;
}

void RouterCore::push(TileId t, std::size_t ip, const Buffered& packet) {
    const std::size_t slot = ports_.slot(t, ip);
    Ring& r = fifo_[slot];
    // inject_stage and choose_output only send into a FIFO with room.
    SNOC_ENSURE(r.size < config_.buffer_packets && "input FIFO overflow");
    std::size_t at = r.head + r.size;
    if (at >= config_.buffer_packets) at -= config_.buffer_packets;
    ring_[slot * config_.buffer_packets + at] = packet;
    ++r.size;
    occupied_[t] |= 1U << ip;
    if (packet.fate != Fate::Live) {
        ++doomed_[t];
        ++doomed_total_;
    }
}

bool RouterCore::head_ready(const Buffered& head) const {
    // Store-and-forward waits for the tail; cut-through switches the
    // header as soon as it has landed.
    return config_.flow == FlowControl::StoreAndForward
               ? head.full_at <= cycle_
               : head.head_at <= cycle_;
}

RouterCore::Buffered RouterCore::arrival(std::uint32_t id, TileId t,
                                         std::size_t in_port, std::size_t head_at,
                                         std::size_t full_at) {
    const PacketRecord& rec = records_[id];
    Buffered packet{id, rec.destination, head_at, full_at,
                    routes_.route(topo_, t, in_port, rec.destination), Fate::Live};
    if (rec.destination == t) return packet; // ejects, never drops
    if (rec.hops >= config_.max_hops)
        packet.fate = Fate::Ttl;
    else if (packet.route.empty())
        // No live port the policy will ever name again: a fault-blind
        // route hit its dead hop, or an adaptive packet is walled in.
        packet.fate = Fate::Crash;
    return packet;
}

std::uint8_t RouterCore::choose_output(TileId t, const Buffered& head,
                                       std::uint32_t granted) const {
    for (const std::uint8_t c : head.route) {
        if (link_free_at_[ports_.link_slot(t, c)] > cycle_)
            continue; // serializing a packet
        const std::size_t committed = (granted >> c) & 1U;
        if (fifo_[ports_.out(t, c).in_slot].size + committed >=
            config_.buffer_packets)
            continue; // no downstream credit
        return c;
    }
    return kNoOutput;
}

std::uint8_t RouterCore::decide_head(TileId t, std::size_t ip) const {
    const Buffered& head = front(ports_.slot(t, ip));
    if (head.head_at > cycle_) return kNoOutput;
    if (head.destination == t)
        // Delivery means the tail arrived, whatever the scheme.
        return head.full_at <= cycle_ ? static_cast<std::uint8_t>(eject_port(t))
                                      : kNoOutput;
    if (!head_ready(head)) return kNoOutput;
    return choose_output(t, head, /*granted=*/0);
}

void RouterCore::drop_head(TileId t, std::size_t ip) {
    const Buffered head = pop(t, ip);
    --doomed_[t];
    --doomed_total_;
    PacketRecord& rec = records_[head.id];
    rec.dropped = true;
    ++dropped_;
    --outstanding_;
    const MessageId mid{rec.source, rec.id};
    if (head.fate == Fate::Ttl)
        accounting_.ttl_expired(static_cast<Round>(cycle_), t, mid);
    else
        accounting_.crash_drop(static_cast<Round>(cycle_), t, mid);
}

std::size_t RouterCore::inject_stage() {
    // One packet per tile per cycle enters the local input FIFO as space
    // allows (source packets are wholly resident).
    SNOC_PROF("router/inject");
    std::size_t admitted = 0;
    for (TileId t = 0; t < topo_.node_count(); ++t) {
        if (pending_[t].empty()) continue;
        if (fifo_[ports_.slot(t, local_port(t))].size >= config_.buffer_packets)
            continue;
        push(t, local_port(t),
             arrival(pending_[t].front(), t, local_port(t), cycle_, cycle_));
        pending_[t].pop_front();
        ++admitted;
    }
    return admitted;
}

void RouterCore::fate_stage() {
    // Head-of-line fate resolution: crash and hop-budget drops.  Only the
    // head of a FIFO drops, once its header has landed; the packet behind
    // it then surfaces and drops this same cycle if it is doomed too.
    SNOC_PROF("router/fate");
    if (doomed_total_ == 0) return;
    for (TileId t = 0; t < topo_.node_count(); ++t) {
        if (doomed_[t] == 0) continue;
        // Inputs in ascending port order; a FIFO this stage empties needs
        // no further visit.
        for (std::uint32_t in = occupied_[t]; in != 0 && doomed_[t] > 0;
             in &= in - 1) {
            const auto ip = static_cast<std::size_t>(std::countr_zero(in));
            const std::size_t slot = ports_.slot(t, ip);
            while (fifo_[slot].size > 0 && front(slot).fate != Fate::Live &&
                   front(slot).head_at <= cycle_)
                drop_head(t, ip);
        }
    }
}

void RouterCore::arbitrate_stage() {
    // Switch allocation: per output, a rotating arbiter over the input
    // ports that request it.  Each head's output is decided once, and
    // re-decided only when a grant takes the credit it counted on
    // (DESIGN.md §13).
    SNOC_PROF("router/arbitrate");
    moves_.clear();
    constexpr std::size_t kMaxPorts = PortList::kCapacity + 1;
    for (TileId t = 0; t < topo_.node_count(); ++t) {
        if (dead_tiles_[t] || occupied_[t] == 0) continue;
        const std::size_t ports = ports_.degree(t) + 1;
        // requests[out]: the input ports whose head chose `out`.  Only an
        // occupied input has a head to decide, in ascending port order.
        std::uint32_t requests[kMaxPorts] = {};
        for (std::uint32_t in = occupied_[t]; in != 0; in &= in - 1) {
            const auto ip = static_cast<std::size_t>(std::countr_zero(in));
            if (const std::uint8_t out = decide_head(t, ip); out != kNoOutput)
                requests[out] |= 1U << ip;
        }
        // Outputs granted so far: each holds one committed slot at its
        // downstream FIFO until the moves apply.
        std::uint32_t granted = 0;
        for (std::size_t out = 0; out < ports; ++out) {
            // An empty request set would refuse every slot of the scan,
            // which leaves the arbiter as it is.
            if (requests[out] == 0) continue;
            const std::uint32_t mask = requests[out];
            const auto ip = arbiters_[ports_.slot(t, out)].grant_among(
                mask, [](std::size_t) { return true; });
            const bool is_eject = out == eject_port(t);
            moves_.push_back(Move{t, *ip, out, is_eject});
            if (is_eject) continue;
            granted |= 1U << out;
            // The grant took a credit at `out`'s downstream FIFO only, so
            // only the heads still waiting on `out` can change their mind.
            for (std::uint32_t waiting = mask & ~(1U << *ip); waiting != 0;
                 waiting &= waiting - 1) {
                const auto w = static_cast<std::size_t>(std::countr_zero(waiting));
                const std::uint8_t next =
                    choose_output(t, front(ports_.slot(t, w)), granted);
                if (next != kNoOutput) requests[next] |= 1U << w;
            }
        }
    }
}

void RouterCore::move_stage() {
    // Apply this cycle's grants: ejections deliver, the rest cross a link.
    SNOC_PROF("router/move");
    for (const auto& m : moves_) {
        SNOC_ENSURE(fifo_[ports_.slot(m.tile, m.in_port)].size > 0);
        const Buffered head = pop(m.tile, m.in_port);
        PacketRecord& rec = records_[head.id];
        const MessageId mid{rec.source, rec.id};
        if (m.eject) {
            rec.delivered_cycle = cycle_;
            ++delivered_;
            --outstanding_;
            accounting_.delivered(static_cast<Round>(cycle_), m.tile, mid);
            continue;
        }
        const PortTable::Port& port = ports_.out(m.tile, m.out);
        ++rec.hops;
        accounting_.transmitted(static_cast<Round>(cycle_), m.tile, port.next,
                                port.link, mid, rec.bits);
        // The header lands next cycle; the tail trails it by the packet's
        // serialization time, and can never outrun its own arrival here.
        const std::size_t full_at_next =
            std::max(head.full_at + 1, cycle_ + config_.flits_per_packet);
        link_free_at_[ports_.link_slot(m.tile, m.out)] = full_at_next;
        push(port.next, port.in_port,
             arrival(head.id, port.next, port.in_port, cycle_ + 1, full_at_next));
    }
}

void RouterCore::step() {
    // DeadlockSentinel progress ledger: admissions, drops and moves all
    // count; a cycle with none of them (and packets outstanding) extends
    // the zero-progress streak the watchdog trips on.
    [[maybe_unused]] const std::size_t dropped_before = dropped_;
    [[maybe_unused]] const std::size_t admitted = inject_stage();
    fate_stage();
    arbitrate_stage();
    move_stage();

    accounting_.advance_to(static_cast<Round>(cycle_));
    accounting_.publish_registry();

    // ---- DeadlockSentinel.  Compiled out at level 0 with the rest of
    // the checking machinery (the observables then stay false/0).
    if constexpr (SNOC_CHECK_LEVEL >= 1) {
        const std::size_t progress =
            admitted + (dropped_ - dropped_before) + moves_.size();
        if (outstanding_ == 0 || progress > 0) {
            stalled_cycles_ = 0;
        } else if (++stalled_cycles_ >= stall_limit_ && !sentinel_fired_) {
            sentinel_fired_ = true;
            const std::string what =
                "DeadlockSentinel: " + std::to_string(outstanding_) +
                " packet(s) outstanding with zero progress for " +
                std::to_string(stalled_cycles_) + " cycles (cycle " +
                std::to_string(cycle_) + ")";
            // Even the non-throwing firing (a config without the
            // deadlock-free expectation) is post-mortem-worthy: an armed
            // flight recorder dumps its evidence either way.
            postmortem::notify("deadlock-sentinel", what);
            if (config_.expect_deadlock_free)
                throw ContractViolation(
                    what + " on a configuration statically verified "
                           "deadlock-free");
        }
    }
    ++cycle_;
}

void RouterCore::run(std::size_t cycles) {
    // A fired sentinel means no further cycle can make progress (the
    // watchdog only trips on a closed buffer-wait cycle); stop burning
    // cycles on a wedged network.
    for (std::size_t i = 0; i < cycles && !idle() && !sentinel_fired_; ++i)
        step();
}

const RotatingArbiter& RouterCore::arbiter(TileId t, std::size_t output) const {
    SNOC_EXPECT(t < topo_.node_count());
    SNOC_EXPECT(output <= ports_.degree(t));
    return arbiters_[ports_.slot(t, output)];
}

} // namespace snoc::router
