#include "wormhole/router.hpp"

#include <algorithm>
#include <array>
#include <bit>

#include "common/expect.hpp"
#include "common/prof.hpp"
#include "common/rng.hpp"
#include "router/accounting.hpp"

namespace snoc::wormhole {

void Config::validate() const {
    SNOC_EXPECT(vcs_per_port >= 1);
    SNOC_EXPECT(vc_buffer_flits >= 2);
    SNOC_EXPECT(flits_per_packet >= 2); // head + tail at minimum
}

Network::Network(std::size_t width, std::size_t height, Config config)
    : topo_(Topology::mesh(width, height)),
      config_(config),
      ports_(topo_),
      routes_(topo_, router::make_policy(policy_kind(config.routing))),
      occupied_(topo_.node_count(), 0),
      dead_(topo_.node_count(), false),
      injection_queues_(topo_.node_count()),
      inject_state_(topo_.node_count()) {
    config_.validate();
    vcs_.resize(ports_.slot_count() * config_.vcs_per_port);
    flits_.resize(vcs_.size() * config_.vc_buffer_flits);
    arbiters_.reserve(ports_.slot_count());
    std::size_t max_slots = 0;
    for (TileId t = 0; t < topo_.node_count(); ++t) {
        // Outputs index a grid tile's per-output masks in step().
        SNOC_EXPECT(ports_.degree(t) <= router::PortList::kCapacity);
        // One arbiter per output (links + eject) over (port, VC) slots.
        const std::size_t slots = port_count(t) * config_.vcs_per_port;
        for (std::size_t out = 0; out < port_count(t); ++out)
            arbiters_.emplace_back(slots);
        max_slots = std::max(max_slots, slots);
    }
    // A tile's VCs are bits of one occupancy word.
    SNOC_EXPECT(max_slots <= 64 && "too many VCs per tile");
    for (std::size_t slot = 0; slot < max_slots; ++slot)
        slot_port_.push_back(static_cast<std::uint8_t>(slot / config_.vcs_per_port));
    // Each output grants at most one flit per cycle.
    moves_.reserve(ports_.slot_count());
}

void Network::trace_event(TraceEventKind kind, TileId tile, TileId peer,
                          std::uint32_t packet) {
    router::emit(trace_, static_cast<Round>(cycle_), kind, tile, peer,
                 MessageId{records_[packet].source, packet});
}

std::uint32_t Network::inject(TileId source, TileId destination, std::size_t bits) {
    SNOC_EXPECT(source < topo_.node_count());
    SNOC_EXPECT(destination < topo_.node_count());
    SNOC_EXPECT(source != destination);
    const std::uint32_t id = next_packet_++;
    records_.push_back(router::PacketRecord{id, source, destination, bits, cycle_,
                                            std::nullopt, 0, false});
    trace_event(TraceEventKind::MessageCreated, source, kNoTile, id);
    if (dead_[source]) {
        // A dead source accepts nothing: the packet dies where it was born.
        records_.back().dropped = true;
        ++dropped_;
        trace_event(TraceEventKind::CrashDrop, source, kNoTile, id);
        return id;
    }
    injection_queues_[source].push_back(id);
    frozen_ = false;
    return id;
}

void Network::apply_crashes(const CrashState& crashes) {
    SNOC_EXPECT(crashes.dead_tiles.size() == dead_.size());
    dead_ = crashes.dead_tiles;
    frozen_ = false; // a revived router may unblock a worm.
}

void Network::push(TileId t, std::size_t v, const Flit& flit) {
    VirtualChannel& vc = vcs_[v];
    // Injection and the switch only send into a VC with a credit left.
    SNOC_ENSURE(vc.size < config_.vc_buffer_flits && "VC overflow");
    std::size_t at = vc.head + vc.size;
    if (at >= config_.vc_buffer_flits) at -= config_.vc_buffer_flits;
    flits_[v * config_.vc_buffer_flits + at] = flit;
    if (vc.size++ == 0) occupied_[t] |= std::uint64_t{1} << (v - vc_base(t));
    // Keyed by the local port: XY and west-first ignore the upstream.
    if (flit.kind == Flit::Kind::Head)
        vc.route = routes_.route(topo_, t, local_port(t), flit.destination);
}

Flit Network::pop(TileId t, std::size_t v) {
    VirtualChannel& vc = vcs_[v];
    const Flit flit = front(v);
    if (++vc.head == config_.vc_buffer_flits) vc.head = 0;
    if (--vc.size == 0) occupied_[t] &= ~(std::uint64_t{1} << (v - vc_base(t)));
    return flit;
}

std::size_t Network::downstream_space(TileId t, std::size_t out_port,
                                      std::size_t vc) const {
    const auto& port = ports_.out(t, out_port);
    if (dead_[port.next]) return 0; // a dead router accepts nothing
    const std::size_t size = vcs_[vc_index(port.in_slot, vc)].size;
    return config_.vc_buffer_flits - std::min<std::size_t>(config_.vc_buffer_flits, size);
}

bool Network::step() {
    if (frozen_) { // a fixed point: only the clock moves.
        ++cycle_;
        return false;
    }
    SNOC_PROF("wormhole/step");
    bool changed = false; // any flit injected, head routed or flit moved.
    const std::size_t vcs = config_.vcs_per_port;

    // ---- Injection: one flit per tile per cycle into a local-port VC.
    for (TileId t = 0; t < topo_.node_count(); ++t) {
        if (dead_[t]) continue;
        auto& st = inject_state_[t];
        const std::size_t local = vc_index(ports_.slot(t, local_port(t)), 0);
        if (st.packet) {
            // A worm is under construction: append its next flit when the
            // VC has space.
            if (vcs_[local + st.vc].size < config_.vc_buffer_flits) {
                const bool is_tail = st.generated + 1 == config_.flits_per_packet;
                push(t, local + st.vc,
                     Flit{is_tail ? Flit::Kind::Tail : Flit::Kind::Body, *st.packet,
                          records_[*st.packet].destination});
                ++st.generated;
                if (is_tail) st.packet.reset();
                changed = true;
            }
        } else if (!injection_queues_[t].empty()) {
            // Start a new worm on a free local VC (unreserved).
            for (std::size_t v = 0; v < vcs; ++v) {
                auto& vc = vcs_[local + v];
                if (vc.reserved_for != kNoPacket) continue;
                const std::uint32_t id = injection_queues_[t].front();
                injection_queues_[t].pop_front();
                vc.reserved_for = id;
                push(t, local + v, Flit{Flit::Kind::Head, id, records_[id].destination});
                st.packet = id;
                st.generated = 1;
                st.vc = v;
                if (config_.flits_per_packet == 1) st.packet.reset();
                changed = true;
                break;
            }
        }
    }

    // ---- Switch + VC allocation (decide phase).  No credit needs a
    // per-cycle reservation: a downstream VC is fed by exactly one output
    // port, and an output grants at most one flit per cycle.
    moves_.clear();
    for (TileId t = 0; t < topo_.node_count(); ++t) {
        // No flit moves before the apply phase, so the occupancy word is
        // this tile's for the whole decide phase.
        const std::uint64_t occupied = occupied_[t];
        if (dead_[t] || occupied == 0) continue;
        const std::size_t base = vc_base(t);
        const std::size_t outputs = port_count(t); // links + eject
        // Which slots can answer an output's request: a worm locked onto
        // that output, or a head not routed yet (it may claim a VC and
        // pick any output).  Every other slot — an empty VC, a worm bound
        // elsewhere — refuses without a side effect, so the arbiters skip
        // it, and an output nobody can request is not scanned at all.
        std::uint64_t unrouted = 0;
        std::array<std::uint64_t, router::PortList::kCapacity + 1> locked{};
        for (std::uint64_t in = occupied; in != 0; in &= in - 1) {
            const auto slot = static_cast<std::size_t>(std::countr_zero(in));
            const std::uint8_t out = vcs_[base + slot].out_port;
            if (out == kUnrouted)
                unrouted |= std::uint64_t{1} << slot;
            else
                locked[out] |= std::uint64_t{1} << slot;
        }
        std::uint32_t ports_used = 0; // input ports granted this cycle.
        for (std::size_t out = 0; out < outputs; ++out) {
            const std::uint64_t candidates = locked[out] | unrouted;
            if (candidates == 0) continue;
            const bool is_eject = out == outputs - 1;
            // The rotating arbiter scans the (input port, VC) slots; the
            // request predicate does the full route + VC + credit work,
            // and its side effects (downstream VC claims) deliberately
            // persist across a refusal — a worm keeps its reservation
            // while waiting for credits.
            arbiters_[ports_.slot(t, out)].grant_among(candidates, [&](std::size_t slot) {
                const std::size_t in_port = slot_port_[slot];
                if (((ports_used >> in_port) & 1U) != 0) return false;
                auto& vc = vcs_[base + slot];
                const Flit& flit = front(base + slot);

                // Route + VC allocation for head flits: claim an
                // *unreserved* downstream VC exclusively for this worm,
                // trying each routing candidate in preference order (XY
                // has one; west-first may offer adaptive alternatives).
                if (flit.kind == Flit::Kind::Head && vc.out_port == kUnrouted) {
                    if (vc.route.empty()) {
                        vc.out_port = static_cast<std::uint8_t>(outputs - 1); // eject
                        vc.out_vc = 0;
                        changed = true;
                    } else {
                        for (const std::uint8_t route : vc.route) {
                            const auto& port = ports_.out(t, route);
                            if (dead_[port.next]) continue; // dead end
                            const std::size_t next = vc_index(port.in_slot, 0);
                            std::size_t chosen = 0;
                            while (chosen < vcs && vcs_[next + chosen].reserved_for != kNoPacket)
                                ++chosen;
                            if (chosen == vcs) continue; // all downstream VCs owned
                            vcs_[next + chosen].reserved_for = flit.packet;
                            vc.out_port = route;
                            vc.out_vc = static_cast<std::uint8_t>(chosen);
                            changed = true;
                            break;
                        }
                        if (vc.out_port == kUnrouted) return false; // nothing allocatable yet
                    }
                }
                if (vc.out_port != out) return false;

                if (is_eject) {
                    moves_.push_back({t, static_cast<std::uint32_t>(base + slot), true, 0, 0});
                } else {
                    if (downstream_space(t, out, vc.out_vc) == 0)
                        return false; // no credit
                    moves_.push_back({t, static_cast<std::uint32_t>(base + slot), false,
                                      vc.out_port, vc.out_vc});
                }
                ports_used |= 1U << in_port;
                return true;
            });
        }
    }

    // ---- Apply phase.
    for (const auto& m : moves_) {
        SNOC_ENSURE(vcs_[m.from].size > 0);
        const Flit flit = pop(m.tile, m.from);
        const bool was_tail = flit.kind == Flit::Kind::Tail;
        if (m.eject) {
            if (was_tail) {
                records_[flit.packet].delivered_cycle = cycle_;
                ++delivered_;
                trace_event(TraceEventKind::Delivered, m.tile, kNoTile,
                            flit.packet);
            }
        } else {
            const auto& port = ports_.out(m.tile, m.out_port);
            push(port.next, vc_index(port.in_slot, m.out_vc), flit);
            ++flit_hops_;
            trace_event(TraceEventKind::Transmitted, m.tile, port.next, flit.packet);
        }
        if (was_tail) {
            // The worm has fully left this VC: release the route lock and
            // the VC's exclusive reservation.
            vcs_[m.from].out_port = kUnrouted;
            vcs_[m.from].reserved_for = kNoPacket;
        }
    }

    ++cycle_;
    frozen_ = !changed && moves_.empty();
    return !frozen_;
}

void Network::run(std::size_t cycles) {
    for (std::size_t i = 0; i < cycles; ++i) step();
}

LoadPoint run_uniform_load(std::size_t side, const Config& config, double offered_load,
                           std::size_t warmup_cycles, std::size_t measure_cycles,
                           std::uint64_t seed) {
    SNOC_EXPECT(offered_load >= 0.0 && offered_load <= 1.0);
    SNOC_EXPECT(measure_cycles > 0);
    Network net(side, side, config);
    RngStream rng(splitmix64(seed));
    const std::size_t tiles = side * side;
    const std::size_t total = warmup_cycles + measure_cycles;
    const double flit_load = offered_load / static_cast<double>(config.flits_per_packet);
    for (std::size_t c = 0; c < total; ++c) {
        for (TileId t = 0; t < tiles; ++t) {
            if (!rng.bernoulli(flit_load)) continue;
            auto dst = static_cast<TileId>(rng.below(tiles - 1));
            if (dst >= t) ++dst;
            net.inject(t, dst, /*bits=*/0); // the harness counts flits.
        }
        net.step();
    }
    // Drain for a bounded horizon so late packets count.
    net.run(4 * side * config.flits_per_packet + 200);

    // Only packets injected after the warm-up count: the warm-up brings
    // the buffers to steady state, and its packets saw an emptier mesh.
    std::size_t measured = 0;
    std::size_t delivered = 0;
    double latency_sum = 0.0;
    for (const auto& rec : net.records()) {
        if (rec.injected_cycle < warmup_cycles) continue;
        ++measured;
        if (!rec.delivered_cycle) continue;
        ++delivered;
        latency_sum += static_cast<double>(*rec.delivered_cycle - rec.injected_cycle);
    }
    LoadPoint point;
    point.offered_load = offered_load;
    if (delivered > 0) point.avg_latency = latency_sum / static_cast<double>(delivered);
    point.throughput = static_cast<double>(delivered) *
                       static_cast<double>(config.flits_per_packet) /
                       static_cast<double>(tiles) / static_cast<double>(measure_cycles);
    point.delivered_fraction =
        measured == 0 ? 1.0
                      : static_cast<double>(delivered) / static_cast<double>(measured);
    return point;
}

} // namespace snoc::wormhole
