#include "wormhole/router.hpp"

#include <algorithm>

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
      policy_(router::make_policy(policy_kind(config.routing))),
      ports_(topo_),
      injection_queues_(topo_.node_count()),
      inject_state_(topo_.node_count()) {
    config_.validate();
    routers_.resize(topo_.node_count());
    arbiters_.reserve(topo_.node_count());
    for (TileId t = 0; t < topo_.node_count(); ++t) {
        routers_[t].in_vcs.assign(port_count(t),
                                  std::vector<VirtualChannel>(config_.vcs_per_port));
        // One arbiter per output (links + eject) over (port, VC) slots.
        arbiters_.emplace_back(
            port_count(t),
            router::RotatingArbiter(port_count(t) * config_.vcs_per_port));
    }
}

void Network::trace_event(TraceEventKind kind, TileId tile, TileId peer,
                          std::uint32_t packet) {
    router::emit(trace_, static_cast<Round>(cycle_), kind, tile, peer,
                 MessageId{records_[packet].source, packet});
}

std::uint32_t Network::inject(TileId source, TileId destination) {
    SNOC_EXPECT(source < topo_.node_count());
    SNOC_EXPECT(destination < topo_.node_count());
    SNOC_EXPECT(source != destination);
    const std::uint32_t id = next_packet_++;
    records_.push_back(router::PacketRecord{id, source, destination, 0, cycle_,
                                            std::nullopt, 0, false});
    injection_queues_[source].push_back(id);
    frozen_ = false;
    trace_event(TraceEventKind::MessageCreated, source, kNoTile, id);
    return id;
}

void Network::crash_router(TileId tile) {
    SNOC_EXPECT(tile < routers_.size());
    routers_[tile].alive = false;
}

router::PortList Network::route_candidates(TileId t, TileId dst) const {
    // The wormhole router is fault-oblivious at the policy level (a dead
    // router refuses credits instead), so the policy sees no crash state.
    static const std::vector<bool> kNoDead;
    return policy_->candidates(topo_, t, kNoTile, dst, kNoDead);
}

std::size_t Network::downstream_space(TileId t, std::size_t out_port,
                                      std::size_t vc) const {
    const auto& port = ports_.out(t, out_port);
    if (!routers_[port.next].alive) return 0; // a dead router accepts nothing
    const auto& buffer = routers_[port.next].in_vcs[port.in_port][vc].buffer;
    return config_.vc_buffer_flits - std::min(config_.vc_buffer_flits, buffer.size());
}

bool Network::step() {
    SNOC_PROF("wormhole/step");
    bool changed = false; // any flit injected, head routed or flit moved.

    // ---- Injection: one flit per tile per cycle into a local-port VC.
    for (TileId t = 0; t < topo_.node_count(); ++t) {
        if (!routers_[t].alive) continue;
        auto& st = inject_state_[t];
        auto& local_vcs = routers_[t].in_vcs[local_port(t)];
        if (st.packet) {
            // A worm is under construction: append its next flit when the
            // VC has space.
            auto& vc = local_vcs[st.vc];
            if (vc.buffer.size() < config_.vc_buffer_flits) {
                const bool is_tail = st.generated + 1 == config_.flits_per_packet;
                vc.buffer.push_back(
                    Flit{is_tail ? Flit::Kind::Tail : Flit::Kind::Body, *st.packet,
                         records_[*st.packet].destination});
                ++st.generated;
                ++routers_[t].flits;
                if (is_tail) st.packet.reset();
                changed = true;
            }
        } else if (!injection_queues_[t].empty()) {
            // Start a new worm on a free local VC (unreserved).
            for (std::size_t v = 0; v < local_vcs.size(); ++v) {
                auto& vc = local_vcs[v];
                if (vc.reserved_for) continue;
                const std::uint32_t id = injection_queues_[t].front();
                injection_queues_[t].pop_front();
                vc.buffer.push_back(
                    Flit{Flit::Kind::Head, id, records_[id].destination});
                vc.reserved_for = id;
                ++routers_[t].flits;
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
        auto& router = routers_[t];
        if (!router.alive || router.flits == 0) continue;
        input_port_used_.assign(port_count(t), false);
        const std::size_t outputs = port_count(t); // links + eject
        for (std::size_t out = 0; out < outputs; ++out) {
            const bool is_eject = out == outputs - 1;
            // The rotating arbiter scans the (input port, VC) slots; the
            // request predicate does the full route + VC + credit work,
            // and its side effects (downstream VC claims) deliberately
            // persist across a refusal — a worm keeps its reservation
            // while waiting for credits.
            arbiters_[t][out].grant([&](std::size_t slot) {
                const std::size_t in_port = slot / config_.vcs_per_port;
                const std::size_t in_vc = slot % config_.vcs_per_port;
                if (input_port_used_[in_port]) return false;
                auto& vc = router.in_vcs[in_port][in_vc];
                if (vc.buffer.empty()) return false;
                const Flit& flit = vc.buffer.front();

                // Route + VC allocation for head flits: claim an
                // *unreserved* downstream VC exclusively for this worm,
                // trying each routing candidate in preference order (XY
                // has one; west-first may offer adaptive alternatives).
                if (flit.kind == Flit::Kind::Head && !vc.out_port) {
                    const auto candidates = route_candidates(t, flit.destination);
                    if (candidates.empty()) {
                        vc.out_port = outputs - 1; // eject
                        vc.out_vc = 0;
                        changed = true;
                    } else {
                        for (const std::size_t route : candidates) {
                            const auto& port = ports_.out(t, route);
                            auto& next = routers_[port.next];
                            if (!next.alive) continue; // dead end
                            auto& next_vcs = next.in_vcs[port.in_port];
                            std::optional<std::size_t> chosen;
                            for (std::size_t v = 0; v < config_.vcs_per_port; ++v) {
                                if (!next_vcs[v].reserved_for) {
                                    chosen = v;
                                    break;
                                }
                            }
                            if (!chosen) continue; // all downstream VCs owned
                            next_vcs[*chosen].reserved_for = flit.packet;
                            vc.out_port = route;
                            vc.out_vc = *chosen;
                            changed = true;
                            break;
                        }
                        if (!vc.out_port) return false; // nothing allocatable yet
                    }
                }
                if (!vc.out_port || *vc.out_port != out) return false;

                if (is_eject) {
                    moves_.push_back({t, in_port, in_vc, true, 0, 0});
                } else {
                    if (downstream_space(t, out, *vc.out_vc) == 0)
                        return false; // no credit
                    moves_.push_back({t, in_port, in_vc, false, out, *vc.out_vc});
                }
                input_port_used_[in_port] = true;
                return true;
            });
        }
    }

    // ---- Apply phase.
    for (const auto& m : moves_) {
        auto& vc = routers_[m.tile].in_vcs[m.in_port][m.in_vc];
        SNOC_ENSURE(!vc.buffer.empty());
        Flit flit = vc.buffer.front();
        vc.buffer.pop_front();
        --routers_[m.tile].flits;
        const bool was_tail = flit.kind == Flit::Kind::Tail;
        if (m.eject) {
            if (was_tail) {
                auto& rec = records_[flit.packet];
                rec.delivered_cycle = cycle_;
                latencies_.add(static_cast<double>(cycle_ - rec.injected_cycle));
                ++delivered_;
                trace_event(TraceEventKind::Delivered, m.tile, kNoTile,
                            flit.packet);
            }
        } else {
            const auto& port = ports_.out(m.tile, m.out_port);
            routers_[port.next].in_vcs[port.in_port][m.out_vc].buffer.push_back(flit);
            ++routers_[port.next].flits;
            ++flit_hops_;
            trace_event(TraceEventKind::Transmitted, m.tile, port.next, flit.packet);
        }
        if (was_tail) {
            // The worm has fully left this VC: release the route lock and
            // the VC's exclusive reservation.
            vc.out_port.reset();
            vc.out_vc.reset();
            vc.reserved_for.reset();
        }
    }

    ++cycle_;
    frozen_ = !changed && moves_.empty();
    return !frozen_;
}

void Network::skip_to(std::size_t cycle) {
    SNOC_EXPECT(frozen_ && "skip_to needs a frozen network");
    SNOC_EXPECT(cycle >= cycle_);
    cycle_ = cycle;
}

void Network::run(std::size_t cycles) {
    const std::size_t end = cycle_ + cycles;
    while (cycle_ < end)
        if (!step()) skip_to(end);
}

LoadPoint run_uniform_load(std::size_t side, const Config& config, double offered_load,
                           std::size_t warmup_cycles, std::size_t measure_cycles,
                           std::uint64_t seed) {
    SNOC_EXPECT(offered_load >= 0.0 && offered_load <= 1.0);
    Network net(side, side, config);
    RngStream rng(splitmix64(seed));
    const std::size_t tiles = side * side;
    const std::size_t total = warmup_cycles + measure_cycles;
    std::size_t injected_measured = 0;
    const double flit_load = offered_load / static_cast<double>(config.flits_per_packet);
    for (std::size_t c = 0; c < total; ++c) {
        for (TileId t = 0; t < tiles; ++t) {
            if (!rng.bernoulli(flit_load)) continue;
            auto dst = static_cast<TileId>(rng.below(tiles - 1));
            if (dst >= t) ++dst;
            net.inject(t, dst);
            if (c >= warmup_cycles) ++injected_measured;
        }
        net.step();
    }
    // Drain for a bounded horizon so late packets count.
    const std::size_t before_drain = net.delivered();
    (void)before_drain;
    net.run(4 * side * config.flits_per_packet + 200);

    LoadPoint point;
    point.offered_load = offered_load;
    if (!net.latencies().empty()) point.avg_latency = net.latencies().mean();
    point.throughput = static_cast<double>(net.delivered()) *
                       static_cast<double>(config.flits_per_packet) /
                       static_cast<double>(tiles) / static_cast<double>(total);
    point.delivered_fraction =
        net.injected() == 0
            ? 1.0
            : static_cast<double>(net.delivered()) / static_cast<double>(net.injected());
    return point;
}

} // namespace snoc::wormhole
