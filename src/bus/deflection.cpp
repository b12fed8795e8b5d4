#include "bus/deflection.hpp"

#include <algorithm>

#include "common/expect.hpp"
#include "common/prof.hpp"
#include "router/accounting.hpp"
#include "router/policy.hpp"

namespace snoc::deflection {

Network::Network(std::size_t width, std::size_t height, Config config,
                 std::uint64_t seed)
    : topo_(Topology::mesh(width, height)),
      config_(config),
      rng_(splitmix64(seed)),
      dead_(topo_.node_count(), false),
      productive_(topo_, std::make_unique<router::ProductivePolicy>()),
      residents_(topo_.node_count()) {
    SNOC_EXPECT(config.max_hops >= 1);
}

void Network::apply_crashes(const CrashState& crashes) {
    SNOC_EXPECT(crashes.dead_tiles.size() == topo_.node_count());
    dead_ = crashes.dead_tiles;
    productive_.reset(dead_, /*dead_links=*/{});
}

void Network::trace_event(TraceEventKind kind, TileId tile, TileId peer,
                          const router::PacketRecord& rec) {
    router::emit(trace_, static_cast<Round>(cycle_), kind, tile, peer,
                 MessageId{rec.source, rec.id});
}

std::uint32_t Network::inject(TileId source, TileId destination,
                              std::size_t bits) {
    SNOC_EXPECT(source < topo_.node_count());
    SNOC_EXPECT(destination < topo_.node_count());
    SNOC_EXPECT(source != destination);
    const auto id = static_cast<std::uint32_t>(records_.size());
    records_.push_back(router::PacketRecord{id, source, destination, bits, cycle_,
                                            std::nullopt, 0, false});
    trace_event(TraceEventKind::MessageCreated, source, kNoTile, records_.back());
    if (dead_[source]) {
        // A dead source accepts nothing: the packet dies where it was born.
        records_.back().dropped = true;
        ++dropped_;
        trace_event(TraceEventKind::CrashDrop, source, kNoTile, records_.back());
        return id;
    }
    flying_.push_back({id, source});
    return id;
}

std::size_t Network::in_flight() const { return flying_.size(); }

void Network::step() {
    SNOC_PROF("deflection/step");
    // Per tile: collect resident packets, then assign output ports —
    // productive first, deflections for the rest.  A link carries one
    // packet per cycle per direction.  Tiles are visited in ascending
    // order, each one's residents in flying_ order before the shuffle.
    occupied_.clear();
    for (std::size_t i = 0; i < flying_.size(); ++i) {
        auto& residents = residents_[flying_[i].at];
        if (residents.empty()) occupied_.push_back(flying_[i].at);
        residents.push_back(i);
    }
    std::sort(occupied_.begin(), occupied_.end());

    next_.clear();
    for (const TileId tile : occupied_) {
        auto& residents = residents_[tile];
        const auto& nbrs = topo_.neighbours(tile);
        port_used_.assign(nbrs.size(), false);
        // Shuffle residents so deflection victims rotate fairly.
        for (std::size_t i = residents.size(); i > 1; --i)
            std::swap(residents[i - 1],
                      residents[static_cast<std::size_t>(rng_.below(i))]);
        for (const std::size_t idx : residents) {
            auto& rec = records_[flying_[idx].id];
            // Preferred (productive) ports — the shared routing-policy
            // stage lists the live Manhattan-reducing ports in ascending
            // port order; the first one not already taken this cycle wins.
            std::optional<std::size_t> chosen;
            for (const std::size_t p : productive_.route(
                     topo_, tile, /*in_port=*/nbrs.size(), rec.destination)) {
                if (port_used_[p]) continue;
                chosen = p;
                break;
            }
            if (!chosen) {
                // Deflect: any free live port.
                free_ports_.clear();
                for (std::size_t p = 0; p < nbrs.size(); ++p)
                    if (!port_used_[p] && !dead_[nbrs[p]]) free_ports_.push_back(p);
                if (!free_ports_.empty())
                    chosen = free_ports_[static_cast<std::size_t>(
                        rng_.below(free_ports_.size()))];
            }
            if (!chosen) {
                // Completely walled in this cycle: hold in place, but the
                // stall still burns hop budget so a packet with no live
                // ports at all is eventually declared lost.
                ++rec.hops;
                if (rec.hops >= config_.max_hops) {
                    rec.dropped = true;
                    ++dropped_;
                    trace_event(TraceEventKind::TtlExpired, tile, kNoTile, rec);
                } else {
                    next_.push_back({flying_[idx].id, tile});
                }
                continue;
            }
            port_used_[*chosen] = true;
            const TileId to = nbrs[*chosen];
            ++rec.hops;
            trace_event(TraceEventKind::Transmitted, tile, to, rec);
            if (to == rec.destination) {
                rec.delivered_cycle = cycle_;
                ++delivered_;
                trace_event(TraceEventKind::Delivered, to, kNoTile, rec);
            } else if (rec.hops >= config_.max_hops) {
                rec.dropped = true; // livelock guard
                ++dropped_;
                trace_event(TraceEventKind::TtlExpired, to, kNoTile, rec);
            } else {
                next_.push_back({flying_[idx].id, to});
            }
        }
        residents.clear();
    }
    flying_.swap(next_);
    ++cycle_;
}

void Network::run(std::size_t cycles) {
    for (std::size_t i = 0; i < cycles && !flying_.empty(); ++i) step();
}

} // namespace snoc::deflection
