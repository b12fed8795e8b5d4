#include "router/core.hpp"

#include <algorithm>

#include "common/expect.hpp"
#include "common/postmortem.hpp"
#include "common/prof.hpp"
#include "router/ports.hpp"

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
      policy_(std::move(policy)),
      dead_tiles_(topo_.node_count(), false),
      dead_links_(topo_.link_count(), false),
      occupancy_(topo_.node_count(), 0),
      pending_(topo_.node_count()) {
    config_.validate();
    SNOC_EXPECT(policy_ != nullptr);
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
    in_.resize(topo_.node_count());
    arbiters_.reserve(topo_.node_count());
    link_free_at_.resize(topo_.node_count());
    committed_.resize(topo_.node_count());
    for (TileId t = 0; t < topo_.node_count(); ++t) {
        in_[t].resize(input_count(t));
        arbiters_.emplace_back(output_count(t), RotatingArbiter(input_count(t)));
        link_free_at_[t].assign(topo_.neighbours(t).size(), 0);
        committed_[t].assign(input_count(t), 0);
    }
}

void RouterCore::apply_crashes(const CrashState& crashes) {
    SNOC_EXPECT(crashes.dead_tiles.size() == topo_.node_count());
    SNOC_EXPECT(crashes.dead_links.size() == topo_.link_count());
    SNOC_EXPECT(records_.empty() && "apply crashes before injecting");
    dead_tiles_ = crashes.dead_tiles;
    dead_links_ = crashes.dead_links;
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

bool RouterCore::head_ready(const Buffered& head) const {
    // Store-and-forward waits for the tail; cut-through switches the
    // header as soon as it has landed.
    return config_.flow == FlowControl::StoreAndForward
               ? head.full_at <= cycle_
               : head.head_at <= cycle_;
}

RouterCore::Buffered RouterCore::arrival(std::uint32_t id, TileId t, TileId from,
                                         std::size_t head_at,
                                         std::size_t full_at) const {
    return Buffered{id, from, head_at, full_at,
                    policy_->candidates(topo_, t, from, records_[id].destination,
                                        dead_tiles_)};
}

std::optional<std::size_t> RouterCore::choose_output(TileId t,
                                                     const Buffered& head) const {
    const auto& nbrs = topo_.neighbours(t);
    const auto& links = topo_.out_links(t);
    for (const std::size_t c : head.route) {
        const TileId next = nbrs[c];
        if (dead_tiles_[next] || dead_links_[links[c]]) continue;
        if (link_free_at_[t][c] > cycle_) continue; // serializing a packet
        const std::size_t in_at_next = input_port_from(topo_, next, t);
        if (in_[next][in_at_next].size() + committed_[next][in_at_next] >=
            config_.buffer_packets)
            continue; // no downstream credit
        return c;
    }
    return std::nullopt;
}

void RouterCore::drop_head(TileId t, std::size_t in_port, bool ttl) {
    Buffered head = in_[t][in_port].front();
    in_[t][in_port].pop_front();
    --occupancy_[t];
    PacketRecord& rec = records_[head.id];
    rec.dropped = true;
    ++dropped_;
    --outstanding_;
    const MessageId mid{rec.source, rec.id};
    if (ttl)
        accounting_.ttl_expired(static_cast<Round>(cycle_), t, mid);
    else
        accounting_.crash_drop(static_cast<Round>(cycle_), t, mid);
}

void RouterCore::resolve_head_fates(TileId t, std::size_t in_port) {
    // Only the head of a FIFO can be doomed: once it is gone, the next
    // packet surfaces and gets its own verdict this same cycle.
    auto& fifo = in_[t][in_port];
    while (!fifo.empty()) {
        const Buffered& head = fifo.front();
        if (head.head_at > cycle_) return; // still streaming in
        const PacketRecord& rec = records_[head.id];
        if (rec.destination == t) return; // ejects, never drops
        if (rec.hops >= config_.max_hops) {
            drop_head(t, in_port, /*ttl=*/true);
            continue;
        }
        bool viable = false;
        const auto& nbrs = topo_.neighbours(t);
        const auto& links = topo_.out_links(t);
        for (const std::size_t c : head.route)
            if (!dead_tiles_[nbrs[c]] && !dead_links_[links[c]]) {
                viable = true;
                break;
            }
        if (!viable) {
            // No live port the policy will ever name again (the policy is
            // a pure function of position and the static crash pattern):
            // a fault-blind route hit its dead hop, or an adaptive packet
            // is walled in.
            drop_head(t, in_port, /*ttl=*/false);
            continue;
        }
        return;
    }
}

std::size_t RouterCore::inject_stage() {
    // One packet per tile per cycle enters the local input FIFO as space
    // allows (source packets are wholly resident).
    SNOC_PROF("router/inject");
    std::size_t admitted = 0;
    for (TileId t = 0; t < topo_.node_count(); ++t) {
        if (pending_[t].empty()) continue;
        auto& local = in_[t][local_port(t)];
        if (local.size() >= config_.buffer_packets) continue;
        local.push_back(arrival(pending_[t].front(), t, kNoTile, cycle_, cycle_));
        ++occupancy_[t];
        pending_[t].pop_front();
        ++admitted;
    }
    return admitted;
}

void RouterCore::fate_stage() {
    // Head-of-line fate resolution: crash and hop-budget drops.
    SNOC_PROF("router/fate");
    for (TileId t = 0; t < topo_.node_count(); ++t)
        for (std::size_t ip = 0; ip < input_count(t) && occupancy_[t] > 0; ++ip)
            resolve_head_fates(t, ip);
}

void RouterCore::arbitrate_stage() {
    // Switch allocation: per output, a rotating arbiter over the input
    // ports; downstream slots committed here are visible to every later
    // decision this cycle.
    SNOC_PROF("router/arbitrate");
    moves_.clear();
    for (TileId t = 0; t < topo_.node_count(); ++t)
        std::fill(committed_[t].begin(), committed_[t].end(), 0);
    for (TileId t = 0; t < topo_.node_count(); ++t) {
        if (dead_tiles_[t] || occupancy_[t] == 0) continue;
        input_used_.assign(input_count(t), false);
        const std::size_t outputs = output_count(t);
        for (std::size_t out = 0; out < outputs; ++out) {
            const bool is_eject = out == eject_port(t);
            if (!is_eject && link_free_at_[t][out] > cycle_)
                continue; // link still serializing; nobody can win it
            arbiters_[t][out].grant([&](std::size_t ip) {
                if (input_used_[ip]) return false;
                auto& fifo = in_[t][ip];
                if (fifo.empty()) return false;
                const Buffered& head = fifo.front();
                if (head.head_at > cycle_) return false;
                const PacketRecord& rec = records_[head.id];
                if (is_eject) {
                    // Delivery means the tail arrived, whatever the scheme.
                    if (rec.destination != t || head.full_at > cycle_)
                        return false;
                } else {
                    if (rec.destination == t) return false;
                    if (!head_ready(head)) return false;
                    // Re-evaluated per request, never cached: committed_
                    // changes as earlier outputs of this tile are granted.
                    const auto chosen = choose_output(t, head);
                    if (!chosen || *chosen != out) return false;
                    const TileId next = topo_.neighbours(t)[out];
                    ++committed_[next][input_port_from(topo_, next, t)];
                }
                input_used_[ip] = true;
                moves_.push_back(Move{t, ip, out, is_eject});
                return true;
            });
        }
    }
}

void RouterCore::move_stage() {
    // Apply this cycle's grants: ejections deliver, the rest cross a link.
    SNOC_PROF("router/move");
    for (const auto& m : moves_) {
        auto& fifo = in_[m.tile][m.in_port];
        SNOC_ENSURE(!fifo.empty());
        const Buffered head = fifo.front();
        fifo.pop_front();
        --occupancy_[m.tile];
        PacketRecord& rec = records_[head.id];
        const MessageId mid{rec.source, rec.id};
        if (m.eject) {
            rec.delivered_cycle = cycle_;
            ++delivered_;
            --outstanding_;
            accounting_.delivered(static_cast<Round>(cycle_), m.tile, mid);
            continue;
        }
        const TileId next = topo_.neighbours(m.tile)[m.out];
        const LinkId link = topo_.out_links(m.tile)[m.out];
        ++rec.hops;
        accounting_.transmitted(static_cast<Round>(cycle_), m.tile, next, link,
                                mid, rec.bits);
        // The header lands next cycle; the tail trails it by the packet's
        // serialization time, and can never outrun its own arrival here.
        const std::size_t full_at_next =
            std::max(head.full_at + 1, cycle_ + config_.flits_per_packet);
        link_free_at_[m.tile][m.out] = full_at_next;
        in_[next][input_port_from(topo_, next, m.tile)].push_back(
            arrival(head.id, next, m.tile, cycle_ + 1, full_at_next));
        ++occupancy_[next];
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
    SNOC_EXPECT(output < output_count(t));
    return arbiters_[t][output];
}

} // namespace snoc::router
