#include "core/engine.hpp"

#include <algorithm>
#include <bit>
#include <optional>

#include "common/expect.hpp"
#include "common/prof.hpp"
#include "noc/fec.hpp"
#include "telemetry/metrics_registry.hpp"

namespace snoc {

// ---------------------------------------------------------------------------
// TileContext implementation handed to IP cores.
class GossipNetwork::Context final : public TileContext {
public:
    Context(GossipNetwork& net, TileId tile) : net_(net), tile_(tile) {}

    TileId tile() const override { return tile_; }
    Round round() const override { return net_.round_; }

    void send(TileId destination, std::uint32_t tag, std::vector<std::byte> payload,
              std::uint16_t ttl_override) override {
        auto& t = net_.tiles_[tile_];
        send_impl(MessageId{tile_, t.next_sequence++}, destination, tag,
                  std::move(payload), ttl_override);
    }

    void send_with_id(MessageId id, TileId destination, std::uint32_t tag,
                      std::vector<std::byte> payload,
                      std::uint16_t ttl_override) override {
        send_impl(id, destination, tag, std::move(payload), ttl_override);
    }

    RngStream& rng() override {
        // Built on first use: only IP-core tiles draw from `app`, and
        // RngPool::stream is pure, so building late moves no draw.
        auto& stream = net_.app_rng_[tile_];
        if (!stream)
            stream = std::make_unique<RngStream>(net_.pool_.stream("app", tile_));
        return *stream;
    }

    std::uint16_t default_ttl() const override { return net_.config_.default_ttl; }

private:
    void send_impl(MessageId id, TileId destination, std::uint32_t tag,
                   std::vector<std::byte> payload, std::uint16_t ttl_override) {
        // The one body every copy of this rumor will share.
        HeldMessage m{std::make_shared<const MessageBody>(MessageBody{
                          id, tile_, destination, tag, std::move(payload)}),
                      ttl_override != 0 ? ttl_override : net_.config_.default_ttl};
        if (net_.hold(tile_, std::move(m), TraceEventKind::MessageCreated))
            ++net_.metrics_.messages_created;
    }

    GossipNetwork& net_;
    TileId tile_;
};

// ---------------------------------------------------------------------------

GossipNetwork::GossipNetwork(Topology topology, GossipConfig config,
                             FaultScenario scenario, std::uint64_t seed)
    : topology_(std::move(topology)),
      config_(config),
      pool_(seed),
      forward_coins_(seed, config_.forward_p),
      injector_(scenario, pool_),
      clocks_(topology_.node_count(), config.timing.round_seconds()) {
    config_.validate();
    const std::size_t n = topology_.node_count();
    tiles_.reserve(n);
    for (TileId t = 0; t < n; ++t) tiles_.emplace_back(config_.send_buffer_capacity);
    app_rng_.resize(n);
    forward_capacity_.assign(n, static_cast<std::size_t>(-1));
    route_filter_.resize(n);
    clock_scale_.assign(n, 1.0);
    next_action_round_.assign(n, 0.0);
    metrics_.bits_sent_by_tile.assign(n, 0);
    metrics_.packets_by_link.assign(topology_.link_count(), 0);
    crash_state_.dead_tiles.assign(n, false);
    crash_state_.dead_links.assign(topology_.link_count(), false);
    std::vector<std::size_t> in_links(n, 0);
    for (LinkId l = 0; l < topology_.link_count(); ++l)
        max_in_links_ = std::max(max_in_links_, ++in_links[topology_.link(l).to]);
}

double GossipNetwork::elapsed_seconds() const {
    return dense_clocks_ ? clocks_.elapsed() : elapsed_accum_;
}

void GossipNetwork::set_forward_capacity(TileId tile, std::size_t packets_per_round) {
    SNOC_EXPECT(tile < tiles_.size());
    SNOC_EXPECT(packets_per_round > 0);
    forward_capacity_[tile] = packets_per_round;
}

void GossipNetwork::set_route_filter(TileId tile, RouteFilter filter) {
    SNOC_EXPECT(tile < tiles_.size());
    route_filter_[tile] = std::move(filter);
}

void GossipNetwork::set_clock_scale(TileId tile, double scale) {
    SNOC_EXPECT(!started_);
    SNOC_EXPECT(tile < tiles_.size());
    SNOC_EXPECT(scale > 0.0);
    clock_scale_[tile] = std::max(scale, 1.0);
}


void GossipNetwork::trace(TraceEventKind kind, TileId tile, TileId peer,
                          MessageId message) {
    if (!trace_) return;
    TraceEvent event;
    event.round = round_;
    event.kind = kind;
    event.tile = tile;
    event.peer = peer;
    event.message = message;
    trace_->record(event);
}

bool GossipNetwork::tile_active_this_round(TileId t) const {
    // A scale-s tile acts once every s engine rounds (s need not be an
    // integer: scale 1.5 acts in 2 of every 3 rounds).  Clock jitter
    // (sigma_synchr) is orthogonal and never gates activity.  Without
    // dense clocks no tile is scaled.
    if (!dense_clocks_ || clock_scale_[t] <= 1.0) return true;
    return static_cast<double>(round_) + 1e-9 >= next_action_round_[t];
}

void GossipNetwork::attach(TileId tile, std::unique_ptr<IpCore> core) {
    SNOC_EXPECT(!started_);
    SNOC_EXPECT(tile < tiles_.size());
    SNOC_EXPECT(core != nullptr);
    tiles_[tile].core = std::move(core);
}

void GossipNetwork::protect(TileId tile) {
    SNOC_EXPECT(!started_);
    SNOC_EXPECT(tile < tiles_.size());
    protected_tiles_.push_back(tile);
}

void GossipNetwork::force_exact_tile_crashes(std::size_t k) {
    SNOC_EXPECT(!started_);
    forced_exact_crashes_ = k;
}

void GossipNetwork::ensure_started() {
    if (started_) return;
    started_ = true;
    crash_state_ = forced_exact_crashes_
                       ? injector_.roll_exact_tile_crashes(topology_, *forced_exact_crashes_,
                                                           protected_tiles_)
                       : injector_.roll_crashes(topology_, protected_tiles_);
    for (TileId t = 0; t < tiles_.size(); ++t)
        if (!crash_state_.dead_tiles[t] && tiles_[t].core) cores_.push_back(t);
    for (const TileId t : cores_) {
        Context ctx(*this, t);
        tiles_[t].core->on_start(ctx);
    }
    merge_activations();
    dense_clocks_ = injector_.scenario().sigma_synchr > 0.0 ||
                    std::any_of(clock_scale_.begin(), clock_scale_.end(),
                                [](double s) { return s > 1.0; });
}

GossipNetwork::RunResult GossipNetwork::run_until(const std::function<bool()>& done,
                                                  Round max_rounds) {
    ensure_started();
    RunResult result;
    if (done()) { // already satisfied (e.g. empty workload)
        result.completed = true;
        result.rounds = round_;
        result.elapsed_seconds = elapsed_seconds();
        return result;
    }
    while (round_ < max_rounds) {
        step();
        if (done()) {
            result.completed = true;
            break;
        }
    }
    result.rounds = round_;
    result.elapsed_seconds = elapsed_seconds();
    return result;
}

void GossipNetwork::step() {
    ensure_started();
    packets_this_round_ = 0;
    // Fig. 3-4 phase order: receive (CRC filter + dedup) -> TTL decrement
    // and garbage collection -> forward.  The IP's turn (compute) sits
    // after ageing so freshly created messages are not aged in their own
    // creation round.  A copy therefore carries a strictly smaller TTL at
    // every hop and every rumor dies out deterministically.
    {
        SNOC_PROF("engine/receive");
        receive_phase();
    }
    {
        SNOC_PROF("engine/age");
        age_phase();
    }
    {
        SNOC_PROF("engine/compute");
        compute_phase();
    }
    {
        SNOC_PROF("engine/forward");
        forward_phase();
    }
    advance_clocks();
    metrics_.packets_per_round.push_back(packets_this_round_);
    ++round_;
    metrics_.rounds = round_;
    MetricsRegistry::global().inc(MetricId::EngineRoundsTotal);
    // A level-2 build re-verifies the conservation laws after every round,
    // even without an attached InvariantAuditor (compiled out otherwise).
    SNOC_CHECK(2, ledger().balanced());
}

void GossipNetwork::receive_phase() {
    const std::size_t slot = round_ % kInFlightRing;
    metrics_.duplicates_ignored += known_dups_[slot];
    known_dups_[slot] = 0;
    auto& bucket = in_flight_[slot];
    if (bucket.empty()) return;
    // Detach the bucket before processing: slow-clock deferrals re-enter
    // the ring at the next round's slot, which may alias this one's
    // storage once the ring wraps.  The swap recycles both vectors'
    // capacity across rounds.  Arrivals are processed in bucket order,
    // which is the order the global overflow stream is drawn in.
    arrivals_scratch_.clear();
    std::swap(arrivals_scratch_, bucket);
    for (auto& [dest, arrival] : arrivals_scratch_)
        if (admit_arrival(dest, arrival)) receive_arrival(dest, arrival);
    for (const TileId t : backlog_touched_) tiles_[t].inbox_backlog = 0;
    backlog_touched_.clear();
    merge_activations();
}

bool GossipNetwork::admit_arrival(TileId dest, Arrival& arrival) {
    if (crash_state_.dead_tiles[dest]) { // delivered into silence
        ++metrics_.crash_drops;
        trace(TraceEventKind::CrashDrop, dest);
        return false;
    }
    if (!tile_active_this_round(dest)) {
        // The destination's slower clock domain has not reached this
        // round yet; the packet waits in the port buffer.
        in_flight_[(round_ + 1) % kInFlightRing].emplace_back(dest, std::move(arrival));
        return false;
    }
    auto& tile = tiles_[dest];
    // Forced overflow (p_overflow of Ch. 2) strikes before the CRC check:
    // the packet never makes it out of the port buffer.  Finite input
    // buffering: a tile accepts at most in_buffer_capacity packets per
    // round across its ports.
    if (injector_.overflow_drop() || tile.inbox_backlog >= config_.in_buffer_capacity) {
        ++metrics_.overflow_drops;
        ++metrics_.port_overflow_drops;
        trace(TraceEventKind::OverflowDrop, dest);
        return false;
    }
    if (tile.inbox_backlog++ == 0) backlog_touched_.push_back(dest);
    return true;
}

void GossipNetwork::receive_arrival(TileId tile_id, Arrival& arrival) {
    if (arrival.wire) {
        WireDecode read = decode_link_wire(
            *arrival.wire, config_.link_protection == LinkProtection::SecdedCorrect);
        if (!pass_link_checks(tile_id, read.verdict)) return;
        if (arrival.verdict == Verdict::Upset && read.verdict.fec_corrected == 0)
            ++metrics_.upsets_undetected;
        const std::uint16_t ttl = read.message->ttl;
        deliver_and_insert(
            tile_id,
            HeldMessage{std::make_shared<const MessageBody>(std::move(*read.message)), ttl});
        return;
    }
    if (arrival.verdict != Verdict::Clean) {
        const WireAction action = arrival.verdict == Verdict::CrcDrop   ? WireAction::CrcDrop
                                  : arrival.verdict == Verdict::FecDrop ? WireAction::FecDrop
                                                                        : WireAction::Deliver;
        if (!pass_link_checks(tile_id, LinkVerdict{action, arrival.fec_corrected})) return;
    }
    deliver_and_insert(tile_id, HeldMessage{std::move(arrival.body), arrival.ttl});
}

bool GossipNetwork::pass_link_checks(TileId tile_id, const LinkVerdict& verdict) {
    if (verdict.action == WireAction::FecDrop) {
        ++metrics_.fec_uncorrectable;
        trace(TraceEventKind::FecUncorrectable, tile_id);
        return false;
    }
    metrics_.fec_corrected += verdict.fec_corrected;
    if (verdict.action == WireAction::CrcDrop) {
        ++metrics_.crc_drops; // scrambled packet, CRC caught it
        trace(TraceEventKind::CrcDrop, tile_id);
        return false;
    }
    return true;
}

void GossipNetwork::deliver_and_insert(TileId tile_id, HeldMessage message) {
    auto& tile = tiles_[tile_id];
    if (tile.send_buffer.knows(message.id())) {
        ++metrics_.duplicates_ignored;
        trace(TraceEventKind::DuplicateIgnored, tile_id, kNoTile, message.id());
        return;
    }
    SNOC_PROF("engine/deliver");
    const TileId destination = message.body->destination;
    const bool for_me = destination == tile_id || destination == kBroadcast;
    if (for_me && tile.core) {
        Context ctx(*this, tile_id);
        tile.core->on_message(message.message(), ctx);
        ++metrics_.deliveries;
        trace(TraceEventKind::Delivered, tile_id, kNoTile, message.id());
    }
    if (config_.stop_spread_on_delivery && destination == tile_id)
        delivered_unicasts_.insert(message.id());
    // The tile keeps relaying even when it is the destination: the rumor
    // lives until its TTL expires, which is what gives later tiles their
    // copies (Fig. 3-3: tiles 13-16 hear the message after the consumer).
    // A received copy always carries TTL >= 1 (ageing strips zeros before
    // forwarding), so the ledger counts every non-duplicate receive as
    // accepted; if that ever stopped holding, the copy would vanish
    // without a fate and the wire law would flag the leak.
    if (message.ttl > 0 && hold(tile_id, std::move(message), TraceEventKind::Accepted))
        ++metrics_.packets_accepted;
}

bool GossipNetwork::hold(TileId tile_id, HeldMessage message, TraceEventKind kind) {
    auto& buffer = tiles_[tile_id].send_buffer;
    const MessageId id = message.id();
    const bool was_empty = buffer.empty();
    MessageId evicted{kNoTile, 0};
    if (!buffer.insert(std::move(message), &evicted)) return false;
    trace(kind, tile_id, kNoTile, id);
    ++knowers_[id];
    if (was_empty) newly_active_.push_back(tile_id);
    if (evicted.origin != kNoTile) {
        ++evictions_seen_;
        trace(TraceEventKind::BufferEvicted, tile_id, kNoTile, evicted);
    }
    return true;
}

void GossipNetwork::merge_activations() {
    if (newly_active_.empty()) return;
    // Only ageing empties a buffer, so a tile activates at most once per
    // phase and was not on the list: a sort plus one in-place merge keeps
    // active_ ascending and unique.
    std::sort(newly_active_.begin(), newly_active_.end());
    const auto middle = static_cast<std::ptrdiff_t>(active_.size());
    active_.insert(active_.end(), newly_active_.begin(), newly_active_.end()); // [mutation-point:active-merge]
    std::inplace_merge(active_.begin(), active_.begin() + middle, active_.end());
    newly_active_.clear();
}

void GossipNetwork::compute_phase() {
    for (const TileId t : cores_) {
        if (!tile_active_this_round(t)) continue;
        Context ctx(*this, t);
        tiles_[t].core->on_round(ctx);
    }
    merge_activations();
}

bool GossipNetwork::known_duplicates_exact() const {
    // A sink records each duplicate in bucket order; dense clocks can
    // defer an arrival; the byte oracle decodes every copy; the overflow
    // stream draws once per arrival in bucket order.  And every copy a
    // tile dedups takes an inbox slot first, so eliding one could let a
    // later arrival in past a full input buffer: skip only when no tile
    // can receive more copies in a round than its buffer holds.
    if (trace_ || dense_clocks_ || config_.reference_encode_path ||
        injector_.scenario().p_overflow > 0.0)
        return false;
    std::size_t held = 0;
    for (const TileId t : active_) held = std::max(held, tiles_[t].send_buffer.size());
    return held * max_in_links_ <= config_.in_buffer_capacity;
}

void GossipNetwork::forward_phase() {
    upset_source_ = nullptr;
    elide_known_dups_ = known_duplicates_exact();
    // upset_roll() draws nothing at p_upset <= 0, so skipping it there
    // moves no draw.
    const bool upsets = injector_.scenario().p_upset > 0.0;
    forward_coins_.start_round(round_);
    for (const TileId t : active_) {
        if (!tile_active_this_round(t)) continue;
        auto& tile = tiles_[t];
        forward_coins_.start_tile(t);
        const auto& nbrs = topology_.neighbours(t);
        const auto& links = topology_.out_links(t);
        const auto& filter = route_filter_[t];
        std::size_t budget = forward_capacity_[t];
        const auto& msgs = tile.send_buffer.messages();
        // A capacity-limited tile (bus bridge) serves its buffer with a
        // rotating start so a long-lived rumor cannot starve newer ones of
        // the serialised medium.
        const std::size_t offset =
            (budget >= msgs.size()) ? 0 : static_cast<std::size_t>(round_) % msgs.size();
        for (std::size_t mi = 0; mi < msgs.size(); ++mi) {
            const HeldMessage& m = msgs[(mi + offset) % msgs.size()];
            if (budget == 0) break; // serialised medium saturated this round
            if (config_.stop_spread_on_delivery && delivered_unicasts_.contains(m.id()))
                continue; // spread terminated early (Sec. 3.2.2)
            const Outgoing out{m, m.id(), wire_size(*m.body) * 8};
            // Fig. 3-4: the message is presented on every output port
            // and a random decision (probability p) gates each port.  One
            // coin per port, in port order, stopping once the budget runs
            // out: the coins of a chunk of ports are drawn as one mask,
            // and a chunk is no longer than the budget, so the budget
            // cannot run out before the chunk's last coin.
            for (std::size_t first = 0; first < nbrs.size() && budget > 0;) {
                const std::size_t chunk =
                    std::min({nbrs.size() - first, budget, std::size_t{64}});
                for (std::uint64_t mask = forward_coins_.mask(chunk);
                     mask != 0; mask &= mask - 1) {
                    const std::size_t i = first + static_cast<std::size_t>(std::countr_zero(mask));
                    if (crash_state_.dead_links[links[i]]) continue;
                    if (filter && !filter(*m.body, nbrs[i])) continue;
                    enqueue_transmission(t, nbrs[i], links[i], out,
                                         upsets && injector_.upset_roll());
                    --budget;
                }
                first += chunk;
            }
        }
    }
}

std::size_t GossipNetwork::wire_size(const MessageBody& body) const {
    const std::size_t plain = Packet::wire_bytes(body.payload.size());
    return config_.link_protection == LinkProtection::SecdedCorrect
               ? fec::protected_bytes(plain)
               : plain;
}

std::vector<std::byte> GossipNetwork::encode_message(const HeldMessage& m) const {
    SNOC_PROF("engine/encode");
    Packet p = Packet::encode(*m.body, m.ttl);
    std::vector<std::byte> wire =
        config_.link_protection == LinkProtection::SecdedCorrect
            ? fec::protect(p.wire()).bytes
            : std::move(p.mutable_wire());
    SNOC_CHECK(1, wire.size() == wire_size(*m.body));
    return wire;
}

void GossipNetwork::enqueue_transmission(TileId from, TileId to, LinkId link,
                                         const Outgoing& out, bool upset) {
    const HeldMessage& m = out.message;
    const MessageId id = out.id;
    ++metrics_.packets_sent;
    ++packets_this_round_;
    metrics_.bits_sent += out.bits;
    metrics_.bits_sent_by_tile[from] += out.bits;
    ++metrics_.packets_by_link[link];
    trace(TraceEventKind::Transmitted, from, to, id);
    // Known rumors stay known and crashes roll only at start, so a clean
    // copy to a live tile that knows `id` is a duplicate on arrival, in
    // round_ + 1 (no skew without dense clocks).
    if (elide_known_dups_ && !upset && !crash_state_.dead_tiles[to] &&
        tiles_[to].send_buffer.knows(id)) {
        ++known_dups_[(round_ + 1) % kInFlightRing];
        return;
    }

    Arrival arrival{m.body, nullptr, m.ttl};
    // The reference path serialises every transmission, as real hardware
    // does; otherwise a clean transmission carries no bytes at all.
    if (config_.reference_encode_path)
        arrival.wire = std::make_unique<std::vector<std::byte>>(encode_message(m));
    if (upset) upset_transmission(m, arrival);

    // A transmission into a crashed tile still burns bandwidth/energy but
    // is never received; model it by enqueuing (receive_phase drops it).
    Round arrival_round = round_ + 1;
    // Synchronisation errors: if the sender's clock domain runs ahead of
    // the receiver's by more than half a round, the packet misses the
    // receiver's next receive window and slips one round further.
    // Without dense clocks every clock reads the same: no skew.
    if (dense_clocks_ && clocks_.skew(from, to) > clocks_.t_r() / 2.0) {
        ++arrival_round;
        ++metrics_.skew_deferrals;
        trace(TraceEventKind::SkewDeferral, from, to, id);
    }
    in_flight_[arrival_round % kInFlightRing].emplace_back(to, std::move(arrival));
}

void GossipNetwork::upset_transmission(const HeldMessage& m, Arrival& arrival) {
    if (arrival.wire ||
        injector_.scenario().upset_model != UpsetModel::RandomBitError) {
        // Bytes only: each upset port corrupts its own copy of the one
        // encoding a held message gets per forward phase.
        if (!arrival.wire) arrival.wire = upset_copy(m);
        injector_.apply_upset(*arrival.wire);
        arrival.verdict = Verdict::Upset;
        return;
    }
    // Same draws as apply_upset() on the encoded wire, but the verdict
    // comes from the flip positions: CRC-32 and SECDED are linear, so a
    // corrupted copy's fate depends on its error vector alone.
    const bool secded = config_.link_protection == LinkProtection::SecdedCorrect;
    injector_.sample_flips(wire_size(*m.body) * 8, flips_);
    const auto verdict = sparse_verdicts_.decide(
        Packet::wire_bytes(m.body->payload.size()), flips_, secded);
    if (!verdict) { // the bytes decide what gets through
        arrival.wire = upset_copy(m);
        FaultInjector::flip_bits(*arrival.wire, flips_);
        arrival.verdict = Verdict::Upset;
        return;
    }
    SNOC_CHECK(2, bytes_agree(m, *verdict));
    switch (verdict->action) {
    case WireAction::CrcDrop: arrival.verdict = Verdict::CrcDrop; break;
    case WireAction::FecDrop: arrival.verdict = Verdict::FecDrop; break;
    case WireAction::Deliver:
        arrival.verdict = Verdict::Corrected;
        arrival.fec_corrected = static_cast<std::uint32_t>(verdict->fec_corrected);
        break;
    }
}

std::unique_ptr<std::vector<std::byte>> GossipNetwork::upset_copy(const HeldMessage& m) {
    if (upset_source_ != &m) {
        upset_wire_ = encode_message(m);
        upset_source_ = &m;
    }
    return std::make_unique<std::vector<std::byte>>(upset_wire_);
}

bool GossipNetwork::bytes_agree(const HeldMessage& m, const LinkVerdict& verdict) const {
    // Untimed, so that a level-2 build profiles like the others.
    const bool secded = config_.link_protection == LinkProtection::SecdedCorrect;
    Packet packet = Packet::encode(*m.body, m.ttl);
    std::vector<std::byte> wire = secded ? fec::protect(packet.wire()).bytes
                                         : std::move(packet.mutable_wire());
    FaultInjector::flip_bits(wire, flips_);
    const WireDecode read = decode_link_wire(wire, secded, /*timed=*/false);
    if (read.verdict.action != verdict.action ||
        read.verdict.fec_corrected != verdict.fec_corrected)
        return false;
    return !read.message || (read.message->ttl == m.ttl &&
                             static_cast<const MessageBody&>(*read.message) == *m.body);
}

void GossipNetwork::age_phase() {
    std::vector<MessageId> expired;
    std::size_t kept = 0;
    for (const TileId t : active_) {
        auto& buffer = tiles_[t].send_buffer;
        if (tile_active_this_round(t)) {
            expired.clear();
            metrics_.ttl_expired += buffer.age_and_collect(trace_ ? &expired : nullptr);
            for (const MessageId& id : expired)
                trace(TraceEventKind::TtlExpired, t, kNoTile, id);
        }
        // Ageing is the only way a buffer empties: a tile leaves the
        // active list the moment it holds nothing to forward.
        if (!buffer.empty()) active_[kept++] = t;
    }
    active_.resize(kept);
    metrics_.overflow_drops += evictions_seen_ - evictions_folded_;
    evictions_folded_ = evictions_seen_;
}

void GossipNetwork::advance_clocks() {
    if (!dense_clocks_) {
        // Every clock would advance by exactly t_r: keep one sum, added
        // round by round so it equals the per-tile sums bit for bit.
        elapsed_accum_ += clocks_.t_r();
        return;
    }
    for (TileId t = 0; t < tiles_.size(); ++t) {
        if (!tile_active_this_round(t)) continue;
        const double scale = clock_scale_[t];
        clocks_.advance(t, injector_.round_duration(clocks_.t_r() * scale, t));
        if (scale > 1.0) next_action_round_[t] += scale;
    }
}

bool GossipNetwork::quiescent() const {
    return active_.empty() && in_flight_packets() == 0;
}

void GossipNetwork::drain(Round max_extra_rounds) {
    ensure_started(); // on_start may inject the very rumors we must drain
    for (Round i = 0; i < max_extra_rounds && !quiescent(); ++i) step();
}

const CrashState& GossipNetwork::crashes() {
    ensure_started();
    return crash_state_;
}

bool GossipNetwork::tile_alive(TileId t) {
    ensure_started();
    SNOC_EXPECT(t < tiles_.size());
    return !crash_state_.dead_tiles[t];
}

std::size_t GossipNetwork::live_link_count() {
    ensure_started();
    std::size_t live = 0;
    for (LinkId l = 0; l < topology_.link_count(); ++l) {
        const auto& ends = topology_.link(l);
        if (!crash_state_.dead_links[l] && !crash_state_.dead_tiles[ends.from] &&
            !crash_state_.dead_tiles[ends.to])
            ++live;
    }
    return live;
}

std::size_t GossipNetwork::tiles_knowing(const MessageId& id) {
    ensure_started();
    const auto it = knowers_.find(id);
    return it == knowers_.end() ? 0 : it->second;
}

bool GossipNetwork::active_set_consistent() const {
    for (std::size_t i = 0; i < active_.size(); ++i) {
        const TileId t = active_[i];
        if (i > 0 && active_[i - 1] >= t) return false; // ascending, unique
        if (crash_state_.dead_tiles[t] || tiles_[t].send_buffer.empty()) return false;
    }
    // Completeness: every live tile with a non-empty buffer is listed.
    std::size_t expected = 0;
    for (TileId t = 0; t < tiles_.size(); ++t)
        if (!crash_state_.dead_tiles[t] && !tiles_[t].send_buffer.empty()) ++expected;
    return active_.size() == expected;
}

const SendBuffer& GossipNetwork::send_buffer(TileId t) const {
    SNOC_EXPECT(t < tiles_.size());
    return tiles_[t].send_buffer;
}

std::size_t GossipNetwork::in_flight_packets() const {
    std::size_t n = 0;
    for (std::size_t slot = 0; slot < kInFlightRing; ++slot)
        n += in_flight_[slot].size() + known_dups_[slot];
    return n;
}

check::ConservationLedger GossipNetwork::ledger() const {
    check::ConservationLedger ledger;
    ledger.injected = metrics_.messages_created;
    ledger.transmitted = metrics_.packets_sent; // [mutation-point:ledger-transmitted]
    ledger.in_flight = in_flight_packets();
    ledger.crash_drops = metrics_.crash_drops;
    ledger.port_overflow_drops = metrics_.port_overflow_drops;
    ledger.fec_uncorrectable = metrics_.fec_uncorrectable;
    ledger.crc_drops = metrics_.crc_drops;
    ledger.duplicates = metrics_.duplicates_ignored;
    ledger.accepted = metrics_.packets_accepted;
    ledger.ttl_expired = metrics_.ttl_expired;
    // Read eviction counts straight off the buffers rather than from
    // metrics_.overflow_drops: the metric folds eviction deltas in at the
    // next age phase, so it can trail the buffers by part of a round.
    for (const auto& tile : tiles_) {
        ledger.sendbuf_evictions += tile.send_buffer.overflow_drops();
        ledger.buffered += tile.send_buffer.size();
    }
    return ledger;
}

} // namespace snoc
