// The stochastic communication engine — the paper's primary contribution
// (Sec. 3.2, Fig. 3-4).  One GossipNetwork owns a topology, per-tile
// network logic (send buffer, input buffers, CRC filter, Bernoulli(p)
// output gates), the fault injector and the GALS clock model, and executes
// gossip rounds:
//
//   receive:  send_buffer U= { m received | CRC_OK(m) }   (dedup by id)
//   deliver:  m.destination == tile  ->  IP core
//   compute:  IP may inject new messages
//   forward:  every held m goes out on each live port w.p. p
//   age:      for all m: TTL -= 1;  drop TTL == 0
//
// Crashed tiles/links, data upsets, forced overflows and clock-skew
// deferrals are applied exactly where they would strike on silicon.
//
// One serial executor runs every round (DESIGN.md §12).  It visits tiles
// in ascending order, phase by phase, but only the tiles that can have
// work: the active list (live tiles holding a rumor), the live IP-core
// tiles, and the destinations of this round's arrivals.  Idle tiles cost
// nothing, so a thin wavefront on a huge mesh runs in O(wavefront).
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "check/ledger.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "core/gossip_config.hpp"
#include "core/ip_core.hpp"
#include "core/metrics.hpp"
#include "core/send_buffer.hpp"
#include "fault/injector.hpp"
#include "noc/topology.hpp"
#include "noc/verdict.hpp"
#include "sim/round_clock.hpp"
#include "sim/trace.hpp"

namespace snoc {

class GossipNetwork {
public:
    GossipNetwork(Topology topology, GossipConfig config, FaultScenario scenario,
                  std::uint64_t seed);

    /// Map an IP core onto a tile.  Must be called before the first round.
    void attach(TileId tile, std::unique_ptr<IpCore> core);

    /// Tiles that must survive the initial crash roll (e.g. the unique
    /// master); call before the first round.
    void protect(TileId tile);

    /// Crash exactly `k` unprotected tiles instead of rolling p_tiles
    /// (the Fig. 4-4 x-axis is a defect count).  Call before round 0.
    void force_exact_tile_crashes(std::size_t k);

    /// Limit how many packet transmissions a tile may perform per round.
    /// Models serialised media in the Ch. 5 hybrid architectures: a
    /// bus-bridge tile that can push one packet per round behaves like a
    /// shared bus between sub-networks.  Default: unlimited.
    void set_forward_capacity(TileId tile, std::size_t packets_per_round);

    /// Gate which messages a tile may forward to which neighbour.  This is
    /// how the Ch. 5 central router / bus bridge confines gossip to the
    /// destination's cluster: plain mesh tiles have no filter, gateway and
    /// hub tiles forward a rumor off-cluster only when its destination
    /// lives there.  Returning false suppresses that port for that message.
    using RouteFilter = std::function<bool(const MessageBody&, TileId next_hop)>;
    void set_route_filter(TileId tile, RouteFilter filter);

    /// Voltage/frequency islands (Ch. 5): a tile with clock scale s >= 1
    /// runs its rounds s times slower than the base T_R — it participates
    /// only in the engine rounds its local clock has caught up with, so a
    /// scale-2 tile acts every other round, holds its rumors twice as long
    /// in wall-clock, and receives arrivals with a deferral.  Scales below
    /// 1 clamp to 1 (the engine round is the fastest quantum).  Call
    /// before round 0.
    void set_clock_scale(TileId tile, double scale);

    /// Attach a flight recorder (see sim/trace.hpp).  The sink must
    /// outlive the network; nullptr detaches.  Tracing never changes
    /// behaviour — sinks are write-only observers.  Attach before a
    /// step: copies sent untraced that the receiver already knows are
    /// counted without a DuplicateIgnored event.
    void set_trace_sink(TraceSink* sink) { trace_ = sink; }

    struct RunResult {
        bool completed{false};    ///< predicate became true before the cap.
        Round rounds{0};          ///< rounds executed.
        double elapsed_seconds{0.0};
    };

    /// Run until `done()` (checked after every round) or `max_rounds`.
    RunResult run_until(const std::function<bool()>& done, Round max_rounds);

    /// Execute a single gossip round.
    void step();

    /// --- Observers --------------------------------------------------------
    const Topology& topology() const { return topology_; }
    const GossipConfig& config() const { return config_; }
    const NetworkMetrics& metrics() const { return metrics_; }
    const CrashState& crashes();
    Round round() const { return round_; }
    double elapsed_seconds() const;
    /// True iff the active list holds exactly the live tiles with
    /// non-empty send buffers, each once, in ascending order — the
    /// invariant that makes skipping idle tiles sound.  O(N); the
    /// InvariantAuditor calls it per audited round.
    bool active_set_consistent() const;

    bool tile_alive(TileId t);

    /// True when no rumor is alive anywhere: all send buffers are empty
    /// and nothing is in flight.  Energy measurements should run to
    /// quiescence — transmissions keep burning energy until every TTL
    /// expires, even after the application has finished.
    bool quiescent() const;

    /// Step until quiescent (or the safety cap); used by the energy
    /// benches to account for the full broadcast lifetime.
    void drain(Round max_extra_rounds = 1000);
    /// How many live tiles currently know (hold or held) message `id` —
    /// the spread curve of Fig. 3-1.  O(1): every successful send-buffer
    /// insert is one new knower, and crashes only roll at start.
    std::size_t tiles_knowing(const MessageId& id);
    const SendBuffer& send_buffer(TileId t) const;

    /// Packets enqueued on links but not yet received (all ring buckets,
    /// plus the copies counted at send time as known duplicates or known
    /// CRC drops).
    std::size_t in_flight_packets() const;

    /// Snapshot the conservation ledger (check/ledger.hpp) from live
    /// engine state.  Exact at any round boundary; the InvariantAuditor
    /// verifies its two balance laws per round and at end of run.
    check::ConservationLedger ledger() const;

private:
    /// How receive_arrival() treats an arrival.  An arrival that carries
    /// bytes is FEC-stripped, CRC-checked and decoded from them (Upset
    /// marks those bytes corrupted); a Clean one without bytes delivers
    /// (body, ttl).  The other three are upsets decided at send time
    /// from their flip positions (noc/verdict.hpp) and carry no bytes.
    enum class Verdict : std::uint8_t { Clean, Upset, CrcDrop, FecDrop, Corrected };

    /// One packet in flight: the sender's shared message body and the
    /// TTL it carried when sent, which is exactly what its wire image
    /// would decode to.  A clean transmission has no bytes at all (its
    /// size is computable, see wire_size()), and neither has an upset
    /// whose verdict its flips decide.  Bytes exist only where something
    /// must read them: an upset the sparse verdict declines owns a
    /// corrupted copy of the message's encoding, and under
    /// reference_encode_path every transmission owns its own encoding.
    struct Arrival {
        std::shared_ptr<const MessageBody> body;
        std::unique_ptr<std::vector<std::byte>> wire;
        std::uint16_t ttl{0};
        Verdict verdict{Verdict::Clean};
        std::uint32_t fec_corrected{0}; ///< words a Corrected verdict repairs.
    };
    // The in-flight ring holds one Arrival per packet on the wire: a
    // wider one shows up directly in dense meshes' peak RSS.
    static_assert(sizeof(Arrival) <= 32);

    struct Tile {
        SendBuffer send_buffer;
        std::uint32_t next_sequence{0};
        std::size_t inbox_backlog{0}; ///< arrivals queued, for capacity drops.
        std::unique_ptr<IpCore> core;
        explicit Tile(std::size_t cap) : send_buffer(cap) {}
    };

    class Context; // TileContext implementation.

    void ensure_started();
    bool tile_active_this_round(TileId t) const;
    void receive_phase();
    void compute_phase();
    void forward_phase();
    void age_phase();
    void advance_clocks();
    /// The port-buffer stage of the receive phase, in arrival order (it
    /// draws the global overflow stream): crash drops, slow-clock
    /// deferrals into the next ring bucket, forced and capacity overflow
    /// drops.  True iff the arrival took an inbox slot and goes on to
    /// receive_arrival().
    bool admit_arrival(TileId dest, Arrival& arrival);
    /// The rest of the receive phase for one admitted arrival: apply its
    /// verdict.  A clean wire always passes SECDED with zero corrections
    /// and the CRC, and decodes to (body, ttl), so a clean arrival without
    /// bytes is deduplicated or accepted straight from the shared body;
    /// so is a Corrected one, after counting its repairs.  Materialised
    /// bytes are FEC-stripped, CRC-checked and decoded.  Consumes
    /// `arrival`.
    void receive_arrival(TileId tile, Arrival& arrival);
    /// Count a link verdict's repairs and drops (metrics and trace).
    /// True iff the packet gets through to deduplication.
    bool pass_link_checks(TileId tile, const LinkVerdict& verdict);
    void deliver_and_insert(TileId tile, HeldMessage message);
    /// Insert `message` into `tile`'s send buffer.  On success, trace
    /// `kind` and keep the knower counts, the activation list and the
    /// eviction tally in step.  True iff inserted.
    bool hold(TileId tile, HeldMessage message, TraceEventKind kind);
    /// Fold the tiles activated during a phase into the active list.
    void merge_activations();
    /// Bytes on the wire for `body` under the configured link protection:
    /// Packet::wire_bytes, SECDED-expanded by fec::protected_bytes.
    std::size_t wire_size(const MessageBody& body) const;
    /// Serialise + CRC (+ optional FEC) a held message into wire bytes.
    std::vector<std::byte> encode_message(const HeldMessage& m) const;
    /// True iff this round's forward phase may count a copy to a live
    /// tile whose fate is already known at send time (a clean copy of a
    /// rumor the tile knows is a duplicate, an upset whose sparse verdict
    /// is a CRC drop is a CRC drop): no receiver-side rule reads where it
    /// sits in its bucket (DESIGN.md §12).
    bool known_duplicates_exact() const;
    /// A held message as the forward phase sends it: what all its copies
    /// in a round share.
    struct Outgoing {
        const HeldMessage& message;
        MessageId id;
        std::size_t bits; ///< on the wire, per copy.
    };
    /// Send `out`'s message from `from` to `to` over `link`; `upset` is
    /// this copy's upset_roll().  The message must stay in place until
    /// the forward phase ends: upset transmissions of one held message in
    /// a round copy a single cached encoding of it.
    void enqueue_transmission(TileId from, TileId to, LinkId link, const Outgoing& out,
                              bool upset);
    /// An upset struck `arrival`, a transmission of `m`: decide its
    /// verdict from the flip positions, or corrupt bytes where only the
    /// bytes can tell.
    void upset_transmission(const HeldMessage& m, Arrival& arrival);
    /// A copy of `m`'s encoding, made at most once per forward phase.
    std::unique_ptr<std::vector<std::byte>> upset_copy(const HeldMessage& m);
    /// Level-2 cross-check: flipping `upset`'s positions in `m`'s bytes
    /// gives the sparse `verdict`, and a delivered packet decodes to `m`.
    bool bytes_agree(const HeldMessage& m, const FaultInjector::BitUpset& upset,
                     const LinkVerdict& verdict) const;
    void trace(TraceEventKind kind, TileId tile, TileId peer = kNoTile,
               MessageId message = MessageId{kNoTile, 0});

    Topology topology_;
    GossipConfig config_;
    RngPool pool_;
    /// Rekeyed per (round, tile): a tile's port coins depend on nothing
    /// else (common/rng.hpp, contract v4).
    ForwardCoins forward_coins_;
    FaultInjector injector_;
    GalsClocks clocks_;

    std::vector<Tile> tiles_;
    /// Built by Context::rng() on a tile's first draw.
    std::vector<std::unique_ptr<RngStream>> app_rng_;
    std::vector<std::size_t> forward_capacity_;
    std::vector<RouteFilter> route_filter_;
    std::vector<double> clock_scale_;
    std::vector<double> next_action_round_;
    std::vector<TileId> protected_tiles_;
    CrashState crash_state_;
    bool started_{false};
    std::optional<std::size_t> forced_exact_crashes_;

    Round round_{0};
    // Rumors whose destination already has them (only tracked when
    // config_.stop_spread_on_delivery is set).
    std::unordered_set<MessageId> delivered_unicasts_;
    // Arrivals bucketed by arrival round, per destination tile.  A packet
    // sent in round r lands at r+1, or r+2 after a skew deferral, and a
    // slow-clock receive defers at most one round at a time — so a small
    // ring of reusable buckets replaces the old unordered_map<Round, ...>
    // (no hashing, no rehash, vector capacity survives across rounds).
    static constexpr std::size_t kInFlightRing = 4;
    std::array<std::vector<std::pair<TileId, Arrival>>, kInFlightRing> in_flight_;
    // Clean copies whose receiver already knew the rumor when they were
    // sent, per arrival round: they count as duplicates in the round they
    // would have been received and never enter a bucket.  Only while
    // elide_known_dups_, which the forward phase sets each round.
    std::array<std::size_t, kInFlightRing> known_dups_{};
    // Upsets to live tiles whose CRC drop was decided at send time, per
    // arrival round, under the same rule: they count as CRC drops in the
    // round they would have been received and never enter a bucket.
    std::array<std::size_t, kInFlightRing> known_crc_drops_{};
    bool elide_known_dups_{false};
    /// Most links into any one tile, parallel links counted: with every
    /// send buffer holding at most `held` rumors, no tile receives more
    /// than held * max_in_links_ copies in a round.
    std::size_t max_in_links_{0};
    std::vector<std::pair<TileId, Arrival>> arrivals_scratch_;
    // The forward phase's encoding of the held message it last had to
    // materialise for an upset; reset at every forward phase's start,
    // since send-buffer slots are reused across rounds.
    const HeldMessage* upset_source_{nullptr};
    std::vector<std::byte> upset_wire_;
    // The flip positions of the last upset that needed them, and the CRC
    // column table the sparse verdicts read (grown to the longest packet
    // sent).
    std::vector<std::size_t> flips_;
    SparseVerdicts sparse_verdicts_;
    NetworkMetrics metrics_;
    std::size_t packets_this_round_{0};
    TraceSink* trace_{nullptr};

    // --- The sparse schedule and its counters (DESIGN.md §12) ---------
    /// Live tiles with non-empty send buffers, ascending, unique.
    std::vector<TileId> active_;
    /// Tiles whose buffer went empty -> non-empty during the current
    /// phase; merged into active_ when the phase ends.
    std::vector<TileId> newly_active_;
    /// Live tiles hosting an IP core, ascending.
    std::vector<TileId> cores_;
    /// Tiles that took an inbox slot this receive phase.
    std::vector<TileId> backlog_touched_;
    /// Live tiles that ever held a given rumor.
    std::unordered_map<MessageId, std::size_t> knowers_;
    /// Send-buffer evictions so far vs. how many have been folded into
    /// metrics_.overflow_drops.  The fold runs in the age phase, so the
    /// metric trails the buffers by the part of a round after ageing.
    std::size_t evictions_seen_{0};
    std::size_t evictions_folded_{0};
    /// sigma_synchr > 0 (a duration draw is owed every round) or a
    /// clock-scale island exists (skew between domains can be non-zero):
    /// advance every tile's clock.  Otherwise all clocks stay equal,
    /// skew is 0 and elapsed time accumulates t_r per round.
    bool dense_clocks_{false};
    double elapsed_accum_{0.0};
};

} // namespace snoc
