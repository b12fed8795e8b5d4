// Flit-level wormhole-routed mesh — the conventional NoC the thesis
// declines to build ("the cost of implementing adaptive dynamic routing
// for the on-chip networks is prohibitive because of the need for very
// large buffers, lookup tables and complex shortest-path algorithms",
// Ch. 1, after Ni & McKinley [35]).  We build it anyway, as the strongest
// deterministic baseline:
//
//   * packets are segmented into flits (head / body / tail);
//   * dimension-ordered (XY) routing, which is deadlock-free on a mesh;
//   * per-input virtual channels with credit-based flow control;
//   * one switch traversal per output port per cycle, round-robin
//     arbitration between competing VCs.
//
// The simulator is cycle-driven (a cycle here is a link cycle, not a
// gossip round).  It reports per-packet latency, throughput and what
// happens when a router dies mid-worm: the worm blocks and everything
// behind it backs up — the failure mode stochastic communication avoids.
// A wedged network is a fixed point: once a step() changes nothing, every
// later step() only advances the clock until the next inject(), so a
// blocked worm costs O(1) per cycle left to the cap.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "common/types.hpp"
#include "fault/injector.hpp"
#include "noc/topology.hpp"
#include "router/accounting.hpp"
#include "router/arbiter.hpp"
#include "router/policy.hpp"
#include "router/ports.hpp"
#include "router/route_table.hpp"
#include "sim/trace.hpp"

namespace snoc::wormhole {

/// Routing function.  Xy is fully deterministic; WestFirst is the classic
/// Glass-Ni partially-adaptive turn model: all westward hops happen first
/// (turns *into* west are prohibited — deadlock-free), and the remaining
/// minimal directions are chosen adaptively, which lets a worm steer
/// around congestion or a dead router when a productive alternative exists.
/// Both are the shared routing-policy stage of the layered router core
/// (router/policy.hpp); this enum keeps the wormhole-facing vocabulary.
enum class Routing : std::uint8_t { Xy, WestFirst };

constexpr const char* to_string(Routing r) {
    switch (r) {
    case Routing::Xy: return "xy";
    case Routing::WestFirst: return "west-first";
    }
    return "?";
}

constexpr router::PolicyKind policy_kind(Routing r) {
    return r == Routing::Xy ? router::PolicyKind::DimensionOrder
                            : router::PolicyKind::WestFirst;
}

struct Config {
    std::size_t vcs_per_port{2};      ///< virtual channels per input port.
    std::size_t vc_buffer_flits{4};   ///< buffer depth per VC (credits).
    std::size_t flits_per_packet{5};  ///< 1 head + body + 1 tail.
    Routing routing{Routing::Xy};

    void validate() const;
};

struct Flit {
    enum class Kind : std::uint8_t { Head, Body, Tail };
    Kind kind{Kind::Body};
    std::uint32_t packet{0};  ///< packet id.
    TileId destination{0};    ///< carried by every flit for simplicity.
};

/// The whole mesh of routers, simulated cycle by cycle.
class Network {
public:
    Network(std::size_t width, std::size_t height, Config config);

    /// Queue a `bits`-bit packet for injection at `source`'s network
    /// interface in the current cycle (actual injection occurs as VCs
    /// free up).  At a dead source it is crash-dropped at once.
    std::uint32_t inject(TileId source, TileId destination, std::size_t bits);

    /// Apply a crash pattern: flits routed through a dead router stall
    /// forever (wormhole's characteristic failure).  Links never fail.
    void apply_crashes(const CrashState& crashes);

    /// Advance one link cycle.  Returns false when the cycle changed
    /// nothing — no flit injected, no head routed, no flit moved.  The
    /// network is then at a fixed point: arbiters rotate only on a grant
    /// and no wormhole state reads the clock, so every later step() only
    /// advances the clock, without simulating, until the next inject().
    bool step();
    void run(std::size_t cycles);

    std::size_t cycle() const { return cycle_; }
    std::size_t delivered() const { return delivered_; }
    /// Total link traversals performed by flits (ejections excluded) —
    /// the wire-traffic measure the unified RunReport's energy model uses.
    std::size_t flit_hops() const { return flit_hops_; }
    /// Packets injected at a dead source; a blocked worm stays in flight.
    std::size_t dropped() const { return dropped_; }
    std::size_t injected() const { return records_.size(); }
    /// Packets injected but neither delivered nor dropped (in flight or
    /// blocked).
    std::size_t in_flight() const { return records_.size() - delivered_ - dropped_; }
    /// One record per injected packet; wormhole leaves `hops` at zero and
    /// drops only a packet injected at a dead source.
    /// A delivered packet's latency is delivered_cycle - injected_cycle
    /// (injection to tail ejection, in cycles).
    const std::vector<router::PacketRecord>& records() const { return records_; }
    const Topology& topology() const { return topo_; }

    /// Attach a flight recorder (not owned; nullptr detaches).  Rounds are
    /// link cycles; message ids are {source, packet id}; one Transmitted
    /// per flit hop, one Delivered when the tail flit ejects, one
    /// CrashDrop for a packet injected at a dead source.
    void set_trace_sink(TraceSink* sink) { trace_ = sink; }

private:
    static constexpr std::uint32_t kNoPacket = UINT32_MAX;
    static constexpr std::uint8_t kUnrouted = 0xFF;

    /// One virtual channel: a ring of vc_buffer_flits flits in flits_, the
    /// route lock of the worm passing through and its exclusive owner.
    struct VirtualChannel {
        std::uint32_t head{0}; ///< ring index of the front flit.
        std::uint32_t size{0}; ///< flits buffered.
        // Exclusive ownership: the worm currently allocated to write into
        // this VC.  Set when an upstream head (or the local injector)
        // claims the VC, cleared when that worm's tail flit departs —
        // flits of two worms never interleave in one buffer.
        std::uint32_t reserved_for{kNoPacket};
        // Route state: locked output port + output VC while a worm passes.
        std::uint8_t out_port{kUnrouted};
        std::uint8_t out_vc{0};
        /// The routing candidates of the worm's head, read once when it
        /// lands here, so a blocked head never asks again.
        router::PortList route;
    };

    std::size_t port_count(TileId t) const { return ports_.degree(t) + 1; }
    std::size_t local_port(TileId t) const { return ports_.degree(t); }
    /// Flat index of VC `vc` of port slot `slot` (PortTable numbering).
    std::size_t vc_index(std::size_t slot, std::size_t vc) const {
        return slot * config_.vcs_per_port + vc;
    }
    /// Flat index of tile t's first VC; VC base + s is arbiter slot s.
    std::size_t vc_base(TileId t) const { return vc_index(ports_.slot(t, 0), 0); }
    const Flit& front(std::size_t v) const {
        return flits_[v * config_.vc_buffer_flits + vcs_[v].head];
    }
    /// Append `flit` to VC `v` of tile `t` (a head's route is cached).
    void push(TileId t, std::size_t v, const Flit& flit);
    /// Remove and return the front flit of VC `v` of tile `t`.
    Flit pop(TileId t, std::size_t v);
    /// Credits available on the (neighbour, its input port from t, vc).
    std::size_t downstream_space(TileId t, std::size_t out_port, std::size_t vc) const;

    Topology topo_;
    Config config_;
    router::PortTable ports_;
    /// Never reset: the wormhole router is fault-oblivious at the policy
    /// level (a dead router refuses credits instead), so its routes see
    /// no crash state.
    router::RouteTable routes_;
    /// Every VC of every input port, flat ([vc_index(slot, vc)]), and
    /// their flit rings in one array ([v * vc_buffer_flits + i]).
    std::vector<VirtualChannel> vcs_;
    std::vector<Flit> flits_;
    /// Per tile, bit s set while arbiter slot s (input port s / vcs, VC
    /// s % vcs) buffers a flit: an empty VC requests nothing, and a tile
    /// whose mask is 0 is skipped.
    std::vector<std::uint64_t> occupied_;
    /// Input port of each arbiter slot, so the arbiter never divides.
    std::vector<std::uint8_t> slot_port_;
    std::vector<bool> dead_;
    std::size_t cycle_{0};
    std::uint32_t next_packet_{0};
    std::size_t delivered_{0};
    std::size_t flit_hops_{0};
    std::vector<router::PacketRecord> records_;
    // Pending injections per tile (packets waiting for a free local VC).
    std::vector<std::deque<std::uint32_t>> injection_queues_;
    // Per-tile flit-generation progress for the worm under injection.
    struct InjectState {
        std::optional<std::uint32_t> packet;
        std::size_t generated{0};
        std::size_t vc{0};
    };
    std::vector<InjectState> inject_state_;
    // Rotating-priority arbiter per (tile, output port incl. eject) over
    // the (input port, VC) slots — the shared arbitration stage.
    std::vector<router::RotatingArbiter> arbiters_; ///< [slot of output].
    TraceSink* trace_{nullptr};
    /// The last step() changed nothing and no packet was injected since:
    /// step() only advances the clock.
    bool frozen_{false};

    /// A switch grant of the current cycle, applied after allocation.
    struct Move {
        TileId tile;
        std::uint32_t from; ///< flat VC index of the granted flit.
        bool eject{false};
        std::uint8_t out_port{0};
        std::uint8_t out_vc{0};
    };
    /// This cycle's grants, reserved for one per output so a cycle never
    /// allocates.
    std::vector<Move> moves_;
    std::size_t dropped_{0}; ///< packets injected at a dead source.

    void trace_event(TraceEventKind kind, TileId tile, TileId peer,
                     std::uint32_t packet);
};

/// Offered-load experiment: Bernoulli packet injection at every tile with
/// uniformly random destinations; reports average latency and accepted
/// throughput (flits/tile/cycle).  The classic saturation-curve harness.
/// Every figure is over the packets injected in the `measure_cycles`
/// after `warmup_cycles`, followed through a bounded drain.
struct LoadPoint {
    double offered_load{0.0};   ///< injection probability per tile per cycle.
    double avg_latency{0.0};    ///< cycles (delivered packets only).
    double throughput{0.0};     ///< delivered flits / tile / measured cycle.
    double delivered_fraction{0.0};
};

LoadPoint run_uniform_load(std::size_t side, const Config& config, double offered_load,
                           std::size_t warmup_cycles, std::size_t measure_cycles,
                           std::uint64_t seed);

} // namespace snoc::wormhole
