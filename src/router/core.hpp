// The layered router core: one per-tile switch pipeline composed from
// the orthogonal stages of this module —
//
//   ports       (router/ports.hpp — the Topology's port vocabulary)
//   policy      (router/policy.hpp — where may a packet go next)
//   arbitration (router/arbiter.hpp — who wins a contended output)
//   accounting  (router/accounting.hpp — counters + trace events)
//
// — plus the flow-control schemes implemented here: store-and-forward
// (a packet is re-transmitted only after it has fully arrived; per-hop
// latency = the full serialization time) and virtual cut-through (the
// header may be switched one cycle after it arrives, with the tail
// streaming behind; per-hop latency ~ 1 cycle, the tail trailing by the
// packet length).  Wormhole flit streaming (src/wormhole) and bufferless
// deflection (src/bus/deflection.*) are the other two flow-control
// schemes of the zoo; they compose the same stages around their own
// buffering rules.
//
// The core is packet-granular and cycle-timed, and fully deterministic:
// no RNG, ascending tile/port scans, rotating arbiters (DESIGN.md §13
// states the stage contracts).
#pragma once

#include <cstdint>
#include <deque>
#include <iterator>
#include <memory>
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

namespace snoc::router {

/// The flow-control schemes the core implements directly.  (The other
/// members of the zoo — wormhole flit streaming, bufferless deflection —
/// live in their own modules on the same stages.)
#define SNOC_FLOW_CONTROL_LIST(X)                                              \
    X(StoreAndForward, "store-and-forward") /* forward only complete packets */\
    X(CutThrough, "cut-through")            /* forward once the header lands */

enum class FlowControl : std::uint8_t {
#define SNOC_FLOW_CONTROL_ENUM(name, str) name,
    SNOC_FLOW_CONTROL_LIST(SNOC_FLOW_CONTROL_ENUM)
#undef SNOC_FLOW_CONTROL_ENUM
};

inline constexpr const char* kFlowControlNames[] = {
#define SNOC_FLOW_CONTROL_NAME(name, str) str,
    SNOC_FLOW_CONTROL_LIST(SNOC_FLOW_CONTROL_NAME)
#undef SNOC_FLOW_CONTROL_NAME
};

constexpr const char* to_string(FlowControl f) {
    const auto i = static_cast<std::size_t>(f);
    return i < std::size(kFlowControlNames) ? kFlowControlNames[i] : "?";
}

struct RouterConfig {
    FlowControl flow{FlowControl::StoreAndForward};
    PolicyKind policy{PolicyKind::DimensionOrder};
    std::size_t flits_per_packet{5}; ///< link serialization time, cycles/hop.
    std::size_t buffer_packets{4};   ///< input-FIFO capacity, in packets.
    std::size_t max_hops{256};       ///< hop budget (detour livelock guard).
    /// DeadlockSentinel watchdog: consecutive zero-progress cycles (with
    /// packets outstanding) before the sentinel fires.  0 = auto, sized so
    /// every in-flight tail has time to finish streaming first.  The
    /// sentinel is compiled out entirely at SNOC_CHECK_LEVEL 0.
    std::size_t stall_limit{0};
    /// Set when static analysis (snoc_verify) proved this configuration's
    /// channel dependency graph acyclic: the sentinel firing anyway is
    /// then an invariant violation, not a telemetry event, and throws
    /// ContractViolation.
    bool expect_deadlock_free{false};

    void validate() const;
};

/// A mesh of identical routers, stepped one link cycle at a time.
class RouterCore {
public:
    RouterCore(Topology topo, RouterConfig config);
    /// Wire an explicit policy object instead of make_policy(config.policy)
    /// — how snoc_verify's mutation probes run deliberately-broken turn
    /// sets through the real pipeline.  `policy` must not be null.
    RouterCore(Topology topo, RouterConfig config,
               std::unique_ptr<const RoutingPolicy> policy);

    /// Apply a crash pattern: dead tiles accept nothing (injections at
    /// them crash-drop immediately), dead links carry nothing.
    void apply_crashes(const CrashState& crashes);

    /// Queue a packet at `source`'s injection port (one packet enters the
    /// local input FIFO per cycle as space frees up).
    std::uint32_t inject(TileId source, TileId destination, std::size_t bits);

    /// Advance one link cycle: injection, head-of-line fate resolution
    /// (crash / TTL drops), per-output switch arbitration, then the moves.
    void step();
    void run(std::size_t cycles);

    std::size_t cycle() const { return cycle_; }
    std::size_t delivered() const { return delivered_; }
    std::size_t dropped() const { return dropped_; }
    /// Packets injected but not yet delivered or dropped.
    std::size_t in_flight() const { return outstanding_; }
    bool idle() const { return outstanding_ == 0; }

    /// DeadlockSentinel observables (always false/0 in a level-0 build):
    /// the watchdog fires after `stall_limit` consecutive cycles with
    /// packets outstanding and zero progress — no admission, no move, no
    /// ejection, no drop.  run() stops stepping once it has fired.
    bool sentinel_fired() const { return sentinel_fired_; }
    /// Current zero-progress streak (resets whenever anything moves).
    std::size_t stalled_cycles() const { return stalled_cycles_; }
    /// The resolved watchdog threshold (config value, or the auto size).
    std::size_t stall_limit() const { return stall_limit_; }

    const std::vector<PacketRecord>& records() const { return records_; }
    const Topology& topology() const { return topo_; }
    const RouterConfig& config() const { return config_; }
    const RoutingPolicy& policy() const { return routes_.policy(); }

    /// Full shared-accounting metrics (per-round/tile/link histograms
    /// included); rounds are link cycles.
    const NetworkMetrics& metrics() const { return accounting_.metrics(); }
    void set_trace_sink(TraceSink* sink) { accounting_.set_trace_sink(sink); }

    /// The rotating arbiter at (tile, output); output indexes follow the
    /// neighbour list with the ejection port last.  Slot indexes are the
    /// input ports, local injection last — the fairness observables the
    /// starvation-freedom stress test reads.
    const RotatingArbiter& arbiter(TileId t, std::size_t output) const;

private:
    /// Why a buffered packet must drop once it heads its FIFO.  Its hop
    /// count, route and the crash pattern are all fixed while it waits,
    /// so the verdict is taken once, on arrival.
    enum class Fate : std::uint8_t { Live, Ttl, Crash };

    /// One packet resident in (or streaming into) an input FIFO.
    struct Buffered {
        std::uint32_t id{0};
        TileId destination{0};
        std::size_t head_at{0};  ///< cycle the header arrived.
        std::size_t full_at{0};  ///< cycle the tail arrived / arrives.
        /// The policy's candidates at this hop that lead to a live tile
        /// over a live link, read from the RouteTable on arrival.
        PortList route;
        Fate fate{Fate::Live};
    };
    /// Per-input FIFO state over the flat ring storage.
    struct Ring {
        std::uint32_t head{0};
        std::uint32_t size{0};
    };
    /// A switch grant of the current cycle, applied after arbitration.
    struct Move {
        TileId tile;
        std::size_t in_port;
        std::size_t out;
        bool eject;
    };
    /// No output chosen (decide_head's "this head requests nothing").
    static constexpr std::uint8_t kNoOutput = 0xFF;

    std::size_t local_port(TileId t) const { return ports_.degree(t); }
    std::size_t eject_port(TileId t) const { return ports_.degree(t); }

    const Buffered& front(std::size_t slot) const {
        return ring_[slot * config_.buffer_packets + fifo_[slot].head];
    }
    /// Remove and return the head of input FIFO `ip` of tile `t`.
    Buffered pop(TileId t, std::size_t ip);
    /// Append `packet` to input FIFO `ip` of tile `t`.
    void push(TileId t, std::size_t ip, const Buffered& packet);

    bool head_ready(const Buffered& head) const;
    /// `id` entering input FIFO `in_port` of `t`, its route cached and
    /// its fate decided.
    Buffered arrival(std::uint32_t id, TileId t, std::size_t in_port,
                     std::size_t head_at, std::size_t full_at);
    /// First available candidate output for `head` at `t`: route order,
    /// filtered by link occupancy and downstream buffer space, counting
    /// the slot an output granted earlier this cycle (`granted` bit c)
    /// has committed at its downstream FIFO.
    std::uint8_t choose_output(TileId t, const Buffered& head,
                               std::uint32_t granted) const;
    /// The output the head of non-empty input `ip` at `t` requests at the
    /// start of this cycle's arbitration, or kNoOutput.
    std::uint8_t decide_head(TileId t, std::size_t ip) const;
    /// Drop the doomed head of input FIFO `ip` of tile `t`.
    void drop_head(TileId t, std::size_t ip);

    /// The four stages of step(), in order; inject_stage returns the
    /// packets admitted.
    std::size_t inject_stage();
    void fate_stage();
    void arbitrate_stage();
    void move_stage();

    Topology topo_;
    RouterConfig config_;
    PortTable ports_;
    RouteTable routes_;
    std::vector<bool> dead_tiles_;

    /// Every input FIFO as a ring of buffer_packets entries, in one array
    /// ([slot * buffer_packets + i], slots as in PortTable).
    std::vector<Buffered> ring_;
    std::vector<Ring> fifo_;                          ///< [slot].
    /// Per tile, bit ip set while input FIFO ip holds a packet: the stages
    /// visit only occupied inputs, and skip a tile whose mask is 0.
    std::vector<std::uint32_t> occupied_;
    /// Buffered packets whose fate is a drop, per tile and in total: the
    /// fate stage visits only the tiles that hold one.
    std::vector<std::size_t> doomed_;
    std::size_t doomed_total_{0};
    std::vector<RotatingArbiter> arbiters_;           ///< [slot of output].
    std::vector<std::size_t> link_free_at_;           ///< [link slot].
    std::vector<std::deque<std::uint32_t>> pending_;  ///< injection queues.
    /// This cycle's grants, reused so a cycle never allocates.
    std::vector<Move> moves_;

    std::vector<PacketRecord> records_;
    std::size_t cycle_{0};
    std::size_t delivered_{0};
    std::size_t dropped_{0};
    std::size_t outstanding_{0};
    std::size_t stall_limit_{0};    ///< resolved watchdog threshold.
    std::size_t stalled_cycles_{0}; ///< current zero-progress streak.
    bool sentinel_fired_{false};
    Accounting accounting_;
};

} // namespace snoc::router
