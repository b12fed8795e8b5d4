// Deflection (hot-potato) routing — the bufferless middle ground between
// deterministic XY and stochastic gossip.  Every packet in a router must
// leave on *some* output every cycle: productive ports are preferred, and
// when contention or a dead neighbour blocks them the packet is deflected
// onto any free port.  No buffers, no retransmissions — misrouting plays
// the role buffering plays elsewhere.
//
// Included as a third routing baseline for the ablations: deflection
// tolerates crashes better than XY (it can walk around a corpse by
// accident) but offers no delivery guarantee and can livelock; gossip
// turns both problems into probability.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "fault/injector.hpp"
#include "noc/topology.hpp"
#include "router/accounting.hpp"
#include "router/route_table.hpp"
#include "sim/trace.hpp"

namespace snoc::deflection {

struct Config {
    std::size_t max_hops{256};  ///< hop budget before a packet is dropped.
};

class Network {
public:
    Network(std::size_t width, std::size_t height, Config config, std::uint64_t seed);

    /// Apply a crash pattern: packets never enter dead tiles.
    void apply_crashes(const CrashState& crashes);

    /// A `bits`-bit packet enters at `source` this cycle; returns its id.
    /// At a dead source it is crash-dropped at once.
    std::uint32_t inject(TileId source, TileId destination, std::size_t bits);
    void step();
    void run(std::size_t cycles);

    std::size_t cycle() const { return cycle_; }
    std::size_t delivered() const { return delivered_; }
    std::size_t dropped() const { return dropped_; }
    std::size_t in_flight() const;
    /// One record per injected packet; `dropped` means it was injected
    /// at a dead source or the hop budget ran out (the livelock guard).
    const std::vector<router::PacketRecord>& records() const { return records_; }

    /// Attach a flight recorder (not owned; nullptr detaches).  Rounds are
    /// cycles; one Transmitted per link traversal (a walled-in stall burns
    /// hop budget without one), Delivered on arrival, TtlExpired when the
    /// hop budget — deflection's TTL analogue — runs out, CrashDrop for a
    /// packet injected at a dead source.
    void set_trace_sink(TraceSink* sink) { trace_ = sink; }

private:
    struct Moving {
        std::uint32_t id{0};
        TileId at{0};
    };

    Topology topo_;
    Config config_;
    RngStream rng_;
    std::vector<bool> dead_;
    /// Productive ports, keyed by the local input port (the policy
    /// ignores upstream) and filtered by dead tiles only.
    router::RouteTable productive_;
    std::vector<Moving> flying_;
    /// Per-cycle scratch, reused so a cycle never allocates: the flying_
    /// indexes resident at each tile, the occupied tiles, the survivors,
    /// and the output ports taken / free at the tile being routed.
    std::vector<std::vector<std::size_t>> residents_;
    std::vector<TileId> occupied_;
    std::vector<Moving> next_;
    std::vector<bool> port_used_;
    std::vector<std::size_t> free_ports_;
    std::vector<router::PacketRecord> records_;
    std::size_t cycle_{0};
    std::size_t delivered_{0};
    std::size_t dropped_{0};
    TraceSink* trace_{nullptr};

    void trace_event(TraceEventKind kind, TileId tile, TileId peer,
                     const router::PacketRecord& rec);
};

} // namespace snoc::deflection
