#include "bus/bus.hpp"

#include <algorithm>
#include <deque>

#include "common/expect.hpp"
#include "common/prof.hpp"

namespace snoc {

namespace {

void emit(TraceSink* sink, Round round, TraceEventKind kind, TileId tile,
          TileId peer, MessageId id) {
    if (!sink) return;
    TraceEvent event;
    event.round = round;
    event.kind = kind;
    event.tile = tile;
    event.peer = peer;
    event.message = id;
    sink->record(event);
}

} // namespace

SharedBus::SharedBus(std::size_t modules, Technology tech)
    : modules_(modules), tech_(tech) {
    SNOC_EXPECT(modules > 0);
    SNOC_EXPECT(tech.bus_frequency_hz > 0.0);
}

BusRunResult SharedBus::run(const TrafficTrace& trace) {
    SNOC_PROF("bus/run");
    BusRunResult result;
    // Message ids for tracing: origin = source module, sequence = that
    // module's injection count, mirroring the gossip engine's scheme.
    std::vector<std::uint32_t> next_sequence(modules_, 0);
    if (!alive_) {
        // completed == false; every offered message sinks into the dead
        // medium (the single point of failure made visible in the trace).
        for (std::size_t p = 0; p < trace.phases.size(); ++p) {
            for (const auto& m : trace.phases[p].messages) {
                const MessageId id{m.src, next_sequence[m.src]++};
                const auto round = static_cast<Round>(p);
                emit(trace_, round, TraceEventKind::MessageCreated, m.src,
                     kNoTile, id);
                emit(trace_, round, TraceEventKind::CrashDrop, m.src, kNoTile,
                     id);
            }
        }
        return result;
    }

    RoundRobinArbiter arbiter(modules_);
    for (std::size_t p = 0; p < trace.phases.size(); ++p) {
        const auto& phase = trace.phases[p];
        const auto round = static_cast<Round>(p);
        // Per-module FIFO of pending transfers for this phase.
        std::vector<std::deque<std::pair<const LogicalMessage*, MessageId>>>
            pending(modules_);
        std::size_t remaining = 0;
        for (const auto& m : phase.messages) {
            SNOC_EXPECT(m.src < modules_);
            const MessageId id{m.src, next_sequence[m.src]++};
            pending[m.src].emplace_back(&m, id);
            emit(trace_, round, TraceEventKind::MessageCreated, m.src, kNoTile,
                 id);
            ++remaining;
        }
        std::vector<std::size_t> waited(modules_, 0);
        while (remaining > 0) {
            std::vector<bool> requests(modules_, false);
            for (std::size_t i = 0; i < modules_; ++i)
                requests[i] = !pending[i].empty();
            const auto winner = arbiter.grant(requests);
            SNOC_EXPECT(winner.has_value());
            const auto [m, id] = pending[*winner].front();
            pending[*winner].pop_front();
            --remaining;

            result.seconds += static_cast<double>(m->bits) / tech_.bus_frequency_hz;
            result.bits += m->bits;
            ++result.transfers;
            emit(trace_, round, TraceEventKind::Transmitted, m->src, m->dst, id);
            emit(trace_, round, TraceEventKind::Delivered, m->dst, kNoTile, id);
            for (std::size_t i = 0; i < modules_; ++i)
                if (i != *winner && requests[i]) ++waited[i];
        }
        result.max_wait_grants = std::max(
            result.max_wait_grants,
            static_cast<std::size_t>(*std::max_element(waited.begin(), waited.end())));
    }
    result.joules = static_cast<double>(result.bits) * tech_.bus_ebit_joules;
    result.completed = true;
    return result;
}

} // namespace snoc
