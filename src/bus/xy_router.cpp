#include "bus/xy_router.hpp"

#include <algorithm>

#include "common/expect.hpp"
#include "common/prof.hpp"
#include "router/accounting.hpp"
#include "router/policy.hpp"
#include "router/ports.hpp"

namespace snoc {

std::vector<TileId> xy_route(const Topology& mesh, TileId src, TileId dst) {
    return router::dimension_order_path(mesh, src, dst);
}

namespace {

bool path_alive(const Topology& mesh, const std::vector<TileId>& path,
                const CrashState& crashes) {
    for (std::size_t i = 0; i < path.size(); ++i) {
        if (crashes.dead_tiles[path[i]]) return false;
        if (i + 1 < path.size() &&
            crashes.dead_links[router::link_between(mesh, path[i], path[i + 1])])
            return false;
    }
    return true;
}

/// The tile the packet dies at on a dead path: the first dead tile, or
/// the downstream endpoint of the first dead link.
TileId first_dead_tile(const Topology& mesh, const std::vector<TileId>& path,
                       const CrashState& crashes) {
    for (std::size_t i = 0; i < path.size(); ++i) {
        if (crashes.dead_tiles[path[i]]) return path[i];
        if (i + 1 < path.size() &&
            crashes.dead_links[router::link_between(mesh, path[i], path[i + 1])])
            return path[i + 1];
    }
    SNOC_ENSURE(false && "first_dead_tile on a live path");
    return path.back();
}

} // namespace

XyRunResult run_xy_trace(const Topology& mesh, const TrafficTrace& trace,
                         const CrashState& crashes, TraceSink* sink) {
    SNOC_PROF("xy/replay");
    using router::emit;
    SNOC_EXPECT(crashes.dead_tiles.size() == mesh.node_count());
    SNOC_EXPECT(crashes.dead_links.size() == mesh.link_count());
    XyRunResult result;
    std::vector<std::uint32_t> next_sequence(mesh.node_count(), 0);
    for (const auto& phase : trace.phases) {
        // Rounds accumulate across phases; hop h of this phase happens at
        // round base + h (the per-phase pipeline cost model).
        const auto base = static_cast<Round>(result.rounds);
        std::size_t longest = 0;
        for (const auto& m : phase.messages) {
            const auto path = xy_route(mesh, m.src, m.dst);
            const MessageId id{m.src, next_sequence[m.src]++};
            emit(sink, base, TraceEventKind::MessageCreated, m.src, kNoTile, id);
            if (!path_alive(mesh, path, crashes)) {
                ++result.lost;
                emit(sink, base, TraceEventKind::CrashDrop,
                     first_dead_tile(mesh, path, crashes), kNoTile, id);
                continue;
            }
            ++result.delivered;
            const std::size_t hops = path.size() - 1;
            if (sink) {
                for (std::size_t h = 0; h < hops; ++h)
                    emit(sink, base + static_cast<Round>(h),
                         TraceEventKind::Transmitted, path[h], path[h + 1], id);
                emit(sink, base + static_cast<Round>(hops),
                     TraceEventKind::Delivered, m.dst, kNoTile, id);
            }
            longest = std::max(longest, hops);
            result.hops += hops;
            result.bits += m.bits * hops;
        }
        result.rounds += longest;
    }
    return result;
}

} // namespace snoc
