#include "check/invariant_auditor.hpp"

#include <cmath>
#include <numeric>
#include <sstream>

#include "common/expect.hpp"
#include "common/postmortem.hpp"
#include "core/engine.hpp"
#include "router/core.hpp"

namespace snoc::check {

namespace {

std::size_t sum(const std::vector<std::size_t>& v) {
    return std::accumulate(v.begin(), v.end(), std::size_t{0});
}

} // namespace

void InvariantAuditor::begin_run(std::string label) {
    label_ = std::move(label);
    have_snapshot_ = false;
    last_ = CounterSnapshot{};
    last_ttl_.clear();
}

void InvariantAuditor::violate(const char* invariant, std::string detail) {
    ++total_violations_;
    if (violations_.size() >= kMaxStoredViolations) return;
    if (!label_.empty()) detail = "[" + label_ + "] " + detail;
    // First stored violation wakes any armed flight recorder: auditors
    // often only *count* (throw_if_dirty comes much later, if ever), and
    // the event history around the violating round is worth preserving
    // the moment the law breaks, not at end of run.
    postmortem::notify(invariant, detail);
    violations_.push_back(Violation{invariant, std::move(detail)});
}

void InvariantAuditor::check_conservation(const ConservationLedger& ledger) {
    if (ledger.wire_imbalance() != 0)
        violate("wire-conservation", ledger.to_string());
    if (ledger.buffer_imbalance() != 0)
        violate("buffer-conservation", ledger.to_string());
}

void InvariantAuditor::check_occupancy(TileId tile, std::size_t size,
                                       std::size_t capacity) {
    if (size > capacity) {
        std::ostringstream os;
        os << "tile " << tile << " holds " << size << " > capacity " << capacity;
        violate("occupancy", os.str());
    }
}

void InvariantAuditor::check_metrics(const NetworkMetrics& metrics,
                                     bool include_round_histogram) {
    if (!metrics.bits_sent_by_tile.empty() &&
        sum(metrics.bits_sent_by_tile) != metrics.bits_sent) {
        std::ostringstream os;
        os << "sum(bits_sent_by_tile)=" << sum(metrics.bits_sent_by_tile)
           << " != bits_sent=" << metrics.bits_sent;
        violate("per-tile-bits", os.str());
    }
    if (!metrics.packets_by_link.empty() &&
        sum(metrics.packets_by_link) != metrics.packets_sent) {
        std::ostringstream os;
        os << "sum(packets_by_link)=" << sum(metrics.packets_by_link)
           << " != packets_sent=" << metrics.packets_sent;
        violate("per-link-packets", os.str());
    }
    // Receive-side overflow drops are a slice of the total overflow count.
    if (metrics.port_overflow_drops > metrics.overflow_drops) {
        std::ostringstream os;
        os << "port_overflow_drops=" << metrics.port_overflow_drops
           << " > overflow_drops=" << metrics.overflow_drops;
        violate("overflow-taxonomy", os.str());
    }
    // Every transmitted bit belongs to a packet (and vice versa).
    if ((metrics.packets_sent == 0) != (metrics.bits_sent == 0)) {
        std::ostringstream os;
        os << "packets_sent=" << metrics.packets_sent
           << " inconsistent with bits_sent=" << metrics.bits_sent;
        violate("bits-vs-packets", os.str());
    }
    // O(rounds) — end-of-run only, or it turns per-round audits quadratic.
    if (include_round_histogram &&
        sum(metrics.packets_per_round) != metrics.packets_sent) {
        std::ostringstream os;
        os << "sum(packets_per_round)=" << sum(metrics.packets_per_round)
           << " != packets_sent=" << metrics.packets_sent;
        violate("round-histogram", os.str());
    }
}

void InvariantAuditor::check_monotonic(const CounterSnapshot& now) {
    if (have_snapshot_) {
        const auto mono = [&](std::size_t prev, std::size_t cur, const char* name) {
            if (cur < prev) {
                std::ostringstream os;
                os << name << " decreased: " << prev << " -> " << cur;
                violate("counter-monotonicity", os.str());
            }
        };
        mono(last_.rounds, now.rounds, "rounds");
        mono(last_.packets_sent, now.packets_sent, "packets_sent");
        mono(last_.bits_sent, now.bits_sent, "bits_sent");
        mono(last_.messages_created, now.messages_created, "messages_created");
        mono(last_.deliveries, now.deliveries, "deliveries");
        mono(last_.duplicates_ignored, now.duplicates_ignored, "duplicates_ignored");
        mono(last_.crc_drops, now.crc_drops, "crc_drops");
        mono(last_.overflow_drops, now.overflow_drops, "overflow_drops");
        mono(last_.ttl_expired, now.ttl_expired, "ttl_expired");
        mono(last_.crash_drops, now.crash_drops, "crash_drops");
        mono(last_.port_overflow_drops, now.port_overflow_drops, "port_overflow_drops");
        mono(last_.packets_accepted, now.packets_accepted, "packets_accepted");
        mono(last_.fec_uncorrectable, now.fec_uncorrectable, "fec_uncorrectable");
        mono(last_.skew_deferrals, now.skew_deferrals, "skew_deferrals");
        mono(last_.upsets_undetected, now.upsets_undetected, "upsets_undetected");
        mono(last_.fec_corrected, now.fec_corrected, "fec_corrected");
    }
    last_ = now;
    have_snapshot_ = true;
}

void InvariantAuditor::check_round(const GossipNetwork& net) {
    ++rounds_audited_;
    check_conservation(net.ledger());
    // Skipping idle tiles is sound iff the active list is exactly the
    // live tiles with non-empty send buffers.
    if (!net.active_set_consistent())
        violate("active-set",
                "active-tile list diverged from live non-empty send buffers");

    const auto& m = net.metrics();
    check_metrics(m, /*include_round_histogram=*/false);

    CounterSnapshot now;
    now.rounds = m.rounds;
    now.packets_sent = m.packets_sent;
    now.bits_sent = m.bits_sent;
    now.messages_created = m.messages_created;
    now.deliveries = m.deliveries;
    now.duplicates_ignored = m.duplicates_ignored;
    now.crc_drops = m.crc_drops;
    now.overflow_drops = m.overflow_drops;
    now.ttl_expired = m.ttl_expired;
    now.crash_drops = m.crash_drops;
    now.port_overflow_drops = m.port_overflow_drops;
    now.packets_accepted = m.packets_accepted;
    now.fec_uncorrectable = m.fec_uncorrectable;
    now.skew_deferrals = m.skew_deferrals;
    now.upsets_undetected = m.upsets_undetected;
    now.fec_corrected = m.fec_corrected;
    check_monotonic(now);

    const std::size_t tiles = net.topology().node_count();
    if (last_ttl_.size() != tiles) {
        last_ttl_.clear();
        last_ttl_.resize(tiles);
    }
    const std::size_t capacity = net.config().send_buffer_capacity;
    for (TileId t = 0; t < tiles; ++t) {
        const SendBuffer& buf = net.send_buffer(t);
        check_occupancy(t, buf.size(), capacity);
        auto& seen = last_ttl_[t];
        for (const HeldMessage& msg : buf.messages()) {
            if (msg.ttl == 0) {
                std::ostringstream os;
                os << "tile " << t << " buffers a TTL-0 message after ageing";
                violate("ttl-liveness", os.str());
            }
            // A rumor's TTL only ever decreases while a tile holds it —
            // re-receiving a fresher copy must not resurrect it.
            auto it = seen.find(msg.id());
            if (it != seen.end() && msg.ttl > it->second) {
                std::ostringstream os;
                os << "tile " << t << " message {" << msg.id().origin << ","
                   << msg.id().sequence << "} TTL grew " << it->second << " -> "
                   << msg.ttl;
                violate("ttl-monotonicity", os.str());
                it->second = msg.ttl;
            } else if (it != seen.end()) {
                it->second = msg.ttl;
            } else {
                seen.emplace(msg.id(), msg.ttl);
            }
        }
    }
}

void InvariantAuditor::check_final(const GossipNetwork& net) {
    check_round(net);
    // The full per-round traffic histogram is only worth summing once.
    check_metrics(net.metrics(), /*include_round_histogram=*/true);
}

void InvariantAuditor::check_report(const RunReport& report, BackendKind kind,
                                    const TrafficTrace* trace, Round limit) {
    const auto bad = [&](const char* invariant, const std::string& detail) {
        violate(invariant, std::string(to_string(kind)) + ": " + detail);
    };
    if (report.attempts < 1) bad("report-attempts", "attempts == 0");
    if (!(std::isfinite(report.seconds) && report.seconds >= 0.0)) {
        std::ostringstream os;
        os << "seconds=" << report.seconds;
        bad("report-time", os.str());
    }
    if (!(std::isfinite(report.joules) && report.joules >= 0.0)) {
        std::ostringstream os;
        os << "joules=" << report.joules;
        bad("report-energy", os.str());
    }
    if (report.transmissions == 0 && report.bits != 0) {
        std::ostringstream os;
        os << "bits=" << report.bits << " with zero transmissions";
        bad("report-bits", os.str());
    }
    if (trace != nullptr) {
        // run(trace, limit) reports logical trace-level delivery accounting.
        // (App-driven run_until reports raw engine counters, where per-tile
        // broadcast deliveries can legitimately exceed messages offered.)
        if (report.messages != trace->message_count()) {
            std::ostringstream os;
            os << "messages=" << report.messages
               << " != trace offers " << trace->message_count();
            bad("report-offered", os.str());
        }
        if (report.deliveries > report.messages) {
            std::ostringstream os;
            os << "deliveries=" << report.deliveries
               << " > messages=" << report.messages;
            bad("report-deliveries", os.str());
        }
        if (report.deliveries + report.dropped != report.messages) {
            std::ostringstream os;
            os << "deliveries=" << report.deliveries << " + dropped="
               << report.dropped << " != messages=" << report.messages;
            bad("report-fate", os.str());
        }
        if (report.completed && report.deliveries != report.messages) {
            std::ostringstream os;
            os << "completed with deliveries=" << report.deliveries
               << " != messages=" << report.messages;
            bad("report-completion", os.str());
        }
    }
    if (limit > 0 && report.rounds > limit) {
        std::ostringstream os;
        os << "rounds=" << report.rounds << " > budget=" << limit;
        bad("report-budget", os.str());
    }
    // Backends that fill the full NetworkMetrics taxonomy (the gossip
    // engine and the router-core backends, whose shared accounting stage
    // maintains every histogram) get the structural-consistency laws too.
    if (kind == BackendKind::Gossip || kind == BackendKind::StoreForward ||
        kind == BackendKind::CutThrough || kind == BackendKind::Adaptive)
        check_metrics(report.metrics, /*include_round_histogram=*/true);
}

void InvariantAuditor::check_records(const std::vector<router::PacketRecord>& records,
                                     std::size_t delivered, std::size_t dropped,
                                     std::size_t in_flight, std::size_t max_hops) {
    std::size_t delivered_records = 0;
    std::size_t dropped_records = 0;
    for (const auto& rec : records) {
        if (rec.delivered_cycle && rec.dropped) {
            std::ostringstream os;
            os << "packet " << rec.id << " both delivered and dropped";
            violate("record-fate", os.str());
        }
        if (rec.delivered_cycle) {
            ++delivered_records;
            if (*rec.delivered_cycle < rec.injected_cycle) {
                std::ostringstream os;
                os << "packet " << rec.id << " delivered at cycle "
                   << *rec.delivered_cycle << " before injection at "
                   << rec.injected_cycle;
                violate("record-causality", os.str());
            }
        }
        if (rec.dropped) ++dropped_records;
        if (max_hops > 0 && rec.hops > max_hops) {
            std::ostringstream os;
            os << "packet " << rec.id << " took " << rec.hops
               << " hops past the budget " << max_hops;
            violate("record-hop-budget", os.str());
        }
    }
    if (delivered_records != delivered || dropped_records != dropped) {
        std::ostringstream os;
        os << "records delivered/dropped=" << delivered_records << "/"
           << dropped_records << " != counters " << delivered << "/" << dropped;
        violate("record-accounting", os.str());
    }
    // Every injected packet has exactly one fate.
    if (delivered + dropped + in_flight != records.size()) {
        std::ostringstream os;
        os << "delivered=" << delivered << " + dropped=" << dropped
           << " + in_flight=" << in_flight << " != injected=" << records.size();
        violate("record-conservation", os.str());
    }
}

void InvariantAuditor::check_router(const router::RouterCore& core) {
    ++rounds_audited_;
    check_records(core.records(), core.delivered(), core.dropped(),
                  core.in_flight(), core.config().max_hops);
    // The shared accounting stage must agree with the per-packet records.
    const NetworkMetrics& m = core.metrics();
    if (m.deliveries != core.delivered() ||
        m.messages_created != core.records().size() ||
        m.crash_drops + m.ttl_expired != core.dropped()) {
        std::ostringstream os;
        os << "metrics deliveries/created/drops=" << m.deliveries << "/"
           << m.messages_created << "/" << (m.crash_drops + m.ttl_expired)
           << " != core " << core.delivered() << "/" << core.records().size()
           << "/" << core.dropped();
        violate("router-metrics", os.str());
    }
    check_metrics(m, /*include_round_histogram=*/true);
}

std::string InvariantAuditor::summary() const {
    std::ostringstream os;
    os << total_violations_ << " violation(s) across " << rounds_audited_
       << " audited round(s)";
    for (const auto& v : violations_) os << "\n  [" << v.invariant << "] " << v.detail;
    if (total_violations_ > violations_.size())
        os << "\n  ... " << (total_violations_ - violations_.size()) << " more dropped";
    return os.str();
}

void InvariantAuditor::throw_if_dirty() const {
    if (!clean()) throw ContractViolation("invariant audit failed: " + summary());
}

void InvariantAuditor::reset() {
    violations_.clear();
    total_violations_ = 0;
    rounds_audited_ = 0;
    label_.clear();
    have_snapshot_ = false;
    last_ = CounterSnapshot{};
    last_ttl_.clear();
}

} // namespace snoc::check
