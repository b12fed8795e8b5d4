// The runtime invariant auditor — the correctness net under every
// reproduced figure.  It plugs into the unified Interconnect layer
// (Interconnect::set_auditor) and verifies, per round and at end of run,
// that the simulator neither leaks nor double-counts message copies:
//
//   * the two conservation laws of check/ledger.hpp (wire + buffer);
//   * send-buffer occupancy <= capacity on every tile, every round;
//   * per-message TTL monotonicity (a rumor's TTL never grows at a tile);
//   * counter monotonicity (rounds, packets, bits — and therefore the
//     energy accumulator, joules = bits * E_bit — never decrease);
//   * NetworkMetrics structural consistency (per-link, per-tile and
//     per-round histograms each sum to the global counters);
//   * RunReport self-consistency for every backend (deliveries + drops
//     == offered messages; completion implies full delivery; budgets
//     respected);
//   * one record law for the cycle-stepped packet simulators (router
//     core, wormhole, deflection): per-packet records vs counters.
//
// The auditor is a pure observer: attaching one never changes simulation
// behaviour, and every check reads state the engine already exposes.
// Violations are recorded, not thrown, so a test can assert on the whole
// list; throw_if_dirty() converts them into a ContractViolation for
// harnesses that want loud failure.  One auditor audits one run at a
// time (begin_run resets the per-run streak state); auditors are not
// thread-safe — give each concurrent trial its own (ExperimentSpec::audit
// does exactly that).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "check/ledger.hpp"
#include "common/types.hpp"
#include "core/interconnect.hpp"
#include "core/metrics.hpp"
#include "noc/traffic.hpp"
#include "router/accounting.hpp"

namespace snoc {
class GossipNetwork;
namespace router {
class RouterCore;
}
} // namespace snoc

namespace snoc::check {

struct Violation {
    std::string invariant; ///< short law name, e.g. "wire-conservation".
    std::string detail;    ///< offending values, pre-formatted.
};

class InvariantAuditor {
public:
    /// Reset the per-run streak state (counter snapshots, TTL history)
    /// and remember `label` as the context prefix for new violations.
    /// Recorded violations survive — an auditor accumulates across the
    /// runs it audits.
    void begin_run(std::string label);

    /// Backend-independent RunReport self-consistency.  `trace` non-null
    /// enables the logical delivery accounting (the run(trace, limit)
    /// flavour); app-driven run_until reports carry raw engine counters
    /// where per-tile broadcast deliveries can legitimately exceed the
    /// created-message count, so those checks need the trace to anchor
    /// them.  `limit` > 0 additionally checks the round budget.
    void check_report(const RunReport& report, BackendKind kind,
                      const TrafficTrace* trace = nullptr, Round limit = 0);

    /// Per-round gossip invariants: conservation, occupancy, TTL and
    /// counter monotonicity.  Call at any round boundary.
    void check_round(const GossipNetwork& net);

    /// End-of-run gossip invariants: everything per-round checks, plus
    /// the full per-round histogram sum.
    void check_final(const GossipNetwork& net);

    // --- building blocks (public so negative tests can prove detection) ----
    void check_conservation(const ConservationLedger& ledger);
    void check_occupancy(TileId tile, std::size_t size, std::size_t capacity);
    void check_metrics(const NetworkMetrics& metrics, bool include_round_histogram);

    /// The record law of the cycle-stepped packet simulators (router
    /// core, wormhole, deflection): every packet has exactly one fate
    /// (delivered, dropped or in flight, never both of the first two),
    /// none is delivered before it was injected, the records agree with
    /// the delivered/dropped counters, and injected == delivered + dropped
    /// + in flight.  `max_hops` > 0 also holds every record to that hop
    /// budget; 0 means the simulator has none (wormhole).
    void check_records(const std::vector<router::PacketRecord>& records,
                       std::size_t delivered, std::size_t dropped,
                       std::size_t in_flight, std::size_t max_hops);

    /// Router-core audit: the record law under the configured hop budget,
    /// plus the shared-accounting counters against the records.
    void check_router(const router::RouterCore& core);

    bool clean() const { return violations_.empty(); }
    const std::vector<Violation>& violations() const { return violations_; }
    /// Total violations seen, including ones dropped past the storage cap.
    std::size_t violation_count() const { return total_violations_; }
    std::size_t rounds_audited() const { return rounds_audited_; }

    std::string summary() const;
    /// Throw ContractViolation when any violation was recorded.
    void throw_if_dirty() const;
    /// Forget everything (violations and per-run state).
    void reset();

private:
    void violate(const char* invariant, std::string detail);

    // Scalar counters that must never decrease between rounds.
    struct CounterSnapshot {
        std::size_t rounds{0}, packets_sent{0}, bits_sent{0}, messages_created{0},
            deliveries{0}, duplicates_ignored{0}, crc_drops{0}, overflow_drops{0},
            ttl_expired{0}, crash_drops{0}, port_overflow_drops{0},
            packets_accepted{0}, fec_uncorrectable{0}, skew_deferrals{0},
            upsets_undetected{0}, fec_corrected{0};
    };
    void check_monotonic(const CounterSnapshot& now);

    static constexpr std::size_t kMaxStoredViolations = 64;

    std::string label_;
    std::vector<Violation> violations_;
    std::size_t total_violations_{0};
    std::size_t rounds_audited_{0};
    bool have_snapshot_{false};
    CounterSnapshot last_;
    // Last seen TTL per (tile, message id); lookup-only, never iterated,
    // so its order can't leak into results.
    std::vector<std::unordered_map<MessageId, std::uint16_t>> last_ttl_;
};

} // namespace snoc::check
