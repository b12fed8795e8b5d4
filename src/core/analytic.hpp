// Sec. 3.1 — the mathematics of rumor spreading.
//
//  * The deterministic approximation of the number of informed nodes:
//        I(t+1) = n - (n - I(t)) * exp(-I(t)/n),   I(0) = 1        (Eq. 1a)
//  * Pittel's bound on the rounds to inform everyone:
//        S_n = log2(n) + ln(n) + O(1)   as n -> infinity           (Eq. 1b)
//  * A Monte-Carlo of the classic push-gossip on a fully connected
//    network: every informed node passes the rumor to one uniformly random
//    other node per round (Fig. 3-1 reaches 1000 nodes in < 20 rounds).
//  * The exact law of one rumor's spread through the gossip engine on a
//    small mesh (the independent oracle of test_spread_oracle).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "core/gossip_config.hpp"
#include "fault/fault_model.hpp"
#include "noc/topology.hpp"

namespace snoc::analytic {

/// I(t) for t = 0..rounds (inclusive), from the logistic difference
/// equation above.  I(0) = 1.
std::vector<double> informed_curve(std::size_t n, std::size_t rounds);

/// Smallest t with I(t) >= fraction*n under the deterministic model.
std::size_t rounds_to_reach(std::size_t n, double fraction);

/// Pittel: log2(n) + ln(n) — the O(1) term is dropped.
double pittel_rounds(std::size_t n);

/// One Monte-Carlo run of push gossip on the fully connected graph:
/// returns the number of informed nodes after each round, ending when all
/// n are informed (or max_rounds elapse).
std::vector<std::size_t> simulate_push_gossip(std::size_t n, RngStream& rng,
                                              std::size_t max_rounds = 1000);

/// The exact law of a single rumor spreading from one source.  Every copy
/// ages one TTL step per hop and hops once per round, so all holders of
/// the rumor expire in the same round and the state is just the informed
/// set.  Each port coin is independent, so in every forward round each
/// live uninformed tile j becomes informed independently with probability
/// 1 - prod(1 - q) over its informed live neighbours' links into j, where
/// q = p * (1 - p_upset): under CRC-32 an upset copy is dropped (CRC-32
/// misses no 1-3-bit error and any other with probability < 2^-32).
struct SpreadLaw {
    /// informed[k][s]: probability that the informed set is s (bit t for
    /// tile t) after k forward rounds, k = 0..rounds.
    std::vector<std::vector<double>> informed;

    /// [k] for k >= 1: probability that `tile` is first informed by the
    /// k-th forward round; [0]: probability that it never is.
    std::vector<double> first_informed(TileId tile) const;
    /// [c]: probability that c tiles are informed after the last round.
    std::vector<double> final_count() const;
};

/// Solve the spread of a rumor held by `source` for `rounds` forward
/// rounds (a rumor injected by IpCore::on_start with TTL T is forwarded in
/// T - 1 rounds, since ageing strikes before the first forward phase; the
/// k-th forward round's copies land, and are delivered, in engine round
/// k).  Tile crashes (p_tiles, `source` protected) are averaged over the
/// injector's law by enumerating every crash set.  Throws ContractViolation
/// for what the model leaves out rather than approximating it: clock skew
/// (sigma_synchr > 0 breaks one hop per round), forced overflow, input
/// buffers smaller than a tile's in-degree, stop_spread_on_delivery,
/// SECDED links and link crashes.  Per-tile forward capacities and route
/// filters are network settings outside these inputs: a run that sets
/// them is outside the model too.  At most 16 tiles (2^16 states), and at
/// most 10 when p_tiles > 0.
SpreadLaw exact_spread(const Topology& topology, TileId source, std::size_t rounds,
                       const GossipConfig& config, const FaultScenario& scenario);

} // namespace snoc::analytic
