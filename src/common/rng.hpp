// Deterministic, splittable random number streams.
//
// Every stochastic decision in the simulator (per-link Bernoulli forwarding,
// fault injection, clock jitter, workload generation) draws from a stream
// derived from a root seed plus a purpose key, so that
//   * two runs with the same seed are bit-identical, and
//   * changing one consumer's draw count does not perturb the others.
//
// The thesis realises the Bernoulli(p) gate with an amplified-thermal-noise
// circuit (Sec. 3.2.3); this is its deterministic functional equivalent.
//
// Only the law of each draw matters (Fig. 3-4 gates each output port with
// an independent Bernoulli(p)), so one engine serves every draw:
// SplitMix64 below, Vigna's splitmix64 read as a counter.  Word i of a
// generator keyed k is
//   splitmix64(k + i * 0x9e3779b97f4a7c15),
// eight bytes of state.  Two keyed sequences share a word only
// where their counter ranges overlap: the increment is odd, so every key
// lies on one cycle of 2^64 counters, and with keys derived by splitmix64
// a run that keys S sequences and draws W words in all has an overlap
// with probability below S * W / 2^64 (under 1e-4 for 10^7 keys and
// 10^8 words).
//
// Draw-sequence contract (v6): bernoulli(), below() and uniform() map
// raw engine words directly instead of going through the standard
// <random> distribution adaptors, because constructing a distribution
// object per call dominated the hot paths.
//   * stream words (new in v5; up to v4 another engine seeded with the
//     key): word i of RngPool::stream(purpose, index) is word i of the
//     engine keyed derive_seed(derive_seed(root, key_of(purpose)), index);
//   * bernoulli(p): one engine word compared against a cached 64-bit
//     threshold p * 2^64 (zero words for p <= 0 or p >= 1);
//   * below(b): one engine word reduced mod b, with Lemire-style
//     rejection of the lowest `2^64 mod b` words to stay exactly unbiased
//     (extra words only on rejection, probability < b / 2^64);
//   * uniform(): the top 53 bits of one engine word scaled by 2^-53;
//   * normal() still uses std::normal_distribution (cold path: clock
//     jitter only) — its per-call construction is documented, not a bug:
//     the distribution caches a second Box-Muller variate that would go
//     stale across calls with different (mean, stddev) parameters;
//   * forward coins (v4, unchanged): coin i of tile t in round r is
//     word i of the engine keyed
//       derive_seed(derive_seed(derive_seed(seed, key_of("gossip/forward")), r), t),
//     compared against the same threshold as bernoulli(p), with no word
//     for p <= 0 or p >= 1.  i counts a tile's coins in one round: one
//     per output port of each held message, in send-buffer and port
//     order, up to the port that exhausts the tile's forward capacity.
//     So a tile's coins depend on no other tile and on no earlier round.
//   * bit-error upsets (new in v6; up to v5 one uniform() per flipped
//     bit plus one, walking geometric gaps, and a below() when nothing
//     flipped): the `fault/upset` stream (FaultInjector) draws one
//     bernoulli() gate per transmission and, per RandomBitError upset of
//     an n-bit wire, one word w for its flip count
//       K = 1 + #{k >= 1 : w < floor(P(K > k) * 2^64)},
//     K ~ Binomial(n, 2/n) with the K = 0 mass on K = 1.  The positions
//     of the injector's upset i (counting from 0) come from
//     RngPool::stream("fault/upset-positions", i), not from the upset
//     stream: Floyd's algorithm, for j = n - K .. n - 1 one below(j + 1)
//     giving t, taking t, or j if t is taken, then sorted ascending.  A
//     consumer that needs only K draws no position, and skipping them
//     moves no other draw.
// Consumers document their own per-event draw counts where they matter.
// Any change to these mappings shifts every downstream stochastic
// trajectory; tests assert distributions and determinism (and the
// engine goldens pin exact sequences, regenerated deliberately when a
// stream changes), so the mappings may evolve — but bump this note when
// they do.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <random>
#include <string_view>

namespace snoc {

/// splitmix64: tiny, high-quality 64-bit mixer used for seed derivation
/// and, read as a counter, as the engine (SplitMix64 below).
constexpr std::uint64_t splitmix64(std::uint64_t x) {
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/// Combine a seed with a sequence of 64-bit keys into a derived seed.
constexpr std::uint64_t derive_seed(std::uint64_t root, std::uint64_t key) {
    return splitmix64(root ^ splitmix64(key));
}

/// Hash a short string key (stream purpose name) to 64 bits (FNV-1a).
constexpr std::uint64_t key_of(std::string_view name) {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (char c : name) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ULL;
    }
    return h;
}

/// The one engine (contract v5 above): the words of Vigna's splitmix64.c
/// seeded with the key.  A UniformRandomBitGenerator, so <random>
/// distributions draw from it.
class SplitMix64 {
public:
    using result_type = std::uint64_t;

    explicit SplitMix64(std::uint64_t key) : state_(key) {}

    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~result_type{0}; }

    result_type operator()() {
        const std::uint64_t word = splitmix64(state_);
        state_ += 0x9e3779b97f4a7c15ULL;
        return word;
    }

private:
    std::uint64_t state_;
};

/// p * 2^64 for 0 < p < 1: a raw word below it is a Bernoulli(p) success.
inline std::uint64_t bernoulli_threshold(double p) {
    // p < 1 here, so ldexp(p, 64) < 2^64 and the cast is safe.
    return static_cast<std::uint64_t>(std::ldexp(p, 64));
}

/// A single random stream: the engine with the distributions the
/// simulator needs.
class RngStream {
public:
    explicit RngStream(std::uint64_t seed) : engine_(seed) {}

    /// Bernoulli trial: true with probability p (p clamped to [0,1]).
    /// A raw engine word against a cached threshold of p * 2^64,
    /// recomputed only when p changes (the forward gate draws with the
    /// same p for a whole run).
    bool bernoulli(double p) {
        if (p <= 0.0) return false;
        if (p >= 1.0) return true;
        return engine_() < threshold(p);
    }

    /// Uniform integer in [0, bound) — bound must be > 0.  Unbiased:
    /// the low `2^64 mod bound` slice of engine words is rejected.
    std::uint64_t below(std::uint64_t bound) {
        const std::uint64_t reject = (std::uint64_t{0} - bound) % bound; // 2^64 mod bound
        for (;;) {
            const std::uint64_t r = engine_();
            if (r >= reject) return r % bound;
        }
    }

    /// Uniform double in [0, 1): top 53 bits of one engine word.
    double uniform() {
        return static_cast<double>(engine_() >> 11) * 0x1.0p-53;
    }

    /// Normal draw.
    double normal(double mean, double stddev) {
        if (stddev <= 0.0) return mean;
        return std::normal_distribution<double>(mean, stddev)(engine_);
    }

    /// Raw 64 random bits.
    std::uint64_t bits() { return engine_(); }

private:
    /// p * 2^64 for 0 < p < 1, cached across calls with the same p.
    std::uint64_t threshold(double p) {
        if (p != bernoulli_p_) {
            bernoulli_p_ = p;
            bernoulli_threshold_ = bernoulli_threshold(p);
        }
        return bernoulli_threshold_;
    }

    SplitMix64 engine_;
    double bernoulli_p_{-1.0};
    std::uint64_t bernoulli_threshold_{0};
};

/// The forward phase's port coins (contract v5 above): Bernoulli(p)
/// coins read as successive engine words, one key per (round, tile).  The
/// round's key is derived once per round and the eight-byte engine
/// rekeyed for each tile the round visits, so no tile owns any coin state.
class ForwardCoins {
public:
    ForwardCoins(std::uint64_t seed, double p)
        : base_(derive_seed(seed, key_of("gossip/forward"))),
          all_(p >= 1.0 ? ~std::uint64_t{0} : 0),
          threshold_(p > 0.0 && p < 1.0 ? bernoulli_threshold(p) : 0) {}

    /// Start round `round`: every tile's coins of the round derive from it.
    void start_round(std::uint64_t round) { round_key_ = derive_seed(base_, round); }
    /// Start tile `tile`'s coins of the current round.
    void start_tile(std::uint64_t tile) { engine_ = SplitMix64(derive_seed(round_key_, tile)); }

    /// The next n <= 64 coins as a mask, coin i in bit i.  Building it
    /// without a branch per coin saves the mispredictions a coin at
    /// p = 0.5 causes.  No word is drawn for p <= 0 or p >= 1.
    std::uint64_t mask(std::size_t n) {
        if (threshold_ == 0) return n >= 64 ? all_ : all_ & ((std::uint64_t{1} << n) - 1);
        std::uint64_t out = 0;
        for (std::size_t i = 0; i < n; ++i)
            out |= static_cast<std::uint64_t>(engine_() < threshold_) << i;
        return out;
    }

private:
    std::uint64_t base_;
    std::uint64_t all_;       ///< the mask of a coin that always lands (p >= 1).
    std::uint64_t threshold_; ///< 0 when no word is drawn (p <= 0 or p >= 1).
    std::uint64_t round_key_{0};
    SplitMix64 engine_{0};
};

/// Factory for named sub-streams of a root seed.
class RngPool {
public:
    explicit RngPool(std::uint64_t root_seed) : root_(root_seed) {}

    std::uint64_t root_seed() const { return root_; }

    /// Stream for a (purpose, index) pair, e.g. ("app", tile id).
    RngStream stream(std::string_view purpose, std::uint64_t index = 0) const {
        return RngStream(derive_seed(derive_seed(root_, key_of(purpose)), index));
    }

private:
    std::uint64_t root_;
};

} // namespace snoc
