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
// The streams' engine is MT19937-64, implemented in-tree (Mt19937_64
// below) and word-for-word identical to std::mt19937_64 for every seed:
// same seeding recurrence, twist and tempering; the test
// Rng.InTreeEngineMatchesStdMt19937_64 is its oracle.  The in-tree copy
// keeps the regeneration out of line and branch-free.  It exists for
// speed, not for different numbers.
//
// The forward phase's port coins are the one draw that is not a stream
// (ForwardCoins below): only the law of a coin matters (Fig. 3-4 gates
// each output port with an independent Bernoulli(p)), and a per-tile
// MT19937-64 stream cost 2.5 KB of state per tile.
//
// Draw-sequence contract (v4): bernoulli(), below() and uniform() map
// raw mt19937_64 words directly instead of going through the standard
// <random> distribution adaptors, because constructing a distribution
// object per call dominated the hot paths.
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
//   * forward coins (new in v4; up to v3 each tile drew them from its own
//     "gossip/forward" MT19937-64 stream): coin i of tile t in round r is
//     word i of a splitmix64 generator seeded with
//       derive_seed(derive_seed(derive_seed(seed, key_of("gossip/forward")), r), t),
//     that is splitmix64(key + i * 0x9e3779b97f4a7c15), compared against
//     the same threshold as bernoulli(p), with no word for p <= 0 or
//     p >= 1.  i counts a tile's coins in one round: one per output port
//     of each held message, in send-buffer and port order, up to the
//     port that exhausts the tile's forward capacity.  So a tile's coins
//     depend on no other tile and on no earlier round.
// Consumers document their own per-event draw counts where they matter;
// notably the `fault/upset` stream (FaultInjector) draws one bernoulli()
// gate per transmission and, per bit-error upset, one uniform() per
// flipped bit plus one (geometric gap sampling; up to v2 it drew one
// bernoulli() per wire bit), plus a below() when nothing flipped.
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

/// splitmix64: tiny, high-quality 64-bit mixer used for seed derivation.
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

/// MT19937-64 (Matsumoto & Nishimura), emitting exactly the words of
/// std::mt19937_64 seeded with the same value.  The state is the 312
/// untempered words plus the read index, like the standard engine's;
/// words are tempered as they are read.  A UniformRandomBitGenerator,
/// so <random> distributions draw the same words from it as from the
/// standard engine.
class Mt19937_64 {
public:
    using result_type = std::uint64_t;
    static constexpr std::size_t kStateWords = 312;

    explicit Mt19937_64(std::uint64_t seed) {
        x_[0] = seed;
        for (std::size_t i = 1; i < kStateWords; ++i)
            x_[i] = 6364136223846793005ULL * (x_[i - 1] ^ (x_[i - 1] >> 62)) + i;
    }

    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~result_type{0}; }

    result_type operator()() {
        if (index_ >= kStateWords) regenerate();
        std::uint64_t z = x_[index_++];
        z ^= (z >> 29) & 0x5555555555555555ULL;
        z ^= (z << 17) & 0x71d67fffeda60000ULL;
        z ^= (z << 37) & 0xfff7eee000000000ULL;
        return z ^ (z >> 43);
    }

private:
    /// One twist of word `lo`'s top 33 bits and word `hi`'s low 31 bits,
    /// xor-ed into `far`.  The conditional xor of the matrix constant is
    /// a mask, so the loops below have no data-dependent branch.
    static constexpr std::uint64_t twist(std::uint64_t far, std::uint64_t lo,
                                         std::uint64_t hi) {
        const std::uint64_t y =
            (lo & 0xffffffff80000000ULL) | (hi & 0x7fffffffULL);
        return far ^ (y >> 1) ^ ((std::uint64_t{0} - (y & 1)) & 0xb5026f5aa96619e9ULL);
    }

    /// Refill all 312 words; out of line so every draw site stays small.
    [[gnu::noinline]] void regenerate() {
        constexpr std::size_t n = kStateWords, m = 156;
        for (std::size_t k = 0; k < n - m; ++k)
            x_[k] = twist(x_[k + m], x_[k], x_[k + 1]);
        for (std::size_t k = n - m; k < n - 1; ++k)
            x_[k] = twist(x_[k + m - n], x_[k], x_[k + 1]);
        x_[n - 1] = twist(x_[m - 1], x_[n - 1], x_[0]);
        index_ = 0;
    }

    std::uint64_t x_[kStateWords];
    std::size_t index_{kStateWords};
};

/// p * 2^64 for 0 < p < 1: a raw word below it is a Bernoulli(p) success.
inline std::uint64_t bernoulli_threshold(double p) {
    // p < 1 here, so ldexp(p, 64) < 2^64 and the cast is safe.
    return static_cast<std::uint64_t>(std::ldexp(p, 64));
}

/// A single random stream: the MT19937-64 engine with the distributions
/// the simulator needs.
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

    Mt19937_64 engine_;
    double bernoulli_p_{-1.0};
    std::uint64_t bernoulli_threshold_{0};
};

/// The forward phase's port coins (contract v4 above): Bernoulli(p)
/// coins read as successive words of a splitmix64 generator, one key per
/// (round, tile).  The round's key is derived once per round and eight
/// bytes of generator state rekeyed for each tile the round visits, so no
/// tile owns any coin state.
class ForwardCoins {
public:
    ForwardCoins(std::uint64_t seed, double p)
        : base_(derive_seed(seed, key_of("gossip/forward"))),
          all_(p >= 1.0 ? ~std::uint64_t{0} : 0),
          threshold_(p > 0.0 && p < 1.0 ? bernoulli_threshold(p) : 0) {}

    /// Start round `round`: every tile's coins of the round derive from it.
    void start_round(std::uint64_t round) { round_key_ = derive_seed(base_, round); }
    /// Start tile `tile`'s coins of the current round.
    void start_tile(std::uint64_t tile) { state_ = derive_seed(round_key_, tile); }

    /// The next n <= 64 coins as a mask, coin i in bit i.  Building it
    /// without a branch per coin saves the mispredictions a coin at
    /// p = 0.5 causes.  No word is drawn for p <= 0 or p >= 1.
    std::uint64_t mask(std::size_t n) {
        if (threshold_ == 0) return n >= 64 ? all_ : all_ & ((std::uint64_t{1} << n) - 1);
        std::uint64_t out = 0;
        for (std::size_t i = 0; i < n; ++i) {
            out |= static_cast<std::uint64_t>(splitmix64(state_) < threshold_) << i;
            state_ += 0x9e3779b97f4a7c15ULL;
        }
        return out;
    }

private:
    std::uint64_t base_;
    std::uint64_t all_;       ///< the mask of a coin that always lands (p >= 1).
    std::uint64_t threshold_; ///< 0 when no word is drawn (p <= 0 or p >= 1).
    std::uint64_t round_key_{0};
    std::uint64_t state_{0};
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
