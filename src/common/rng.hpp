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
// The engine is MT19937-64, implemented in-tree (Mt19937_64 below) and
// word-for-word identical to std::mt19937_64 for every seed: same
// seeding recurrence, twist and tempering; the test
// Rng.InTreeEngineMatchesStdMt19937_64 is its oracle.  The in-tree copy
// keeps the regeneration out of line and branch-free, and can seed four
// engines at once (RngStream::batch; oracle
// Rng.BatchSeedingMatchesStdMt19937_64).  It exists for speed, not for
// different numbers, so draw contract v3 below is unchanged by it.
//
// Draw-sequence contract (v3): bernoulli(), below() and uniform() map
// raw mt19937_64 words directly instead of going through the standard
// <random> distribution adaptors, because the engine's forward phase
// draws one Bernoulli coin per output port per held message per round
// and constructing a distribution object per call dominated that hot
// path.
//   * bernoulli(p): one engine word compared against a cached 64-bit
//     threshold (zero words for p <= 0 or p >= 1);
//   * bernoulli_mask(p, n): the words of n bernoulli(p) calls, in order,
//     as one bit mask.  It maps no word differently, so adding it left
//     the contract at v3;
//   * below(b): one engine word reduced mod b, with Lemire-style
//     rejection of the lowest `2^64 mod b` words to stay exactly unbiased
//     (extra words only on rejection, probability < b / 2^64);
//   * uniform(): the top 53 bits of one engine word scaled by 2^-53;
//   * normal() still uses std::normal_distribution (cold path: clock
//     jitter only) — its per-call construction is documented, not a bug:
//     the distribution caches a second Box-Muller variate that would go
//     stale across calls with different (mean, stddev) parameters.
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

#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <random>
#include <string_view>
#include <vector>

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

    explicit Mt19937_64(std::uint64_t seed) { seed_each<1>({this}, {seed}); }

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
    friend class RngStream;
    /// Tag of the constructor that leaves the state for seed_each() to write.
    struct Unseeded {};
    explicit Mt19937_64(Unseeded) {}

    /// Seed engines[k] with seeds[k] for every k < W (fresh engines: the
    /// read index is already past the end).  One seeding
    /// recurrence is 311 dependent multiplies; W of them advance side by
    /// side, so their latencies overlap.
    template <std::size_t W>
    static void seed_each(const std::array<Mt19937_64*, W>& engines,
                          const std::array<std::uint64_t, W>& seeds) {
        std::array<std::uint64_t, W> x = seeds;
        for (std::size_t k = 0; k < W; ++k) engines[k]->x_[0] = x[k];
        for (std::size_t i = 1; i < kStateWords; ++i)
            for (std::size_t k = 0; k < W; ++k) {
                x[k] = 6364136223846793005ULL * (x[k] ^ (x[k] >> 62)) + i;
                engines[k]->x_[i] = x[k];
            }
    }

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

    std::uint64_t x_[kStateWords]; // every word written by seed_each().
    std::size_t index_{kStateWords};
};

/// A single random stream: the MT19937-64 engine with the distributions
/// the simulator needs.
class RngStream {
    /// Tag of the constructor batch() builds its streams with; only
    /// RngStream can make one.
    struct Unseeded {
        explicit Unseeded() = default;
    };

public:
    explicit RngStream(std::uint64_t seed) : engine_(seed) {}
    /// Left unseeded for batch(); unusable elsewhere (Unseeded is private).
    explicit RngStream(Unseeded) : engine_(Mt19937_64::Unseeded{}) {}

    /// `count` streams, stream i the one RngStream(seed_of(i)) would be.
    /// Built in place, with no copy of any stream, and seeded four at a
    /// time (Mt19937_64::seed_each) right after they are built, so a
    /// large batch is written in one pass.
    template <class SeedOf>
    static std::vector<RngStream> batch(std::size_t count, SeedOf seed_of) {
        std::vector<RngStream> out;
        out.reserve(count); // no reallocation: the engine pointers stay valid
        std::size_t i = 0;
        for (; i + 4 <= count; i += 4) {
            for (std::size_t k = 0; k < 4; ++k) out.emplace_back(Unseeded{});
            Mt19937_64::seed_each<4>({&out[i].engine_, &out[i + 1].engine_,
                                      &out[i + 2].engine_, &out[i + 3].engine_},
                                     {seed_of(i), seed_of(i + 1), seed_of(i + 2),
                                      seed_of(i + 3)});
        }
        for (; i < count; ++i)
            Mt19937_64::seed_each<1>({&out.emplace_back(Unseeded{}).engine_}, {seed_of(i)});
        return out;
    }

    /// Bernoulli trial: true with probability p (p clamped to [0,1]).
    /// A raw engine word against a cached threshold of p * 2^64,
    /// recomputed only when p changes (the forward gate draws with the
    /// same p for a whole run).
    bool bernoulli(double p) {
        if (p <= 0.0) return false;
        if (p >= 1.0) return true;
        return engine_() < threshold(p);
    }

    /// n <= 64 Bernoulli(p) trials as a mask, trial i in bit i: the
    /// engine words n bernoulli(p) calls draw, in their order (none for
    /// p <= 0 or p >= 1).  The engine's hottest draw, one per output
    /// port of a forwarded message; building the mask without a branch
    /// per trial saves the mispredictions a coin at p = 0.5 causes.
    std::uint64_t bernoulli_mask(double p, std::size_t n) {
        if (p <= 0.0) return 0;
        if (p >= 1.0) return n >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << n) - 1;
        const std::uint64_t t = threshold(p);
        std::uint64_t mask = 0;
        for (std::size_t i = 0; i < n; ++i)
            mask |= static_cast<std::uint64_t>(engine_() < t) << i;
        return mask;
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
            // p < 1 here, so ldexp(p, 64) < 2^64 and the cast is safe.
            bernoulli_threshold_ = static_cast<std::uint64_t>(std::ldexp(p, 64));
        }
        return bernoulli_threshold_;
    }

    Mt19937_64 engine_;
    double bernoulli_p_{-1.0};
    std::uint64_t bernoulli_threshold_{0};
};

/// Factory for named sub-streams of a root seed.
class RngPool {
public:
    explicit RngPool(std::uint64_t root_seed) : root_(root_seed) {}

    std::uint64_t root_seed() const { return root_; }

    /// Stream for a (purpose, index) pair, e.g. ("forward", tile id).
    RngStream stream(std::string_view purpose, std::uint64_t index = 0) const {
        return RngStream(derive_seed(derive_seed(root_, key_of(purpose)), index));
    }

    /// stream(purpose, i) for every i < count, built by RngStream::batch.
    std::vector<RngStream> streams(std::string_view purpose, std::size_t count) const {
        const std::uint64_t base = derive_seed(root_, key_of(purpose));
        return RngStream::batch(count, [base](std::size_t i) { return derive_seed(base, i); });
    }

private:
    std::uint64_t root_;
};

} // namespace snoc
