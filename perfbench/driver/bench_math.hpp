// The benchmark's own arithmetic: percentiles with a stated tail sample,
// failure shares, and the span tracer whose self times give the
// per-layer breakdown.  Header-only so tests/test_bench_math.cpp checks
// exactly the code the driver runs.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile: the smallest sample with at least `pct`
/// percent of the samples at or below it.  `samples` need not be sorted.
inline double percentile(std::vector<double> samples, double pct) {
    if (samples.empty()) throw std::invalid_argument("percentile of no samples");
    if (pct <= 0.0 || pct > 100.0) throw std::invalid_argument("pct outside (0, 100]");
    std::sort(samples.begin(), samples.end());
    const auto n = static_cast<double>(samples.size());
    auto rank = static_cast<std::size_t>(std::ceil(pct / 100.0 * n - 1e-9));
    rank = std::clamp<std::size_t>(rank, 1, samples.size());
    return samples[rank - 1];
}

/// Samples strictly beyond the nearest-rank `pct` percentile of `n`
/// samples — the tail a reported percentile rests on.
inline std::size_t samples_above(std::size_t n, double pct) {
    if (n == 0) return 0;
    const auto rank = static_cast<std::size_t>(
        std::ceil(pct / 100.0 * static_cast<double>(n) - 1e-9));
    return n - std::clamp<std::size_t>(rank, 1, n);
}

/// Fewest samples for which `pct` keeps at least `tail` samples above it
/// (p90 with a tail of 10 needs 100 trials).
inline std::size_t min_samples_for(double pct, std::size_t tail = 10) {
    std::size_t n = 1;
    while (samples_above(n, pct) < tail) ++n;
    return n;
}

/// Share of attempted operations that failed; every run attempts at
/// least one.
inline double failure_share(std::size_t failed, std::size_t attempted) {
    if (attempted == 0) throw std::invalid_argument("no operations attempted");
    if (failed > attempted) throw std::invalid_argument("failed > attempted");
    return static_cast<double>(failed) / static_cast<double>(attempted);
}

// --- Spans ------------------------------------------------------------------

/// One timed call into a simulator module.  `parent` indexes the caller's
/// span in the same trial's list (-1 for the trial's root span); times
/// are seconds on the steady clock.
struct Span {
    const char* name{""};
    std::uint64_t trial{0};
    int parent{-1};
    double start{0.0};
    double end{0.0};
    double duration() const { return end - start; }
};

inline double now_seconds() {
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/// Collects the spans of one trial, in memory.  Not thread-safe: each
/// trial owns its tracer, and trials run one per worker thread.
class Tracer {
public:
    explicit Tracer(std::uint64_t trial) : trial_(trial) {}

    int open(const char* name) {
        spans_.push_back(Span{name, trial_, current_, now_seconds(), 0.0});
        current_ = static_cast<int>(spans_.size()) - 1;
        return current_;
    }
    void close(int index) {
        auto& s = spans_[static_cast<std::size_t>(index)];
        s.end = now_seconds();
        current_ = s.parent;
    }

    std::vector<Span>& spans() { return spans_; }

private:
    std::uint64_t trial_;
    int current_{-1};
    std::vector<Span> spans_;
};

/// RAII span around one call; a null tracer (the untraced runs) costs a
/// branch.
class ScopedSpan {
public:
    ScopedSpan(Tracer* tracer, const char* name)
        : tracer_(tracer), index_(tracer ? tracer->open(name) : -1) {}
    ~ScopedSpan() {
        if (tracer_) tracer_->close(index_);
    }
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

private:
    Tracer* tracer_;
    int index_;
};

/// Self time of every span of one trial: its duration minus the part of
/// its interval that its direct children cover (overlapping children
/// count once; child time outside the parent is ignored).
inline std::vector<double> self_times(const std::vector<Span>& spans) {
    std::vector<std::vector<std::pair<double, double>>> kids(spans.size());
    for (const auto& s : spans)
        if (s.parent >= 0)
            kids[static_cast<std::size_t>(s.parent)].emplace_back(s.start, s.end);
    std::vector<double> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        auto& iv = kids[i];
        std::sort(iv.begin(), iv.end());
        double covered = 0.0;
        double cursor = spans[i].start;
        for (auto [a, b] : iv) {
            a = std::max(a, cursor);
            b = std::min(b, spans[i].end);
            if (b > a) {
                covered += b - a;
                cursor = b;
            }
        }
        self[i] = spans[i].duration() - covered;
    }
    return self;
}

/// Per-name totals over many trials' spans.
struct LayerTotal {
    std::size_t calls{0};
    double seconds{0.0};      ///< summed span durations.
    double self_seconds{0.0}; ///< summed self times.
};

inline void accumulate_layers(const std::vector<Span>& spans,
                              std::map<std::string, LayerTotal>& totals) {
    const auto self = self_times(spans);
    for (std::size_t i = 0; i < spans.size(); ++i) {
        auto& t = totals[spans[i].name];
        ++t.calls;
        t.seconds += spans[i].duration();
        t.self_seconds += self[i];
    }
}

} // namespace perfbench
