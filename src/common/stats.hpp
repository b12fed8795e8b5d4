// Statistics accumulators used by the experiment harnesses.
//
// The thesis reports averages over repeated simulations plus jitter
// (error bars in Fig. 4-11); Accumulator gives streaming mean/stddev
// (Welford), SampleSet keeps raw samples for percentiles and confidence
// intervals, Histogram buckets distributions (Fig. 4-5 surface cells).
#pragma once

#include <cstddef>
#include <vector>

namespace snoc {

/// Streaming mean / variance (Welford's algorithm): O(1) memory.
class Accumulator {
public:
    void add(double x);

    std::size_t count() const { return n_; }
    bool empty() const { return n_ == 0; }
    double mean() const;
    /// Sample variance (n-1 denominator); 0 for fewer than 2 samples.
    double variance() const;
    double stddev() const;
    double min() const;
    double max() const;
    double sum() const { return sum_; }

    /// Merge another accumulator into this one (parallel Welford).
    void merge(const Accumulator& other);

private:
    std::size_t n_{0};
    double mean_{0.0};
    double m2_{0.0};
    double min_{0.0};
    double max_{0.0};
    double sum_{0.0};
};

/// Keeps all samples; supports percentiles and normal-approx CIs.
class SampleSet {
public:
    void add(double x);
    std::size_t count() const { return samples_.size(); }
    bool empty() const { return samples_.empty(); }

    double mean() const;
    double stddev() const;
    double min() const;
    double max() const;

    /// q in [0,1]; linear interpolation between order statistics.
    double percentile(double q) const;
    double median() const { return percentile(0.5); }

    /// Half-width of the normal-approximation 95% confidence interval.
    double ci95_halfwidth() const;

    const std::vector<double>& samples() const { return samples_; }

private:
    std::vector<double> samples_;
    mutable std::vector<double> sorted_;
    mutable bool sorted_valid_{false};
    void ensure_sorted() const;
};

/// Ordinary least squares over (x, y) pairs — the benches use it to
/// verify claims like Fig. 4-9's "energy increases almost linearly with
/// p" quantitatively (slope, intercept, r^2).
struct LinearFit {
    double slope{0.0};
    double intercept{0.0};
    double r_squared{0.0};
};

class Regression {
public:
    void add(double x, double y);
    std::size_t count() const { return n_; }

    /// Requires >= 2 points with non-degenerate x spread.
    LinearFit fit() const;

private:
    std::size_t n_{0};
    double sx_{0.0}, sy_{0.0}, sxx_{0.0}, syy_{0.0}, sxy_{0.0};
};

/// Fixed-width histogram over [lo, hi); out-of-range samples clamp to the
/// edge buckets so nothing is silently lost.
class Histogram {
public:
    Histogram(double lo, double hi, std::size_t buckets);

    void add(double x);
    std::size_t count(std::size_t bucket) const;
    std::size_t total() const { return total_; }
    /// Midpoint of bucket i.
    double bucket_center(std::size_t i) const;

private:
    double lo_;
    double hi_;
    std::vector<std::size_t> counts_;
    std::size_t total_{0};
};

} // namespace snoc
