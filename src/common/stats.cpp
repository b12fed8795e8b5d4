#include "common/stats.hpp"

#include <algorithm>
#include <cmath>

#include "common/expect.hpp"

namespace snoc {

void Accumulator::add(double x) {
    if (n_ == 0) {
        min_ = max_ = x;
    } else {
        min_ = std::min(min_, x);
        max_ = std::max(max_, x);
    }
    ++n_;
    sum_ += x;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
}

double Accumulator::mean() const {
    SNOC_EXPECT(n_ > 0);
    return mean_;
}

double Accumulator::variance() const {
    if (n_ < 2) return 0.0;
    return m2_ / static_cast<double>(n_ - 1);
}

double Accumulator::stddev() const { return std::sqrt(variance()); }

double Accumulator::min() const {
    SNOC_EXPECT(n_ > 0);
    return min_;
}

double Accumulator::max() const {
    SNOC_EXPECT(n_ > 0);
    return max_;
}

void Accumulator::merge(const Accumulator& other) {
    if (other.n_ == 0) return;
    if (n_ == 0) {
        *this = other;
        return;
    }
    const double na = static_cast<double>(n_);
    const double nb = static_cast<double>(other.n_);
    const double delta = other.mean_ - mean_;
    const double nt = na + nb;
    mean_ += delta * nb / nt;
    m2_ += other.m2_ + delta * delta * na * nb / nt;
    n_ += other.n_;
    sum_ += other.sum_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
}

void SampleSet::add(double x) {
    samples_.push_back(x);
    sorted_valid_ = false;
}

double SampleSet::mean() const {
    SNOC_EXPECT(!samples_.empty());
    double s = 0.0;
    for (double x : samples_) s += x;
    return s / static_cast<double>(samples_.size());
}

double SampleSet::stddev() const {
    if (samples_.size() < 2) return 0.0;
    const double m = mean();
    double m2 = 0.0;
    for (double x : samples_) m2 += (x - m) * (x - m);
    return std::sqrt(m2 / static_cast<double>(samples_.size() - 1));
}

double SampleSet::min() const {
    SNOC_EXPECT(!samples_.empty());
    return *std::min_element(samples_.begin(), samples_.end());
}

double SampleSet::max() const {
    SNOC_EXPECT(!samples_.empty());
    return *std::max_element(samples_.begin(), samples_.end());
}

void SampleSet::ensure_sorted() const {
    if (!sorted_valid_) {
        sorted_ = samples_;
        std::sort(sorted_.begin(), sorted_.end());
        sorted_valid_ = true;
    }
}

double SampleSet::percentile(double q) const {
    SNOC_EXPECT(!samples_.empty());
    SNOC_EXPECT(q >= 0.0 && q <= 1.0);
    ensure_sorted();
    if (sorted_.size() == 1) return sorted_.front();
    const double pos = q * static_cast<double>(sorted_.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const double frac = pos - static_cast<double>(lo);
    if (lo + 1 >= sorted_.size()) return sorted_.back();
    return sorted_[lo] * (1.0 - frac) + sorted_[lo + 1] * frac;
}

double SampleSet::ci95_halfwidth() const {
    if (samples_.size() < 2) return 0.0;
    return 1.96 * stddev() / std::sqrt(static_cast<double>(samples_.size()));
}

void Regression::add(double x, double y) {
    ++n_;
    sx_ += x;
    sy_ += y;
    sxx_ += x * x;
    syy_ += y * y;
    sxy_ += x * y;
}

LinearFit Regression::fit() const {
    SNOC_EXPECT(n_ >= 2);
    const double n = static_cast<double>(n_);
    const double var_x = sxx_ - sx_ * sx_ / n;
    SNOC_EXPECT(var_x > 0.0);
    LinearFit out;
    out.slope = (sxy_ - sx_ * sy_ / n) / var_x;
    out.intercept = (sy_ - out.slope * sx_) / n;
    const double var_y = syy_ - sy_ * sy_ / n;
    if (var_y > 0.0) {
        const double cov = sxy_ - sx_ * sy_ / n;
        out.r_squared = (cov * cov) / (var_x * var_y);
    } else {
        out.r_squared = 1.0; // constant y is fit perfectly
    }
    return out;
}

Histogram::Histogram(double lo, double hi, std::size_t buckets)
    : lo_(lo), hi_(hi), counts_(buckets, 0) {
    SNOC_EXPECT(hi > lo);
    SNOC_EXPECT(buckets > 0);
}

void Histogram::add(double x) {
    const double span = hi_ - lo_;
    auto idx = static_cast<long>((x - lo_) / span * static_cast<double>(counts_.size()));
    idx = std::clamp<long>(idx, 0, static_cast<long>(counts_.size()) - 1);
    ++counts_[static_cast<std::size_t>(idx)];
    ++total_;
}

std::size_t Histogram::count(std::size_t bucket) const {
    SNOC_EXPECT(bucket < counts_.size());
    return counts_[bucket];
}

double Histogram::bucket_center(std::size_t i) const {
    SNOC_EXPECT(i < counts_.size());
    const double w = (hi_ - lo_) / static_cast<double>(counts_.size());
    return lo_ + (static_cast<double>(i) + 0.5) * w;
}

} // namespace snoc
