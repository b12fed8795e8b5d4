#include "apps/mdct.hpp"

#include <cmath>
#include <map>
#include <numbers>

#include "common/annotations.hpp"
#include "common/expect.hpp"

namespace snoc::apps {

/// The sine window w(i), i in [0, 2n), and the basis
/// cos[k * 2n + i] = cos( pi/n (i + 1/2 + n/2)(k + 1/2) ), k in [0, n).
struct MdctBasis {
    std::vector<double> window;
    std::vector<double> cos;
};

namespace {

std::shared_ptr<const MdctBasis> build_basis(std::size_t n) {
    const double nd = static_cast<double>(n);
    auto basis = std::make_shared<MdctBasis>();
    basis->window.resize(2 * n);
    for (std::size_t i = 0; i < 2 * n; ++i)
        basis->window[i] = std::sin(std::numbers::pi / (2.0 * nd) *
                                    (static_cast<double>(i) + 0.5));
    basis->cos.resize(2 * n * n);
    for (std::size_t k = 0; k < n; ++k)
        for (std::size_t i = 0; i < 2 * n; ++i)
            basis->cos[k * 2 * n + i] =
                std::cos(std::numbers::pi / nd * (static_cast<double>(i) + 0.5 + nd / 2.0) *
                         (static_cast<double>(k) + 0.5));
    return basis;
}

/// Process-wide, immutable tables keyed by transform size.  A table is
/// never changed once built, so readers share it without a lock.
class BasisCache {
public:
    std::shared_ptr<const MdctBasis> get(std::size_t n) {
        LockGuard lock(mutex_);
        auto& slot = tables_[n];
        if (!slot) slot = build_basis(n);
        return slot;
    }

private:
    Mutex mutex_;
    std::map<std::size_t, std::shared_ptr<const MdctBasis>> tables_ SNOC_GUARDED_BY(mutex_);
};

BasisCache& basis_cache() {
    static BasisCache cache;
    return cache;
}

} // namespace

Mdct::Mdct(std::size_t n) : n_(n) {
    SNOC_EXPECT(n > 0);
    basis_ = basis_cache().get(n);
}

double Mdct::window(std::size_t i) const {
    SNOC_EXPECT(i < 2 * n_);
    return basis_->window[i];
}

std::vector<double> Mdct::forward(const std::vector<double>& x) const {
    SNOC_EXPECT(x.size() == 2 * n_);
    const double* w = basis_->window.data();
    std::vector<double> out(n_);
    for (std::size_t k = 0; k < n_; ++k) {
        const double* c = basis_->cos.data() + k * 2 * n_;
        double acc = 0.0;
        for (std::size_t n = 0; n < 2 * n_; ++n) acc += w[n] * x[n] * c[n];
        out[k] = acc;
    }
    return out;
}

std::vector<double> Mdct::inverse(const std::vector<double>& coeffs) const {
    SNOC_EXPECT(coeffs.size() == n_);
    const double nd = static_cast<double>(n_);
    const double* c = basis_->cos.data();
    std::vector<double> out(2 * n_);
    for (std::size_t n = 0; n < 2 * n_; ++n) {
        double acc = 0.0;
        for (std::size_t k = 0; k < n_; ++k) acc += coeffs[k] * c[k * 2 * n_ + n];
        out[n] = 2.0 / nd * acc * basis_->window[n];
    }
    return out;
}

std::vector<std::vector<double>> mdct_analyze(const Mdct& mdct,
                                              const std::vector<double>& signal) {
    const std::size_t n = mdct.size();
    SNOC_EXPECT(signal.size() % n == 0);
    const std::size_t hops = signal.size() / n;
    std::vector<double> padded(signal.size() + 2 * n, 0.0);
    std::copy(signal.begin(), signal.end(), padded.begin() + static_cast<long>(n));

    std::vector<std::vector<double>> frames;
    frames.reserve(hops + 1);
    for (std::size_t h = 0; h <= hops; ++h) {
        std::vector<double> window(padded.begin() + static_cast<long>(h * n),
                                   padded.begin() + static_cast<long>(h * n + 2 * n));
        frames.push_back(mdct.forward(window));
    }
    return frames;
}

std::vector<double> mdct_synthesize(const Mdct& mdct,
                                    const std::vector<std::vector<double>>& frames) {
    const std::size_t n = mdct.size();
    SNOC_EXPECT(!frames.empty());
    std::vector<double> out((frames.size() + 1) * n, 0.0);
    for (std::size_t h = 0; h < frames.size(); ++h) {
        const auto chunk = mdct.inverse(frames[h]);
        for (std::size_t i = 0; i < 2 * n; ++i) out[h * n + i] += chunk[i];
    }
    // Trim the leading history hop so index i aligns with signal[i].
    return {out.begin() + static_cast<long>(n),
            out.begin() + static_cast<long>(frames.size() * n)};
}

} // namespace snoc::apps
