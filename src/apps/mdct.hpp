// Modified Discrete Cosine Transform (the MDCT stage of Fig. 4-7a).
//
// Standard lapped transform: 2N windowed time samples -> N coefficients,
//     X(k) = sum_{n=0}^{2N-1} w(n) x(n) cos( pi/N (n + 1/2 + N/2)(k + 1/2) )
// with the sine window w(n) = sin( pi/(2N) (n + 1/2) ), which satisfies
// the Princen-Bradley condition, so IMDCT + 50% overlap-add reconstructs
// the signal exactly (TDAC) — a property the tests verify.
//
// The window and the cosine basis depend only on N, so they are built once
// per transform size and shared by every Mdct of that size (one 16·N² byte
// table, 64 KB at N = 64).  forward()/inverse() read the table with the
// same per-term expression and summation order as the direct formula, so
// every coefficient is bit-identical to calling std::cos per term.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

namespace snoc::apps {

struct MdctBasis;

class Mdct {
public:
    /// `n` = number of output coefficients (window length is 2n).  Takes
    /// the process-wide table lock only here, never in forward()/inverse().
    explicit Mdct(std::size_t n);

    std::size_t size() const { return n_; }

    /// Forward transform of 2n samples -> n coefficients.
    std::vector<double> forward(const std::vector<double>& window) const;

    /// Inverse transform of n coefficients -> 2n time-aliased samples
    /// (windowed); overlap-add of consecutive halves reconstructs.
    std::vector<double> inverse(const std::vector<double>& coeffs) const;

    /// The sine window value w(i), i in [0, 2n).
    double window(std::size_t i) const;

private:
    std::size_t n_;
    std::shared_ptr<const MdctBasis> basis_; // shared by every Mdct of size n_
};

/// Convenience: MDCT analysis of a long signal with 50% overlap; returns
/// one coefficient frame per hop of n samples (the first frame sees n
/// zeros of history).
std::vector<std::vector<double>> mdct_analyze(const Mdct& mdct,
                                              const std::vector<double>& signal);

/// Overlap-add synthesis (inverse of mdct_analyze).  The output length is
/// frames*n; the first n samples suffer the leading-history ramp.
std::vector<double> mdct_synthesize(const Mdct& mdct,
                                    const std::vector<std::vector<double>>& frames);

} // namespace snoc::apps
