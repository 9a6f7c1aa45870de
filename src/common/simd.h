// The analysis hot-loop kernels, in one fixed summation order.
//
// Reductions follow a *blocked reduction contract*: they accumulate
// into four independent lanes (lane j owns elements i with i % 4 == j
// over the blocked prefix), the four lane totals combine in the fixed
// order (lane0 + lane1) + (lane2 + lane3), and the tail (n % 4
// elements) folds in sequentially afterwards. That order is part of
// the result: it differs in the last bits from a left-to-right sum, so
// it is pinned by tests, and any faster kernel must reproduce it bit
// for bit (NaNs, signed zeros and denormals included). simd.cpp is
// compiled with -ffp-contract=off so no build fuses a*b+c into an FMA,
// which would round differently and move alarms (DESIGN.md §15).
#pragma once

#include <cstddef>

namespace asdf::simd {

/// The instruction set the kernels run on: one portable path.
enum class Isa {
  kScalar = 0,
};

inline Isa activeIsa() { return Isa::kScalar; }

inline const char* isaName(Isa) { return "scalar"; }

/// Sum of squared differences over a[0..n) / b[0..n) in the blocked
/// reduction order (kmeans distance kernel).
double sqDistance(const double* a, const double* b, std::size_t n);

/// Sum of absolute differences in the blocked reduction order (the
/// black-box L1 window compare).
double l1Distance(const double* a, const double* b, std::size_t n);

/// White-box critical k: max over metrics m of
///   !(|mean[m] - median[m]| <= 1)
///       ? (sigma[m] > 1e-12 ? |mean[m]-median[m]| / sigma[m]
///                           : sentinel)
///       : 0
/// with std::max's NaN-dropping semantics (a NaN candidate never
/// replaces the accumulator). Max is order-independent under that
/// rule, so this needs no lane contract.
double whiteBoxCriticalK(const double* mean, const double* median,
                         const double* sigma, std::size_t n,
                         double sentinel);

/// out[i] = |x[i] - center| (the MAD deviation pass).
void absDeviations(const double* x, double center, double* out,
                   std::size_t n);

}  // namespace asdf::simd
