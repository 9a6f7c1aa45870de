// Kernel implementations. This translation unit is compiled with
// -ffp-contract=off (see common/CMakeLists.txt): a fused multiply-add
// rounds once where mul+add rounds twice, and the pinned blocked
// order forbids that.
#include "common/simd.h"

#include <cmath>

namespace asdf::simd {

namespace {
constexpr double kSigmaFloor = 1e-12;
}  // namespace

double sqDistance(const double* a, const double* b, std::size_t n) {
  double acc0 = 0.0, acc1 = 0.0, acc2 = 0.0, acc3 = 0.0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const double d0 = a[i] - b[i];
    const double d1 = a[i + 1] - b[i + 1];
    const double d2 = a[i + 2] - b[i + 2];
    const double d3 = a[i + 3] - b[i + 3];
    acc0 += d0 * d0;
    acc1 += d1 * d1;
    acc2 += d2 * d2;
    acc3 += d3 * d3;
  }
  double sum = (acc0 + acc1) + (acc2 + acc3);
  for (; i < n; ++i) {
    const double d = a[i] - b[i];
    sum += d * d;
  }
  return sum;
}

double l1Distance(const double* a, const double* b, std::size_t n) {
  double acc0 = 0.0, acc1 = 0.0, acc2 = 0.0, acc3 = 0.0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc0 += std::fabs(a[i] - b[i]);
    acc1 += std::fabs(a[i + 1] - b[i + 1]);
    acc2 += std::fabs(a[i + 2] - b[i + 2]);
    acc3 += std::fabs(a[i + 3] - b[i + 3]);
  }
  double sum = (acc0 + acc1) + (acc2 + acc3);
  for (; i < n; ++i) sum += std::fabs(a[i] - b[i]);
  return sum;
}

double whiteBoxCriticalK(const double* mean, const double* median,
                         const double* sigma, std::size_t n,
                         double sentinel) {
  // Comparison-select max: a NaN candidate never beats the
  // accumulator. NaN diffs fail the <= test and fall through to the
  // sigma branch.
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double diff = std::fabs(mean[i] - median[i]);
    if (diff <= 1.0) continue;
    const double cand = sigma[i] > kSigmaFloor ? diff / sigma[i] : sentinel;
    if (acc < cand) acc = cand;
  }
  return acc;
}

void absDeviations(const double* x, double center, double* out,
                   std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = std::fabs(x[i] - center);
}

}  // namespace asdf::simd
