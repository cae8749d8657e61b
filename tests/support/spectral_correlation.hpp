// appscope tests/support/spectral_correlation.hpp
//
// The linear cross-correlation of la::cross_correlation_direct, computed the
// way the spectral SBD kernel (ts::detail::sbd_spans) computes it: forward
// real FFTs of both inputs through the cached plans, the dispatched
// conjugate product, one inverse transform. The SBD kernel exposes only the
// maximum of that sequence; this helper lets tests check the plans and the
// SIMD kernels against the direct oracle over every lag.
#pragma once

#include <algorithm>
#include <complex>
#include <cstddef>
#include <span>
#include <vector>

#include "la/fft.hpp"
#include "la/fft_plan.hpp"
#include "la/simd.hpp"

namespace appscope::test {

/// r[k] = sum_j a[j + s] * b[j] with s = k - (b.size() - 1), for
/// k in [0, a.size() + b.size() - 1). Inputs must be non-empty.
inline std::vector<double> spectral_cross_correlation(
    std::span<const double> a, std::span<const double> b) {
  const std::size_t out_len = a.size() + b.size() - 1;
  const std::size_t n = std::max<std::size_t>(2, la::next_pow2(out_len));
  const la::RealFftPlan& plan = la::RealFftPlan::plan_for(n);
  const std::size_t bins = plan.spectrum_size();
  std::vector<std::complex<double>> fa(bins);
  std::vector<std::complex<double>> fb(bins);
  std::vector<std::complex<double>> product(bins);
  plan.forward(a, fa);
  plan.forward(b, fb);
  la::simd::active().conj_multiply(fa.data(), fb.data(), product.data(), bins);
  std::vector<double> circular(n);
  plan.inverse(product, circular);

  // The circular correlation holds lag s at index s (s >= 0) or n + s.
  std::vector<double> out(out_len);
  const auto base = static_cast<std::ptrdiff_t>(b.size() - 1);
  for (std::size_t k = 0; k < out_len; ++k) {
    const std::ptrdiff_t s = static_cast<std::ptrdiff_t>(k) - base;
    out[k] = circular[s >= 0 ? static_cast<std::size_t>(s)
                             : n - static_cast<std::size_t>(-s)];
  }
  return out;
}

}  // namespace appscope::test
