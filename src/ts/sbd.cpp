#include "ts/sbd.hpp"

#include <algorithm>
#include <cmath>

#include "la/fft.hpp"
#include "la/vector_ops.hpp"
#include "ts/series_batch.hpp"
#include "util/error.hpp"

namespace appscope::ts {

std::vector<double> ncc_c(std::span<const double> x, std::span<const double> y) {
  APPSCOPE_REQUIRE(!x.empty() && x.size() == y.size(),
                   "ncc_c: equal non-zero lengths required");
  const double nx = la::norm2(x);
  const double ny = la::norm2(y);
  const std::size_t out_len = 2 * x.size() - 1;
  if (nx == 0.0 || ny == 0.0) return std::vector<double>(out_len, 0.0);

  // cross_correlation_direct(a, b)[k] = sum_j a[j + k - (m-1)] * b[j]; with
  // a = x, b = y, index k corresponds to shifting y right by s = k - (m-1).
  std::vector<double> cc = la::cross_correlation_direct(x, y);
  const double denom = nx * ny;
  for (double& v : cc) v /= denom;
  return cc;
}

SbdResult sbd(std::span<const double> x, std::span<const double> y) {
  APPSCOPE_REQUIRE(!x.empty() && x.size() == y.size(),
                   "sbd: equal non-zero lengths required");
  // Runs the canonical kernel with fresh spectra (empty spectrum spans);
  // SeriesBatch callers hit the same kernel with cached ones.
  return detail::sbd_spans(x, la::norm2(x), {}, y, la::norm2(y), {},
                           sbd_scratch());
}

double sbd_distance(std::span<const double> x, std::span<const double> y) {
  return sbd(x, y).distance;
}

void shift_series_into(std::span<const double> y, std::ptrdiff_t shift,
                       std::vector<double>& out) {
  const auto m = static_cast<std::ptrdiff_t>(y.size());
  APPSCOPE_REQUIRE(shift > -m && shift < m, "shift_series: |shift| must be < length");
  out.assign(y.size(), 0.0);
  for (std::ptrdiff_t i = 0; i < m; ++i) {
    const std::ptrdiff_t j = i - shift;  // out[i] = y[i - shift]
    if (j >= 0 && j < m) out[static_cast<std::size_t>(i)] = y[static_cast<std::size_t>(j)];
  }
}

std::vector<double> shift_series(std::span<const double> y, std::ptrdiff_t shift) {
  std::vector<double> out;
  shift_series_into(y, shift, out);
  return out;
}

std::vector<double> align_to(std::span<const double> x, std::span<const double> y) {
  const SbdResult r = sbd(x, y);
  return shift_series(y, r.shift);
}

}  // namespace appscope::ts
