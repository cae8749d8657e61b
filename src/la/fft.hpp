// appscope/la/fft.hpp
//
// Size helper and the direct cross-correlation oracle of the SBD shape
// distance (ts/sbd.hpp). Every transform runs through the cached plans in
// la/fft_plan.hpp; the one spectral correlation in the program is the SBD
// kernel (ts::detail::sbd_spans), which tests check against
// cross_correlation_direct.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "la/fft_plan.hpp"

namespace appscope::la {

/// Smallest power of two >= n (n = 0 -> 1).
std::size_t next_pow2(std::size_t n) noexcept;

/// Full linear cross-correlation r[k] = sum_i a[i] * b[i - (k - (nb-1))]:
/// output length na + nb - 1, with lag k - (nb - 1) ranging over
/// [-(nb-1), na-1]. Direct O(na*nb) evaluation; the reference the spectral
/// SBD kernel is tested against.
std::vector<double> cross_correlation_direct(std::span<const double> a,
                                             std::span<const double> b);

}  // namespace appscope::la
