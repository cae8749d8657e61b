#include "la/eigen.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "la/simd.hpp"
#include "la/vector_ops.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace appscope::la {

namespace {
/// Gershgorin upper bound on |lambda| for a symmetric matrix.
double gershgorin_bound(const Matrix& m) noexcept {
  double bound = 0.0;
  for (std::size_t i = 0; i < m.rows(); ++i) {
    double radius = 0.0;
    for (std::size_t j = 0; j < m.cols(); ++j) radius += std::abs(m(i, j));
    bound = std::max(bound, radius);
  }
  return bound;
}
}  // namespace

EigenPair power_iteration(const Matrix& m, const PowerIterationOptions& opts) {
  APPSCOPE_REQUIRE(!m.empty(), "power_iteration: empty matrix");
  APPSCOPE_REQUIRE(m.rows() == m.cols(), "power_iteration: matrix must be square");
  APPSCOPE_REQUIRE(m.is_symmetric(1e-9 * (1.0 + m.frobenius_norm())),
                   "power_iteration: matrix must be symmetric");

  const std::size_t n = m.rows();
  // Shift so all eigenvalues are positive: B = A + (bound + 1) I. The dominant
  // eigenvector of B is the eigenvector of A's largest algebraic eigenvalue.
  const double shift = gershgorin_bound(m) + 1.0;

  // w = M v runs through the column_matvec kernel over a transposed copy:
  // lanes span rows of M, and each w[i] keeps the ascending-j sum that
  // Matrix::multiply computes, so every dispatch yields the same bits.
  const Matrix mt = m.transpose();
  const simd::Kernels& kernels = simd::active();

  util::Rng rng(opts.seed);
  std::vector<double> v(n);
  for (double& x : v) x = rng.uniform(-1.0, 1.0);
  normalize_l2(v);

  // B = A + shift I is positive definite, so the iterate converges to the
  // top eigenvector without alternating sign: `delta` alone detects it.
  std::vector<double> w(n);
  double lambda_shifted = 0.0;
  for (std::size_t it = 0; it < opts.max_iterations; ++it) {
    kernels.column_matvec(mt.data().data(), v.data(), w.data(), n, n);
    axpy(shift, v, w);  // w = (A + shift I) v
    const double new_lambda = norm2(w);
    if (new_lambda == 0.0) break;  // v in the null space of B (degenerate)
    scale(std::span<double>(w), 1.0 / new_lambda);
    const double delta = distance(w, v);
    v.swap(w);
    const bool converged =
        std::abs(new_lambda - lambda_shifted) <= opts.tolerance * new_lambda &&
        delta <= opts.tolerance;
    lambda_shifted = new_lambda;
    if (converged) break;
  }

  EigenPair result;
  // Rayleigh quotient on the original matrix gives the unshifted eigenvalue.
  const std::vector<double> av = m.multiply(v);
  result.value = dot(v, av);
  result.vector = std::move(v);
  return result;
}

EigenDecomposition jacobi_eigen(const Matrix& m, double tolerance,
                                std::size_t max_sweeps) {
  APPSCOPE_REQUIRE(!m.empty(), "jacobi_eigen: empty matrix");
  APPSCOPE_REQUIRE(m.rows() == m.cols(), "jacobi_eigen: matrix must be square");
  APPSCOPE_REQUIRE(m.is_symmetric(1e-9 * (1.0 + m.frobenius_norm())),
                   "jacobi_eigen: matrix must be symmetric");

  const std::size_t n = m.rows();
  Matrix a = m;
  Matrix v = Matrix::identity(n);

  auto off_diag_norm = [&a, n] {
    double acc = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) acc += a(i, j) * a(i, j);
    }
    return std::sqrt(2.0 * acc);
  };

  const double scale_ref = 1.0 + a.frobenius_norm();
  for (std::size_t sweep = 0; sweep < max_sweeps; ++sweep) {
    if (off_diag_norm() <= tolerance * scale_ref) break;
    for (std::size_t p = 0; p < n; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) {
        const double apq = a(p, q);
        if (std::abs(apq) <= tolerance * scale_ref / static_cast<double>(n)) {
          continue;
        }
        const double app = a(p, p);
        const double aqq = a(q, q);
        const double theta = (aqq - app) / (2.0 * apq);
        const double t = (theta >= 0 ? 1.0 : -1.0) /
                         (std::abs(theta) + std::sqrt(theta * theta + 1.0));
        const double c = 1.0 / std::sqrt(t * t + 1.0);
        const double s = t * c;

        // Apply the rotation G(p, q, theta) on both sides: A <- G^T A G.
        for (std::size_t k = 0; k < n; ++k) {
          const double akp = a(k, p);
          const double akq = a(k, q);
          a(k, p) = c * akp - s * akq;
          a(k, q) = s * akp + c * akq;
        }
        for (std::size_t k = 0; k < n; ++k) {
          const double apk = a(p, k);
          const double aqk = a(q, k);
          a(p, k) = c * apk - s * aqk;
          a(q, k) = s * apk + c * aqk;
        }
        for (std::size_t k = 0; k < n; ++k) {
          const double vkp = v(k, p);
          const double vkq = v(k, q);
          v(k, p) = c * vkp - s * vkq;
          v(k, q) = s * vkp + c * vkq;
        }
      }
    }
  }

  // Sort by descending eigenvalue.
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&a](std::size_t i, std::size_t j) { return a(i, i) > a(j, j); });

  EigenDecomposition out;
  out.values.resize(n);
  out.vectors = Matrix(n, n);
  for (std::size_t r = 0; r < n; ++r) {
    out.values[r] = a(order[r], order[r]);
    for (std::size_t k = 0; k < n; ++k) out.vectors(r, k) = v(k, order[r]);
  }
  return out;
}

}  // namespace appscope::la
