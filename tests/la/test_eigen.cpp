#include "la/eigen.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "la/simd.hpp"
#include "la/vector_ops.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace appscope::la {
namespace {

Matrix diag2(double a, double b) { return Matrix(2, 2, {a, 0.0, 0.0, b}); }

TEST(PowerIteration, DiagonalDominantEigenpair) {
  const EigenPair p = power_iteration(diag2(5.0, 2.0));
  EXPECT_NEAR(p.value, 5.0, 1e-8);
  EXPECT_NEAR(std::abs(p.vector[0]), 1.0, 1e-6);
  EXPECT_NEAR(p.vector[1], 0.0, 1e-6);
}

TEST(PowerIteration, ReturnsLargestAlgebraicNotLargestMagnitude) {
  // Eigenvalues -10 and 1; shape extraction needs +1 (Rayleigh max).
  const EigenPair p = power_iteration(diag2(-10.0, 1.0));
  EXPECT_NEAR(p.value, 1.0, 1e-7);
}

TEST(PowerIteration, SymmetricMatrixKnownSpectrum) {
  // [[2,1],[1,2]] has eigenvalues 3 and 1; top eigenvector is (1,1)/√2.
  const Matrix m(2, 2, {2, 1, 1, 2});
  const EigenPair p = power_iteration(m);
  EXPECT_NEAR(p.value, 3.0, 1e-8);
  EXPECT_NEAR(std::abs(p.vector[0]), std::abs(p.vector[1]), 1e-6);
  EXPECT_NEAR(norm2(p.vector), 1.0, 1e-9);
}

TEST(PowerIteration, RejectsNonSymmetric) {
  const Matrix m(2, 2, {1, 2, 3, 4});
  EXPECT_THROW(power_iteration(m), util::PreconditionError);
  EXPECT_THROW(power_iteration(Matrix()), util::PreconditionError);
}

TEST(PowerIteration, EigenEquationHoldsOnRandomSymmetric) {
  util::Rng rng(11);
  const std::size_t n = 24;
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i; j < n; ++j) {
      m(i, j) = m(j, i) = rng.uniform(-1.0, 1.0);
    }
  }
  const EigenPair p = power_iteration(m);
  const auto mv = m.multiply(p.vector);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(mv[i], p.value * p.vector[i], 1e-5);
  }
}

/// The power iteration as it stood before w = M v moved to the
/// column_matvec kernel: a row-major Matrix::multiply per iteration and a
/// (never satisfiable) sign-flipped convergence clause. Kept as the bitwise
/// oracle for the kernel path.
EigenPair row_major_power_iteration(const Matrix& m,
                                    const PowerIterationOptions& opts) {
  const std::size_t n = m.rows();
  double shift = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    double radius = 0.0;
    for (std::size_t j = 0; j < n; ++j) radius += std::abs(m(i, j));
    shift = std::max(shift, radius);
  }
  shift += 1.0;

  util::Rng rng(opts.seed);
  std::vector<double> v(n);
  for (double& x : v) x = rng.uniform(-1.0, 1.0);
  normalize_l2(v);

  double lambda_shifted = 0.0;
  for (std::size_t it = 0; it < opts.max_iterations; ++it) {
    std::vector<double> w = m.multiply(v);
    axpy(shift, v, w);
    const double new_lambda = norm2(w);
    if (new_lambda == 0.0) break;
    scale(std::span<double>(w), 1.0 / new_lambda);
    const double delta = distance(w, v);
    v = std::move(w);
    std::vector<double> neg(v.size());
    for (std::size_t i = 0; i < v.size(); ++i) neg[i] = -v[i];
    const bool converged =
        std::abs(new_lambda - lambda_shifted) <= opts.tolerance * new_lambda &&
        (delta <= opts.tolerance || distance(neg, v) <= opts.tolerance);
    lambda_shifted = new_lambda;
    if (converged) break;
  }

  EigenPair result;
  const std::vector<double> av = m.multiply(v);
  result.value = dot(v, av);
  result.vector = std::move(v);
  return result;
}

/// M = Q S Q with S = sum of x x^T over `members` z-normalized random
/// series and Q the centring projector: the k-Shape shape-extraction
/// matrix (symmetric PSD), centred the way ts::kshape centres it.
Matrix qsq_matrix(std::size_t n, std::size_t members, std::uint64_t seed) {
  util::Rng rng(seed);
  Matrix s(n, n);
  std::vector<double> x(n);
  for (std::size_t k = 0; k < members; ++k) {
    for (std::size_t i = 0; i < n; ++i) {
      x[i] = std::sin(0.3 * static_cast<double>(i) + static_cast<double>(k)) +
             0.5 * rng.normal();
    }
    const double mu = mean(x);
    double ss = 0.0;
    for (const double e : x) ss += (e - mu) * (e - mu);
    const double sd = std::sqrt(ss / static_cast<double>(n));
    for (double& e : x) e = sd > 0.0 ? (e - mu) / sd : 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) s(i, j) += x[i] * x[j];
    }
  }
  const double inv_n = 1.0 / static_cast<double>(n);
  std::vector<double> rmean(n, 0.0);
  std::vector<double> cmean(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      rmean[i] += s(i, j);
      cmean[j] += s(i, j);
    }
  }
  double gmean = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    rmean[i] *= inv_n;
    gmean += rmean[i];
  }
  gmean *= inv_n;
  for (std::size_t j = 0; j < n; ++j) cmean[j] *= inv_n;
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      m(i, j) = s(i, j) - rmean[i] - cmean[j] + gmean;
    }
  }
  return m;
}

/// Random symmetric matrix with entries in [-1, 1): indefinite, so the
/// shift has to carry negative eigenvalues.
Matrix general_symmetric(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i; j < n; ++j) m(i, j) = m(j, i) = rng.uniform(-1, 1);
  }
  return m;
}

void expect_same_bits(const EigenPair& want, const EigenPair& got,
                      const std::string& what) {
  EXPECT_EQ(std::memcmp(&want.value, &got.value, sizeof(double)), 0)
      << what << ": value " << want.value << " vs " << got.value;
  ASSERT_EQ(want.vector.size(), got.vector.size()) << what;
  EXPECT_EQ(std::memcmp(want.vector.data(), got.vector.data(),
                        want.vector.size() * sizeof(double)),
            0)
      << what << ": vector bits differ";
}

TEST(PowerIteration, MatchesRowMajorOracleBitwiseAtEveryDispatch) {
  std::vector<simd::Dispatch> dispatches = {simd::Dispatch::kScalar};
  if (simd::avx2_available()) dispatches.push_back(simd::Dispatch::kAvx2);
  const simd::Dispatch original = simd::active_dispatch();

  for (const std::size_t n : {1, 2, 3, 5, 16, 17, 168}) {
    std::vector<std::pair<std::string, Matrix>> cases;
    cases.emplace_back("qsq/1", qsq_matrix(n, 1, 900 + n));
    cases.emplace_back("qsq/7", qsq_matrix(n, 7, 910 + n));
    cases.emplace_back("general", general_symmetric(n, 920 + n));
    for (const auto& [label, m] : cases) {
      PowerIterationOptions opts;
      opts.seed = 1234;
      simd::set_dispatch(simd::Dispatch::kScalar);
      const EigenPair oracle = row_major_power_iteration(m, opts);
      for (const simd::Dispatch d : dispatches) {
        simd::set_dispatch(d);
        const std::string what = label + " n=" + std::to_string(n) +
                                 (d == simd::Dispatch::kAvx2 ? " avx2" : " scalar");
        expect_same_bits(oracle, power_iteration(m, opts), what);
        expect_same_bits(oracle, row_major_power_iteration(m, opts),
                         what + " (oracle)");
      }
    }
  }
  simd::set_dispatch(original);
}

TEST(JacobiEigen, DiagonalMatrix) {
  const EigenDecomposition d = jacobi_eigen(diag2(2.0, 7.0));
  ASSERT_EQ(d.values.size(), 2u);
  EXPECT_NEAR(d.values[0], 7.0, 1e-10);
  EXPECT_NEAR(d.values[1], 2.0, 1e-10);
}

TEST(JacobiEigen, KnownSpectrum) {
  const Matrix m(3, 3, {2, 1, 0, 1, 2, 1, 0, 1, 2});
  const EigenDecomposition d = jacobi_eigen(m);
  // Eigenvalues of this tridiagonal matrix: 2 + √2, 2, 2 - √2.
  EXPECT_NEAR(d.values[0], 2.0 + std::sqrt(2.0), 1e-9);
  EXPECT_NEAR(d.values[1], 2.0, 1e-9);
  EXPECT_NEAR(d.values[2], 2.0 - std::sqrt(2.0), 1e-9);
}

TEST(JacobiEigen, EigenvectorsAreOrthonormal) {
  util::Rng rng(12);
  const std::size_t n = 10;
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i; j < n; ++j) m(i, j) = m(j, i) = rng.normal();
  }
  const EigenDecomposition d = jacobi_eigen(m);
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = 0; b < n; ++b) {
      const double expected = a == b ? 1.0 : 0.0;
      EXPECT_NEAR(dot(d.vectors.row(a), d.vectors.row(b)), expected, 1e-8);
    }
  }
}

TEST(JacobiEigen, TraceEqualsEigenvalueSum) {
  util::Rng rng(13);
  const std::size_t n = 8;
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i; j < n; ++j) m(i, j) = m(j, i) = rng.normal();
  }
  const EigenDecomposition d = jacobi_eigen(m);
  double sum = 0.0;
  for (const double v : d.values) sum += v;
  EXPECT_NEAR(sum, m.trace(), 1e-8);
}

TEST(JacobiEigen, AgreesWithPowerIteration) {
  util::Rng rng(14);
  const std::size_t n = 16;
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i; j < n; ++j) m(i, j) = m(j, i) = rng.uniform(-1, 1);
  }
  const EigenDecomposition full = jacobi_eigen(m);
  const EigenPair top = power_iteration(m);
  EXPECT_NEAR(full.values.front(), top.value, 1e-6);
}

}  // namespace
}  // namespace appscope::la
