// Determinism and equivalence properties for the spectrum-cached SBD batch
// path (ts/series_batch.hpp):
//
//  - the flat SeriesBatch distance matrix and ts::kshape, which runs every
//    SBD on cached spectra, are bitwise identical to per-pair oracles built
//    from ts::sbd_distance (and ts::shape_extract), at any thread count;
//  - the DistanceMatrix overloads of hierarchical clustering and the
//    cluster-quality indices equal their distance-functor counterparts.
//
// Suite name starts with "Parallel" so the TSan preset (ctest filter
// ^Parallel) races these paths too.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <vector>

#include "la/vector_ops.hpp"
#include "ts/cluster_quality.hpp"
#include "ts/hierarchical.hpp"
#include "ts/kshape.hpp"
#include "ts/sbd.hpp"
#include "ts/series_batch.hpp"
#include "ts/znorm.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace appscope {
namespace {

constexpr std::size_t kThreadCounts[] = {1, 2, 8};

std::vector<std::vector<double>> noisy_weekly_series(std::size_t count,
                                                     std::uint64_t seed,
                                                     std::size_t length = 168) {
  util::Rng rng(seed);
  std::vector<std::vector<double>> series;
  series.reserve(count);
  for (std::size_t s = 0; s < count; ++s) {
    std::vector<double> v(length);
    const double phase = rng.uniform(0.0, 6.28);
    for (std::size_t h = 0; h < v.size(); ++h) {
      v[h] = 5.0 +
             std::sin(2.0 * M_PI * static_cast<double>(h % 24) / 24.0 + phase) +
             0.3 * rng.normal();
    }
    series.push_back(std::move(v));
  }
  return series;
}

/// Runs `fn` once per thread count and checks all results compare equal.
template <typename Fn>
void expect_identical_across_thread_counts(Fn&& fn) {
  using Result = decltype(fn());
  util::ThreadPool::set_global_threads(kThreadCounts[0]);
  const Result reference = fn();
  for (std::size_t t = 1; t < std::size(kThreadCounts); ++t) {
    util::ThreadPool::set_global_threads(kThreadCounts[t]);
    const Result got = fn();
    EXPECT_TRUE(got == reference)
        << "output differs at " << kThreadCounts[t] << " threads";
  }
  util::ThreadPool::set_global_threads(0);
}

std::vector<double> flatten_kshape(const ts::KShapeResult& result) {
  std::vector<double> flat;
  for (const std::size_t a : result.assignments) {
    flat.push_back(static_cast<double>(a));
  }
  for (const auto& centroid : result.centroids) {
    flat.insert(flat.end(), centroid.begin(), centroid.end());
  }
  flat.push_back(result.inertia);
  flat.push_back(static_cast<double>(result.iterations));
  return flat;
}

TEST(ParallelSbdBatch, BatchMatrixIsBitwiseIdenticalAcrossThreads) {
  // Both sides of the spectral cutover: 64 runs direct, 168 spectral.
  for (const std::size_t length : {64u, 168u}) {
    const auto series = noisy_weekly_series(24, 51, length);
    expect_identical_across_thread_counts([&] {
      const ts::SeriesBatch batch(series);
      return ts::sbd_distance_matrix(batch);
    });
  }
}

TEST(ParallelSbdBatch, BatchMatrixEqualsPerPairMatrix) {
  for (const std::size_t length : {64u, 168u}) {
    const auto series = noisy_weekly_series(20, 53, length);
    for (const std::size_t threads : kThreadCounts) {
      util::ThreadPool::set_global_threads(threads);
      const ts::SeriesBatch batch(series);
      const ts::DistanceMatrix flat = ts::sbd_distance_matrix(batch);
      util::ThreadPool::set_global_threads(1);
      // The bitwise contract covers the computed upper triangle: the matrix
      // mirrors it (sbd is symmetric only to round-off, not bitwise) and
      // hard-codes a zero diagonal (sbd(x, x) is ~1e-16, not exactly 0).
      for (std::size_t i = 0; i < flat.size(); ++i) {
        EXPECT_EQ(flat(i, i), 0.0);
        for (std::size_t j = i + 1; j < flat.size(); ++j) {
          EXPECT_EQ(flat(i, j), ts::sbd_distance(series[i], series[j]))
              << "m=" << length << " threads=" << threads << " (" << i << ","
              << j << ")";
          EXPECT_EQ(flat(i, j), flat(j, i));
        }
      }
    }
    util::ThreadPool::set_global_threads(0);
  }
}

/// k-Shape written per pair and serially: every distance through
/// ts::sbd_distance, every refinement through ts::shape_extract, every
/// centroid norm through la::norm2. The same steps in the same order as
/// ts::kshape, without the SeriesBatch spectrum caches or the pool.
ts::KShapeResult per_pair_kshape(const std::vector<std::vector<double>>& series,
                                 const ts::KShapeOptions& opts) {
  std::vector<std::vector<double>> data;
  for (const auto& s : series) {
    data.push_back(opts.z_normalize_input
                       ? ts::znormalize(std::span<const double>(s))
                       : s);
  }
  util::Rng rng(opts.seed);
  ts::KShapeResult result;
  result.assignments.resize(data.size());
  for (auto& a : result.assignments) {
    a = static_cast<std::size_t>(rng.uniform_index(opts.k));
  }
  std::vector<std::size_t> order(data.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  rng.shuffle(order);
  for (std::size_t c = 0; c < opts.k; ++c) result.assignments[order[c]] = c;
  result.centroids.assign(opts.k,
                          std::vector<double>(data.front().size(), 0.0));

  for (std::size_t iter = 0; iter < opts.max_iterations; ++iter) {
    result.iterations = iter + 1;
    for (std::size_t c = 0; c < opts.k; ++c) {
      std::vector<std::vector<double>> members;
      for (std::size_t i = 0; i < data.size(); ++i) {
        if (result.assignments[i] == c) members.push_back(data[i]);
      }
      if (!members.empty()) {
        result.centroids[c] = ts::shape_extract(members, result.centroids[c]);
      }
    }

    const std::vector<std::size_t> prev = result.assignments;
    result.inertia = 0.0;
    for (std::size_t i = 0; i < data.size(); ++i) {
      double best = std::numeric_limits<double>::infinity();
      std::size_t best_c = prev[i];
      for (std::size_t c = 0; c < opts.k; ++c) {
        if (la::norm2(result.centroids[c]) == 0.0) continue;
        const double d = ts::sbd_distance(result.centroids[c], data[i]);
        if (d < best) {
          best = d;
          best_c = c;
        }
      }
      result.assignments[i] = best_c;
      result.inertia += best;
    }

    // Re-seed each empty cluster with the series farthest from its centroid.
    for (std::size_t c = 0; c < opts.k; ++c) {
      if (std::ranges::find(result.assignments, c) != result.assignments.end()) {
        continue;
      }
      double worst = -1.0;
      std::size_t worst_i = 0;
      for (std::size_t i = 0; i < data.size(); ++i) {
        const std::vector<double>& owner =
            result.centroids[result.assignments[i]];
        if (la::norm2(owner) == 0.0) continue;
        const double d = ts::sbd_distance(owner, data[i]);
        if (d > worst) {
          worst = d;
          worst_i = i;
        }
      }
      result.assignments[worst_i] = c;
      result.centroids[c] = data[worst_i];
    }

    if (result.assignments == prev) {
      result.converged = true;
      break;
    }
  }
  return result;
}

TEST(ParallelSbdBatch, KShapeCachedSpectraEqualsPerPairPath) {
  const auto series = noisy_weekly_series(30, 57);
  ts::KShapeOptions opts;
  opts.k = 4;
  for (const std::size_t threads : kThreadCounts) {
    util::ThreadPool::set_global_threads(threads);
    const ts::KShapeResult cached = ts::kshape(series, opts);
    const ts::KShapeResult oracle = per_pair_kshape(series, opts);
    EXPECT_TRUE(flatten_kshape(cached) == flatten_kshape(oracle))
        << "paths diverge at " << threads << " threads";
    EXPECT_EQ(cached.converged, oracle.converged);
  }
  util::ThreadPool::set_global_threads(0);
}

TEST(ParallelSbdBatch, KShapeCachedSpectraIsBitwiseIdenticalAcrossThreads) {
  const auto series = noisy_weekly_series(30, 59);
  ts::KShapeOptions opts;
  opts.k = 4;
  expect_identical_across_thread_counts(
      [&] { return flatten_kshape(ts::kshape(series, opts)); });
}

TEST(ParallelSbdBatch, HierarchicalMatrixOverloadEqualsFunctorOverload) {
  const auto series = noisy_weekly_series(16, 61);
  expect_identical_across_thread_counts([&] {
    const ts::SeriesBatch batch(series);
    const ts::Dendrogram from_matrix = ts::hierarchical_cluster(
        ts::sbd_distance_matrix(batch), ts::Linkage::kAverage);
    const ts::Dendrogram from_functor = ts::hierarchical_cluster(
        series,
        [](std::span<const double> a, std::span<const double> b) {
          return ts::sbd_distance(a, b);
        },
        ts::Linkage::kAverage);
    EXPECT_EQ(from_matrix.merges.size(), from_functor.merges.size());
    std::vector<double> flat;
    for (std::size_t v = 0; v < 2; ++v) {
      const auto& merges = (v == 0 ? from_matrix : from_functor).merges;
      for (const auto& m : merges) {
        flat.push_back(static_cast<double>(m.left));
        flat.push_back(static_cast<double>(m.right));
        flat.push_back(m.distance);
      }
    }
    return flat;
  });
}

TEST(ParallelSbdBatch, ClusterQualityMatrixOverloadEqualsFunctor) {
  const auto series = noisy_weekly_series(24, 67);
  std::vector<std::size_t> assignments(series.size());
  for (std::size_t i = 0; i < assignments.size(); ++i) {
    assignments[i] = i % 3;
  }
  const ts::DistanceFn sbd_fn = [](std::span<const double> a,
                                   std::span<const double> b) {
    return ts::sbd_distance(a, b);
  };
  expect_identical_across_thread_counts([&] {
    const ts::SeriesBatch batch(series);
    const ts::DistanceMatrix pairwise = ts::sbd_distance_matrix(batch);
    std::vector<double> flat;
    flat.push_back(ts::silhouette(pairwise, assignments));
    flat.push_back(ts::dunn_index(pairwise, assignments));
    // Functor counterparts recompute the distances through sbd_fn. The
    // matrix reads the mirrored upper triangle where the functor evaluates
    // both argument orders, and sbd is symmetric only to round-off — so
    // the indices agree to tolerance, not bitwise.
    flat.push_back(ts::silhouette(series, assignments, sbd_fn));
    flat.push_back(ts::dunn_index(series, assignments, sbd_fn));
    EXPECT_NEAR(flat[0], flat[2], 1e-12);
    EXPECT_NEAR(flat[1], flat[3], 1e-12);
    return flat;
  });
}

}  // namespace
}  // namespace appscope
