// End-to-end bitwise parity of the la::simd dispatch: every pipeline that
// crosses a dispatched kernel (FFT plans, z-normalization, SBD matrices,
// k-Shape, the analytic generator) must produce identical bits whether the
// active table is the AVX2 one or the scalar reference, at every thread
// count. This is the project's determinism contract for the SIMD layer:
// APPSCOPE_SIMD is a performance knob, never a results knob.
//
// Suite name starts with "Parallel" so the TSan preset (ctest filter
// ^Parallel) also races the dispatch flip against the worker pool.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstring>
#include <vector>

#include "la/fft_plan.hpp"
#include "la/simd.hpp"
#include "support/spectral_correlation.hpp"
#include "synth/generator.hpp"
#include "synth/scenario.hpp"
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

/// Runs `fn` under the scalar table and (when available) the AVX2 table, at
/// every thread count, and checks every run compares equal to the first.
/// The dispatch is restored afterwards.
template <typename Fn>
void expect_identical_across_dispatch_and_threads(Fn&& fn) {
  using Result = decltype(fn());
  namespace simd = la::simd;
  const simd::Dispatch original = simd::active_dispatch();

  simd::set_dispatch(simd::Dispatch::kScalar);
  util::ThreadPool::set_global_threads(kThreadCounts[0]);
  const Result reference = fn();

  const std::vector<simd::Dispatch> dispatches =
      simd::avx2_available()
          ? std::vector<simd::Dispatch>{simd::Dispatch::kScalar,
                                        simd::Dispatch::kAvx2}
          : std::vector<simd::Dispatch>{simd::Dispatch::kScalar};
  for (const simd::Dispatch d : dispatches) {
    simd::set_dispatch(d);
    for (const std::size_t threads : kThreadCounts) {
      util::ThreadPool::set_global_threads(threads);
      const Result got = fn();
      EXPECT_TRUE(got == reference)
          << "output differs under "
          << (d == simd::Dispatch::kAvx2 ? "avx2" : "scalar") << " at "
          << threads << " threads";
    }
  }
  util::ThreadPool::set_global_threads(0);
  simd::set_dispatch(original);
}

TEST(ParallelSimdParity, RealFftRoundTrip) {
  const auto series = noisy_weekly_series(4, 101);
  expect_identical_across_dispatch_and_threads([&] {
    const la::RealFftPlan& plan = la::RealFftPlan::plan_for(512);
    std::vector<double> flat;
    std::vector<std::complex<double>> spectrum(plan.spectrum_size());
    std::vector<double> back(512);
    for (const auto& s : series) {
      plan.forward(s, spectrum);
      for (const auto& bin : spectrum) {
        flat.push_back(bin.real());
        flat.push_back(bin.imag());
      }
      plan.inverse(spectrum, back);
      flat.insert(flat.end(), back.begin(), back.end());
    }
    return flat;
  });
}

// The spectral SBD path at the weekly length (m = 168 pads to 512): every
// lag of the plan-and-conj-multiply correlation, and the SBD result the
// kernel scans out of it.
TEST(ParallelSimdParity, CrossCorrelationFft) {
  const auto series = noisy_weekly_series(2, 102);
  ASSERT_TRUE(ts::sbd_uses_spectral(series[0].size()));
  expect_identical_across_dispatch_and_threads([&] {
    std::vector<double> flat =
        test::spectral_cross_correlation(series[0], series[1]);
    const ts::SbdResult r = ts::sbd(series[0], series[1]);
    flat.push_back(r.distance);
    flat.push_back(r.ncc);
    flat.push_back(static_cast<double>(r.shift));
    return flat;
  });
}

TEST(ParallelSimdParity, Znormalize) {
  const auto series = noisy_weekly_series(8, 103);
  expect_identical_across_dispatch_and_threads([&] {
    std::vector<std::vector<double>> out;
    for (const auto& s : series) out.push_back(ts::znormalize(s));
    return out;
  });
}

TEST(ParallelSimdParity, SbdDistanceMatrix) {
  const auto series = noisy_weekly_series(24, 104);
  expect_identical_across_dispatch_and_threads(
      [&] { return ts::sbd_distance_matrix(ts::SeriesBatch(series)); });
}

TEST(ParallelSimdParity, SbdPairsIncludingZeroNormAndTies) {
  // Adversarial pairs for the max-scan: constant (zero-norm) series, exact
  // ties from periodic series, and anti-phase pairs where the best lag is
  // negative (range-order tie-breaking in the spectral scan).
  std::vector<std::vector<double>> pairs = noisy_weekly_series(4, 105);
  pairs.push_back(std::vector<double>(168, 3.25));  // zero norm after znorm
  std::vector<double> square(168);
  for (std::size_t h = 0; h < square.size(); ++h) {
    square[h] = (h / 12) % 2 == 0 ? 1.0 : -1.0;  // periodic: many tied lags
  }
  pairs.push_back(square);
  std::vector<double> shifted(square.rbegin(), square.rend());
  pairs.push_back(shifted);
  expect_identical_across_dispatch_and_threads([&] {
    std::vector<double> flat;
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      for (std::size_t j = 0; j < pairs.size(); ++j) {
        const ts::SbdResult r = ts::sbd(pairs[i], pairs[j]);
        flat.push_back(r.distance);
        flat.push_back(static_cast<double>(r.shift));
        flat.push_back(r.ncc);
      }
    }
    return flat;
  });
}

TEST(ParallelSimdParity, KShape) {
  const auto series = noisy_weekly_series(24, 106);
  ts::KShapeOptions opts;
  opts.k = 4;
  expect_identical_across_dispatch_and_threads([&] {
    const ts::KShapeResult r = ts::kshape(series, opts);
    return std::make_tuple(r.assignments, r.centroids, r.inertia, r.iterations);
  });
}

TEST(ParallelSimdParity, ColumnMatvecRandomShapes) {
  // Random (rows, n) shapes with entries spread over 16 decades, so any
  // reordering of a column sum would round differently: both tables must
  // reproduce the row-major ascending-j sum bit for bit.
  namespace simd = la::simd;
  std::vector<const simd::Kernels*> tables = {
      &simd::kernels_for(simd::Dispatch::kScalar)};
  if (simd::avx2_available()) {
    tables.push_back(&simd::kernels_for(simd::Dispatch::kAvx2));
  }
  util::Rng rng(107);
  auto wide = [&rng] {
    return rng.normal() * std::pow(10.0, rng.uniform(-8.0, 8.0));
  };
  for (int draw = 0; draw < 200; ++draw) {
    const std::size_t rows = rng.uniform_index(201);
    const std::size_t n = 1 + rng.uniform_index(200);
    std::vector<double> at(rows * n);
    std::vector<double> x(rows);
    for (double& e : at) e = wide();
    for (double& e : x) e = wide();
    std::vector<double> want(n);
    for (std::size_t i = 0; i < n; ++i) {
      double acc = 0.0;
      for (std::size_t j = 0; j < rows; ++j) acc += at[j * n + i] * x[j];
      want[i] = acc;
    }
    for (const simd::Kernels* k : tables) {
      std::vector<double> got(n, 7.0);
      k->column_matvec(at.data(), x.data(), got.data(), rows, n);
      EXPECT_EQ(std::memcmp(want.data(), got.data(), n * sizeof(double)), 0)
          << k->name << " rows=" << rows << " n=" << n;
    }
  }
}

TEST(ParallelSimdParity, AnalyticGeneratorAggregates) {
  auto config = synth::ScenarioConfig::test_scale();
  config.country.commune_count = 150;
  const geo::Territory territory = geo::build_synthetic_country(config.country);
  const workload::SubscriberBase subscribers(territory, config.population);
  const workload::ServiceCatalog catalog =
      workload::ServiceCatalog::paper_services();
  const synth::AnalyticGenerator gen(territory, subscribers, catalog,
                                     config.traffic_seed,
                                     config.temporal_noise_sigma);
  expect_identical_across_dispatch_and_threads([&] {
    synth::NationalSeriesSink national(catalog.size());
    synth::CommuneTotalsSink communes(catalog.size(), territory.size());
    synth::TotalsSink totals;
    synth::FanoutSink fanout({&national, &communes, &totals});
    gen.generate(fanout);
    std::vector<double> flat = national.snapshot_data();
    const std::vector<double> ct = communes.snapshot_data();
    flat.insert(flat.end(), ct.begin(), ct.end());
    flat.push_back(totals.downlink());
    flat.push_back(totals.uplink());
    flat.push_back(static_cast<double>(totals.cells_consumed()));
    return flat;
  });
}

TEST(ParallelSimdParity, RowPathMatchesCellPath) {
  // The row-based sink folds must equal a cell-at-a-time fold of the very
  // same stream: a scalar oracle adds every row's hours one by one, hour-
  // ascending, and all aggregates are compared bitwise.
  auto config = synth::ScenarioConfig::test_scale();
  config.country.commune_count = 80;
  const geo::Territory territory = geo::build_synthetic_country(config.country);
  const workload::SubscriberBase subscribers(territory, config.population);
  const workload::ServiceCatalog catalog =
      workload::ServiceCatalog::paper_services();
  const synth::AnalyticGenerator gen(territory, subscribers, catalog,
                                     config.traffic_seed,
                                     config.temporal_noise_sigma);

  // National series [service][direction][hour] and grand totals, one
  // scalar += per (row, hour) in hour order.
  class CellFold final : public synth::TrafficSink {
   public:
    explicit CellFold(std::size_t services)
        : national(services * 2 * ts::kHoursPerWeek, 0.0) {}
    void consume_row(const synth::TrafficRow& row) override {
      double* dl = &national[row.service * 2 * ts::kHoursPerWeek];
      double* ul = dl + ts::kHoursPerWeek;
      for (std::size_t h = 0; h < ts::kHoursPerWeek; ++h) {
        dl[h] += row.downlink_bytes[h];
        ul[h] += row.uplink_bytes[h];
        downlink += row.downlink_bytes[h];
        uplink += row.uplink_bytes[h];
        ++cells;
      }
    }
    std::vector<double> national;
    double downlink = 0.0;
    double uplink = 0.0;
    std::uint64_t cells = 0;
  };

  synth::NationalSeriesSink row_national(catalog.size());
  synth::TotalsSink row_totals;
  synth::FanoutSink row_fanout({&row_national, &row_totals});
  gen.generate(row_fanout);

  CellFold cells(catalog.size());
  gen.generate(cells);

  EXPECT_EQ(row_national.snapshot_data(), cells.national);
  EXPECT_EQ(row_totals.downlink(), cells.downlink);
  EXPECT_EQ(row_totals.uplink(), cells.uplink);
  EXPECT_EQ(row_totals.cells_consumed(), cells.cells);
}

}  // namespace
}  // namespace appscope
