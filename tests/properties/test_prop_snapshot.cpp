// Determinism property of the snapshot store: generate -> save -> load ->
// run_study produces bitwise-identical output at every thread count. This
// composes the two contracts the repo guarantees separately — parallel
// stages are bitwise deterministic (test_prop_parallel.cpp) and snapshot
// round-trips are bitwise exact (tests/io) — and checks they hold through
// each other.
#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "core/dataset.hpp"
#include "core/report.hpp"
#include "core/study.hpp"
#include "synth/scenario.hpp"
#include "util/parallel.hpp"
#include "support/temp_dir.hpp"

namespace appscope {
namespace {

constexpr std::size_t kThreadCounts[] = {1, 2, 8};

template <typename Fn>
void expect_identical_across_thread_counts(Fn&& fn) {
  using Result = decltype(fn());
  ASSERT_GT(std::size(kThreadCounts), 0u);
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

/// generate -> save -> load, returning the loaded dataset's aggregates
/// flattened to one comparable vector.
std::vector<double> round_trip_aggregates(const synth::ScenarioConfig& config,
                                          const std::string& path) {
  core::TrafficDataset::generate(config).save(path);
  const core::TrafficDataset loaded = core::TrafficDataset::load(path);
  std::filesystem::remove(path);

  std::vector<double> flat;
  for (std::size_t s = 0; s < loaded.service_count(); ++s) {
    for (const auto d :
         {workload::Direction::kDownlink, workload::Direction::kUplink}) {
      const auto& series = loaded.national_series(s, d);
      flat.insert(flat.end(), series.begin(), series.end());
      const auto totals = loaded.commune_totals(s, d);
      flat.insert(flat.end(), totals.begin(), totals.end());
      for (std::size_t u = 0; u < geo::kUrbanizationCount; ++u) {
        const auto& cls =
            loaded.urbanization_series(s, static_cast<geo::Urbanization>(u), d);
        flat.insert(flat.end(), cls.begin(), cls.end());
      }
    }
  }
  flat.push_back(loaded.direction_total(workload::Direction::kDownlink));
  flat.push_back(loaded.direction_total(workload::Direction::kUplink));
  return flat;
}

TEST(ParallelDeterminism, SnapshotRoundTripStudyIsBitwiseIdentical) {
  auto config = synth::ScenarioConfig::test_scale();
  config.country.commune_count = 120;
  config.country.metro_count = 2;
  core::StudyOptions options;
  options.cluster.k_max = 6;

  expect_identical_across_thread_counts([&] {
    const std::string path = test::temp_path("study.snapshot");
    core::TrafficDataset::generate(config).save(path);
    const core::TrafficDataset loaded = core::TrafficDataset::load(path);
    std::filesystem::remove(path);
    const core::StudyReport report = core::run_study(loaded, options);
    std::ostringstream out;
    core::write_markdown_report(report, loaded, out);
    return out.str();
  });
}

TEST(ParallelDeterminism, SnapshotRoundTripAggregatesTestScale) {
  const auto config = synth::ScenarioConfig::test_scale();
  expect_identical_across_thread_counts([&] {
    return round_trip_aggregates(config,
                                 test::temp_path("test_scale.snapshot"));
  });
}

TEST(ParallelDeterminism, SnapshotRoundTripAggregatesExampleScale) {
  // Example-scale geography (metros, TGV lines, urbanization mix) with the
  // commune count reduced to keep the 3-thread-count sweep fast.
  auto config = synth::ScenarioConfig::example_scale();
  config.country.commune_count = 600;
  expect_identical_across_thread_counts([&] {
    return round_trip_aggregates(config,
                                 test::temp_path("example_scale.snapshot"));
  });
}

}  // namespace
}  // namespace appscope
