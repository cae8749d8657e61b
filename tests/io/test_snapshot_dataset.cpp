// End-to-end tests of dataset persistence: TrafficDataset::save/load
// reproduces every aggregate bitwise (so an analysis on the loaded dataset
// emits a byte-identical report) and load_or_generate_snapshot caches
// correctly.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "core/dataset.hpp"
#include "core/dataset_io.hpp"
#include "core/report.hpp"
#include "core/study.hpp"
#include "util/error.hpp"
#include "util/metrics.hpp"
#include "support/temp_dir.hpp"

namespace appscope::core {
namespace {

synth::ScenarioConfig small_config() {
  auto cfg = synth::ScenarioConfig::test_scale();
  cfg.country.commune_count = 60;
  cfg.country.metro_count = 2;
  return cfg;
}

const TrafficDataset& dataset() {
  static const TrafficDataset d = TrafficDataset::generate(small_config());
  return d;
}

std::string file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

TEST(SnapshotDataset, SaveLoadRoundTripIsBitwise) {
  const std::string path = test::temp_path("roundtrip.snapshot").string();
  dataset().save(path);
  const TrafficDataset loaded = TrafficDataset::load(path);

  ASSERT_EQ(loaded.service_count(), dataset().service_count());
  ASSERT_EQ(loaded.commune_count(), dataset().commune_count());
  EXPECT_EQ(loaded.config().traffic_seed, dataset().config().traffic_seed);
  EXPECT_EQ(loaded.subscribers().counts(), dataset().subscribers().counts());

  for (std::size_t s = 0; s < dataset().service_count(); ++s) {
    EXPECT_EQ(loaded.catalog()[s].name, dataset().catalog()[s].name);
    for (const auto d :
         {workload::Direction::kDownlink, workload::Direction::kUplink}) {
      EXPECT_EQ(loaded.national_series(s, d), dataset().national_series(s, d));
      EXPECT_EQ(loaded.commune_totals(s, d), dataset().commune_totals(s, d));
      EXPECT_EQ(loaded.per_user_commune_vector(s, d),
                dataset().per_user_commune_vector(s, d));
      for (std::size_t u = 0; u < geo::kUrbanizationCount; ++u) {
        const auto cls = static_cast<geo::Urbanization>(u);
        EXPECT_EQ(loaded.urbanization_series(s, cls, d),
                  dataset().urbanization_series(s, cls, d));
      }
    }
  }
  for (const auto d :
       {workload::Direction::kDownlink, workload::Direction::kUplink}) {
    EXPECT_EQ(loaded.direction_total(d), dataset().direction_total(d));
  }
  loaded.validate();
  std::filesystem::remove(path);
}

TEST(SnapshotDataset, LoadedDatasetEmitsByteIdenticalReport) {
  const std::string path = test::temp_path("report.snapshot").string();
  dataset().save(path);
  const TrafficDataset loaded = TrafficDataset::load(path);

  StudyOptions options;
  options.cluster.k_max = 6;  // keep the sweep short; identity is the point
  const auto render = [&](const TrafficDataset& d) {
    const StudyReport report = run_study(d, options);
    std::ostringstream out;
    write_markdown_report(report, d, out);
    return out.str();
  };
  EXPECT_EQ(render(loaded), render(dataset()));
  std::filesystem::remove(path);
}

TEST(SnapshotDataset, LoadOrGenerateCachesAndValidates) {
  const std::string path = test::temp_path("cache.snapshot").string();
  std::filesystem::remove(path);
  const auto config = small_config();

  const TrafficDataset first = load_or_generate_snapshot(config, path);
  ASSERT_TRUE(std::filesystem::exists(path));
  const TrafficDataset second = load_or_generate_snapshot(config, path);
  EXPECT_EQ(second.direction_total(workload::Direction::kDownlink),
            first.direction_total(workload::Direction::kDownlink));
  EXPECT_EQ(second.national_series(0, workload::Direction::kUplink),
            first.national_series(0, workload::Direction::kUplink));

  // A different scenario must not silently reuse the cached file.
  auto other = config;
  other.traffic_seed += 1;
  EXPECT_THROW(load_or_generate_snapshot(other, path), util::InputError);
  std::filesystem::remove(path);
}

TEST(SnapshotDataset, MetricsCountersTrackBytesAndSections) {
  const std::string path = test::temp_path("metrics.snapshot").string();
  util::MetricsRegistry::set_enabled(true);
  util::MetricsRegistry::global().reset();
  dataset().save(path);
  auto snap = util::MetricsRegistry::global().snapshot();
  const auto written = snap.counters.find("io.snapshot.bytes_written");
  ASSERT_NE(written, snap.counters.end());
  EXPECT_EQ(written->second, std::filesystem::file_size(path));
  EXPECT_EQ(snap.counters.at("io.snapshot.sections"), 9u);
  EXPECT_EQ(snap.counters.count("io.snapshot.checksum_failures"), 0u);

  util::MetricsRegistry::global().reset();
  const TrafficDataset loaded = TrafficDataset::load(path);
  snap = util::MetricsRegistry::global().snapshot();
  util::MetricsRegistry::set_enabled(false);
  const auto read = snap.counters.find("io.snapshot.bytes_read");
  ASSERT_NE(read, snap.counters.end());
  EXPECT_EQ(read->second, std::filesystem::file_size(path));
  EXPECT_EQ(snap.counters.at("io.snapshot.sections"), 9u);
  EXPECT_EQ(loaded.commune_count(), dataset().commune_count());
  std::filesystem::remove(path);
}

TEST(SnapshotDataset, MetricsOffRunIsBitwiseIdenticalToMetricsOn) {
  // The snapshot path follows the repo's observability contract: metrics
  // are pure observation, so the bytes on disk do not depend on the gate.
  const std::string off = test::temp_path("gate_off.snapshot").string();
  const std::string on = test::temp_path("gate_on.snapshot").string();
  util::MetricsRegistry::set_enabled(false);
  dataset().save(off);
  util::MetricsRegistry::set_enabled(true);
  dataset().save(on);
  util::MetricsRegistry::set_enabled(false);
  EXPECT_EQ(file_bytes(off), file_bytes(on));
  std::filesystem::remove(off);
  std::filesystem::remove(on);
}

}  // namespace
}  // namespace appscope::core
