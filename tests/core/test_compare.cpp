#include "core/compare.hpp"

#include <gtest/gtest.h>

#include "net/simulator.hpp"
#include "util/error.hpp"

namespace appscope::core {
namespace {

synth::ScenarioConfig tiny_config(std::uint64_t traffic_seed) {
  auto cfg = synth::ScenarioConfig::test_scale();
  cfg.country.commune_count = 120;
  cfg.country.metro_count = 2;
  cfg.traffic_seed = traffic_seed;
  return cfg;
}

TEST(CompareDatasets, IdenticalDatasetsAgreePerfectly) {
  const TrafficDataset a = TrafficDataset::generate(tiny_config(1));
  const TrafficDataset b = TrafficDataset::generate(tiny_config(1));
  const DatasetComparison cmp =
      compare_datasets(a, b, workload::Direction::kDownlink);
  ASSERT_EQ(cmp.services.size(), 20u);
  EXPECT_NEAR(cmp.mean_temporal_r2(), 1.0, 1e-12);
  EXPECT_NEAR(cmp.mean_spatial_r2(), 1.0, 1e-12);
  EXPECT_NEAR(cmp.total_volume_ratio, 1.0, 1e-12);
  for (const auto& s : cmp.services) {
    EXPECT_NEAR(s.volume_ratio, 1.0, 1e-9) << s.name;
  }
}

TEST(CompareDatasets, DifferentTrafficSeedsStayStructurallySimilar) {
  // A different traffic seed redraws the spatial residuals but keeps the
  // model: temporal shapes stay nearly identical, spatial vectors correlate
  // but not perfectly.
  const TrafficDataset a = TrafficDataset::generate(tiny_config(1));
  const TrafficDataset b = TrafficDataset::generate(tiny_config(2));
  const DatasetComparison cmp =
      compare_datasets(a, b, workload::Direction::kDownlink);
  EXPECT_GT(cmp.mean_temporal_r2(), 0.98);
  EXPECT_LT(cmp.mean_spatial_r2(), 0.999);
  EXPECT_GT(cmp.mean_spatial_r2(), 0.2);
  // At 120 communes the heavy-tailed per-commune rates make the realized
  // total swing substantially across seeds; same order of magnitude is the
  // meaningful bound here.
  EXPECT_GT(cmp.total_volume_ratio, 0.3);
  EXPECT_LT(cmp.total_volume_ratio, 3.0);
}

TEST(CompareDatasets, EventPipelineMatchesAnalyticGenerator) {
  const auto config = tiny_config(7);
  const geo::Territory territory = geo::build_synthetic_country(config.country);
  const workload::SubscriberBase subscribers(territory, config.population);
  const workload::ServiceCatalog catalog =
      workload::ServiceCatalog::paper_services();

  const TrafficDataset analytic = TrafficDataset::generate(config);

  net::BaseStationRegistry cells(territory, {});
  net::DpiEngine dpi(catalog);
  net::SessionSimConfig sim_cfg;
  sim_cfg.session_thinning = 0.05;
  sim_cfg.fingerprint_visible_fraction = 1.0;
  sim_cfg.uli_error_probability = 0.0;
  sim_cfg.seed = config.traffic_seed;
  net::SessionSimulator sim(territory, subscribers, catalog, cells, dpi, sim_cfg);
  std::vector<net::ServiceEvent> events;
  sim.run([&events](const net::ServiceEvent& e) { events.push_back(e); });
  const TrafficDataset event = TrafficDataset::from_events(
      config, territory, subscribers, catalog, events);

  const DatasetComparison cmp =
      compare_datasets(analytic, event, workload::Direction::kDownlink);
  // The two generation paths share the same workload model, so the weekly
  // shapes agree strongly and volumes land in the same ballpark.
  EXPECT_GT(cmp.mean_temporal_r2(), 0.75);
  EXPECT_GT(cmp.mean_spatial_r2(), 0.6);
  EXPECT_NEAR(cmp.total_volume_ratio, 1.0, 0.25);
}

TEST(CompareDatasets, DimensionMismatchThrows) {
  const TrafficDataset a = TrafficDataset::generate(tiny_config(1));
  auto other = tiny_config(1);
  other.country.commune_count = 130;
  const TrafficDataset b = TrafficDataset::generate(other);
  EXPECT_THROW(compare_datasets(a, b, workload::Direction::kDownlink),
               util::PreconditionError);
}

}  // namespace
}  // namespace appscope::core
