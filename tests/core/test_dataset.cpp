#include "core/dataset.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <string>

#include "net/simulator.hpp"
#include "support/temp_dir.hpp"
#include "util/error.hpp"

namespace appscope::core {
namespace {

/// Shared test-scale dataset (generation is the expensive part; build once).
const TrafficDataset& test_dataset() {
  static const TrafficDataset dataset =
      TrafficDataset::generate(synth::ScenarioConfig::test_scale());
  return dataset;
}

TEST(TrafficDataset, DimensionsMatchScenario) {
  const auto& d = test_dataset();
  EXPECT_EQ(d.service_count(), 20u);
  EXPECT_EQ(d.commune_count(), 400u);
  EXPECT_EQ(d.territory().size(), d.commune_count());
  EXPECT_EQ(d.subscribers().commune_count(), d.commune_count());
}

TEST(TrafficDataset, ValidatePasses) {
  EXPECT_NO_THROW(test_dataset().validate());
}

TEST(TrafficDataset, NationalSeriesConsistentWithTotals) {
  const auto& d = test_dataset();
  for (const auto dir :
       {workload::Direction::kDownlink, workload::Direction::kUplink}) {
    double sum = 0.0;
    for (std::size_t s = 0; s < d.service_count(); ++s) {
      sum += d.national_total(s, dir);
    }
    EXPECT_NEAR(sum, d.direction_total(dir), 1e-6 * sum);
  }
}

TEST(TrafficDataset, CommuneTotalsSumToNationalTotal) {
  const auto& d = test_dataset();
  const auto yt = *d.catalog().find("YouTube");
  const auto totals = d.commune_totals(yt, workload::Direction::kDownlink);
  double sum = 0.0;
  for (const double v : totals) sum += v;
  EXPECT_NEAR(sum, d.national_total(yt, workload::Direction::kDownlink),
              1e-6 * sum);
}

TEST(TrafficDataset, PerUserVectorDividesBySubscribers) {
  const auto& d = test_dataset();
  const auto yt = *d.catalog().find("YouTube");
  const auto totals = d.commune_totals(yt, workload::Direction::kDownlink);
  const auto per_user = d.per_user_commune_vector(yt, workload::Direction::kDownlink);
  ASSERT_EQ(per_user.size(), totals.size());
  for (std::size_t c = 0; c < totals.size(); ++c) {
    const double subs =
        static_cast<double>(d.subscribers().subscribers(static_cast<geo::CommuneId>(c)));
    EXPECT_NEAR(per_user[c] * subs, totals[c], 1e-9 * (totals[c] + 1.0));
  }
}

TEST(TrafficDataset, UrbanizationSeriesCoverAllClasses) {
  const auto& d = test_dataset();
  const auto fb = *d.catalog().find("Facebook");
  for (std::size_t u = 0; u < geo::kUrbanizationCount; ++u) {
    const auto& series = d.urbanization_series(
        fb, static_cast<geo::Urbanization>(u), workload::Direction::kDownlink);
    double sum = 0.0;
    for (const double v : series) sum += v;
    EXPECT_GT(sum, 0.0) << "class " << u;
  }
}

TEST(TrafficDataset, PerUserUrbanizationSeriesScales) {
  const auto& d = test_dataset();
  const auto fb = *d.catalog().find("Facebook");
  const auto raw = d.urbanization_series(fb, geo::Urbanization::kUrban,
                                         workload::Direction::kDownlink);
  const auto per_user = d.per_user_urbanization_series(
      fb, geo::Urbanization::kUrban, workload::Direction::kDownlink);
  const auto subs = d.subscribers().total_in(d.territory(), geo::Urbanization::kUrban);
  for (std::size_t h = 0; h < raw.size(); ++h) {
    EXPECT_NEAR(per_user[h] * static_cast<double>(subs), raw[h],
                1e-9 * (raw[h] + 1.0));
  }
}

/// A small territory and one probe-observed week of its events.
struct EventWeek {
  synth::ScenarioConfig config = [] {
    auto cfg = synth::ScenarioConfig::test_scale();
    cfg.country.commune_count = 80;
    cfg.country.metro_count = 2;
    return cfg;
  }();
  geo::Territory territory = geo::build_synthetic_country(config.country);
  workload::SubscriberBase subscribers{territory, config.population};
  workload::ServiceCatalog catalog = workload::ServiceCatalog::paper_services();
  std::vector<net::ServiceEvent> events;
  net::SessionSimReport report;

  EventWeek() {
    const net::BaseStationRegistry cells(territory, {});
    const net::DpiEngine dpi(catalog);
    net::SessionSimConfig sim_cfg;
    sim_cfg.session_thinning = 0.01;
    net::SessionSimulator sim(territory, subscribers, catalog, cells, dpi,
                              sim_cfg);
    report = sim.run(
        [this](const net::ServiceEvent& e) { events.push_back(e); });
  }

  TrafficDataset dataset(std::span<const net::ServiceEvent> in) const {
    return TrafficDataset::from_events(config, territory, subscribers, catalog,
                                       in);
  }
};

std::string file_bytes(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

TEST(TrafficDataset, FromEventsBuildsCoherentDataset) {
  const EventWeek week;
  ASSERT_FALSE(week.events.empty());

  const TrafficDataset d = week.dataset(week.events);
  EXPECT_NO_THROW(d.validate());
  EXPECT_GT(d.direction_total(workload::Direction::kDownlink), 0.0);
  // The probe emits classified traffic only: the dataset holds exactly the
  // classified volume, less than everything the probe observed.
  const double dataset_volume = d.direction_total(workload::Direction::kDownlink) +
                                d.direction_total(workload::Direction::kUplink);
  EXPECT_EQ(dataset_volume,
            static_cast<double>(week.report.probe.classified_bytes));
  EXPECT_LT(dataset_volume,
            static_cast<double>(week.report.probe.classified_bytes +
                                week.report.probe.unclassified_bytes));
}

TEST(TrafficDataset, FromEventsIsOrderIndependent) {
  const EventWeek week;
  ASSERT_GT(week.events.size(), 2u);

  std::vector<net::ServiceEvent> shuffled = week.events;
  std::mt19937_64 rng(17);
  std::shuffle(shuffled.begin(), shuffled.end(), rng);
  // The two halves of the stream, rejoined second half first.
  std::vector<net::ServiceEvent> rejoined = week.events;
  std::rotate(rejoined.begin(), rejoined.begin() + rejoined.size() / 2,
              rejoined.end());

  const auto original = test::temp_path("original.snapshot");
  const auto from_shuffled = test::temp_path("shuffled.snapshot");
  const auto from_rejoined = test::temp_path("rejoined.snapshot");
  week.dataset(week.events).save(original.string());
  week.dataset(shuffled).save(from_shuffled.string());
  week.dataset(rejoined).save(from_rejoined.string());

  const std::string expected = file_bytes(original);
  ASSERT_FALSE(expected.empty());
  EXPECT_TRUE(file_bytes(from_shuffled) == expected);
  EXPECT_TRUE(file_bytes(from_rejoined) == expected);
}

/// One valid event of commune 0; each rejection test breaks one field.
net::ServiceEvent valid_event(const EventWeek& week) {
  net::ServiceEvent e;
  e.urbanization =
      static_cast<std::uint8_t>(week.territory.commune(0).urbanization);
  e.downlink_bytes = 10;
  return e;
}

TEST(TrafficDataset, FromEventsRejectsOutOfRangeService) {
  const EventWeek week;
  net::ServiceEvent e = valid_event(week);
  EXPECT_NO_THROW(week.dataset({&e, 1}));
  e.service = static_cast<std::uint16_t>(week.catalog.size());
  EXPECT_THROW(week.dataset({&e, 1}), util::PreconditionError);
}

TEST(TrafficDataset, FromEventsRejectsOutOfRangeCommune) {
  const EventWeek week;
  net::ServiceEvent e = valid_event(week);
  e.commune = static_cast<geo::CommuneId>(week.territory.size());
  EXPECT_THROW(week.dataset({&e, 1}), util::PreconditionError);
}

TEST(TrafficDataset, FromEventsRejectsUrbanizationOtherThanTheCommunes) {
  const EventWeek week;
  net::ServiceEvent e = valid_event(week);
  e.urbanization = static_cast<std::uint8_t>((e.urbanization + 1) %
                                             geo::kUrbanizationCount);
  EXPECT_THROW(week.dataset({&e, 1}), util::PreconditionError);
}

}  // namespace
}  // namespace appscope::core
