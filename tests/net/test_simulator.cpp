#include "net/simulator.hpp"

#include <gtest/gtest.h>

#include "synth/scenario.hpp"
#include "util/error.hpp"

namespace appscope::net {
namespace {

class SimulatorTest : public ::testing::Test {
 protected:
  SimulatorTest()
      : territory_(geo::build_synthetic_country(tiny_country())),
        subscribers_(territory_, {}),
        catalog_(workload::ServiceCatalog::paper_services()),
        cells_(territory_, {}),
        dpi_(catalog_) {}

  static geo::CountryConfig tiny_country() {
    geo::CountryConfig cfg;
    cfg.commune_count = 60;
    cfg.metro_count = 2;
    cfg.side_km = 150.0;
    cfg.largest_metro_population = 40'000;
    cfg.seed = 21;
    return cfg;
  }

  static SessionSimConfig thin_config() {
    SessionSimConfig cfg;
    cfg.session_thinning = 0.002;  // keep the event count test-sized
    cfg.seed = 5;
    return cfg;
  }

  geo::Territory territory_;
  workload::SubscriberBase subscribers_;
  workload::ServiceCatalog catalog_;
  BaseStationRegistry cells_;
  DpiEngine dpi_;
};

TEST_F(SimulatorTest, ProducesEventsAndRecords) {
  SessionSimulator sim(territory_, subscribers_, catalog_, cells_, dpi_,
                       thin_config());
  std::vector<ServiceEvent> records;
  const SessionSimReport report =
      sim.run([&records](const ServiceEvent& e) { records.push_back(e); });

  EXPECT_GT(report.sessions, 1000u);
  EXPECT_EQ(report.transfers, report.sessions);
  // One event per classified transfer; the unclassified rest is counted only.
  EXPECT_EQ(records.size(), report.probe.technique_hits[0] +
                                report.probe.technique_hits[1] +
                                report.probe.technique_hits[2]);
  EXPECT_LT(records.size(), report.sessions);
  EXPECT_EQ(report.probe.gtpu_records, report.sessions);
  EXPECT_EQ(report.probe.orphan_records, 0u);
  EXPECT_GT(report.handovers, 0u);
}

TEST_F(SimulatorTest, ClassificationRateNearPaperValue) {
  SessionSimulator sim(territory_, subscribers_, catalog_, cells_, dpi_,
                       thin_config());
  const SessionSimReport report = sim.run([](const ServiceEvent&) {});
  // Paper Sec. 2: the operator's DPI classifies ~88% of traffic.
  EXPECT_NEAR(report.probe.classified_fraction(), 0.88, 0.03);
}

TEST_F(SimulatorTest, OfferedVolumeMatchesProbeObservation) {
  SessionSimulator sim(territory_, subscribers_, catalog_, cells_, dpi_,
                       thin_config());
  const SessionSimReport report = sim.run([](const ServiceEvent&) {});
  EXPECT_EQ(report.probe.classified_bytes + report.probe.unclassified_bytes,
            report.offered_downlink + report.offered_uplink);
}

TEST_F(SimulatorTest, UplinkMuchSmallerThanDownlink) {
  SessionSimulator sim(territory_, subscribers_, catalog_, cells_, dpi_,
                       thin_config());
  const SessionSimReport report = sim.run([](const ServiceEvent&) {});
  const double ul_share =
      static_cast<double>(report.offered_uplink) /
      static_cast<double>(report.offered_downlink + report.offered_uplink);
  EXPECT_NEAR(ul_share, 1.0 / 21.0, 0.02);
}

TEST_F(SimulatorTest, RecordsLandInValidCommunesAndHours) {
  SessionSimulator sim(territory_, subscribers_, catalog_, cells_, dpi_,
                       thin_config());
  std::vector<ServiceEvent> records;
  sim.run([&records](const ServiceEvent& e) { records.push_back(e); });
  for (const auto& r : records) {
    ASSERT_LT(r.commune, territory_.size());
    ASSERT_LT(r.week_hour(), 168u);
    ASSERT_LT(r.service, catalog_.size());
    ASSERT_EQ(r.urbanization, static_cast<std::uint8_t>(
                                  territory_.commune(r.commune).urbanization));
  }
}

TEST_F(SimulatorTest, DeterministicForSeed) {
  SessionSimulator a(territory_, subscribers_, catalog_, cells_, dpi_,
                     thin_config());
  SessionSimulator b(territory_, subscribers_, catalog_, cells_, dpi_,
                     thin_config());
  const SessionSimReport ra = a.run([](const ServiceEvent&) {});
  const SessionSimReport rb = b.run([](const ServiceEvent&) {});
  EXPECT_EQ(ra.sessions, rb.sessions);
  EXPECT_EQ(ra.offered_downlink, rb.offered_downlink);
}

TEST_F(SimulatorTest, NightHoursQuieterThanDay) {
  SessionSimulator sim(territory_, subscribers_, catalog_, cells_, dpi_,
                       thin_config());
  std::vector<std::uint64_t> by_hour(24, 0);
  sim.run([&by_hour](const ServiceEvent& e) {
    by_hour[e.week_hour() % 24] += e.downlink_bytes;
  });
  const auto night = by_hour[3] + by_hour[4];
  const auto day = by_hour[14] + by_hour[15];
  EXPECT_GT(day, 3 * night);
}

TEST_F(SimulatorTest, UliErrorBlursCommuneAttribution) {
  // With localization error on, some sessions land in neighbouring
  // communes; totals are conserved either way.
  SessionSimConfig exact = thin_config();
  exact.uli_error_probability = 0.0;
  SessionSimConfig blurred = thin_config();
  blurred.uli_error_probability = 0.5;
  blurred.uli_error_radius_km = 30.0;

  auto per_commune = [this](const SessionSimConfig& cfg, Bytes& total) {
    SessionSimulator sim(territory_, subscribers_, catalog_, cells_, dpi_, cfg);
    std::vector<Bytes> volumes(territory_.size(), 0);
    const SessionSimReport report = sim.run([&volumes](const ServiceEvent& e) {
      volumes[e.commune] += e.downlink_bytes;
    });
    total = report.offered_downlink;
    return volumes;
  };

  Bytes exact_total = 0;
  Bytes blurred_total = 0;
  const auto exact_volumes = per_commune(exact, exact_total);
  const auto blurred_volumes = per_commune(blurred, blurred_total);
  // The extra ULI draws shift the random streams, so totals agree only
  // statistically.
  EXPECT_NEAR(static_cast<double>(blurred_total) /
                  static_cast<double>(exact_total),
              1.0, 0.10);

  std::size_t moved = 0;
  for (std::size_t c = 0; c < exact_volumes.size(); ++c) {
    if (exact_volumes[c] != blurred_volumes[c]) ++moved;
  }
  EXPECT_GT(moved, territory_.size() / 4);
}

TEST_F(SimulatorTest, ConfigValidation) {
  SessionSimConfig bad = thin_config();
  bad.sessions_per_user_week = 0.0;
  EXPECT_THROW(SessionSimulator(territory_, subscribers_, catalog_, cells_,
                                dpi_, bad),
               util::PreconditionError);
  bad = thin_config();
  bad.session_thinning = 0.0;
  EXPECT_THROW(SessionSimulator(territory_, subscribers_, catalog_, cells_,
                                dpi_, bad),
               util::PreconditionError);
  bad = thin_config();
  bad.fingerprint_visible_fraction = 1.5;
  EXPECT_THROW(SessionSimulator(territory_, subscribers_, catalog_, cells_,
                                dpi_, bad),
               util::PreconditionError);
}

}  // namespace
}  // namespace appscope::net
