#include <gtest/gtest.h>

#include "net/gateway.hpp"
#include "net/probe.hpp"
#include "util/error.hpp"

namespace appscope::net {
namespace {

class ProbeGatewayTest : public ::testing::Test {
 protected:
  ProbeGatewayTest() : dpi_(catalog_), cells_(make_territory(), {}) {}

  static geo::Territory make_territory() {
    geo::CountryConfig cfg;
    cfg.commune_count = 50;
    cfg.metro_count = 2;
    cfg.side_km = 150.0;
    cfg.largest_metro_population = 80'000;
    cfg.seed = 3;
    return geo::build_synthetic_country(cfg);
  }

  CellId cell_in_commune(geo::CommuneId c) const {
    return cells_.cells_in(c).front();
  }

  workload::ServiceCatalog catalog_ = workload::ServiceCatalog::paper_services();
  DpiEngine dpi_;
  BaseStationRegistry cells_;
};

TEST_F(ProbeGatewayTest, SessionLifecycleProducesGeoreferencedRecord) {
  Probe probe(cells_, dpi_);
  std::vector<ServiceEvent> records;
  probe.set_sink([&records](const ServiceEvent& e) { records.push_back(e); });

  Gateway gw(CoreInterface::kGn);
  gw.attach_probe(&probe);

  const CellId cell = cell_in_commune(7);
  const SessionId sid = gw.create_session(1001, 3600 * 5 + 10, {cell, Rat::kUmts3g});
  gw.transfer(sid, 3600 * 5 + 40, 1000, 100, "sni:youtube.com");
  gw.delete_session(sid, 3600 * 5 + 60);

  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].commune, 7u);
  EXPECT_EQ(records[0].week_hour(), 5u);
  EXPECT_EQ(records[0].downlink_bytes, 1000u);
  EXPECT_EQ(records[0].uplink_bytes, 100u);
  EXPECT_EQ(catalog_[records[0].service].name, "YouTube");
  EXPECT_EQ(gw.active_sessions(), 0u);
}

TEST_F(ProbeGatewayTest, LocationUpdateMovesGeoreference) {
  Probe probe(cells_, dpi_);
  std::vector<ServiceEvent> records;
  probe.set_sink([&records](const ServiceEvent& e) { records.push_back(e); });
  Gateway gw(CoreInterface::kS5S8);
  gw.attach_probe(&probe);

  const SessionId sid =
      gw.create_session(7, 100, {cell_in_commune(3), Rat::kLte4g});
  gw.transfer(sid, 200, 10, 1, "sni:twitter.com");
  gw.location_update(sid, 300, {cell_in_commune(9), Rat::kLte4g});
  gw.transfer(sid, 400, 20, 2, "sni:twitter.com");
  gw.delete_session(sid, 500);

  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].commune, 3u);
  EXPECT_EQ(records[1].commune, 9u);
}

TEST_F(ProbeGatewayTest, UnclassifiedTrafficCountedNotEmitted) {
  Probe probe(cells_, dpi_);
  std::vector<ServiceEvent> records;
  probe.set_sink([&records](const ServiceEvent& e) { records.push_back(e); });
  Gateway gw(CoreInterface::kGn);
  gw.attach_probe(&probe);

  const SessionId sid = gw.create_session(1, 0, {cell_in_commune(0), Rat::kUmts3g});
  gw.transfer(sid, 10, 600, 60, "sni:opaque-1");
  gw.transfer(sid, 20, 400, 40, "sni:youtube.com");
  gw.delete_session(sid, 30);

  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(catalog_[records[0].service].name, "YouTube");
  EXPECT_EQ(records[0].downlink_bytes, 400u);
  EXPECT_EQ(probe.counters().unclassified_bytes, 660u);
  EXPECT_EQ(probe.counters().classified_bytes, 440u);
  EXPECT_NEAR(probe.counters().classified_fraction(), 440.0 / 1100.0, 1e-12);
}

TEST_F(ProbeGatewayTest, OrphanRecordsAreDropped) {
  Probe probe(cells_, dpi_);
  std::size_t emitted = 0;
  probe.set_sink([&emitted](const ServiceEvent&) { ++emitted; });

  GtpuRecord orphan;
  orphan.session = 999;
  orphan.time = 50;
  orphan.downlink_bytes = 10;
  probe.on_gtpu(orphan);

  EXPECT_EQ(emitted, 0u);
  EXPECT_EQ(probe.counters().orphan_records, 1u);
}

TEST_F(ProbeGatewayTest, DeleteRemovesBearerState) {
  Probe probe(cells_, dpi_);
  Gateway gw(CoreInterface::kGn);
  gw.attach_probe(&probe);
  const SessionId sid = gw.create_session(1, 0, {cell_in_commune(0), Rat::kUmts3g});
  EXPECT_EQ(probe.tracked_bearers(), 1u);
  gw.delete_session(sid, 10);
  EXPECT_EQ(probe.tracked_bearers(), 0u);
}

TEST_F(ProbeGatewayTest, GatewayRejectsUnknownSessions) {
  Gateway gw(CoreInterface::kGn);
  EXPECT_THROW(gw.transfer(5, 0, 1, 1, "x"), util::PreconditionError);
  EXPECT_THROW(gw.delete_session(5, 0), util::PreconditionError);
  EXPECT_THROW(gw.location_update(5, 0, {}), util::PreconditionError);
  EXPECT_THROW(gw.attach_probe(nullptr), util::PreconditionError);
}

TEST_F(ProbeGatewayTest, TwoGatewaysOneProbe) {
  // Co-located GGSN + P-GW observed by the same probe (Fig. 1).
  Probe probe(cells_, dpi_);
  std::vector<ServiceEvent> records;
  probe.set_sink([&records](const ServiceEvent& e) { records.push_back(e); });
  Gateway ggsn(CoreInterface::kGn);
  Gateway pgw(CoreInterface::kS5S8);
  ggsn.attach_probe(&probe);
  pgw.attach_probe(&probe);

  const SessionId s3g = ggsn.create_session(1, 0, {cell_in_commune(1), Rat::kUmts3g});
  const SessionId s4g = pgw.create_session(2, 0, {cell_in_commune(2), Rat::kLte4g});
  ggsn.transfer(s3g, 10, 5, 1, "sni:mail.com");
  pgw.transfer(s4g, 10, 7, 2, "sni:mail.com");

  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].commune, 1u);
  EXPECT_EQ(records[1].commune, 2u);
  EXPECT_EQ(probe.counters().gtpc_events, 2u);
}

TEST_F(ProbeGatewayTest, LateHoursClampTo167) {
  Probe probe(cells_, dpi_);
  std::vector<ServiceEvent> records;
  probe.set_sink([&records](const ServiceEvent& e) { records.push_back(e); });
  Gateway gw(CoreInterface::kGn);
  gw.attach_probe(&probe);
  const SessionId sid =
      gw.create_session(1, kSecondsPerWeek - 1, {cell_in_commune(0), Rat::kUmts3g});
  gw.transfer(sid, kSecondsPerWeek + 100, 1, 0, "sni:news.com");
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].timestamp, kSecondsPerWeek - 1);
  EXPECT_EQ(records[0].week_hour(), 167u);
}

}  // namespace
}  // namespace appscope::net
