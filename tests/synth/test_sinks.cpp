#include "synth/sinks.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"

namespace appscope::synth {
namespace {

/// Feeds `sink` one whole-week row whose only nonzero hour is `h`.
void feed(TrafficSink& sink, workload::ServiceIndex s, geo::CommuneId c,
          std::size_t h, geo::Urbanization u, double dl, double ul) {
  std::vector<double> downlink(ts::kHoursPerWeek, 0.0);
  std::vector<double> uplink(ts::kHoursPerWeek, 0.0);
  downlink[h] = dl;
  uplink[h] = ul;
  sink.consume_row({s, c, u, downlink, uplink});
}

TEST(NationalSeriesSink, AccumulatesPerHour) {
  NationalSeriesSink sink(2);
  feed(sink, 0, 1, 10, geo::Urbanization::kUrban, 5.0, 1.0);
  feed(sink, 0, 2, 10, geo::Urbanization::kRural, 3.0, 0.5);
  feed(sink, 1, 1, 20, geo::Urbanization::kUrban, 7.0, 2.0);

  EXPECT_DOUBLE_EQ(sink.series(0, workload::Direction::kDownlink)[10], 8.0);
  EXPECT_DOUBLE_EQ(sink.series(0, workload::Direction::kUplink)[10], 1.5);
  EXPECT_DOUBLE_EQ(sink.series(1, workload::Direction::kDownlink)[20], 7.0);
  EXPECT_DOUBLE_EQ(sink.series(1, workload::Direction::kDownlink)[10], 0.0);
  EXPECT_THROW(sink.series(2, workload::Direction::kDownlink),
               util::PreconditionError);
}

TEST(NationalSeriesSink, TimeSeriesConversion) {
  NationalSeriesSink sink(1);
  feed(sink, 0, 0, 5, geo::Urbanization::kUrban, 2.0, 0.0);
  const ts::TimeSeries series =
      sink.time_series(0, workload::Direction::kDownlink, "svc");
  EXPECT_EQ(series.size(), ts::kHoursPerWeek);
  EXPECT_EQ(series.label(), "svc");
  EXPECT_DOUBLE_EQ(series[5], 2.0);
}

TEST(CommuneTotalsSink, AccumulatesWeeklyTotals) {
  CommuneTotalsSink sink(2, 3);
  feed(sink, 0, 1, 10, geo::Urbanization::kUrban, 5.0, 1.0);
  feed(sink, 0, 1, 99, geo::Urbanization::kUrban, 2.0, 0.5);
  EXPECT_DOUBLE_EQ(sink.total(0, 1, workload::Direction::kDownlink), 7.0);
  EXPECT_DOUBLE_EQ(sink.total(0, 1, workload::Direction::kUplink), 1.5);
  EXPECT_DOUBLE_EQ(sink.total(0, 0, workload::Direction::kDownlink), 0.0);

  const auto vec = sink.commune_vector(0, workload::Direction::kDownlink);
  EXPECT_EQ(vec, (std::vector<double>{0.0, 7.0, 0.0}));
  EXPECT_THROW(sink.total(2, 0, workload::Direction::kDownlink),
               util::PreconditionError);
  EXPECT_THROW(sink.total(0, 3, workload::Direction::kDownlink),
               util::PreconditionError);
}

TEST(UrbanizationSeriesSink, SplitsByClass) {
  UrbanizationSeriesSink sink(1);
  feed(sink, 0, 0, 7, geo::Urbanization::kUrban, 4.0, 0.4);
  feed(sink, 0, 1, 7, geo::Urbanization::kTgv, 6.0, 0.6);
  EXPECT_DOUBLE_EQ(
      sink.series(0, geo::Urbanization::kUrban, workload::Direction::kDownlink)[7],
      4.0);
  EXPECT_DOUBLE_EQ(
      sink.series(0, geo::Urbanization::kTgv, workload::Direction::kDownlink)[7],
      6.0);
  EXPECT_DOUBLE_EQ(
      sink.series(0, geo::Urbanization::kRural, workload::Direction::kDownlink)[7],
      0.0);
}

TEST(TotalsSink, GrandTotals) {
  TotalsSink sink;
  feed(sink, 0, 0, 0, geo::Urbanization::kUrban, 10.0, 1.0);
  feed(sink, 1, 5, 100, geo::Urbanization::kRural, 20.0, 2.0);
  EXPECT_DOUBLE_EQ(sink.downlink(), 30.0);
  EXPECT_DOUBLE_EQ(sink.uplink(), 3.0);
  EXPECT_DOUBLE_EQ(sink.total(), 33.0);
  EXPECT_EQ(sink.cells_consumed(), 2u * ts::kHoursPerWeek);
}

TEST(FanoutSink, BroadcastsToAll) {
  NationalSeriesSink a(1);
  TotalsSink b;
  FanoutSink fan({&a, &b});
  feed(fan, 0, 0, 3, geo::Urbanization::kUrban, 9.0, 0.0);
  EXPECT_DOUBLE_EQ(a.series(0, workload::Direction::kDownlink)[3], 9.0);
  EXPECT_DOUBLE_EQ(b.downlink(), 9.0);
  EXPECT_THROW(FanoutSink({nullptr}), util::PreconditionError);
}

TEST(Sinks, ConstructorsValidate) {
  EXPECT_THROW(NationalSeriesSink(0), util::PreconditionError);
  EXPECT_THROW(CommuneTotalsSink(0, 5), util::PreconditionError);
  EXPECT_THROW(CommuneTotalsSink(5, 0), util::PreconditionError);
  EXPECT_THROW(UrbanizationSeriesSink(0), util::PreconditionError);
}

}  // namespace
}  // namespace appscope::synth
