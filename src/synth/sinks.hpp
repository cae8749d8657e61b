// appscope/synth/sinks.hpp
//
// Streaming aggregation sinks. The full-scale scenario evaluates
// 36k communes × 20 services × 168 hours × 2 directions of traffic; the
// analytic generator streams it as whole-week rows and sinks fold that
// stream into exactly the aggregates the paper's analyses need, so memory
// stays O(aggregates) instead of O(tensor).
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "geo/commune.hpp"
#include "la/aligned.hpp"
#include "ts/time_series.hpp"
#include "workload/service.hpp"

namespace appscope::synth {

/// One generated traffic row: a full week of one service in one commune,
/// both directions. The analytic generator emits rows (its hot loop fills
/// the two hourly arrays with one SIMD-dispatched product each) and the
/// aggregation sinks fold whole rows at a time. (Event-level probe output is
/// a net::ServiceEvent stream and folds through serve::EventAggregates.)
struct TrafficRow {
  workload::ServiceIndex service = 0;
  geo::CommuneId commune = 0;
  geo::Urbanization urbanization = geo::Urbanization::kRural;
  /// Hourly volumes, ts::kHoursPerWeek entries each (index = week hour).
  std::span<const double> downlink_bytes;
  std::span<const double> uplink_bytes;
};

/// Interface implemented by every aggregate builder.
class TrafficSink {
 public:
  virtual ~TrafficSink() = default;
  /// Consumes a whole-week row. The aggregate sinks fold it with the same
  /// bits as a per-hour, hour-ascending scalar fold of its values.
  virtual void consume_row(const TrafficRow& row) = 0;
};

/// Nationwide hourly series per service and direction (Figs. 4-7).
class NationalSeriesSink final : public TrafficSink {
 public:
  explicit NationalSeriesSink(std::size_t service_count);
  /// Row fold: each hour is a distinct accumulator, so the elementwise
  /// accumulate kernel reproduces the per-hour scalar bits exactly.
  void consume_row(const TrafficRow& row) override;

  /// Weekly series of one service in one direction.
  const std::vector<double>& series(workload::ServiceIndex service,
                                    workload::Direction d) const;
  ts::TimeSeries time_series(workload::ServiceIndex service,
                             workload::Direction d,
                             const std::string& label = {}) const;

  /// Snapshot support: flat copy of every series, [service][direction][hour].
  std::vector<double> snapshot_data() const;
  /// Restores the sink from a snapshot_data() payload; the element count
  /// must match this sink's dimensions (PreconditionError otherwise).
  void restore(std::span<const double> flat);

 private:
  std::size_t services_;
  /// [service][direction] -> 168 hourly sums.
  std::vector<std::array<std::vector<double>, workload::kDirectionCount>> data_;
};

/// Weekly volume totals per service, commune and direction (Figs. 8-10).
class CommuneTotalsSink final : public TrafficSink {
 public:
  CommuneTotalsSink(std::size_t service_count, std::size_t commune_count);
  /// Row fold: all 168 hours of a row land in the same two totals, so the
  /// adds stay scalar and hour-ascending to keep the accumulation order —
  /// and with it the bits — of a per-hour fold.
  void consume_row(const TrafficRow& row) override;

  double total(workload::ServiceIndex service, geo::CommuneId commune,
               workload::Direction d) const;

  /// All commune totals of one service (aligned with commune ids).
  std::vector<double> commune_vector(workload::ServiceIndex service,
                                     workload::Direction d) const;

  std::size_t commune_count() const noexcept { return communes_; }

  /// Snapshot support: flat copy, [direction][service * communes + commune].
  std::vector<double> snapshot_data() const;
  void restore(std::span<const double> flat);

 private:
  std::size_t services_;
  std::size_t communes_;
  /// [direction][service * communes + commune]
  std::array<std::vector<double>, workload::kDirectionCount> data_;
};

/// Hourly series per service, urbanization class and direction (Fig. 11).
class UrbanizationSeriesSink final : public TrafficSink {
 public:
  explicit UrbanizationSeriesSink(std::size_t service_count);
  /// Row fold via the accumulate kernel (one accumulator per hour).
  void consume_row(const TrafficRow& row) override;

  const std::vector<double>& series(workload::ServiceIndex service,
                                    geo::Urbanization u,
                                    workload::Direction d) const;

  /// Snapshot support: flat copy, [service][class][direction][hour].
  std::vector<double> snapshot_data() const;
  void restore(std::span<const double> flat);

 private:
  std::size_t services_;
  /// [service][class][direction] -> 168 hourly sums.
  std::vector<std::array<std::array<std::vector<double>, workload::kDirectionCount>,
                         geo::kUrbanizationCount>>
      data_;
};

/// Grand totals and per-direction volume (consistency checks; Sec. 3's
/// "uplink < 1/20 of total load").
class TotalsSink final : public TrafficSink {
 public:
  /// Row fold: scalar hour-ascending adds into the two running totals
  /// (sequential reduction — must match a per-hour fold's order exactly).
  /// Every row counts as ts::kHoursPerWeek consumed cells.
  void consume_row(const TrafficRow& row) override;

  double downlink() const noexcept { return downlink_; }
  double uplink() const noexcept { return uplink_; }
  double total() const noexcept { return downlink_ + uplink_; }
  std::uint64_t cells_consumed() const noexcept { return cells_; }

  /// Snapshot support: restores the running totals verbatim.
  void restore(double downlink, double uplink, std::uint64_t cells) noexcept;

 private:
  double downlink_ = 0.0;
  double uplink_ = 0.0;
  std::uint64_t cells_ = 0;
};

/// Buffers whole rows for deferred replay. This is the thread-local staging
/// area of the parallel generator: each worker streams its commune shard's
/// rows into a private RowBufferSink (headers plus two flat cache-line-
/// aligned hourly planes — no per-row allocations), and the buffers are
/// replayed into the caller's sink in shard order via consume_row, so the
/// downstream sink observes exactly the row sequence the serial generator
/// would have produced.
class RowBufferSink final : public TrafficSink {
 public:
  void consume_row(const TrafficRow& row) override;

  void reserve(std::size_t rows);
  std::size_t row_count() const noexcept { return headers_.size(); }
  /// Buffered row `r` (r < row_count()); its spans point into this buffer
  /// and stay valid until the buffer next changes.
  TrafficRow row(std::size_t r) const;
  /// Bytes currently held by the row buffers (headers + hourly planes).
  std::size_t buffered_bytes() const noexcept;

  /// Feeds every buffered row into `sink`, in insertion order.
  void replay_into(TrafficSink& sink) const;

  void clear() noexcept;

 private:
  struct Header {
    workload::ServiceIndex service;
    geo::CommuneId commune;
    geo::Urbanization urbanization;
  };
  std::vector<Header> headers_;
  /// row_count() * ts::kHoursPerWeek hourly volumes, row-major.
  la::AlignedVector<double> downlink_;
  la::AlignedVector<double> uplink_;
};

/// Broadcasts each row to several sinks (non-owning).
class FanoutSink final : public TrafficSink {
 public:
  explicit FanoutSink(std::vector<TrafficSink*> sinks);
  void consume_row(const TrafficRow& row) override;

 private:
  std::vector<TrafficSink*> sinks_;
};

}  // namespace appscope::synth
