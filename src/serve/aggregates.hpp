// appscope/serve/aggregates.hpp
//
// Integer aggregate state for the streaming ingest plane. The daemon
// accumulates event volumes in unsigned 64-bit counters keyed exactly like
// the batch sinks — national [service][direction][hour], commune totals
// [direction][service * communes + commune], urbanization
// [service][class][direction][hour] — and converts to the double-valued
// io::DatasetAggregates only when an epoch is sealed.
//
// This is what makes epoch snapshots bitwise-identical at any shard or
// thread count: unsigned integer addition is associative and commutative,
// so the merge of per-shard partials is independent of shard assignment and
// arrival interleaving, and the uint64 -> double conversion at seal time is
// a pure function of the totals. (The analytic generator's double-valued
// sinks get the same guarantee from ordered replay instead; a live stream
// has no single canonical order to replay, so the ingest plane sums
// integers — as does core::TrafficDataset::from_events for probe output.)
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "geo/commune.hpp"
#include "io/snapshot.hpp"
#include "net/event.hpp"

namespace appscope::serve {

class EventAggregates {
 public:
  EventAggregates(std::size_t services, std::size_t communes);

  /// Folds one event, its volumes scaled by `scale` (the overload sampler's
  /// inverse keep probability; 1 when not sampling). Integer multiply, so
  /// scaled accumulation is exact.
  void apply(const net::ServiceEvent& event, std::uint64_t scale) noexcept;

  /// Adds another aggregate of the same dimensions (element-wise uint64).
  void merge(const EventAggregates& other);

  /// Zeroes every counter; dimensions and storage are kept.
  void reset() noexcept;

  std::size_t services() const noexcept { return services_; }
  std::size_t communes() const noexcept { return communes_; }
  std::uint64_t events() const noexcept { return events_; }
  std::uint64_t downlink_total() const noexcept { return downlink_; }
  std::uint64_t uplink_total() const noexcept { return uplink_; }

  /// National weekly total of one service, both directions (Zipf tracking).
  std::uint64_t national_total(std::size_t service) const;

  /// National hourly downlink series of one service as doubles (online peak
  /// detection input).
  std::vector<double> national_downlink_series(std::size_t service) const;

  /// Converts to the snapshot-store aggregate bundle. `class_subscribers`
  /// are the per-urbanization-class divisors the dataset needs (computed
  /// from the territory + subscriber base, exactly as the batch path does).
  io::DatasetAggregates to_dataset_aggregates(
      const std::array<std::uint64_t, geo::kUrbanizationCount>&
          class_subscribers) const;

 private:
  std::size_t services_;
  std::size_t communes_;
  /// [service][direction][hour]
  std::vector<std::uint64_t> national_;
  /// [direction][service * communes + commune]
  std::vector<std::uint64_t> commune_totals_;
  /// [service][class][direction][hour]
  std::vector<std::uint64_t> urbanization_;
  std::uint64_t downlink_ = 0;
  std::uint64_t uplink_ = 0;
  std::uint64_t events_ = 0;
};

}  // namespace appscope::serve
