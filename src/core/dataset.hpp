// appscope/core/dataset.hpp
//
// TrafficDataset is the analysis-ready view of one measurement campaign:
// the commune-level aggregates the paper's probes + geo-referencing produce
// (Sec. 2), together with the territory, the subscriber base and the service
// catalog that generated them.
//
// A dataset is usually built by TrafficDataset::generate (streaming analytic
// generation at any scale); it can also be assembled from the event-level
// pipeline's usage records via TrafficDataset::from_usage_records.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "geo/territory.hpp"
#include "io/snapshot.hpp"
#include "net/probe.hpp"
#include "synth/generator.hpp"
#include "synth/scenario.hpp"
#include "synth/sinks.hpp"
#include "workload/catalog.hpp"
#include "workload/population.hpp"

namespace appscope::core {

class TrafficDataset {
 public:
  /// Builds territory + population + catalog and streams a full synthetic
  /// week into the aggregation sinks.
  static TrafficDataset generate(const synth::ScenarioConfig& config);

  /// Builds the aggregates from event-level probe output instead of the
  /// analytic generator (records with unclassified service are dropped, as
  /// in the paper's per-service analyses).
  static TrafficDataset from_usage_records(
      const synth::ScenarioConfig& config, const geo::Territory& territory,
      const workload::SubscriberBase& subscribers,
      const workload::ServiceCatalog& catalog,
      const std::vector<net::UsageRecord>& records);

  // --- Snapshots ------------------------------------------------------------
  /// Persists the dataset as one self-contained "appscope.snapshot/1" file
  /// (config, territory, subscribers, catalog and all aggregates), replacing
  /// `path` atomically. Throws util::InputError on I/O failure.
  void save(const std::string& path) const;

  /// Reconstructs a dataset from a snapshot written by save(). The loaded
  /// aggregates are bitwise-identical to the saved ones, so any analysis on
  /// the loaded dataset reproduces the original byte for byte. Throws
  /// util::InputError on any malformed, truncated or incompatible file.
  static TrafficDataset load(const std::string& path);

  /// Same reconstruction from an already-decoded snapshot (load() is
  /// read_snapshot + this). Lets callers that hold io::LoadedSnapshot
  /// values — e.g. the region merge layer — build datasets without
  /// re-reading and re-validating the file. `context` labels errors
  /// (usually the source path).
  static TrafficDataset from_snapshot(io::LoadedSnapshot snapshot,
                                      const std::string& context);

  // --- Dimensions -----------------------------------------------------------
  std::size_t service_count() const noexcept { return catalog_->size(); }
  std::size_t commune_count() const noexcept { return territory_->size(); }

  const geo::Territory& territory() const noexcept { return *territory_; }
  const workload::SubscriberBase& subscribers() const noexcept {
    return *subscribers_;
  }
  const workload::ServiceCatalog& catalog() const noexcept { return *catalog_; }
  const synth::ScenarioConfig& config() const noexcept { return config_; }

  // --- Aggregates ------------------------------------------------------------
  /// Nationwide hourly series (168 samples) of one service.
  const std::vector<double>& national_series(workload::ServiceIndex service,
                                             workload::Direction d) const;

  /// Weekly total volume of one service in one commune.
  double commune_total(workload::ServiceIndex service, geo::CommuneId commune,
                       workload::Direction d) const;

  /// Weekly totals of one service over all communes (index = commune id).
  std::vector<double> commune_totals(workload::ServiceIndex service,
                                     workload::Direction d) const;

  /// Weekly per-subscriber volume of one service over all communes — the
  /// paper's "average traffic per user" vectors (Figs. 8-10).
  std::vector<double> per_user_commune_vector(workload::ServiceIndex service,
                                              workload::Direction d) const;

  /// Hourly series of one service restricted to one urbanization class.
  const std::vector<double>& urbanization_series(workload::ServiceIndex service,
                                                 geo::Urbanization u,
                                                 workload::Direction d) const;

  /// Per-subscriber hourly series of a service in one urbanization class
  /// (series divided by the class's subscriber count).
  std::vector<double> per_user_urbanization_series(workload::ServiceIndex service,
                                                   geo::Urbanization u,
                                                   workload::Direction d) const;

  /// Nationwide weekly volume of one service.
  double national_total(workload::ServiceIndex service,
                        workload::Direction d) const;

  /// Total network volume in one direction.
  double direction_total(workload::Direction d) const;

  /// Consistency checks (non-negative volumes, aggregate coherence between
  /// sinks); throws InvariantError on failure. Cheap; run by tests.
  void validate() const;

 private:
  TrafficDataset(synth::ScenarioConfig config,
                 std::shared_ptr<const geo::Territory> territory,
                 std::shared_ptr<const workload::SubscriberBase> subscribers,
                 std::shared_ptr<const workload::ServiceCatalog> catalog);

  void consume_stream(const std::function<void(synth::TrafficSink&)>& producer);

  synth::ScenarioConfig config_;
  std::shared_ptr<const geo::Territory> territory_;
  std::shared_ptr<const workload::SubscriberBase> subscribers_;
  std::shared_ptr<const workload::ServiceCatalog> catalog_;

  std::unique_ptr<synth::NationalSeriesSink> national_;
  std::unique_ptr<synth::CommuneTotalsSink> commune_totals_;
  std::unique_ptr<synth::UrbanizationSeriesSink> urbanization_;
  std::unique_ptr<synth::TotalsSink> totals_;

  /// Subscriber totals per urbanization class (cached).
  std::array<std::uint64_t, geo::kUrbanizationCount> class_subscribers_{};
};

}  // namespace appscope::core
