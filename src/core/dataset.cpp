#include "core/dataset.hpp"

#include <cmath>

#include "io/snapshot.hpp"
#include "serve/aggregates.hpp"
#include "util/error.hpp"

namespace appscope::core {

TrafficDataset::TrafficDataset(
    synth::ScenarioConfig config, std::shared_ptr<const geo::Territory> territory,
    std::shared_ptr<const workload::SubscriberBase> subscribers,
    std::shared_ptr<const workload::ServiceCatalog> catalog)
    : config_(std::move(config)),
      territory_(std::move(territory)),
      subscribers_(std::move(subscribers)),
      catalog_(std::move(catalog)) {
  national_ = std::make_unique<synth::NationalSeriesSink>(catalog_->size());
  commune_totals_ = std::make_unique<synth::CommuneTotalsSink>(catalog_->size(),
                                                               territory_->size());
  urbanization_ = std::make_unique<synth::UrbanizationSeriesSink>(catalog_->size());
  totals_ = std::make_unique<synth::TotalsSink>();

  for (std::size_t u = 0; u < geo::kUrbanizationCount; ++u) {
    class_subscribers_[u] = subscribers_->total_in(
        *territory_, static_cast<geo::Urbanization>(u));
  }
}

void TrafficDataset::restore(const io::DatasetAggregates& aggregates) {
  national_->restore(aggregates.national);
  commune_totals_->restore(aggregates.commune_totals);
  urbanization_->restore(aggregates.urbanization);
  totals_->restore(aggregates.downlink_total, aggregates.uplink_total,
                   aggregates.cells_consumed);
}

TrafficDataset TrafficDataset::generate(const synth::ScenarioConfig& config) {
  auto territory = std::make_shared<const geo::Territory>(
      geo::build_synthetic_country(config.country));
  auto subscribers = std::make_shared<const workload::SubscriberBase>(
      *territory, config.population);
  // The analytic path honors the scenario's regional popularity skew; the
  // event-level path (from_events) takes its catalog from the caller.
  auto catalog = std::make_shared<const workload::ServiceCatalog>(
      workload::with_popularity_tilt(workload::ServiceCatalog::paper_services(),
                                     config.popularity_tilt));

  TrafficDataset dataset(config, territory, subscribers, catalog);
  std::unique_ptr<workload::PresenceModel> presence;
  if (config.enable_mobility) {
    presence = std::make_unique<workload::PresenceModel>(*territory, *subscribers,
                                                         config.mobility);
  }
  const synth::AnalyticGenerator generator(*territory, *subscribers, *catalog,
                                           config.traffic_seed,
                                           config.temporal_noise_sigma,
                                           presence.get());
  synth::FanoutSink fanout({dataset.national_.get(),
                            dataset.commune_totals_.get(),
                            dataset.urbanization_.get(), dataset.totals_.get()});
  generator.generate(fanout);
  return dataset;
}

TrafficDataset TrafficDataset::from_events(
    const synth::ScenarioConfig& config, const geo::Territory& territory,
    const workload::SubscriberBase& subscribers,
    const workload::ServiceCatalog& catalog,
    std::span<const net::ServiceEvent> events) {
  // Copy the shared inputs into owned snapshots so the dataset is
  // self-contained like the generated variant.
  TrafficDataset dataset(
      config, std::make_shared<const geo::Territory>(territory),
      std::make_shared<const workload::SubscriberBase>(subscribers),
      std::make_shared<const workload::ServiceCatalog>(catalog));
  serve::EventAggregates aggregates(catalog.size(), territory.size());
  for (const net::ServiceEvent& e : events) {
    APPSCOPE_REQUIRE(e.service < catalog.size(),
                     "TrafficDataset::from_events: service out of range");
    APPSCOPE_REQUIRE(e.commune < territory.size(),
                     "TrafficDataset::from_events: commune out of range");
    APPSCOPE_REQUIRE(
        e.urbanization ==
            static_cast<std::uint8_t>(territory.commune(e.commune).urbanization),
        "TrafficDataset::from_events: urbanization differs from the commune's");
    aggregates.apply(e, 1);
  }
  dataset.restore(aggregates.to_dataset_aggregates(dataset.class_subscribers_));
  return dataset;
}

void TrafficDataset::save(const std::string& path) const {
  io::DatasetAggregates aggregates;
  aggregates.services = catalog_->size();
  aggregates.communes = territory_->size();
  aggregates.national = national_->snapshot_data();
  aggregates.commune_totals = commune_totals_->snapshot_data();
  aggregates.urbanization = urbanization_->snapshot_data();
  aggregates.downlink_total = totals_->downlink();
  aggregates.uplink_total = totals_->uplink();
  aggregates.cells_consumed = totals_->cells_consumed();
  aggregates.class_subscribers = class_subscribers_;
  io::write_snapshot(path, config_, *territory_, *subscribers_, *catalog_,
                     aggregates);
}

TrafficDataset TrafficDataset::load(const std::string& path) {
  return from_snapshot(io::read_snapshot(path), path);
}

TrafficDataset TrafficDataset::from_snapshot(io::LoadedSnapshot snap,
                                             const std::string& context) {
  TrafficDataset dataset(std::move(snap.config), std::move(snap.territory),
                         std::move(snap.subscribers), std::move(snap.catalog));
  // The constructor recomputes the per-class subscriber divisors from the
  // decoded territory + subscriber base; they must agree with the stored
  // section, or per-user analyses would silently diverge from the original.
  for (std::size_t u = 0; u < geo::kUrbanizationCount; ++u) {
    if (dataset.class_subscribers_[u] != snap.aggregates.class_subscribers[u]) {
      throw util::InputError(
          "snapshot: " + context +
          ": per-class subscriber counts disagree with the stored territory "
          "(corrupted or incompatible snapshot)");
    }
  }
  dataset.restore(snap.aggregates);
  return dataset;
}

const std::vector<double>& TrafficDataset::national_series(
    workload::ServiceIndex service, workload::Direction d) const {
  return national_->series(service, d);
}

double TrafficDataset::commune_total(workload::ServiceIndex service,
                                     geo::CommuneId commune,
                                     workload::Direction d) const {
  return commune_totals_->total(service, commune, d);
}

std::vector<double> TrafficDataset::commune_totals(workload::ServiceIndex service,
                                                   workload::Direction d) const {
  return commune_totals_->commune_vector(service, d);
}

std::vector<double> TrafficDataset::per_user_commune_vector(
    workload::ServiceIndex service, workload::Direction d) const {
  std::vector<double> v = commune_totals_->commune_vector(service, d);
  for (std::size_t c = 0; c < v.size(); ++c) {
    v[c] /= static_cast<double>(
        subscribers_->subscribers(static_cast<geo::CommuneId>(c)));
  }
  return v;
}

const std::vector<double>& TrafficDataset::urbanization_series(
    workload::ServiceIndex service, geo::Urbanization u,
    workload::Direction d) const {
  return urbanization_->series(service, u, d);
}

std::vector<double> TrafficDataset::per_user_urbanization_series(
    workload::ServiceIndex service, geo::Urbanization u,
    workload::Direction d) const {
  const auto& raw = urbanization_->series(service, u, d);
  const auto subs = class_subscribers_[static_cast<std::size_t>(u)];
  APPSCOPE_REQUIRE(subs > 0, "per_user_urbanization_series: empty class");
  std::vector<double> out(raw.size());
  for (std::size_t h = 0; h < raw.size(); ++h) {
    out[h] = raw[h] / static_cast<double>(subs);
  }
  return out;
}

double TrafficDataset::national_total(workload::ServiceIndex service,
                                      workload::Direction d) const {
  const auto& series = national_->series(service, d);
  double total = 0.0;
  for (const double v : series) total += v;
  return total;
}

double TrafficDataset::direction_total(workload::Direction d) const {
  return d == workload::Direction::kDownlink ? totals_->downlink()
                                             : totals_->uplink();
}

void TrafficDataset::validate() const {
  const double tol = 1e-6 * (totals_->total() + 1.0);
  for (const auto d :
       {workload::Direction::kDownlink, workload::Direction::kUplink}) {
    double national_sum = 0.0;
    double commune_sum = 0.0;
    double class_sum = 0.0;
    for (std::size_t s = 0; s < catalog_->size(); ++s) {
      for (const double v : national_->series(s, d)) {
        APPSCOPE_CHECK(v >= 0.0, "dataset: negative national volume");
        national_sum += v;
      }
      for (const double v : commune_totals_->commune_vector(s, d)) {
        APPSCOPE_CHECK(v >= 0.0, "dataset: negative commune volume");
        commune_sum += v;
      }
      for (std::size_t u = 0; u < geo::kUrbanizationCount; ++u) {
        for (const double v :
             urbanization_->series(s, static_cast<geo::Urbanization>(u), d)) {
          class_sum += v;
        }
      }
    }
    APPSCOPE_CHECK(std::abs(national_sum - commune_sum) <= tol,
                   "dataset: national/commune aggregate mismatch");
    APPSCOPE_CHECK(std::abs(national_sum - class_sum) <= tol,
                   "dataset: national/urbanization aggregate mismatch");
    APPSCOPE_CHECK(std::abs(national_sum - direction_total(d)) <= tol,
                   "dataset: national/grand-total mismatch");
  }
}

}  // namespace appscope::core
