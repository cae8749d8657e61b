// appscope/net/base_station.hpp
//
// Radio deployment: cells mapped to the commune hosting them. The paper
// associates each base station to its commune and aggregates all ULI-mapped
// traffic at commune level; this registry is that mapping.
#pragma once

#include <cstdint>
#include <vector>

#include "geo/territory.hpp"
#include "net/types.hpp"

namespace appscope::net {

struct BaseStation {
  CellId id = 0;
  geo::CommuneId commune = 0;
  /// Urbanization class of the hosting commune (stamped on probe events).
  geo::Urbanization urbanization = geo::Urbanization::kRural;
  Rat rat = Rat::kUmts3g;
};

struct DeploymentConfig {
  /// Residents served per cell (France 2016: ~50k cells / 66M ≈ 1 cell per
  /// ~1.3k inhabitants; we deploy per-commune proportionally).
  double residents_per_cell = 1500.0;
  /// Cells per commune bounds.
  std::size_t min_cells_per_commune = 1;
  std::size_t max_cells_per_commune = 64;
  /// Fraction of cells that are 4G in communes with 4G coverage.
  double lte_fraction = 0.6;
  std::uint64_t seed = 31;
};

/// The operator's radio network: cells indexed by dense CellId.
class BaseStationRegistry {
 public:
  /// Deploys cells over the territory (every commune gets at least one; RAT
  /// respects the commune's coverage flags).
  BaseStationRegistry(const geo::Territory& territory,
                      const DeploymentConfig& config);

  std::size_t size() const noexcept { return stations_.size(); }
  const BaseStation& station(CellId id) const;
  const std::vector<BaseStation>& stations() const noexcept { return stations_; }

  /// Commune hosting a cell (the probe's geo-referencing table).
  geo::CommuneId commune_of(CellId id) const;

  /// Cells deployed in a commune.
  const std::vector<CellId>& cells_in(geo::CommuneId commune) const;

  /// A cell of the commune with the requested RAT if available, otherwise
  /// any cell of the commune.
  CellId pick_cell(geo::CommuneId commune, Rat preferred,
                   std::uint64_t pick) const;

 private:
  std::vector<BaseStation> stations_;
  std::vector<std::vector<CellId>> by_commune_;
};

}  // namespace appscope::net
