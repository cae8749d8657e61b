#include "net/base_station.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace appscope::net {

BaseStationRegistry::BaseStationRegistry(const geo::Territory& territory,
                                         const DeploymentConfig& config) {
  APPSCOPE_REQUIRE(config.residents_per_cell > 0.0,
                   "DeploymentConfig: residents_per_cell must be positive");
  APPSCOPE_REQUIRE(config.min_cells_per_commune >= 1,
                   "DeploymentConfig: need at least one cell per commune");
  APPSCOPE_REQUIRE(config.lte_fraction >= 0.0 && config.lte_fraction <= 1.0,
                   "DeploymentConfig: lte_fraction must be in [0,1]");

  util::Rng rng(config.seed);
  by_commune_.resize(territory.size());
  for (const auto& commune : territory.communes()) {
    const auto wanted = static_cast<std::size_t>(
        std::round(static_cast<double>(commune.population) /
                   config.residents_per_cell));
    const std::size_t count = std::clamp(wanted, config.min_cells_per_commune,
                                         config.max_cells_per_commune);
    for (std::size_t k = 0; k < count; ++k) {
      BaseStation bs;
      bs.id = static_cast<CellId>(stations_.size());
      bs.commune = commune.id;
      bs.urbanization = commune.urbanization;
      const bool lte = commune.has_4g && rng.bernoulli(config.lte_fraction);
      bs.rat = lte ? Rat::kLte4g : Rat::kUmts3g;
      by_commune_[commune.id].push_back(bs.id);
      stations_.push_back(bs);
    }
    // Communes with 4G coverage must expose at least one LTE cell.
    if (commune.has_4g) {
      bool any_lte = false;
      for (const CellId c : by_commune_[commune.id]) {
        if (stations_[c].rat == Rat::kLte4g) {
          any_lte = true;
          break;
        }
      }
      if (!any_lte) stations_[by_commune_[commune.id].front()].rat = Rat::kLte4g;
    }
  }
}

const BaseStation& BaseStationRegistry::station(CellId id) const {
  APPSCOPE_REQUIRE(id < stations_.size(), "BaseStationRegistry: bad cell id");
  return stations_[id];
}

geo::CommuneId BaseStationRegistry::commune_of(CellId id) const {
  return station(id).commune;
}

const std::vector<CellId>& BaseStationRegistry::cells_in(
    geo::CommuneId commune) const {
  APPSCOPE_REQUIRE(commune < by_commune_.size(),
                   "BaseStationRegistry: bad commune id");
  return by_commune_[commune];
}

CellId BaseStationRegistry::pick_cell(geo::CommuneId commune, Rat preferred,
                                      std::uint64_t pick) const {
  const auto& cells = cells_in(commune);
  APPSCOPE_REQUIRE(!cells.empty(), "BaseStationRegistry: commune has no cells");
  // Deterministic round-robin over the cells with the preferred RAT.
  std::size_t matching = 0;
  for (const CellId c : cells) {
    if (stations_[c].rat == preferred) ++matching;
  }
  if (matching == 0) return cells[pick % cells.size()];
  std::size_t target = pick % matching;
  for (const CellId c : cells) {
    if (stations_[c].rat == preferred) {
      if (target == 0) return c;
      --target;
    }
  }
  return cells.front();  // unreachable
}

}  // namespace appscope::net
