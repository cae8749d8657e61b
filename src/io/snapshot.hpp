// appscope/io/snapshot.hpp
//
// High-level dataset persistence: bundle everything a TrafficDataset is
// made of (scenario config, territory, subscriber base, service catalog and
// the four aggregate families) into one "appscope.snapshot/1" file, and
// read it back fully validated. The aggregate payloads travel as raw
// IEEE-754 bit patterns, so save -> load reproduces every aggregate
// bitwise; core::TrafficDataset::save/load are thin wrappers over these two
// functions.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "geo/territory.hpp"
#include "synth/scenario.hpp"
#include "workload/catalog.hpp"
#include "workload/population.hpp"

namespace appscope::io {

/// Flattened copies of the streaming sinks' aggregate state, in the sinks'
/// own storage order (see io/format.hpp for the per-section layout).
struct DatasetAggregates {
  std::size_t services = 0;
  std::size_t communes = 0;
  /// [service][direction][hour], services * 2 * 168 doubles.
  std::vector<double> national;
  /// [direction][service * communes + commune], 2 * services * communes.
  std::vector<double> commune_totals;
  /// [service][class][direction][hour], services * 4 * 2 * 168.
  std::vector<double> urbanization;
  double downlink_total = 0.0;
  double uplink_total = 0.0;
  std::uint64_t cells_consumed = 0;
  /// Subscribers per urbanization class (the dataset's per-user divisors).
  std::array<std::uint64_t, geo::kUrbanizationCount> class_subscribers{};
};

struct SnapshotStats {
  std::uint64_t bytes = 0;
  std::uint32_t sections = 0;
};

/// Writes a complete dataset snapshot, atomically replacing `path` (see
/// SnapshotWriter). Throws util::InputError on I/O failure and
/// util::PreconditionError when the aggregate shapes disagree with the
/// territory/catalog dimensions.
SnapshotStats write_snapshot(const std::string& path,
                             const synth::ScenarioConfig& config,
                             const geo::Territory& territory,
                             const workload::SubscriberBase& subscribers,
                             const workload::ServiceCatalog& catalog,
                             const DatasetAggregates& aggregates);

/// Everything read_snapshot reconstructs; shared_ptr components slot
/// directly into TrafficDataset's ownership model.
struct LoadedSnapshot {
  synth::ScenarioConfig config;
  std::shared_ptr<const geo::Territory> territory;
  std::shared_ptr<const workload::SubscriberBase> subscribers;
  std::shared_ptr<const workload::ServiceCatalog> catalog;
  DatasetAggregates aggregates;
  /// Header fingerprint, for cheap compatibility checks against a caller's
  /// requested config (see config_hash in io/serialize.hpp).
  std::uint64_t config_hash = 0;
};

/// Reads and validates a snapshot written by write_snapshot. On top of the
/// structural checks in SnapshotReader (magic, version, truncation, CRCs),
/// this cross-checks every dimension: header vs embedded config vs decoded
/// territory/subscribers/catalog vs aggregate section element counts.
/// Any mismatch throws util::InputError.
LoadedSnapshot read_snapshot(const std::string& path);

/// Reads only the header fingerprint of `path` (cheap; validates the whole
/// file structurally). Throws util::InputError like read_snapshot.
std::uint64_t read_snapshot_config_hash(const std::string& path);

/// Most recent complete snapshot in a directory the appscope_serve daemon
/// seals epochs into: `latest.snapshot` when present, otherwise the
/// epoch_<index>.snapshot with the highest index, otherwise "". Only regular
/// files count — a subdirectory named like a snapshot (the region layer
/// publishes `<root>/<region>/epoch_*.snapshot`) never cross-matches. Lives
/// here (not core) so snapshot followers below the core layer can resolve
/// the publish point too.
std::string find_latest_snapshot(const std::string& directory);

/// Same resolution restricted to `<directory>/<subdir>` — the region-keyed
/// publish layout. `subdir` must be a single path component (no separators,
/// not "." or ".."); anything else throws util::InputError so a region id
/// can never escape the publish root.
std::string find_latest_snapshot(const std::string& directory,
                                 const std::string& subdir);

/// "epoch_<index>.snapshot", the index zero-padded to six digits so that
/// find_latest_snapshot's lexicographic order is the numeric order.
std::string epoch_filename(std::uint64_t index);

}  // namespace appscope::io
