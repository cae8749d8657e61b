#include "io/snapshot.hpp"

#include <cstdio>
#include <filesystem>
#include <string>
#include <system_error>

#include "io/binary.hpp"
#include "io/serialize.hpp"
#include "io/snapshot_reader.hpp"
#include "io/snapshot_writer.hpp"
#include "ts/calendar.hpp"
#include "util/error.hpp"
#include "util/trace.hpp"

namespace appscope::io {

namespace {

[[noreturn]] void mismatch(const std::string& path, const std::string& what) {
  throw util::InputError("snapshot: " + path + ": " + what);
}

void check_shapes(const geo::Territory& territory,
                  const workload::ServiceCatalog& catalog,
                  const DatasetAggregates& a) {
  const std::size_t services = catalog.size();
  const std::size_t communes = territory.size();
  APPSCOPE_REQUIRE(a.services == services && a.communes == communes,
                   "snapshot: aggregate dimensions disagree with components");
  APPSCOPE_REQUIRE(
      a.national.size() ==
          services * workload::kDirectionCount * ts::kHoursPerWeek,
      "snapshot: national series payload has the wrong shape");
  APPSCOPE_REQUIRE(
      a.commune_totals.size() == workload::kDirectionCount * services * communes,
      "snapshot: commune totals payload has the wrong shape");
  APPSCOPE_REQUIRE(a.urbanization.size() ==
                       services * geo::kUrbanizationCount *
                           workload::kDirectionCount * ts::kHoursPerWeek,
                   "snapshot: urbanization series payload has the wrong shape");
}

}  // namespace

SnapshotStats write_snapshot(const std::string& path,
                             const synth::ScenarioConfig& config,
                             const geo::Territory& territory,
                             const workload::SubscriberBase& subscribers,
                             const workload::ServiceCatalog& catalog,
                             const DatasetAggregates& aggregates) {
  util::ScopedSpan span("snapshot.save");
  check_shapes(territory, catalog, aggregates);
  APPSCOPE_REQUIRE(subscribers.commune_count() == territory.size(),
                   "snapshot: subscriber base disagrees with territory");

  const std::vector<std::byte> config_bytes = encode_config(config);

  SnapshotWriter::Dimensions dims;
  dims.services = static_cast<std::uint32_t>(catalog.size());
  dims.communes = static_cast<std::uint32_t>(territory.size());
  dims.hours = static_cast<std::uint32_t>(ts::kHoursPerWeek);
  dims.directions = static_cast<std::uint32_t>(workload::kDirectionCount);
  dims.urbanization_classes =
      static_cast<std::uint32_t>(geo::kUrbanizationCount);

  SnapshotWriter writer(path, dims, fnv1a64(config_bytes),
                        config.traffic_seed);
  writer.add_section(SectionId::kConfig, config_bytes);
  writer.add_section(SectionId::kTerritory, encode_territory(territory));
  writer.add_section(SectionId::kSubscribers, encode_subscribers(subscribers));
  writer.add_section(SectionId::kCatalog, encode_catalog(catalog));
  writer.add_f64_section(SectionId::kNationalSeries, aggregates.national);
  writer.add_f64_section(SectionId::kCommuneTotals, aggregates.commune_totals);
  writer.add_f64_section(SectionId::kUrbanizationSeries,
                         aggregates.urbanization);
  {
    ByteWriter totals;
    totals.f64(aggregates.downlink_total);
    totals.f64(aggregates.uplink_total);
    totals.u64(aggregates.cells_consumed);
    writer.add_section(SectionId::kTotals, totals.bytes());
  }
  writer.add_u64_section(SectionId::kClassSubscribers,
                         aggregates.class_subscribers);

  SnapshotStats stats;
  stats.sections = 9;
  stats.bytes = writer.finish();
  return stats;
}

LoadedSnapshot read_snapshot(const std::string& path) {
  util::ScopedSpan span("snapshot.load");
  const SnapshotReader reader(path);
  const SnapshotHeader& header = reader.header();

  // The header's dimension block is the contract every section is checked
  // against; reject shapes this build cannot represent before decoding.
  if (header.hours != ts::kHoursPerWeek ||
      header.directions != workload::kDirectionCount ||
      header.urbanization_classes != geo::kUrbanizationCount) {
    mismatch(path, "dimension mismatch (hours/directions/classes differ from "
                   "this build)");
  }

  LoadedSnapshot loaded;
  loaded.config_hash = header.config_hash;

  const auto config_bytes = reader.section(SectionId::kConfig);
  loaded.config = decode_config(config_bytes);
  if (fnv1a64(config_bytes) != header.config_hash) {
    mismatch(path, "config hash disagrees with the embedded config");
  }
  if (loaded.config.traffic_seed != header.traffic_seed) {
    mismatch(path, "header seed disagrees with the embedded config");
  }

  {
    util::ScopedSpan decode_span("snapshot.decode.territory");
    loaded.territory = std::make_shared<const geo::Territory>(
        decode_territory(reader.section(SectionId::kTerritory)));
  }
  {
    util::ScopedSpan decode_span("snapshot.decode.subscribers");
    loaded.subscribers = std::make_shared<const workload::SubscriberBase>(
        decode_subscribers(reader.section(SectionId::kSubscribers)));
  }
  {
    util::ScopedSpan decode_span("snapshot.decode.catalog");
    loaded.catalog = std::make_shared<const workload::ServiceCatalog>(
        decode_catalog(reader.section(SectionId::kCatalog)));
  }

  if (loaded.territory->size() != header.communes) {
    mismatch(path, "dimension mismatch (territory has " +
                       std::to_string(loaded.territory->size()) +
                       " communes, header says " +
                       std::to_string(header.communes) + ")");
  }
  if (loaded.catalog->size() != header.services) {
    mismatch(path, "dimension mismatch (catalog has " +
                       std::to_string(loaded.catalog->size()) +
                       " services, header says " +
                       std::to_string(header.services) + ")");
  }
  if (loaded.subscribers->commune_count() != header.communes) {
    mismatch(path, "dimension mismatch (subscriber counts vs communes)");
  }

  DatasetAggregates& a = loaded.aggregates;
  a.services = header.services;
  a.communes = header.communes;
  // The typed views are zero-copy into the mapping; materializing the
  // dataset's own vectors is the single copy on the load path.
  const auto national = reader.f64_section(SectionId::kNationalSeries);
  const auto commune_totals = reader.f64_section(SectionId::kCommuneTotals);
  const auto urbanization = reader.f64_section(SectionId::kUrbanizationSeries);
  a.national.assign(national.begin(), national.end());
  a.commune_totals.assign(commune_totals.begin(), commune_totals.end());
  a.urbanization.assign(urbanization.begin(), urbanization.end());
  try {
    check_shapes(*loaded.territory, *loaded.catalog, a);
  } catch (const util::PreconditionError& e) {
    mismatch(path, std::string("dimension mismatch (") + e.what() + ")");
  }

  {
    ByteReader totals(reader.section(SectionId::kTotals));
    a.downlink_total = totals.f64();
    a.uplink_total = totals.f64();
    a.cells_consumed = totals.u64();
    if (!totals.exhausted()) mismatch(path, "totals section malformed");
  }
  {
    const auto classes = reader.u64_section(SectionId::kClassSubscribers);
    if (classes.size() != geo::kUrbanizationCount) {
      mismatch(path, "class subscriber section malformed");
    }
    for (std::size_t u = 0; u < geo::kUrbanizationCount; ++u) {
      a.class_subscribers[u] = classes[u];
    }
    // Cross-check against the decoded components: the class divisors are
    // derivable, so disagreement means an inconsistent (tampered) file.
    for (std::size_t u = 0; u < geo::kUrbanizationCount; ++u) {
      const std::uint64_t recomputed = loaded.subscribers->total_in(
          *loaded.territory, static_cast<geo::Urbanization>(u));
      if (recomputed != a.class_subscribers[u]) {
        mismatch(path, "class subscriber totals disagree with the embedded "
                       "territory/subscriber base");
      }
    }
  }
  return loaded;
}

std::uint64_t read_snapshot_config_hash(const std::string& path) {
  const SnapshotReader reader(path);
  return reader.header().config_hash;
}

std::string find_latest_snapshot(const std::string& directory) {
  namespace fs = std::filesystem;
  const fs::path dir(directory);
  const fs::path latest = dir / "latest.snapshot";
  std::error_code ec;
  if (fs::is_regular_file(latest, ec)) return latest.string();

  // No latest.snapshot (sealing interrupted between the epoch rename and
  // the republish): fall back to the highest-numbered sealed epoch.
  std::string best;
  std::string best_name;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (!name.starts_with("epoch_") || !name.ends_with(".snapshot")) continue;
    // Region-keyed layouts nest publish dirs under this root; only regular
    // files are candidate snapshots here.
    std::error_code file_ec;
    if (!entry.is_regular_file(file_ec)) continue;
    // Zero-padded indices make lexicographic order the numeric order.
    if (best_name.empty() || name > best_name) {
      best_name = name;
      best = entry.path().string();
    }
  }
  return best;
}

std::string find_latest_snapshot(const std::string& directory,
                                 const std::string& subdir) {
  if (subdir.empty() || subdir == "." || subdir == ".." ||
      subdir.find('/') != std::string::npos ||
      subdir.find('\\') != std::string::npos) {
    throw util::InputError(
        "find_latest_snapshot: subdirectory filter \"" + subdir +
        "\" must be a single path component");
  }
  return find_latest_snapshot(
      (std::filesystem::path(directory) / subdir).string());
}

std::string epoch_filename(std::uint64_t index) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "epoch_%06llu.snapshot",
                static_cast<unsigned long long>(index));
  return buf;
}

}  // namespace appscope::io
