// Unit + integration coverage of the src/region subsystem: preset
// validation, the region-keyed publish layout, snapshot reuse, the merge
// contract (typed rejection of mismatched inputs, aggregate consistency of
// the national view) and the cross-region comparison report, including the
// golden 4-region national report (byte-identical renders).
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/dataset.hpp"
#include "io/serialize.hpp"
#include "io/snapshot.hpp"
#include "region/compare.hpp"
#include "region/merge.hpp"
#include "region/orchestrator.hpp"
#include "region/report.hpp"
#include "region/spec.hpp"
#include "util/error.hpp"
#include "support/temp_dir.hpp"

namespace appscope::region {
namespace {

namespace fs = std::filesystem;

std::string file_bytes(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// --- RegionSet presets -------------------------------------------------------

TEST(RegionSpec, TwentyPresetsAreDistinctAndValid) {
  const RegionSet set = RegionSet::metro_areas(20, RegionScale::kTiny);
  ASSERT_EQ(set.size(), 20u);

  std::set<std::string> ids;
  std::set<std::uint64_t> traffic_seeds;
  std::set<std::uint64_t> country_seeds;
  std::set<std::uint64_t> config_hashes;
  for (const RegionSpec& r : set.regions()) {
    EXPECT_TRUE(valid_region_id(r.id)) << r.id;
    EXPECT_EQ(r.config.region, r.id);
    EXPECT_FALSE(r.name.empty());
    EXPECT_GE(r.config.country.commune_count, 2 * r.config.country.metro_count)
        << r.id;
    ids.insert(r.id);
    traffic_seeds.insert(r.config.traffic_seed);
    country_seeds.insert(r.config.country.seed);
    config_hashes.insert(io::config_hash(r.config));
  }
  // Every region draws from its own random streams and hashes uniquely.
  EXPECT_EQ(ids.size(), 20u);
  EXPECT_EQ(traffic_seeds.size(), 20u);
  EXPECT_EQ(country_seeds.size(), 20u);
  EXPECT_EQ(config_hashes.size(), 20u);

  // The preset table spans heterogeneous profiles: urbanization mixes and
  // popularity tilts must not collapse to one value.
  std::set<double> fractions;
  std::set<double> tilts;
  for (const RegionSpec& r : set.regions()) {
    fractions.insert(r.config.country.metro_commune_fraction);
    tilts.insert(r.config.popularity_tilt);
  }
  EXPECT_GE(fractions.size(), 8u);
  EXPECT_GE(tilts.size(), 12u);
}

TEST(RegionSpec, NamedSelectionAndErrors) {
  const RegionSet set =
      RegionSet::metro_areas_named({"lille", "paris"}, RegionScale::kTiny);
  ASSERT_EQ(set.size(), 2u);
  EXPECT_EQ(set[0].id, "lille");
  EXPECT_EQ(set[1].id, "paris");
  EXPECT_NE(set.find("paris"), nullptr);
  EXPECT_EQ(set.find("atlantis"), nullptr);

  EXPECT_THROW(RegionSet::metro_areas(0), util::InputError);
  EXPECT_THROW(RegionSet::metro_areas(21), util::InputError);
  EXPECT_THROW(RegionSet::metro_areas_named({"atlantis"}), util::InputError);
  EXPECT_EQ(RegionSet::preset_ids().size(), 20u);
}

TEST(RegionSpec, SetConstructionRejectsBadIds) {
  const RegionSet base = RegionSet::metro_areas(2, RegionScale::kTiny);
  {
    std::vector<RegionSpec> dup = {base[0], base[0]};
    EXPECT_THROW(RegionSet{dup}, util::InputError);
  }
  {
    std::vector<RegionSpec> slash = {base[0]};
    slash[0].id = "a/b";
    slash[0].config.region = "a/b";
    EXPECT_THROW(RegionSet{slash}, util::InputError);
  }
  {
    std::vector<RegionSpec> skew = {base[0]};
    skew[0].config.region = "someone-else";
    EXPECT_THROW(RegionSet{skew}, util::InputError);
  }
  EXPECT_THROW(RegionSet{std::vector<RegionSpec>{}}, util::InputError);
}

// --- Orchestrator ------------------------------------------------------------

TEST(RegionOrchestrator, PublishesRegionKeyedLayoutAndReuses) {
  const fs::path root = test::temp_path("orchestrate");
  const RegionSet set = RegionSet::metro_areas(3, RegionScale::kTiny);

  OrchestratorOptions options;
  options.root = root.string();
  const OrchestrationReport first = orchestrate(set, options);
  ASSERT_EQ(first.runs.size(), 3u);
  EXPECT_EQ(first.generated_count(), 3u);
  for (std::size_t i = 0; i < set.size(); ++i) {
    const RegionRun& run = first.runs[i];
    EXPECT_EQ(run.id, set[i].id);
    EXPECT_FALSE(run.reused);
    EXPECT_TRUE(fs::is_regular_file(root / run.id / "epoch_000000.snapshot"));
    EXPECT_TRUE(fs::is_regular_file(root / run.id / "latest.snapshot"));
    // latest.snapshot is a second name of the epoch, not a copy, and the
    // publish path leaves no temp file behind.
    EXPECT_TRUE(fs::equivalent(root / run.id / "latest.snapshot",
                               run.snapshot_path));
    EXPECT_EQ(fs::hard_link_count(root / run.id / "latest.snapshot"), 2u);
    for (const auto& entry : fs::directory_iterator(root / run.id)) {
      EXPECT_EQ(entry.path().filename().string().find(".tmp"),
                std::string::npos)
          << entry.path();
    }
    // The published snapshot round-trips as this region's dataset.
    const core::TrafficDataset loaded =
        core::TrafficDataset::load(run.snapshot_path);
    EXPECT_EQ(loaded.config().region, run.id);
    loaded.validate();
  }
  // The root itself holds no snapshot — region dirs never cross-match.
  EXPECT_EQ(io::find_latest_snapshot(root.string()), "");

  // Second run over warm snapshots: everything reused, nothing rewritten.
  const OrchestrationReport second = orchestrate(set, options);
  EXPECT_EQ(second.reused_count(), 3u);
  for (std::size_t i = 0; i < set.size(); ++i) {
    EXPECT_TRUE(second.runs[i].reused);
    EXPECT_EQ(second.runs[i].config_hash, first.runs[i].config_hash);
  }
  fs::remove_all(root);
}

TEST(RegionOrchestrator, RejectsForeignSnapshotsInRegionDirectory) {
  const fs::path root = test::temp_path("mismatch");
  RegionSet set = RegionSet::metro_areas(1, RegionScale::kTiny);
  OrchestratorOptions options;
  options.root = root.string();
  orchestrate(set, options);

  // Same layout, different scenario: reuse must refuse rather than serve a
  // snapshot produced by another config.
  std::vector<RegionSpec> changed = {set[0]};
  changed[0].config.traffic_seed += 1;
  EXPECT_THROW(orchestrate(RegionSet(changed), options), util::InputError);

  // Regenerating (reuse off) replaces the snapshot instead.
  options.reuse_snapshots = false;
  const OrchestrationReport redo = orchestrate(RegionSet(changed), options);
  EXPECT_EQ(redo.generated_count(), 1u);
  fs::remove_all(root);
}

// --- Merge -------------------------------------------------------------------

struct MergedCampaign {
  fs::path root;
  OrchestrationReport orchestration;
  MergeStats stats;
  std::string national_path;

  explicit MergedCampaign(const std::string& name, std::size_t regions) {
    root = test::temp_path(name);
    OrchestratorOptions options;
    options.root = root.string();
    orchestration =
        orchestrate(RegionSet::metro_areas(regions, RegionScale::kTiny), options);
    national_path = (root / "national.snapshot").string();
    stats = merge_region_snapshots(orchestration.snapshot_paths(), national_path);
  }
  ~MergedCampaign() { fs::remove_all(root); }
};

TEST(RegionMerge, NationalViewIsConsistentWithItsParts) {
  MergedCampaign campaign("merge", 3);
  EXPECT_EQ(campaign.stats.regions, 3u);
  EXPECT_EQ(campaign.stats.bytes, fs::file_size(campaign.national_path));
  EXPECT_EQ(campaign.stats.region_ids,
            (std::vector<std::string>{"lyon", "marseille", "paris"}));

  const core::TrafficDataset national =
      core::TrafficDataset::load(campaign.national_path);
  national.validate();
  EXPECT_EQ(national.config().region, "national:lyon+marseille+paris");

  std::vector<core::TrafficDataset> parts;
  for (const RegionRun& run : campaign.orchestration.runs) {
    parts.push_back(core::TrafficDataset::load(run.snapshot_path));
  }
  std::sort(parts.begin(), parts.end(),
            [](const core::TrafficDataset& a, const core::TrafficDataset& b) {
              return a.config().region < b.config().region;
            });

  std::size_t communes = 0;
  std::uint64_t subscribers = 0;
  for (const core::TrafficDataset& p : parts) {
    communes += p.commune_count();
    subscribers += p.subscribers().total();
  }
  EXPECT_EQ(national.commune_count(), communes);
  EXPECT_EQ(national.subscribers().total(), subscribers);
  EXPECT_EQ(national.service_count(), parts[0].service_count());

  // National hourly series: the canonical-order sum, bitwise (the test sums
  // in the same canonical order the merge does).
  for (const auto d :
       {workload::Direction::kDownlink, workload::Direction::kUplink}) {
    const auto& merged = national.national_series(0, d);
    for (std::size_t h = 0; h < merged.size(); ++h) {
      double expect = 0.0;
      for (const core::TrafficDataset& p : parts) {
        expect += p.national_series(0, d)[h];
      }
      ASSERT_EQ(merged[h], expect) << "hour " << h;
    }
  }

  // Commune totals concatenate at region offsets; names carry the region.
  std::size_t offset = 0;
  for (const core::TrafficDataset& p : parts) {
    const auto part_totals =
        p.commune_totals(2, workload::Direction::kDownlink);
    const auto merged_totals =
        national.commune_totals(2, workload::Direction::kDownlink);
    for (std::size_t c = 0; c < part_totals.size(); ++c) {
      ASSERT_EQ(merged_totals[offset + c], part_totals[c]);
      EXPECT_EQ(national.territory().communes()[offset + c].name,
                p.config().region + "/" + p.territory().communes()[c].name);
    }
    offset += p.commune_count();
  }
}

TEST(RegionMerge, RejectsMismatchedInputs) {
  MergedCampaign campaign("reject", 2);
  const std::vector<std::string> paths = campaign.orchestration.snapshot_paths();

  // Same region twice.
  EXPECT_THROW(merge_region_snapshots({paths[0], paths[1], paths[0]},
                                      (campaign.root / "dup.snapshot").string()),
               util::InputError);

  // A single-country snapshot (no region id) cannot join a merge.
  auto plain_cfg = synth::ScenarioConfig::test_scale();
  plain_cfg.country.commune_count = 40;
  plain_cfg.country.metro_count = 2;
  const std::string plain = (campaign.root / "plain.snapshot").string();
  core::TrafficDataset::generate(plain_cfg).save(plain);
  try {
    merge_region_snapshots({paths[0], plain},
                           (campaign.root / "bad.snapshot").string());
    FAIL() << "expected util::InputError";
  } catch (const util::InputError& e) {
    EXPECT_NE(std::string(e.what()).find("no region id"), std::string::npos)
        << e.what();
  }

  EXPECT_THROW(merge_region_snapshots({}, "x.snapshot"), util::InputError);
}

// --- Compare + report --------------------------------------------------------

TEST(RegionCompare, FingerprintsAndRankingsAreWellFormed) {
  MergedCampaign campaign("compare", 3);
  std::vector<core::TrafficDataset> parts;
  for (const RegionRun& run : campaign.orchestration.runs) {
    parts.push_back(core::TrafficDataset::load(run.snapshot_path));
  }
  const core::TrafficDataset national =
      core::TrafficDataset::load(campaign.national_path);

  std::vector<const core::TrafficDataset*> pointers;
  for (const core::TrafficDataset& p : parts) pointers.push_back(&p);
  const RegionComparisonReport report =
      compare_regions(pointers, national, workload::Direction::kDownlink);

  ASSERT_EQ(report.fingerprints.size(), 3u);
  EXPECT_EQ(report.fingerprints[0].region, "lyon");  // canonical order
  for (const RegionFingerprint& fp : report.fingerprints) {
    double share_sum = 0.0;
    for (const double s : fp.service_share) share_sum += s;
    EXPECT_NEAR(share_sum, 1.0, 1e-9) << fp.region;
    EXPECT_GT(fp.mix_entropy, 0.0);
    EXPECT_LE(fp.mix_entropy, 1.0);
    EXPECT_GE(fp.geographic_diversity, 0.0);
    EXPECT_GT(fp.per_user_weekly_bytes, 0.0);
    EXPECT_FALSE(fp.top_service.empty());
  }

  ASSERT_EQ(report.divergence.size(), 3u);  // 3 choose 2
  for (std::size_t i = 1; i < report.divergence.size(); ++i) {
    EXPECT_LE(report.divergence[i - 1].mix_r2, report.divergence[i].mix_r2);
  }
  EXPECT_GT(report.mean_pairwise_mix_r2, 0.0);
  EXPECT_LE(report.mean_pairwise_mix_r2, 1.0);

  ASSERT_EQ(report.urban_rural.size(), national.service_count());
  // Netflix is 4G-gated and city-skewed in the catalog: it must rank inside
  // the top urban-vs-rural divergers on any multi-region campaign.
  bool netflix_in_top5 = false;
  for (std::size_t i = 0; i < 5; ++i) {
    if (report.urban_rural[i].service == "Netflix") netflix_in_top5 = true;
  }
  EXPECT_TRUE(netflix_in_top5);

  // Region id hygiene of the inputs is enforced.
  std::vector<const core::TrafficDataset*> with_national = pointers;
  with_national.push_back(&national);  // composite id, but duplicates none
  EXPECT_NO_THROW(
      compare_regions(with_national, national, workload::Direction::kDownlink));
  std::vector<const core::TrafficDataset*> dup = {pointers[0], pointers[0]};
  EXPECT_THROW(compare_regions(dup, national, workload::Direction::kDownlink),
               util::InputError);
}

TEST(RegionReport, GoldenFourRegionReportIsByteStable) {
  // The golden contract: the full 4-region campaign — orchestrate, merge,
  // compare, render — produces byte-identical markdown when repeated (the
  // second pass reuses the published snapshots), and the merged national
  // snapshot bytes are identical too.
  MergedCampaign campaign("golden", 4);
  const std::string national_first = file_bytes(campaign.national_path);

  const auto render = [&] {
    OrchestratorOptions options;
    options.root = campaign.root.string();
    const OrchestrationReport orchestration =
        orchestrate(RegionSet::metro_areas(4, RegionScale::kTiny), options);
    const std::string merged =
        (campaign.root / "golden.snapshot").string();
    const MergeStats stats =
        merge_region_snapshots(orchestration.snapshot_paths(), merged);

    std::vector<core::TrafficDataset> parts;
    for (const RegionRun& run : orchestration.runs) {
      parts.push_back(core::TrafficDataset::load(run.snapshot_path));
    }
    const core::TrafficDataset national = core::TrafficDataset::load(merged);
    std::vector<const core::TrafficDataset*> pointers;
    for (const core::TrafficDataset& p : parts) pointers.push_back(&p);
    const RegionComparisonReport comparison =
        compare_regions(pointers, national, workload::Direction::kDownlink);
    return region_report_markdown(comparison, &stats);
  };

  const std::string first = render();
  const std::string second = render();
  EXPECT_EQ(first, second);
  EXPECT_EQ(file_bytes(campaign.root / "golden.snapshot"), national_first);

  // Section structure of the golden document.
  for (const char* needle :
       {"# appscope multi-region report", "## National view",
        "## Regional service-usage fingerprints",
        "## Region divergence ranking",
        "## Urban vs rural divergence (national view)",
        "Canonical region order: lyon marseille paris toulouse"}) {
    EXPECT_NE(first.find(needle), std::string::npos) << needle;
  }
}

}  // namespace
}  // namespace appscope::region
