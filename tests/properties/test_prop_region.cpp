// Determinism properties of the multi-region scale-out layer.
//
// The contract (DESIGN.md §4j): for a fixed region set, the merged national
// snapshot and the rendered comparison report are *bitwise identical* at any
// global thread-pool size and any ordering of the merge inputs — the merge
// sorts its inputs into canonical region order before any accumulation, the
// per-cell sums iterate regions in that fixed order regardless of how the
// parallel_for chunks the cell range, and every rendered number formats
// through util::format_*.
//
// The suites are named ParallelRegion* so the TSan CI preset (which runs
// ^Parallel) races the real orchestrator shards and merge workers under the
// sanitizer.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/dataset.hpp"
#include "region/compare.hpp"
#include "region/merge.hpp"
#include "region/orchestrator.hpp"
#include "region/report.hpp"
#include "region/spec.hpp"
#include "util/parallel.hpp"
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

struct CampaignOutput {
  std::vector<std::string> region_snapshots;  // one bytes-blob per region
  std::string national;                       // merged snapshot bytes
  std::string report;                         // rendered markdown
};

// Runs the full campaign — orchestrate 4 regions from scratch, merge in the
// given input ordering, compare, render — at the given global pool size.
CampaignOutput run_campaign(const std::string& tag, std::size_t threads,
                            const std::vector<std::size_t>& merge_order) {
  util::ThreadPool::set_global_threads(threads);
  const fs::path root = test::temp_path(tag);
  const RegionSet set = RegionSet::metro_areas(4, RegionScale::kTiny);

  OrchestratorOptions options;
  options.root = root.string();
  const OrchestrationReport orchestration = orchestrate(set, options);

  CampaignOutput out;
  std::vector<std::string> paths = orchestration.snapshot_paths();
  for (const std::string& path : paths) {
    out.region_snapshots.push_back(file_bytes(path));
  }

  std::vector<std::string> shuffled;
  for (const std::size_t i : merge_order) shuffled.push_back(paths[i]);
  const std::string national = (root / "national.snapshot").string();
  const MergeStats stats = merge_region_snapshots(shuffled, national);
  out.national = file_bytes(national);

  std::vector<core::TrafficDataset> parts;
  for (const RegionRun& run : orchestration.runs) {
    parts.push_back(core::TrafficDataset::load(run.snapshot_path));
  }
  const core::TrafficDataset merged = core::TrafficDataset::load(national);
  std::vector<const core::TrafficDataset*> pointers;
  for (const core::TrafficDataset& p : parts) pointers.push_back(&p);
  out.report = region_report_markdown(
      compare_regions(pointers, merged, workload::Direction::kDownlink),
      &stats);

  fs::remove_all(root);
  return out;
}

TEST(ParallelRegionMerge, CampaignBitwiseIdenticalAcrossThreadCounts) {
  const std::size_t thread_counts[] = {1, 2, 8};
  const std::vector<std::size_t> identity = {0, 1, 2, 3};

  std::vector<CampaignOutput> outputs;
  for (const std::size_t threads : thread_counts) {
    outputs.push_back(
        run_campaign("region_t" + std::to_string(threads), threads, identity));
  }
  util::ThreadPool::set_global_threads(0);  // restore default for later tests

  for (std::size_t i = 1; i < outputs.size(); ++i) {
    ASSERT_EQ(outputs[i].region_snapshots.size(),
              outputs[0].region_snapshots.size());
    for (std::size_t r = 0; r < outputs[0].region_snapshots.size(); ++r) {
      EXPECT_EQ(outputs[i].region_snapshots[r], outputs[0].region_snapshots[r])
          << "region " << r << " snapshot differs at " << thread_counts[i]
          << " threads";
    }
    EXPECT_EQ(outputs[i].national, outputs[0].national)
        << "national snapshot differs at " << thread_counts[i] << " threads";
    EXPECT_EQ(outputs[i].report, outputs[0].report)
        << "report differs at " << thread_counts[i] << " threads";
  }
}

TEST(ParallelRegionMerge, MergeInvariantUnderInputOrdering) {
  // The merge canonicalizes by region id before accumulating, so any
  // permutation of the input paths yields the same national bytes.
  const std::vector<std::vector<std::size_t>> orderings = {
      {0, 1, 2, 3}, {3, 2, 1, 0}, {2, 0, 3, 1}};

  std::vector<CampaignOutput> outputs;
  for (std::size_t i = 0; i < orderings.size(); ++i) {
    outputs.push_back(
        run_campaign("region_o" + std::to_string(i), 4, orderings[i]));
  }
  util::ThreadPool::set_global_threads(0);

  for (std::size_t i = 1; i < outputs.size(); ++i) {
    EXPECT_EQ(outputs[i].national, outputs[0].national)
        << "national snapshot depends on merge input ordering " << i;
    EXPECT_EQ(outputs[i].report, outputs[0].report)
        << "report depends on merge input ordering " << i;
  }
}

}  // namespace
}  // namespace appscope::region
