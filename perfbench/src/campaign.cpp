// Workload `campaign`: the 20-region example-scale campaign. Each
// repetition runs region::orchestrate cold into a fresh root at nproc
// threads, then load_region_snapshots, merge_loaded_snapshots,
// write_national_snapshot and the cross-region compare + report (cpu_s),
// then a warm rerun of orchestrate that must reuse every snapshot (warm_s).
//
// Set-up runs the same campaign with a single-threaded pool; its
// national.snapshot and report are the references every repetition must
// match, cold and warm.
#include <optional>

#include "common.hpp"
#include "core/dataset.hpp"
#include "region/compare.hpp"
#include "region/merge.hpp"
#include "region/orchestrator.hpp"
#include "region/report.hpp"
#include "region/spec.hpp"

namespace perfbench {

namespace {

namespace region = appscope::region;
namespace fs = std::filesystem;

constexpr std::size_t kRegions = 20;

region::RegionSet campaign_regions(std::uint64_t seed) {
  std::vector<region::RegionSpec> specs =
      region::RegionSet::metro_areas(kRegions, region::RegionScale::kExample)
          .regions();
  for (region::RegionSpec& spec : specs) {
    spec.config.country.seed = fold_seed(spec.config.country.seed, seed);
    spec.config.population.seed = fold_seed(spec.config.population.seed, seed);
    spec.config.traffic_seed = fold_seed(spec.config.traffic_seed, seed);
  }
  return region::RegionSet(std::move(specs));
}

/// Optional spans around each step of the campaign job.
struct CampaignSpans {
  SpanStat* orchestrate = nullptr;
  SpanStat* load = nullptr;
  SpanStat* merge = nullptr;
  SpanStat* write = nullptr;
  SpanStat* report = nullptr;
};

template <typename Fn>
auto step(SpanStat* stat, Fn&& fn) {
  if (stat == nullptr) return fn();
  const ScopedSpan span(*stat);
  return fn();
}

struct CampaignOutput {
  region::OrchestrationReport orchestration;
  std::string report;
  fs::path national;
  /// CPU seconds of this process during orchestrate.
  double orchestrate_cpu_s = 0.0;
};

/// load + merge + write of the published region snapshots.
std::vector<appscope::io::LoadedSnapshot> merge_national(
    const region::OrchestrationReport& orchestration,
    const fs::path& national, const CampaignSpans& spans,
    std::optional<appscope::io::LoadedSnapshot>& merged,
    region::MergeStats& stats) {
  std::vector<appscope::io::LoadedSnapshot> loaded = step(spans.load, [&] {
    return region::load_region_snapshots(orchestration.snapshot_paths());
  });
  merged.emplace(step(spans.merge, [&] {
    return region::merge_loaded_snapshots(loaded);
  }));
  stats = step(spans.write, [&] {
    return region::write_national_snapshot(*merged, national.string());
  });
  return loaded;
}

/// The cold campaign job: orchestrate, merge, compare and report.
CampaignOutput campaign_job(const region::RegionSet& regions,
                            const fs::path& root, std::size_t threads,
                            const CampaignSpans& spans) {
  namespace core = appscope::core;
  CampaignOutput out;
  out.national = root / "national.snapshot";
  const double cpu0 = cpu_seconds();
  out.orchestration = step(spans.orchestrate, [&] {
    return region::orchestrate(regions,
                               {.root = root.string(), .threads = threads});
  });
  out.orchestrate_cpu_s = cpu_seconds() - cpu0;
  std::optional<appscope::io::LoadedSnapshot> merged;
  region::MergeStats stats;
  std::vector<appscope::io::LoadedSnapshot> loaded =
      merge_national(out.orchestration, out.national, spans, merged, stats);
  out.report = step(spans.report, [&] {
    std::vector<core::TrafficDataset> datasets;
    datasets.reserve(loaded.size());
    for (std::size_t i = 0; i < loaded.size(); ++i) {
      datasets.push_back(core::TrafficDataset::from_snapshot(
          std::move(loaded[i]), out.orchestration.runs[i].snapshot_path));
    }
    const core::TrafficDataset national = core::TrafficDataset::from_snapshot(
        std::move(*merged), out.national.string());
    std::vector<const core::TrafficDataset*> pointers;
    for (const core::TrafficDataset& d : datasets) pointers.push_back(&d);
    const region::RegionComparisonReport comparison = region::compare_regions(
        pointers, national, appscope::workload::Direction::kDownlink);
    return region::region_report_markdown(comparison, &stats);
  });
  return out;
}

}  // namespace

Report run_campaign(const RunOptions& options) {
  Report report;
  Samples samples;
  std::vector<double> warm_s;

  // Set-up, several times: the region set and the single-threaded
  // reference campaign.
  std::optional<region::RegionSet> regions;
  std::optional<CampaignOutput> ref;
  std::string ref_national;
  for (std::size_t i = 0; i < kSetups; ++i) {
    const JobClock clock;
    regions.emplace(campaign_regions(options.seed));
    const fs::path ref_root = options.work_dir / "reference";
    CampaignOutput out = campaign_job(*regions, ref_root, 1, {});
    std::string national = read_file(out.national);
    fs::remove_all(ref_root);
    samples.setup(clock);
    if (ref && (national != ref_national || out.report != ref->report)) {
      report.fail("single-threaded reference campaigns differ between "
                  "set-ups");
    }
    ref.emplace(std::move(out));
    ref_national = std::move(national);
  }

  RepBudget budget(options.seconds, options.trace ? 4 : 3);
  for (std::size_t rep = 0; budget.next(); ++rep) {
    const bool traced = options.trace && rep % 2 == 1;
    const fs::path root =
        options.work_dir / ("campaign-" + std::to_string(rep));
    // Operations: every region of the cold run and of the warm run.
    report.attempted += 2 * kRegions;
    try {
      Trace trace;
      CampaignSpans spans;
      if (traced) {
        spans = {&trace.stat("region.orchestrate"), &trace.stat("region.load"),
                 &trace.stat("region.merge"), &trace.stat("region.write"),
                 &trace.stat("region.report")};
      }
      const PeakMemory memory;
      const JobClock clock;
      const CampaignOutput cold =
          campaign_job(*regions, root, options.nproc, spans);
      const double job_cpu = clock.cpu_s();
      const double wall = clock.wall_s();
      const double rss_mib = memory.rss_mib();
      const double heap_mib = memory.heap_mib();
      const std::uint64_t disk = directory_bytes(root);

      const auto warm_start = Clock::now();
      const region::OrchestrationReport warm =
          region::orchestrate(*regions, {.root = root.string(),
                                        .threads = options.nproc});
      const double warm_wall = seconds_since(warm_start);

      // Checks: all generated cold, all reused warm, and the national
      // snapshot of both runs and the report equal the references.
      std::string problem;
      std::optional<appscope::io::LoadedSnapshot> merged;
      region::MergeStats stats;
      const fs::path warm_national = root / "national_warm.snapshot";
      merge_national(warm, warm_national, {}, merged, stats);
      if (cold.orchestration.generated_count() != kRegions) {
        problem = "cold run generated " +
                  std::to_string(cold.orchestration.generated_count()) +
                  " regions";
      } else if (warm.reused_count() != kRegions) {
        problem = "warm run reused " + std::to_string(warm.reused_count()) +
                  " regions";
      } else if (read_file(cold.national) != ref_national) {
        problem = "cold national.snapshot differs from the reference";
      } else if (read_file(warm_national) != ref_national) {
        problem = "warm national.snapshot differs from the cold one";
      } else if (cold.report != ref->report) {
        problem = "region report differs from the reference";
      }
      if (!problem.empty()) {
        report.fail(problem + " (repetition " + std::to_string(rep) + ")");
        report.failed += 2 * kRegions;
      }

      if (traced) {
        const double orchestrate_s = trace.seconds("region.orchestrate");
        samples.traced_wall_s.push_back(wall);
        samples.attributed.push_back(trace.total_seconds() / wall);
        samples.layer("region.orchestrate.s", orchestrate_s, "s");
        samples.layer("region.orchestrate.cpu_util",
                      cold.orchestrate_cpu_s /
                          (orchestrate_s * static_cast<double>(options.nproc)),
                      "ratio");
        samples.layer("region.orchestrate.warm_s", warm_wall, "s");
        samples.layer("region.generated",
                      static_cast<double>(cold.orchestration.generated_count()),
                      "count");
        samples.layer("region.reused", static_cast<double>(warm.reused_count()),
                      "count");
        std::uint64_t bytes = 0;
        for (const auto& run : cold.orchestration.runs) bytes += run.bytes;
        samples.layer("region.bytes", static_cast<double>(bytes), "bytes");
        samples.layer("region.load.s", trace.seconds("region.load"), "s");
        samples.layer("region.merge.s", trace.seconds("region.merge"), "s");
        samples.layer("region.write.s", trace.seconds("region.write"), "s");
        samples.layer("region.report.s", trace.seconds("region.report"), "s");
      } else {
        samples.rep(job_cpu, wall, rss_mib, heap_mib);
        warm_s.push_back(warm_wall);
        samples.disk_bytes = disk;
      }
    } catch (const std::exception& e) {
      report.fail(std::string("campaign repetition threw: ") + e.what());
      report.failed += 2 * kRegions;
    }
    fs::remove_all(root);
  }
  report.note("e2e warm_s = " + format_number(median(warm_s)) +
              " s (median of " + std::to_string(warm_s.size()) + ")");
  report.meta["regions"] = std::to_string(kRegions);
  finish(report, options, samples);
  return report;
}

}  // namespace perfbench
