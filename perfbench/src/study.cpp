// Workload `study`: the paper's batch analysis. Each repetition generates
// the example-scale dataset, runs core::run_study and renders the Markdown
// report with the global pool at nproc threads. Each set-up renders the
// reference report with a single-threaded pool; every repetition's report
// must equal it byte for byte. peak_heap_mb is read on the references:
// how many of the parallel sweep's tasks hold their buffers at once
// differs from repetition to repetition (peaks of 11.8, 13.5, 15.2, 16.8
// MiB, one task's buffers apart) and rises with host contention.
//
// The traced repetition makes the same calls under spans and turns the
// program's metrics gate on for its run_study call, so run_study's own
// stage spans split the analysis into the cluster sweep, the correlation
// stage and the other stages, and its pool spans give the sweep's busy
// threads.
#include <map>
#include <optional>
#include <stdexcept>

#include "common.hpp"
#include "core/dataset.hpp"
#include "core/report.hpp"
#include "core/study.hpp"
#include "util/metrics.hpp"
#include "util/parallel.hpp"
#include "util/trace.hpp"

namespace perfbench {

namespace {

using appscope::core::StudyReport;
using appscope::core::TrafficDataset;

appscope::synth::ScenarioConfig study_config(std::uint64_t seed) {
  auto cfg = appscope::synth::ScenarioConfig::example_scale();
  cfg.country.seed = fold_seed(cfg.country.seed, seed);
  cfg.population.seed = fold_seed(cfg.population.seed, seed);
  cfg.traffic_seed = fold_seed(cfg.traffic_seed, seed);
  return cfg;
}

/// The untraced job: generate, analyse, render, write.
std::string study_job(const appscope::synth::ScenarioConfig& cfg,
                      const std::filesystem::path& out) {
  const TrafficDataset dataset = TrafficDataset::generate(cfg);
  const StudyReport report = appscope::core::run_study(dataset);
  std::string markdown = appscope::core::markdown_report(report, dataset);
  write_file(out, markdown);
  return markdown;
}

/// Wall time of one run_study stage and the busy thread-seconds inside it.
struct StageTime {
  double seconds = 0.0;
  double busy_thread_seconds = 0.0;
};

/// Per core.stage.* span name, from run_study's recorded spans: the
/// stage's wall time, and as busy time the stage's own thread outside pool
/// batches plus every pool.task span (one per participant of a batch)
/// below the stage.
std::map<std::string, StageTime> stage_times(
    const std::vector<appscope::util::TraceEvent>& events) {
  std::map<std::uint64_t, const appscope::util::TraceEvent*> by_id;
  for (const auto& e : events) by_id[e.span_id] = &e;
  // The core.stage.* span an event descends from, if any.
  const auto stage_of = [&](const appscope::util::TraceEvent& e) -> std::string {
    for (const appscope::util::TraceEvent* p = &e; p != nullptr;) {
      if (p->name.rfind("core.stage.", 0) == 0) return p->name;
      const auto it = by_id.find(p->parent_id);
      p = it == by_id.end() ? nullptr : it->second;
    }
    return {};
  };
  std::map<std::string, StageTime> out;
  for (const auto& e : events) {
    const double s = static_cast<double>(e.duration_ns) * 1e-9;
    if (e.name.rfind("core.stage.", 0) == 0) {
      out[e.name].seconds += s;
      out[e.name].busy_thread_seconds += s;
    } else if (e.name == "pool.batch" || e.name == "pool.task") {
      const std::string stage = stage_of(e);
      if (stage.empty()) continue;
      out[stage].busy_thread_seconds += e.name == "pool.task" ? s : -s;
    }
  }
  return out;
}

/// The traced job: the untraced job's calls under spans, with run_study's
/// own stage spans (util::ScopedSpan, recorded while the program's metrics
/// gate is on) splitting the analysis.
std::string traced_study_job(const appscope::synth::ScenarioConfig& cfg,
                             const std::filesystem::path& out,
                             std::size_t threads, Samples& samples) {
  namespace core = appscope::core;
  using appscope::util::MetricsRegistry;
  using appscope::util::TraceRecorder;
  Trace trace;
  SpanStat& generate = trace.stat("synth.generate");
  SpanStat& study = trace.stat("core.run_study");
  SpanStat& render = trace.stat("core.report");

  const auto start = Clock::now();
  std::optional<TrafficDataset> dataset;
  {
    ScopedSpan span(generate);
    dataset.emplace(TrafficDataset::generate(cfg));
  }
  std::optional<StudyReport> report;
  TraceRecorder::global().reset();
  MetricsRegistry::set_enabled(true);
  {
    ScopedSpan span(study);
    report.emplace(core::run_study(*dataset));
  }
  MetricsRegistry::set_enabled(false);
  std::string markdown;
  {
    ScopedSpan span(render);
    markdown = core::markdown_report(*report, *dataset);
    write_file(out, markdown);
  }
  const double wall = seconds_since(start);

  if (TraceRecorder::global().dropped_events() > 0) {
    throw std::runtime_error("run_study's trace dropped spans");
  }
  const auto stages = stage_times(TraceRecorder::global().snapshot());
  const StageTime sweep = stages.count("core.stage.clustering") != 0
                              ? stages.at("core.stage.clustering")
                              : StageTime{};
  const StageTime correlation = stages.count("core.stage.correlation") != 0
                                    ? stages.at("core.stage.correlation")
                                    : StageTime{};
  if (sweep.seconds <= 0.0 || correlation.seconds <= 0.0) {
    throw std::runtime_error("run_study recorded no clustering or "
                             "correlation stage span");
  }
  double other = 0.0;
  for (const auto& [name, time] : stages) {
    if (name != "core.stage.clustering" && name != "core.stage.correlation") {
      other += time.seconds;
    }
  }
  std::size_t fits = 0;
  for (const auto& sweep_report : report->clustering) {
    fits += sweep_report.rows.size();
  }
  samples.traced_wall_s.push_back(wall);
  samples.attributed.push_back(trace.total_seconds() / wall);
  samples.layer("synth.generate.s", generate.seconds, "s");
  samples.layer("core.cluster_sweep.s", sweep.seconds, "s");
  samples.layer("core.cluster_sweep.cpu_util",
                sweep.busy_thread_seconds /
                    (sweep.seconds * static_cast<double>(threads)),
                "ratio");
  samples.layer("core.cluster_sweep.fits", static_cast<double>(fits), "count");
  samples.layer("core.correlation.s", correlation.seconds, "s");
  samples.layer("core.other_stages.s", other, "s");
  samples.layer("core.report.s", render.seconds, "s");
  return markdown;
}

}  // namespace

Report run_study(const RunOptions& options) {
  using appscope::util::ThreadPool;
  Report report;
  Samples samples;
  const auto cfg = study_config(options.seed);
  const std::filesystem::path out = options.work_dir / "report.md";

  // Set-up, several times: the single-threaded reference report.
  ThreadPool::set_global_threads(1);
  std::string reference;
  for (std::size_t i = 0; i < kSetups; ++i) {
    const PeakMemory memory;
    const JobClock clock;
    std::string markdown = study_job(cfg, out);
    samples.setup(clock);
    samples.reference_heap_mib.push_back(memory.heap_mib());
    if (i > 0 && markdown != reference) {
      report.fail("single-threaded reference reports differ between set-ups");
    }
    reference = std::move(markdown);
  }
  ThreadPool::set_global_threads(options.nproc);

  RepBudget budget(options.seconds, options.trace ? 4 : 3);
  for (std::size_t rep = 0; budget.next(); ++rep) {
    const bool traced = options.trace && rep % 2 == 1;
    ++report.attempted;
    try {
      std::string markdown;
      if (traced) {
        markdown = traced_study_job(cfg, out, options.nproc, samples);
      } else {
        const PeakMemory memory;
        const JobClock clock;
        markdown = study_job(cfg, out);
        samples.rep(clock.cpu_s(), clock.wall_s(), memory.rss_mib(),
                    memory.heap_mib());
      }
      if (markdown != reference) {
        ++report.failed;
        report.fail("study report differs from the single-threaded reference"
                    " (repetition " + std::to_string(rep) + ")");
      }
    } catch (const std::exception& e) {
      ++report.failed;
      report.fail(std::string("study repetition threw: ") + e.what());
    }
  }
  samples.disk_bytes = directory_bytes(options.work_dir);
  finish(report, options, samples);
  return report;
}

}  // namespace perfbench
