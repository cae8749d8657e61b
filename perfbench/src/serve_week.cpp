// Workload `serve_week`: one test-scale week through serve::IngestDaemon
// with 2 shards, hourly epochs, unthrottled replay and sealing into a fresh
// directory per repetition. Set-up is the daemon constructor (staging the
// replay); the timed job is IngestDaemon::run(), and its cpu_s the CPU
// time of the thread that calls it, which routes, collects and seals.
//
// The traced repetition builds the daemon's pipeline from its public parts
// (EventReplaySource, ShardedIngest::route / collect_epoch, the online
// trackers, EpochSealer::seal) with a span around each call, and its
// latest.snapshot must equal the daemon's byte for byte.
#include <algorithm>
#include <optional>

#include "common.hpp"
#include "geo/territory.hpp"
#include "serve/daemon.hpp"
#include "serve/epoch.hpp"
#include "serve/ingest.hpp"
#include "serve/online.hpp"
#include "synth/replay.hpp"
#include "ts/calendar.hpp"
#include "workload/catalog.hpp"
#include "workload/population.hpp"

namespace perfbench {

namespace {

namespace serve = appscope::serve;
namespace fs = std::filesystem;

constexpr std::size_t kShards = 2;

serve::ServeConfig serve_config(std::uint64_t seed) {
  serve::ServeConfig cfg;
  cfg.scenario = appscope::synth::ScenarioConfig::test_scale();
  cfg.scenario.country.seed = fold_seed(cfg.scenario.country.seed, seed);
  cfg.scenario.population.seed = fold_seed(cfg.scenario.population.seed, seed);
  cfg.scenario.traffic_seed = fold_seed(cfg.scenario.traffic_seed, seed);
  cfg.shard_count = kShards;
  cfg.epoch_seconds = 3600;
  cfg.target_events_per_second = 0.0;  // unthrottled, closed loop
  cfg.weeks = 1;
  return cfg;
}

/// What the daemon constructor stages, built from the public parts.
struct World {
  explicit World(const serve::ServeConfig& cfg)
      : territory(appscope::geo::build_synthetic_country(cfg.scenario.country)),
        subscribers(territory, cfg.scenario.population),
        catalog(appscope::workload::ServiceCatalog::paper_services()),
        replay(territory, subscribers, catalog, cfg.scenario,
               cfg.events_per_cell) {}

  appscope::geo::Territory territory;
  appscope::workload::SubscriberBase subscribers;
  appscope::workload::ServiceCatalog catalog;
  appscope::synth::EventReplaySource replay;
};

/// The daemon's one-week loop composed from public calls, under spans.
/// Returns the bytes of the latest.snapshot it published; `events` receives
/// the events it routed.
std::string traced_week(const serve::ServeConfig& cfg, Samples& samples,
                        std::uint64_t& events) {
  Trace trace;
  SpanStat& stage = trace.stat("serve.stage");
  SpanStat& init = trace.stat("serve.init");
  SpanStat& route = trace.stat("serve.route");
  SpanStat& collect = trace.stat("serve.collect");
  SpanStat& online = trace.stat("serve.online");
  SpanStat& seal = trace.stat("serve.seal");

  std::optional<World> world;
  {
    ScopedSpan span(stage);
    world.emplace(cfg);
  }
  const double stage_s = stage.seconds;
  const std::size_t services = world->catalog.size();
  const std::size_t communes = world->territory.size();

  const auto start = Clock::now();
  std::optional<serve::EventAggregates> rolling;
  std::optional<serve::ShardedIngest> ingest;
  std::optional<serve::EpochSealer> sealer;
  std::optional<serve::OnlinePeakTracker> peaks;
  std::optional<serve::ZipfRankTracker> zipf;
  {
    ScopedSpan span(init);
    rolling.emplace(services, communes);
    ingest.emplace(services, communes,
                   serve::ShardedIngest::Options{cfg.shard_count,
                                                 cfg.queue_capacity});
    sealer.emplace(cfg.snapshot_dir, cfg.scenario, world->territory,
                   world->subscribers, world->catalog);
    peaks.emplace(services);
    zipf.emplace(services);
  }
  std::vector<double> seal_ms;
  std::uint64_t seal_bytes = 0;
  events = 0;
  for (std::size_t hour = 0; hour < appscope::ts::kHoursPerWeek; ++hour) {
    {
      ScopedSpan span(route);
      for (const auto& event : world->replay.hour_events(hour)) {
        ingest->route(event, 1);
        ++events;
      }
    }
    {
      ScopedSpan span(collect);
      ingest->collect_epoch(*rolling);
    }
    {
      ScopedSpan span(online);
      peaks->update(*rolling, hour + 1);
      zipf->update(*rolling);
    }
    const double before = seal.seconds;
    {
      ScopedSpan span(seal);
      seal_bytes += sealer->seal(hour, *rolling).stats.bytes;
    }
    seal_ms.push_back((seal.seconds - before) * 1e3);
  }
  {
    ScopedSpan span(init);
    ingest->stop();
  }
  const double wall = seconds_since(start);

  samples.traced_wall_s.push_back(wall);
  samples.attributed.push_back((trace.total_seconds() - stage_s) / wall);
  samples.layer("serve.stage.s", stage_s, "s");
  samples.layer("serve.init.s", init.seconds, "s");
  samples.layer("serve.route.s", route.seconds, "s");
  samples.layer("serve.route.events_per_s",
                static_cast<double>(events) / route.seconds, "1/s");
  samples.layer("serve.route.backpressure_spins",
                static_cast<double>(ingest->backpressure_spins()), "count");
  samples.layer("serve.collect.s", collect.seconds, "s");
  samples.layer("serve.online.s", online.seconds, "s");
  samples.layer("serve.seal.s", seal.seconds, "s");
  samples.layer("serve.seal.p50_ms", quantile(seal_ms, 0.5), "ms");
  samples.layer("serve.seal.p90_ms", quantile(seal_ms, 0.9), "ms");
  samples.layer("serve.seal.bytes", static_cast<double>(seal_bytes), "bytes");
  return read_file(sealer->latest_path());
}

}  // namespace

Report run_serve_week(const RunOptions& options) {
  Report report;
  Samples samples;
  serve::ServeConfig cfg = serve_config(options.seed);
  std::optional<std::string> reference;  // the first daemon's latest.snapshot
  std::vector<double> events_per_s;

  RepBudget budget(options.seconds, options.trace ? 4 : 3);
  for (std::size_t rep = 0; budget.next(); ++rep) {
    const bool traced = options.trace && rep % 2 == 1;
    const fs::path dir = options.work_dir / ("serve-" + std::to_string(rep));
    cfg.snapshot_dir = dir.string();
    std::uint64_t rep_events = 0;
    try {
      if (traced) {
        const std::string latest = traced_week(cfg, samples, rep_events);
        if (reference && latest != *reference) {
          report.fail("traced pipeline latest.snapshot differs from the "
                      "daemon's");
          report.failed += rep_events;
        }
      } else {
        const PeakMemory memory;
        const JobClock setup_clock;
        serve::IngestDaemon daemon(cfg);
        samples.setup(setup_clock);
        const std::uint64_t staged = daemon.week_event_count() * cfg.weeks;
        rep_events = staged;

        // CPU time of the router thread alone: the shard workers spin
        // while their queues are empty, so theirs would measure idling.
        const JobClock clock(/*calling_thread_only=*/true);
        const serve::ServeStats stats = daemon.run();
        const double wall = clock.wall_s();
        samples.rep(clock.cpu_s(), wall, memory.rss_mib(), memory.heap_mib());
        events_per_s.push_back(static_cast<double>(stats.ingested +
                                                   stats.sampled) /
                               wall);
        samples.disk_bytes = directory_bytes(dir);

        // Shed events are failed operations; so is every event of a week
        // whose accounting or sealed output is wrong.
        report.failed += stats.sampled;
        const std::string latest = read_file(stats.latest_snapshot);
        if (!reference) reference = latest;
        std::string problem;
        if (stats.ingested + stats.sampled != staged) {
          problem = "ingested + shed events != staged events";
        } else if (stats.epochs_sealed != appscope::ts::kHoursPerWeek) {
          problem = "sealed " + std::to_string(stats.epochs_sealed) +
                    " epochs, expected 168";
        } else if (latest != *reference) {
          problem = "latest.snapshot differs between repetitions";
        }
        if (!problem.empty()) {
          report.fail(problem + " (repetition " + std::to_string(rep) + ")");
          report.failed += stats.ingested;
        }
      }
    } catch (const std::exception& e) {
      report.fail(std::string("serve_week repetition threw: ") + e.what());
      rep_events = std::max<std::uint64_t>(rep_events, 1);
      report.failed += rep_events;
    }
    report.attempted += rep_events;
    fs::remove_all(dir);
  }
  report.note("e2e events_per_s = " + format_number(median(events_per_s)) +
              " 1/s (median of " + std::to_string(events_per_s.size()) + ")");
  report.meta["shards"] = std::to_string(kShards);
  report.meta["threads"] = std::to_string(kShards + 1);
  finish(report, options, samples);
  return report;
}

}  // namespace perfbench
