// Workload `query_mix`: one client thread in a closed loop calling
// query::Engine::run (default 128-entry cache) over lazily opened
// SnapshotViews. The global pool has one thread, so each query's scan runs
// inline on the client thread: the figures measure the query path, not the
// wake-up latency of idle pool workers.
//
// Set-up writes kSnapshots test-scale snapshots (one deployment
// republished with fresh traffic, as a daemon's epochs are) and builds a
// pool of kPoolSlices distinct slices; the client draws slices from a fixed
// Zipf distribution over the pool, so the cache both hits and misses. Every
// kQueriesPerSnapshot queries it switches to the next snapshot, which
// forces a cold lazy open, as --follow does on republish.
//
// One repetition (a round) is a fresh engine walking every snapshot once;
// cpu_s is the process's CPU time over the round, wall_s the client's time
// inside open and run calls. Each round
// pins the client to the next CPU the process may use (CpuRotation). Each
// distinct (snapshot, slice) result is checked against the answer computed
// from the eagerly loaded TrafficDataset.
//
// The traced round calls what Engine::run is made of — plan_slice, the
// ResultCache probe, execute_plan on a miss — timing each.
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <random>
#include <set>

#include "common.hpp"
#include "core/dataset.hpp"
#include "query/engine.hpp"
#include "query/plan.hpp"
#include "query/snapshot_view.hpp"
#include "ts/calendar.hpp"
#include "util/parallel.hpp"

namespace perfbench {

namespace {

namespace query = appscope::query;
namespace fs = std::filesystem;
using appscope::core::TrafficDataset;

// The traffic is assumed, not measured: the repository holds no query log.
// These sizes, the family shares and window lengths in pool_slice are the
// benchmark's choices (listed in README.md); only the slice shapes follow
// the repository's own query callers.
constexpr std::size_t kSnapshots = 4;
constexpr std::size_t kPoolSlices = 512;  // > the engine's 128-entry cache
constexpr std::size_t kQueriesPerSnapshot = 2000;
constexpr double kZipfExponent = 1.0;

/// Uniform double in [0, 1) and integer in [0, n) from a 64-bit engine,
/// independent of the standard library's distribution implementations.
double uniform(std::mt19937_64& rng) {
  return static_cast<double>(rng() >> 11) * 0x1.0p-53;
}
std::uint32_t below(std::mt19937_64& rng, std::uint64_t n) {
  return static_cast<std::uint32_t>(rng() % n);
}

/// A pool slice of the given shape number. Its shape — family, op,
/// grouping, how many services, window length, one class or all — is a
/// function of that number alone, so every seed's pool has nearly the same
/// cost profile under the same Zipf weights; the values it selects
/// (direction, services, hours, commune, class) come from the seeded `rng`.
query::Slice pool_slice(std::size_t shape_id, std::mt19937_64& rng,
                        std::size_t services, std::size_t communes) {
  std::mt19937_64 shape(shape_id);
  const std::uint32_t hours = appscope::ts::kHoursPerWeek;
  query::Slice s;
  s.direction = below(rng, 2) == 0 ? appscope::workload::Direction::kDownlink
                                   : appscope::workload::Direction::kUplink;
  const auto hour_window = [&] {
    const std::uint32_t len = 1 + below(shape, 48);
    s.hour_begin = below(rng, hours - len + 1);
    s.hour_end = s.hour_begin + len;
  };
  const double family = uniform(shape);
  if (family < 0.4) {  // national hour window
    s.source = query::Source::kNational;
    hour_window();
    const std::uint32_t picked = below(shape, 4);  // 0 = every service
    for (std::uint32_t i = 0; i < picked; ++i) {
      s.services.push_back(below(rng, services));
    }
    const std::uint32_t form = below(shape, 5);
    s.op = form == 0 ? query::Op::kMax
                     : (form == 1 ? query::Op::kMean : query::Op::kSum);
    if (form >= 3) {
      s.group_by = form == 3 ? query::GroupBy::kService : query::GroupBy::kHour;
    }
  } else if (family < 0.65) {  // commune fingerprint: per-service totals
    s.source = query::Source::kCommuneTotals;
    s.communes.push_back(below(rng, communes));
    s.group_by = query::GroupBy::kService;
  } else if (family < 0.8) {  // top-k communes of one service
    s.source = query::Source::kCommuneTotals;
    s.services.push_back(below(rng, services));
    s.op = query::Op::kTopK;
    s.group_by = query::GroupBy::kCommune;
    s.k = 10;
  } else {  // urbanization slice
    s.source = query::Source::kUrbanization;
    hour_window();
    s.urbanization = below(shape, 5) == 0
                         ? -1  // all classes
                         : static_cast<int>(below(rng, 4));
    s.op = below(shape, 2) == 0 ? query::Op::kSum : query::Op::kMean;
    if (below(shape, 2) == 0) s.group_by = query::GroupBy::kHour;
  }
  return s;
}

/// The answer to `slice` computed directly from an eagerly loaded dataset,
/// by plain loops that share nothing with the planner or the scan kernels.
query::Result naive_answer(const TrafficDataset& ds, query::Slice s) {
  query::canonicalize(s);
  std::vector<std::uint32_t> services = s.services;
  if (services.empty()) {
    for (std::uint32_t i = 0; i < ds.service_count(); ++i) {
      services.push_back(i);
    }
  }
  std::vector<std::uint32_t> communes = s.communes;
  if (communes.empty()) {
    for (std::uint32_t c = 0; c < ds.commune_count(); ++c) {
      communes.push_back(c);
    }
  }
  std::vector<int> classes;
  const int class_count = static_cast<int>(appscope::geo::kUrbanizationCount);
  for (int u = 0; u < class_count; ++u) {
    if (s.urbanization < 0 || s.urbanization == u) classes.push_back(u);
  }

  // rows[i] = the selected cells of one row, keyed by hour or commune.
  std::vector<std::uint32_t> row_service;
  std::vector<std::vector<std::pair<std::uint32_t, double>>> rows;
  for (const std::uint32_t svc : services) {
    if (s.source == query::Source::kCommuneTotals) {
      auto& row = rows.emplace_back();
      for (const std::uint32_t c : communes) {
        row.emplace_back(c, ds.commune_total(svc, c, s.direction));
      }
      row_service.push_back(svc);
      continue;
    }
    const std::size_t row_count =
        s.source == query::Source::kNational ? 1 : classes.size();
    for (std::size_t r = 0; r < row_count; ++r) {
      const std::vector<double>& series =
          s.source == query::Source::kNational
              ? ds.national_series(svc, s.direction)
              : ds.urbanization_series(
                    svc, static_cast<appscope::geo::Urbanization>(classes[r]),
                    s.direction);
      auto& row = rows.emplace_back();
      for (std::uint32_t h = s.hour_begin; h < s.hour_end; ++h) {
        row.emplace_back(h, series[h]);
      }
      row_service.push_back(svc);
    }
  }

  query::Result out;
  double sum = 0.0;
  double max = 0.0;
  for (const auto& row : rows) {
    for (const auto& [key, v] : row) {
      sum += v;
      max = std::max(max, v);
      ++out.cells;
    }
  }
  out.value = s.op == query::Op::kMax
                  ? max
                  : (s.op == query::Op::kMean
                         ? sum / static_cast<double>(out.cells)
                         : sum);
  if (s.group_by == query::GroupBy::kService) {
    for (std::size_t i = 0; i < rows.size();) {
      const std::uint32_t svc = row_service[i];
      double agg = 0.0;
      std::size_t cells = 0;
      for (; i < rows.size() && row_service[i] == svc; ++i) {
        for (const auto& [key, v] : rows[i]) {
          agg = s.op == query::Op::kMax ? std::max(agg, v) : agg + v;
          ++cells;
        }
      }
      if (s.op == query::Op::kMean) agg /= static_cast<double>(cells);
      out.groups.push_back({svc, agg});
    }
  } else if (s.group_by != query::GroupBy::kNone) {
    std::vector<query::GroupValue> groups;
    for (const auto& [key, v] : rows.front()) groups.push_back({key, 0.0});
    for (const auto& row : rows) {
      for (std::size_t j = 0; j < row.size(); ++j) {
        groups[j].value += row[j].second;
      }
    }
    if (s.op == query::Op::kMean) {
      for (auto& g : groups) g.value /= static_cast<double>(rows.size());
    }
    out.groups = std::move(groups);
  }
  if (s.op == query::Op::kTopK) {
    std::sort(out.groups.begin(), out.groups.end(),
              [](const query::GroupValue& a, const query::GroupValue& b) {
                return a.value != b.value ? a.value > b.value : a.key < b.key;
              });
    if (out.groups.size() > s.k) out.groups.resize(s.k);
  }
  return out;
}

bool close_enough(double got, double want) {
  return std::abs(got - want) <= 1e-9 * std::max(std::abs(want), 1.0);
}

bool same_answer(const query::Result& got, const query::Result& want) {
  if (!close_enough(got.value, want.value) || got.cells != want.cells ||
      got.groups.size() != want.groups.size()) {
    return false;
  }
  for (std::size_t i = 0; i < got.groups.size(); ++i) {
    if (got.groups[i].key != want.groups[i].key ||
        !close_enough(got.groups[i].value, want.groups[i].value)) {
      return false;
    }
  }
  return true;
}

struct Inputs {
  std::vector<std::string> paths;    // one per snapshot
  std::vector<query::Slice> pool;    // distinct slices
  std::vector<std::uint32_t> order;  // pool index of every query of a round
};

/// Set-up: writes the snapshots under `dir` and builds the slice pool and
/// the Zipf-drawn query order.
Inputs make_inputs(std::uint64_t seed, const fs::path& dir) {
  Inputs in;
  fs::create_directories(dir);
  auto base = appscope::synth::ScenarioConfig::test_scale();
  base.country.seed = fold_seed(base.country.seed, seed);
  base.population.seed = fold_seed(base.population.seed, seed);
  std::size_t services = 0;
  std::size_t communes = 0;
  for (std::size_t k = 0; k < kSnapshots; ++k) {
    auto cfg = base;
    cfg.traffic_seed = fold_seed(fold_seed(base.traffic_seed, seed), k);
    const TrafficDataset dataset = TrafficDataset::generate(cfg);
    const fs::path path = dir / ("epoch_" + std::to_string(k) + ".snapshot");
    dataset.save(path.string());
    in.paths.push_back(path.string());
    services = dataset.service_count();
    communes = dataset.commune_count();
  }

  std::mt19937_64 rng(fold_seed(0x51CE, seed));
  std::set<std::string> seen;
  // A shape whose values keep colliding (a family with few distinct
  // slices, such as top-k per service) gives way to the next shape.
  for (std::size_t shape = 0; in.pool.size() < kPoolSlices; ++shape) {
    for (int attempt = 0; attempt < 64; ++attempt) {
      query::Slice s = pool_slice(shape, rng, services, communes);
      if (seen.insert(query::canonical_query(s)).second) {
        in.pool.push_back(std::move(s));
        break;
      }
    }
  }
  std::vector<double> cdf(kPoolSlices);
  double total = 0.0;
  for (std::size_t r = 0; r < kPoolSlices; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), kZipfExponent);
    cdf[r] = total;
  }
  for (std::size_t q = 0; q < kSnapshots * kQueriesPerSnapshot; ++q) {
    const double u = uniform(rng) * total;
    const auto it = std::upper_bound(cdf.begin(), cdf.end(), u);
    in.order.push_back(static_cast<std::uint32_t>(
        std::min<std::size_t>(static_cast<std::size_t>(it - cdf.begin()),
                              kPoolSlices - 1)));
  }
  return in;
}

/// Checks results against the oracle: the first time a (snapshot, slice)
/// pair is seen the whole answer, afterwards the overall value.
class Checker {
 public:
  explicit Checker(const Inputs& in)
      : expected_(in.paths.size()), seen_(in.paths.size()) {
    for (std::size_t k = 0; k < in.paths.size(); ++k) {
      const TrafficDataset dataset = TrafficDataset::load(in.paths[k]);
      for (const query::Slice& s : in.pool) {
        expected_[k].push_back(naive_answer(dataset, s));
      }
      seen_[k].assign(in.pool.size(), false);
    }
  }
  bool check(std::size_t snapshot, std::size_t slice, const query::Result& r) {
    const query::Result& want = expected_[snapshot][slice];
    if (seen_[snapshot][slice]) return close_enough(r.value, want.value);
    seen_[snapshot][slice] = true;
    return same_answer(r, want);
  }

 private:
  std::vector<std::vector<query::Result>> expected_;
  std::vector<std::vector<bool>> seen_;
};

struct RoundResult {
  double wall = 0.0;  // seconds inside open + query calls
  std::uint64_t queries = 0;
  std::uint64_t failed = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  double p50_us = 0.0;  // query latency quantiles (untraced rounds)
  double p99_us = 0.0;
};

/// Moves the client thread round by round over every CPU the process may
/// run on, and back to all of them at the end. How fast a round runs
/// depends on what the host runs beside its CPU, and that differs from CPU
/// to CPU and minute to minute, even in CPU time; visiting every CPU gives
/// each run the same mix of them, where left to the scheduler the thread
/// may stay on a busy one for the whole run.
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&all_);
    if (sched_getaffinity(0, sizeof(all_), &all_) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &all_)) cpus_.push_back(cpu);
    }
  }
  ~CpuRotation() {
    if (!cpus_.empty()) sched_setaffinity(0, sizeof(all_), &all_);
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  /// Pins the calling thread to the turn's CPU; returns it, or -1 when
  /// the thread stays where it was.
  int pin(std::size_t turn) {
    if (cpus_.empty()) return -1;
    const int cpu = cpus_[turn % cpus_.size()];
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    return sched_setaffinity(0, sizeof(one), &one) == 0 ? cpu : -1;
  }

 private:
  cpu_set_t all_;
  std::vector<int> cpus_;
};

/// One untraced round through query::Engine. `latency_us` is scratch space
/// reused across rounds, so memory stays flat however many rounds run.
RoundResult engine_round(const Inputs& in, Checker& checker,
                         std::vector<double>& latency_us) {
  RoundResult out;
  query::Engine engine;
  latency_us.clear();
  for (std::size_t k = 0; k < in.paths.size(); ++k) {
    auto start = Clock::now();
    const auto view = std::make_unique<query::SnapshotView>(in.paths[k]);
    out.wall += seconds_since(start);
    for (std::size_t q = 0; q < kQueriesPerSnapshot; ++q) {
      const std::uint32_t idx = in.order[k * kQueriesPerSnapshot + q];
      ++out.queries;
      try {
        start = Clock::now();
        const query::Result r = engine.run(*view, in.pool[idx]);
        const double dt = seconds_since(start);
        out.wall += dt;
        latency_us.push_back(dt * 1e6);
        if (!checker.check(k, idx, r)) ++out.failed;
      } catch (const std::exception&) {
        ++out.failed;
      }
    }
  }
  out.hits = engine.cache().hits();
  out.misses = engine.cache().misses();
  out.p50_us = quantile(latency_us, 0.5);
  out.p99_us = quantile(latency_us, 0.99);
  return out;
}

/// One traced round: Engine::run's parts called one by one under spans.
RoundResult traced_round(const Inputs& in, Checker& checker, Samples& samples) {
  RoundResult out;
  Trace trace;
  SpanStat& open = trace.stat("query.open");
  SpanStat& plan_span = trace.stat("query.plan");
  SpanStat& cache_span = trace.stat("query.cache");
  SpanStat& scan = trace.stat("query.scan");
  query::ResultCache cache(query::Engine::Options{}.cache_capacity);
  double mapped_bytes = 0.0;
  double bytes_touched = 0.0;
  for (std::size_t k = 0; k < in.paths.size(); ++k) {
    LapTimer open_timer;
    const auto view = std::make_unique<query::SnapshotView>(in.paths[k]);
    open_timer.lap(open);
    out.wall += open_timer.elapsed();
    for (std::size_t q = 0; q < kQueriesPerSnapshot; ++q) {
      const std::uint32_t idx = in.order[k * kQueriesPerSnapshot + q];
      ++out.queries;
      try {
        LapTimer timer;
        const query::QueryPlan plan =
            query::plan_slice(view->header(), in.pool[idx]);
        timer.lap(plan_span);
        const std::string key = std::to_string(view->fingerprint()) + "|" +
                                query::canonical_query(plan.slice);
        std::optional<query::Result> result = cache.get(key);
        timer.lap(cache_span);
        if (!result) {
          result = query::execute_plan(*view, plan);
          timer.lap(scan);
          cache.put(key, *result);
          timer.lap(cache_span);
          bytes_touched += static_cast<double>(plan.bytes_touched);
        }
        out.wall += timer.elapsed();
        if (!checker.check(k, idx, *result)) ++out.failed;
      } catch (const std::exception&) {
        ++out.failed;
      }
    }
    mapped_bytes += static_cast<double>(view->mapped_bytes());
  }
  out.hits = cache.hits();
  out.misses = cache.misses();

  const double queries = static_cast<double>(out.queries);
  const double misses =
      static_cast<double>(std::max<std::uint64_t>(out.misses, 1));
  samples.traced_wall_s.push_back(out.wall);
  samples.attributed.push_back(trace.total_seconds() / out.wall);
  samples.layer("query.open.us",
                open.seconds * 1e6 / static_cast<double>(in.paths.size()),
                "us");
  samples.layer("query.mapped_bytes",
                mapped_bytes / static_cast<double>(in.paths.size()), "bytes");
  samples.layer("query.plan.us", plan_span.seconds * 1e6 / queries, "us");
  samples.layer("query.cache.us", cache_span.seconds * 1e6 / queries, "us");
  samples.layer("query.scan.us", scan.seconds * 1e6 / misses, "us");
  samples.layer("query.bytes_touched", bytes_touched / misses, "bytes");
  samples.layer("query.cache.hit_ratio",
                static_cast<double>(out.hits) / queries, "ratio");
  samples.layer("query.cache.hits", static_cast<double>(out.hits), "count");
  samples.layer("query.cache.misses", static_cast<double>(out.misses), "count");
  return out;
}

}  // namespace

Report run_query_mix(const RunOptions& options) {
  Report report;
  Samples samples;

  // Set-up, several times: write the snapshots, build the pool. The last
  // set is the one queried.
  appscope::util::ThreadPool::set_global_threads(1);
  Inputs inputs;
  for (std::size_t i = 0; i < kSetups; ++i) {
    const fs::path dir = options.work_dir / ("snapshots-" + std::to_string(i));
    const JobClock clock;
    inputs = make_inputs(options.seed, dir);
    samples.setup(clock);
    if (i + 1 < kSetups) fs::remove_all(dir);
  }
  samples.disk_bytes = directory_bytes(options.work_dir);
  Checker checker(inputs);

  std::vector<double> latency_us;
  latency_us.reserve(kSnapshots * kQueriesPerSnapshot);
  std::vector<double> p50_us;  // per untraced round
  std::vector<double> p99_us;
  double queries = 0.0;  // untraced rounds: queries run, seconds they took
  double query_seconds = 0.0;
  std::optional<std::pair<std::uint64_t, std::uint64_t>> engine_cache;
  CpuRotation rotation;
  RepBudget budget(options.seconds, options.trace ? 4 : 3);
  for (std::size_t rep = 0; budget.next(); ++rep) {
    const bool traced = options.trace && rep % 2 == 1;
    // A traced round runs on the CPU of the untraced round before it.
    rotation.pin(options.trace ? rep / 2 : rep);
    const PeakMemory memory;
    const JobClock clock;
    const RoundResult round = traced
                                  ? traced_round(inputs, checker, samples)
                                  : engine_round(inputs, checker, latency_us);
    const double round_cpu = clock.cpu_s();
    report.attempted += round.queries;
    report.failed += round.failed;
    if (!traced) {
      samples.rep(round_cpu, round.wall, memory.rss_mib(), memory.heap_mib());
      queries += static_cast<double>(round.queries);
      query_seconds += round.wall;
      p50_us.push_back(round.p50_us);
      p99_us.push_back(round.p99_us);
    }
    // Every round replays the same order on a cold cache, so the engine and
    // the traced composition must agree on hits and misses.
    const std::pair<std::uint64_t, std::uint64_t> counts{round.hits,
                                                         round.misses};
    if (!engine_cache) engine_cache = counts;
    if (counts != *engine_cache) {
      report.fail("cache hits/misses differ between rounds");
    }
  }
  if (report.failed > 0) {
    report.fail(std::to_string(report.failed) +
                " queries failed or disagreed with the full-load answer");
  }

  // Each round's quantiles come from its own kSnapshots *
  // kQueriesPerSnapshot samples (80 beyond p99); the figure is their median.
  const double p50 = median(p50_us);
  const double p99 = median(p99_us);
  const std::string n = " us (median of " + std::to_string(p50_us.size()) +
                        " rounds of " +
                        std::to_string(kSnapshots * kQueriesPerSnapshot) +
                        " queries)";
  report.note("e2e query_p50_us = " + format_number(p50) + n);
  report.note("e2e query_p99_us = " + format_number(p99) + n);
  report.note("e2e queries_per_s = " +
              format_number(queries / query_seconds) + " 1/s");
  if (engine_cache) {
    // Which path the figures weigh: cached answers or plan + scan.
    const auto [hits, misses] = *engine_cache;
    report.note("e2e query cache: " + std::to_string(hits) + " hits, " +
                std::to_string(misses) + " misses per round (hit share " +
                format_number(static_cast<double>(hits) /
                              static_cast<double>(hits + misses)) +
                ")");
  }
  if (options.trace) {
    samples.layer("query.p50_us", p50, "us");
    samples.layer("query.p99_us", p99, "us");
    samples.layer("query.samples", queries, "count");
  }
  report.meta["client_threads"] = "1";
  finish(report, options, samples);
  return report;
}

}  // namespace perfbench
