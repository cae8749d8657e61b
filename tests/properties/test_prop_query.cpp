// Concurrency and determinism properties of the query engine.
//
// The contract (DESIGN.md §4i): query results are bitwise identical across
// SIMD dispatches and thread counts, a shared Engine/SnapshotView serves any
// number of reader threads concurrently, and a reader racing a live
// publisher always observes one self-consistent snapshot — never a blend of
// two epochs.
//
// The suites are named ParallelQuery* so the TSan CI preset (which runs
// ^Parallel) races the real reader threads under the sanitizer.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/dataset.hpp"
#include "core/slicing.hpp"
#include "io/snapshot_writer.hpp"
#include "la/simd.hpp"
#include "query/engine.hpp"
#include "query/follower.hpp"
#include "query/snapshot_view.hpp"
#include "util/parallel.hpp"
#include "support/temp_dir.hpp"

namespace appscope::query {
namespace {

namespace fs = std::filesystem;

synth::ScenarioConfig tiny_config(std::uint64_t seed = 0) {
  auto cfg = synth::ScenarioConfig::test_scale();
  cfg.country.commune_count = 50;
  cfg.country.metro_count = 2;
  if (seed != 0) cfg.traffic_seed = seed;
  return cfg;
}

fs::path temp_dir(const std::string& name) {
  const fs::path dir = test::temp_path(name);
  fs::create_directories(dir);
  return dir;
}

/// The test's snapshot of tiny_config(), saved on first use.
std::string shared_snapshot() {
  const std::string path = test::temp_path("shared.snapshot").string();
  if (!fs::exists(path)) {
    core::TrafficDataset::generate(tiny_config()).save(path);
  }
  return path;
}

/// Bitwise equality of two slicing reports (the query-path figure).
bool reports_identical(const core::SlicingReport& a,
                       const core::SlicingReport& b) {
  if (std::memcmp(&a.static_capacity, &b.static_capacity, sizeof(double)) !=
          0 ||
      std::memcmp(&a.dynamic_capacity, &b.dynamic_capacity, sizeof(double)) !=
          0 ||
      a.busy_hour != b.busy_hour || a.slices.size() != b.slices.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.slices.size(); ++i) {
    if (std::memcmp(&a.slices[i].peak, &b.slices[i].peak, sizeof(double)) !=
            0 ||
        std::memcmp(&a.slices[i].mean, &b.slices[i].mean, sizeof(double)) !=
            0 ||
        a.slices[i].peak_hour != b.slices[i].peak_hour) {
      return false;
    }
  }
  return true;
}

// --- dispatch x thread-count determinism -------------------------------------

TEST(ParallelQuerySlicing, QueryPathBitwiseStableAcrossDispatchAndThreads) {
  // analyze_slicing on the query read path must be bitwise identical to the
  // full-load path, under every available SIMD dispatch, at 1/2/8 threads —
  // the acceptance matrix of DESIGN.md §4i.
  const core::TrafficDataset dataset =
      core::TrafficDataset::load(shared_snapshot());
  const SnapshotView view(shared_snapshot());
  const auto d = workload::Direction::kDownlink;

  std::vector<la::simd::Dispatch> dispatches = {la::simd::Dispatch::kScalar};
  if (la::simd::avx2_available()) {
    dispatches.push_back(la::simd::Dispatch::kAvx2);
  }
  const la::simd::Dispatch before = la::simd::active_dispatch();

  std::vector<core::SlicingReport> reports;
  for (const la::simd::Dispatch dispatch : dispatches) {
    la::simd::set_dispatch(dispatch);
    for (const std::size_t threads : {1u, 2u, 8u}) {
      util::ThreadPool::set_global_threads(threads);
      reports.push_back(core::analyze_slicing(dataset, d));
      reports.push_back(core::analyze_slicing(view, d));
    }
  }
  la::simd::set_dispatch(before);
  util::ThreadPool::set_global_threads(0);
  for (std::size_t i = 1; i < reports.size(); ++i) {
    EXPECT_TRUE(reports_identical(reports[0], reports[i]))
        << "variant " << i << " diverged";
  }
}

TEST(ParallelQueryEngineSharing, OneEngineServesManyReaderThreads) {
  // N reader threads hammer one shared Engine + SnapshotView with a mix of
  // cached and uncached slices; every thread must observe the exact value a
  // single-threaded engine computes.
  const SnapshotView view(shared_snapshot());
  Engine engine({.cache_capacity = 8});

  std::vector<Slice> mix;
  for (std::uint32_t h = 0; h < 8; ++h) {
    Slice s;
    s.hour_begin = h * 21;
    s.hour_end = h * 21 + 21;
    mix.push_back(s);
  }
  Engine reference({.cache_capacity = 0});
  std::vector<double> expected;
  for (const Slice& s : mix) expected.push_back(reference.run(view, s).value);

  constexpr std::size_t kReaders = 8;
  constexpr std::size_t kIters = 50;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> readers;
  for (std::size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      for (std::size_t i = 0; i < kIters; ++i) {
        const std::size_t pick = (r + i) % mix.size();
        const Result got = engine.run(view, mix[pick]);
        if (std::memcmp(&got.value, &expected[pick], sizeof(double)) != 0) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : readers) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_GT(engine.cache().hits(), 0u);
}

// --- readers racing a live publisher ----------------------------------------

TEST(ParallelQueryConcurrentReaders, EveryReadObservesOneConsistentSnapshot) {
  // A publisher republishes latest.snapshot (link temp + atomic rename)
  // while reader threads refresh and query through a shared Follower. Each
  // sealed epoch scales the base traffic by a distinct power of two, so
  // every per-epoch aggregate is a distinct exact double: any torn read —
  // a blend of two epochs — would produce a value outside the expected set.
  const fs::path dir = temp_dir("follow_race");

  constexpr int kEpochs = 4;
  std::vector<std::string> staged;
  std::vector<double> expected_values;
  {
    const core::TrafficDataset base =
        core::TrafficDataset::generate(tiny_config());
    Slice probe;  // full national downlink sum
    for (int e = 0; e < kEpochs; ++e) {
      auto cfg = tiny_config();
      // Distinct seeds give distinct totals; exactness is not required for
      // the membership check, identity of the whole file is.
      cfg.traffic_seed = 1000 + static_cast<std::uint64_t>(e);
      const std::string path = (dir / ("staged_" + std::to_string(e))).string();
      core::TrafficDataset::generate(cfg).save(path);
      const SnapshotView view(path);
      Engine engine({.cache_capacity = 0});
      expected_values.push_back(engine.run(view, probe).value);
      staged.push_back(path);
    }
  }
  // All epochs must be distinguishable for the membership check to bite.
  EXPECT_EQ(std::set<double>(expected_values.begin(), expected_values.end())
                .size(),
            expected_values.size());

  io::publish_latest(dir.string(), staged[0]);
  Follower follower(dir.string());
  std::atomic<bool> stop{false};
  std::atomic<int> bad_values{0};
  std::atomic<long> reads{0};

  constexpr std::size_t kReaders = 6;
  std::vector<std::thread> readers;
  for (std::size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      Engine engine({.cache_capacity = 4});
      Slice probe;
      while (!stop.load(std::memory_order_relaxed)) {
        const auto view = follower.refresh();
        const double value = engine.run(*view, probe).value;
        bool known = false;
        for (const double e : expected_values) {
          if (std::memcmp(&value, &e, sizeof(double)) == 0) known = true;
        }
        if (!known) bad_values.fetch_add(1);
        reads.fetch_add(1);
      }
    });
  }

  // Publisher: republish each epoch through the daemon's publish path.
  for (int round = 0; round < 3; ++round) {
    for (int e = 0; e < kEpochs; ++e) {
      io::publish_latest(dir.string(), staged[static_cast<std::size_t>(e)]);
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  stop.store(true);
  for (auto& t : readers) t.join();

  EXPECT_EQ(bad_values.load(), 0);
  EXPECT_GT(reads.load(), 0);
  // The follower reloaded at least once per distinct republished epoch.
  EXPECT_GE(follower.reloads(), static_cast<std::uint64_t>(kEpochs));
  fs::remove_all(dir);
}

}  // namespace
}  // namespace appscope::query
