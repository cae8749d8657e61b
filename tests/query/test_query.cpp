// Tests of the query engine: the lazily-mapping SnapshotView, predicate
// pushdown (plan_slice resolves every predicate against the header before a
// payload byte is touched), scan correctness against the eagerly loaded
// dataset, the bounded result cache, per-section corruption isolation, and
// the refresh-on-publish Follower.
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/dataset.hpp"
#include "io/format.hpp"
#include "io/snapshot.hpp"
#include "io/snapshot_reader.hpp"
#include "io/snapshot_writer.hpp"
#include "query/engine.hpp"
#include "query/follower.hpp"
#include "query/plan.hpp"
#include "query/slice.hpp"
#include "query/snapshot_view.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"
#include "support/temp_dir.hpp"

namespace appscope::query {
namespace {

namespace fs = std::filesystem;

synth::ScenarioConfig small_config(std::uint64_t seed = 0) {
  auto cfg = synth::ScenarioConfig::test_scale();
  cfg.country.commune_count = 60;
  cfg.country.metro_count = 2;
  if (seed != 0) cfg.traffic_seed = seed;
  return cfg;
}

/// The base dataset, generated once per process, and its sealed snapshot,
/// saved once per test.
const core::TrafficDataset& base_dataset() {
  static const core::TrafficDataset dataset =
      core::TrafficDataset::generate(small_config());
  return dataset;
}

std::string base_snapshot() {
  const std::string path = test::temp_path("base.snapshot").string();
  if (!fs::exists(path)) base_dataset().save(path);
  return path;
}

/// Relative-tolerance comparison for sums whose addition tree differs from
/// the naive sequential one (striped lanes, fixed row chunks).
void expect_close(double expected, double actual) {
  EXPECT_NEAR(expected, actual, 1e-9 * std::max(std::abs(expected), 1.0));
}

// --- SnapshotView -----------------------------------------------------------

TEST(SnapshotView, LazyOpenMapsHeaderOnly) {
  const SnapshotView view(base_snapshot());
  EXPECT_EQ(view.reader().mode(), io::ValidationMode::kLazy);
  // Before any row access only the header+table window is mapped.
  EXPECT_LE(view.mapped_bytes(), io::kPayloadStart);
  EXPECT_LT(view.mapped_bytes(), view.file_bytes());

  const auto row = view.national_row(0, workload::Direction::kDownlink);
  EXPECT_EQ(row.size(), view.hours());
  // Touching one cube maps that section (plus page rounding), not the file.
  EXPECT_GT(view.mapped_bytes(), io::kPayloadStart);
  EXPECT_LT(view.mapped_bytes(), view.file_bytes());
}

TEST(SnapshotView, RowAccessorsMatchDatasetBitwise) {
  const core::TrafficDataset& dataset = base_dataset();
  const SnapshotView view(base_snapshot());
  for (const auto d :
       {workload::Direction::kDownlink, workload::Direction::kUplink}) {
    for (std::size_t s = 0; s < view.services(); s += 7) {
      const auto& expected = dataset.national_series(s, d);
      const auto row = view.national_row(s, d);
      ASSERT_EQ(row.size(), expected.size());
      EXPECT_EQ(std::memcmp(row.data(), expected.data(),
                            expected.size() * sizeof(double)),
                0);

      const auto communes = view.commune_row(s, d);
      ASSERT_EQ(communes.size(), view.communes());
      for (std::size_t c = 0; c < communes.size(); c += 13) {
        EXPECT_EQ(communes[c],
                  dataset.commune_total(s, static_cast<geo::CommuneId>(c), d));
      }

      const auto urban =
          view.urbanization_row(s, geo::Urbanization::kUrban, d);
      const auto& urban_expected =
          dataset.urbanization_series(s, geo::Urbanization::kUrban, d);
      ASSERT_EQ(urban.size(), urban_expected.size());
      EXPECT_EQ(std::memcmp(urban.data(), urban_expected.data(),
                            urban_expected.size() * sizeof(double)),
                0);
    }
  }
}

TEST(SnapshotView, FingerprintIdentifiesTheSnapshot) {
  const SnapshotView a(base_snapshot());
  const SnapshotView b(base_snapshot());
  EXPECT_EQ(a.fingerprint(), b.fingerprint());

  const std::string other = test::temp_path("other_seed.snapshot").string();
  core::TrafficDataset::generate(small_config(991)).save(other);
  const SnapshotView c(other);
  EXPECT_NE(a.fingerprint(), c.fingerprint());
  fs::remove(other);
}

TEST(SnapshotView, CatalogDecodesOnFirstUse) {
  const SnapshotView view(base_snapshot());
  const workload::ServiceCatalog& catalog = view.catalog();
  ASSERT_EQ(catalog.size(), base_dataset().catalog().size());
  for (std::size_t s = 0; s < catalog.size(); ++s) {
    EXPECT_EQ(catalog[s].name, base_dataset().catalog()[s].name);
  }
}

TEST(SnapshotView, ColumnRejectsNonCubeSections) {
  const SnapshotView view(base_snapshot());
  EXPECT_THROW(view.column(io::SectionId::kConfig), util::PreconditionError);
}

// --- plan_slice: predicate pushdown -----------------------------------------

TEST(QueryPlan, PushdownResolvesToExactByteCount) {
  const SnapshotView view(base_snapshot());
  Slice slice;
  slice.hour_begin = 19;
  slice.hour_end = 21;
  slice.services = {3, 1};
  const QueryPlan plan = plan_slice(view.header(), slice);
  EXPECT_EQ(plan.section, io::SectionId::kNationalSeries);
  ASSERT_EQ(plan.rows.size(), 2u);
  EXPECT_EQ(plan.rows[0].service, 1u);  // canonicalized ascending
  EXPECT_EQ(plan.rows[1].service, 3u);
  EXPECT_EQ(plan.col_begin, 19u);
  EXPECT_EQ(plan.col_end, 21u);
  EXPECT_EQ(plan.selected_per_row, 2u);
  EXPECT_EQ(plan.bytes_touched, 2u * 2u * sizeof(double));
  EXPECT_TRUE(plan.mask.empty());
}

TEST(QueryPlan, CommuneSetBecomesSelectionMask) {
  const SnapshotView view(base_snapshot());
  Slice slice;
  slice.source = Source::kCommuneTotals;
  slice.communes = {9, 2, 5, 2};  // duplicate collapses
  const QueryPlan plan = plan_slice(view.header(), slice);
  EXPECT_EQ(plan.section, io::SectionId::kCommuneTotals);
  EXPECT_EQ(plan.selected_per_row, 3u);
  ASSERT_EQ(plan.mask.size(), view.communes());
  for (std::size_t c = 0; c < plan.mask.size(); ++c) {
    EXPECT_EQ(plan.mask[c] != 0, c == 2 || c == 5 || c == 9) << c;
  }
}

TEST(QueryPlan, RejectsUnanswerableSlices) {
  const SnapshotView view(base_snapshot());
  const auto plan_of = [&](auto&& mutate) {
    Slice slice;
    mutate(slice);
    return plan_slice(view.header(), slice);
  };
  // Hour window out of range or inverted.
  EXPECT_THROW(plan_of([](Slice& s) { s.hour_begin = 170; }),
               util::InputError);
  EXPECT_THROW(plan_of([](Slice& s) {
                 s.hour_begin = 20;
                 s.hour_end = 10;
               }),
               util::InputError);
  // Ids beyond the snapshot dimensions.
  EXPECT_THROW(plan_of([&](Slice& s) {
                 s.services = {static_cast<std::uint32_t>(view.services())};
               }),
               util::InputError);
  EXPECT_THROW(plan_of([&](Slice& s) {
                 s.source = Source::kCommuneTotals;
                 s.communes = {static_cast<std::uint32_t>(view.communes())};
               }),
               util::InputError);
  // Predicates that do not apply to the source.
  EXPECT_THROW(plan_of([](Slice& s) { s.communes = {1}; }), util::InputError);
  EXPECT_THROW(plan_of([](Slice& s) {
                 s.source = Source::kCommuneTotals;
                 s.hour_begin = 1;
                 s.hour_end = 2;
               }),
               util::InputError);
  EXPECT_THROW(plan_of([](Slice& s) { s.urbanization = 2; }),
               util::InputError);
  EXPECT_THROW(plan_of([](Slice& s) {
                 s.source = Source::kUrbanization;
                 s.urbanization = 4;
               }),
               util::InputError);
  // Op / group-by combinations.
  EXPECT_THROW(plan_of([](Slice& s) { s.op = Op::kTopK; }), util::InputError);
  EXPECT_THROW(plan_of([](Slice& s) {
                 s.op = Op::kTopK;
                 s.group_by = GroupBy::kService;
                 s.k = 0;
               }),
               util::InputError);
  EXPECT_THROW(plan_of([](Slice& s) { s.group_by = GroupBy::kCommune; }),
               util::InputError);
  EXPECT_THROW(plan_of([](Slice& s) {
                 s.source = Source::kCommuneTotals;
                 s.group_by = GroupBy::kHour;
               }),
               util::InputError);
  EXPECT_THROW(plan_of([](Slice& s) {
                 s.op = Op::kMax;
                 s.group_by = GroupBy::kHour;
               }),
               util::InputError);
}

// --- engine correctness vs the eagerly loaded dataset -----------------------

TEST(QueryEngine, SingleCellSliceIsExact) {
  const SnapshotView view(base_snapshot());
  Engine engine({.cache_capacity = 0});
  Slice slice;
  slice.services = {4};
  slice.hour_begin = 42;
  slice.hour_end = 43;
  const Result r = engine.run(view, slice);
  EXPECT_EQ(r.cells, 1u);
  EXPECT_EQ(r.value,
            base_dataset().national_series(4, workload::Direction::kDownlink)[42]);
  EXPECT_EQ(r.bytes_scanned, sizeof(double));
}

TEST(QueryEngine, SumMeanMaxMatchDatasetTruth) {
  const core::TrafficDataset& dataset = base_dataset();
  const SnapshotView view(base_snapshot());
  Engine engine({.cache_capacity = 0});
  const auto d = workload::Direction::kUplink;

  double naive_sum = 0.0;
  double naive_max = 0.0;
  std::size_t cells = 0;
  for (std::size_t s = 0; s < view.services(); ++s) {
    for (std::size_t h = 8; h < 30; ++h) {
      const double v = dataset.national_series(s, d)[h];
      naive_sum += v;
      if (v > naive_max) naive_max = v;
      ++cells;
    }
  }

  Slice slice;
  slice.direction = d;
  slice.hour_begin = 8;
  slice.hour_end = 30;
  expect_close(naive_sum, engine.run(view, slice).value);

  slice.op = Op::kMean;
  expect_close(naive_sum / static_cast<double>(cells),
               engine.run(view, slice).value);

  slice.op = Op::kMax;
  EXPECT_EQ(naive_max, engine.run(view, slice).value);  // max is exact
}

TEST(QueryEngine, CommuneMaskedSumMatchesDatasetTruth) {
  const core::TrafficDataset& dataset = base_dataset();
  const SnapshotView view(base_snapshot());
  Engine engine({.cache_capacity = 0});
  const std::vector<std::uint32_t> picks = {3, 17, 29, 44};

  double naive = 0.0;
  for (std::size_t s = 0; s < view.services(); ++s) {
    for (const std::uint32_t c : picks) {
      naive += dataset.commune_total(s, c, workload::Direction::kDownlink);
    }
  }
  Slice slice;
  slice.source = Source::kCommuneTotals;
  slice.communes = picks;
  const Result r = engine.run(view, slice);
  expect_close(naive, r.value);
  EXPECT_EQ(r.cells, view.services() * picks.size());
}

TEST(QueryEngine, GroupByHourMatchesDatasetTruth) {
  const core::TrafficDataset& dataset = base_dataset();
  const SnapshotView view(base_snapshot());
  Engine engine({.cache_capacity = 0});
  Slice slice;
  slice.hour_begin = 100;
  slice.hour_end = 110;
  slice.group_by = GroupBy::kHour;
  const Result r = engine.run(view, slice);
  ASSERT_EQ(r.groups.size(), 10u);
  for (std::size_t j = 0; j < r.groups.size(); ++j) {
    EXPECT_EQ(r.groups[j].key, 100u + j);
    double naive = 0.0;
    for (std::size_t s = 0; s < view.services(); ++s) {
      naive +=
          dataset.national_series(s, workload::Direction::kDownlink)[100 + j];
    }
    expect_close(naive, r.groups[j].value);
  }
}

TEST(QueryEngine, TopKCommunesMatchesDatasetRanking) {
  const core::TrafficDataset& dataset = base_dataset();
  const SnapshotView view(base_snapshot());
  Engine engine({.cache_capacity = 0});
  Slice slice;
  slice.source = Source::kCommuneTotals;
  slice.op = Op::kTopK;
  slice.k = 3;
  slice.group_by = GroupBy::kCommune;
  const Result r = engine.run(view, slice);
  ASSERT_EQ(r.groups.size(), 3u);

  std::vector<double> totals(view.communes(), 0.0);
  for (std::size_t s = 0; s < view.services(); ++s) {
    for (std::size_t c = 0; c < view.communes(); ++c) {
      totals[c] += dataset.commune_total(s, static_cast<geo::CommuneId>(c),
                                         workload::Direction::kDownlink);
    }
  }
  // The engine's ranking must match the naive one (values may differ in the
  // last bits; the order must not, given distinct synthetic totals).
  std::vector<std::size_t> order(totals.size());
  for (std::size_t c = 0; c < order.size(); ++c) order[c] = c;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return totals[a] > totals[b];
  });
  EXPECT_GT(r.groups[0].value, r.groups[1].value);
  EXPECT_GT(r.groups[1].value, r.groups[2].value);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(r.groups[i].key, order[i]);
    expect_close(totals[order[i]], r.groups[i].value);
  }
}

TEST(QueryEngine, UrbanizationClassSliceMatchesDatasetTruth) {
  const core::TrafficDataset& dataset = base_dataset();
  const SnapshotView view(base_snapshot());
  Engine engine({.cache_capacity = 0});
  Slice slice;
  slice.source = Source::kUrbanization;
  slice.urbanization = 1;
  slice.services = {0, 5, 9};
  double naive = 0.0;
  for (const std::uint32_t s : slice.services) {
    const auto& series = dataset.urbanization_series(
        s, static_cast<geo::Urbanization>(1), workload::Direction::kDownlink);
    for (const double v : series) naive += v;
  }
  expect_close(naive, engine.run(view, slice).value);
}

TEST(QueryEngine, ResultsAreBitwiseStableAcrossThreadCounts) {
  const SnapshotView view(base_snapshot());
  Slice slice;
  slice.group_by = GroupBy::kHour;
  Slice grouped;
  grouped.source = Source::kCommuneTotals;
  grouped.op = Op::kTopK;
  grouped.k = 7;
  grouped.group_by = GroupBy::kCommune;

  std::vector<Result> flat, ranked;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    util::ThreadPool::set_global_threads(threads);
    Engine engine({.cache_capacity = 0});
    flat.push_back(engine.run(view, slice));
    ranked.push_back(engine.run(view, grouped));
  }
  util::ThreadPool::set_global_threads(0);
  // Field-by-field bitwise comparison (GroupValue has padding bytes, so a
  // whole-struct memcmp would compare indeterminate memory).
  const auto groups_identical = [](const std::vector<GroupValue>& a,
                                   const std::vector<GroupValue>& b) {
    if (a.size() != b.size()) return false;
    for (std::size_t g = 0; g < a.size(); ++g) {
      if (a[g].key != b[g].key ||
          std::memcmp(&a[g].value, &b[g].value, sizeof(double)) != 0) {
        return false;
      }
    }
    return true;
  };
  for (std::size_t i = 1; i < flat.size(); ++i) {
    EXPECT_EQ(std::memcmp(&flat[0].value, &flat[i].value, sizeof(double)), 0);
    EXPECT_TRUE(groups_identical(flat[0].groups, flat[i].groups)) << i;
    EXPECT_TRUE(groups_identical(ranked[0].groups, ranked[i].groups)) << i;
  }
}

// --- result cache -----------------------------------------------------------

TEST(QueryCache, HitsMissesAndFromCacheFlag) {
  const SnapshotView view(base_snapshot());
  Engine engine({.cache_capacity = 4});
  Slice slice;
  slice.hour_begin = 0;
  slice.hour_end = 24;

  const Result first = engine.run(view, slice);
  EXPECT_FALSE(first.from_cache);
  const Result second = engine.run(view, slice);
  EXPECT_TRUE(second.from_cache);
  EXPECT_EQ(second.value, first.value);
  EXPECT_EQ(engine.cache().hits(), 1u);
  EXPECT_EQ(engine.cache().misses(), 1u);

  // A semantically identical but differently-written slice canonicalizes to
  // the same key.
  Slice shuffled = slice;
  shuffled.services = {};  // empty == all, as before
  EXPECT_TRUE(engine.run(view, shuffled).from_cache);
}

TEST(QueryCache, CapacityZeroDisablesCaching) {
  const SnapshotView view(base_snapshot());
  Engine engine({.cache_capacity = 0});
  Slice slice;
  EXPECT_FALSE(engine.run(view, slice).from_cache);
  EXPECT_FALSE(engine.run(view, slice).from_cache);
  EXPECT_EQ(engine.cache().hits(), 0u);
}

TEST(QueryCache, LeastRecentlyUsedEntryIsEvicted) {
  const SnapshotView view(base_snapshot());
  Engine engine({.cache_capacity = 2});
  Slice a, b, c;
  a.hour_begin = 0, a.hour_end = 1;
  b.hour_begin = 1, b.hour_end = 2;
  c.hour_begin = 2, c.hour_end = 3;
  engine.run(view, a);
  engine.run(view, b);
  engine.run(view, a);           // a is now most recent
  engine.run(view, c);           // evicts b
  EXPECT_TRUE(engine.run(view, a).from_cache);
  EXPECT_FALSE(engine.run(view, b).from_cache);
}

TEST(QueryCache, KeyIncludesSnapshotFingerprint) {
  const std::string other = test::temp_path("cache_other.snapshot").string();
  core::TrafficDataset::generate(small_config(1234)).save(other);
  const SnapshotView a(base_snapshot());
  const SnapshotView b(other);
  Engine engine({.cache_capacity = 4});
  Slice slice;
  EXPECT_FALSE(engine.run(a, slice).from_cache);
  EXPECT_FALSE(engine.run(b, slice).from_cache);  // same slice, other file
  EXPECT_TRUE(engine.run(a, slice).from_cache);
  fs::remove(other);
}

// --- per-section corruption isolation ---------------------------------------

TEST(QueryCorruption, CorruptSectionOnlyFailsQueriesTouchingIt) {
  // Locate the commune-totals payload via a healthy reader, then flip one
  // byte of it in a copy.
  std::uint64_t commune_offset = 0;
  {
    const io::SnapshotReader healthy(base_snapshot());
    for (const io::SectionEntry& e : healthy.sections()) {
      if (e.id == io::SectionId::kCommuneTotals) commune_offset = e.offset;
    }
  }
  ASSERT_GT(commune_offset, 0u);

  const std::string path = test::temp_path("corrupt_section.snapshot").string();
  fs::copy_file(base_snapshot(), path, fs::copy_options::overwrite_existing);
  {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekg(static_cast<std::streamoff>(commune_offset));
    char byte = 0;
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x10);
    f.seekp(static_cast<std::streamoff>(commune_offset));
    f.write(&byte, 1);
  }

  // Eager validation refuses the whole file...
  EXPECT_THROW(io::SnapshotReader eager(path), util::InputError);

  // ...while the lazy view opens fine and isolates the damage: national
  // queries succeed, commune queries throw a typed InputError on first
  // touch, and national queries still succeed afterwards.
  const SnapshotView view(path);
  Engine engine({.cache_capacity = 0});
  Slice national;
  EXPECT_GT(engine.run(view, national).value, 0.0);

  Slice communes;
  communes.source = Source::kCommuneTotals;
  EXPECT_THROW(engine.run(view, communes), util::InputError);
  EXPECT_THROW(engine.run(view, communes), util::InputError);  // stays failed

  EXPECT_GT(engine.run(view, national).value, 0.0);
  fs::remove(path);
}

// --- Follower: refresh-on-publish -------------------------------------------

TEST(QueryFollower, RefreshReloadsOnlyWhenThePublishedFileChanges) {
  const fs::path dir = test::temp_path("follow_dir");
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string latest = (dir / "latest.snapshot").string();

  base_dataset().save(latest);
  Follower follower(dir.string());
  const auto v1 = follower.refresh();
  ASSERT_NE(v1, nullptr);
  EXPECT_EQ(follower.reloads(), 1u);
  EXPECT_EQ(follower.refresh(), v1);  // unchanged publish point: same view
  EXPECT_EQ(follower.reloads(), 1u);

  // Publish a new epoch the way the daemon does: save + publish_latest.
  const std::string next = (dir / io::epoch_filename(1)).string();
  core::TrafficDataset::generate(small_config(777)).save(next);
  io::publish_latest(dir.string(), next);

  const auto v2 = follower.refresh();
  EXPECT_EQ(follower.reloads(), 2u);
  EXPECT_NE(v2->fingerprint(), v1->fingerprint());
  // The old view stays valid for in-flight readers.
  EXPECT_GT(v1->national_row(0, workload::Direction::kDownlink)[0], 0.0);
  fs::remove_all(dir);
}

TEST(QueryFollower, EmptyDirectoryThrowsInputError) {
  const fs::path dir = test::temp_path("follow_empty");
  fs::remove_all(dir);
  fs::create_directories(dir);
  Follower follower(dir.string());
  EXPECT_THROW(follower.refresh(), util::InputError);
  EXPECT_EQ(follower.current(), nullptr);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace appscope::query
