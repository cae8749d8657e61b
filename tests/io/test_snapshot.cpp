// Structural tests of the "appscope.snapshot/1" store: byte-level
// primitives, component serialization round-trips, the writer/reader pair,
// and — most importantly — the corruption taxonomy: every way a file can be
// malformed (wrong magic, future version, truncation, flipped bytes,
// dimension mismatch) must surface as a typed util::InputError before any
// payload is interpreted, never as UB. Run under the ASan preset too
// (scripts/check.sh).
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "io/binary.hpp"
#include "io/format.hpp"
#include "io/snapshot.hpp"
#include "io/snapshot_reader.hpp"
#include "io/snapshot_writer.hpp"
#include "io/serialize.hpp"
#include "core/dataset.hpp"
#include "util/error.hpp"
#include "util/metrics.hpp"
#include "support/temp_dir.hpp"

namespace appscope::io {
namespace {

synth::ScenarioConfig small_config() {
  auto cfg = synth::ScenarioConfig::test_scale();
  cfg.country.commune_count = 60;
  cfg.country.metro_count = 2;
  return cfg;
}

/// A small generated dataset saved once per test; corruption tests mutate
/// copies.
std::string base_snapshot() {
  const std::string path = test::temp_path("base.snapshot").string();
  if (!std::filesystem::exists(path)) {
    core::TrafficDataset::generate(small_config()).save(path);
  }
  return path;
}

/// Names of the files in the running test's directory that are left-over
/// temp files of the snapshot publish path.
std::vector<std::string> temp_leftovers() {
  std::vector<std::string> names;
  for (const auto& entry :
       std::filesystem::directory_iterator(test::test_dir())) {
    const std::string name = entry.path().filename().string();
    if (name.find(".tmp") != std::string::npos) names.push_back(name);
  }
  return names;
}

std::vector<char> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::vector<char>(std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>());
}

void write_file(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

/// Copies the base snapshot, applies `mutate` to its bytes, and returns the
/// corrupted file's path.
template <typename Mutate>
std::string corrupted(const std::string& name, Mutate&& mutate) {
  std::vector<char> bytes = read_file(base_snapshot());
  mutate(bytes);
  const std::string path = test::temp_path(name).string();
  write_file(path, bytes);
  return path;
}

template <typename Fn>
void expect_input_error(Fn&& fn, std::string_view needle) {
  try {
    fn();
    FAIL() << "expected util::InputError containing '" << needle << "'";
  } catch (const util::InputError& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "actual message: " << e.what();
  }
}

// --- byte primitives --------------------------------------------------------

TEST(SnapshotBinary, Crc32MatchesKnownVectors) {
  const std::string check = "123456789";
  EXPECT_EQ(crc32(std::as_bytes(std::span(check.data(), check.size()))),
            0xCBF43926u);  // the CRC-32/ISO-HDLC check value
  EXPECT_EQ(crc32({}), 0u);
}

TEST(SnapshotBinary, Fnv1a64MatchesKnownVectors) {
  EXPECT_EQ(fnv1a64({}), 14695981039346656037ull);  // offset basis
  const std::string a = "a";
  EXPECT_EQ(fnv1a64(std::as_bytes(std::span(a.data(), a.size()))),
            0xaf63dc4c8601ec8cull);
}

TEST(SnapshotBinary, WriterReaderRoundTripIsExact) {
  ByteWriter w;
  w.u8(0x7f);
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefull);
  w.f64(-1234.56789e-12);
  w.f64(0.1);  // not exactly representable: must survive bitwise
  w.str("héllo, snapshot");
  ByteReader r(w.bytes());
  EXPECT_EQ(r.u8(), 0x7f);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefull);
  EXPECT_EQ(r.f64(), -1234.56789e-12);
  EXPECT_EQ(r.f64(), 0.1);
  EXPECT_EQ(r.str(), "héllo, snapshot");
  EXPECT_TRUE(r.exhausted());
}

TEST(SnapshotBinary, ReaderOverrunThrowsInputError) {
  ByteWriter w;
  w.u32(7);
  ByteReader r(w.bytes());
  r.u32();
  EXPECT_THROW(r.u8(), util::InputError);
  ByteReader r2(w.bytes());
  EXPECT_THROW(r2.u64(), util::InputError);
}

// --- component serialization -------------------------------------------------

TEST(SnapshotSerialize, ConfigRoundTripIsByteStable) {
  auto cfg = synth::ScenarioConfig::test_scale();
  cfg.traffic_seed = 424242;
  cfg.temporal_noise_sigma = 0.123;
  cfg.enable_mobility = true;
  const auto bytes = encode_config(cfg);
  const synth::ScenarioConfig decoded = decode_config(bytes);
  EXPECT_EQ(encode_config(decoded), bytes);
  EXPECT_EQ(decoded.traffic_seed, 424242u);
  EXPECT_EQ(decoded.temporal_noise_sigma, 0.123);
  EXPECT_TRUE(decoded.enable_mobility);
  EXPECT_EQ(decoded.country.commune_count, cfg.country.commune_count);
  EXPECT_EQ(config_hash(cfg), config_hash(decoded));
  cfg.traffic_seed = 424243;
  EXPECT_NE(config_hash(cfg), config_hash(decoded));
}

TEST(SnapshotSerialize, TerritoryRoundTripIsByteStable) {
  auto cfg = synth::ScenarioConfig::test_scale();
  cfg.country.commune_count = 40;
  const geo::Territory territory = geo::build_synthetic_country(cfg.country);
  const auto bytes = encode_territory(territory);
  const geo::Territory decoded = decode_territory(bytes);
  ASSERT_EQ(decoded.size(), territory.size());
  EXPECT_EQ(encode_territory(decoded), bytes);
  for (std::size_t c = 0; c < territory.size(); ++c) {
    EXPECT_EQ(decoded.communes()[c].population, territory.communes()[c].population);
    EXPECT_EQ(decoded.communes()[c].urbanization,
              territory.communes()[c].urbanization);
    EXPECT_EQ(decoded.communes()[c].centroid, territory.communes()[c].centroid);
  }
}

TEST(SnapshotSerialize, SubscribersAndCatalogRoundTrip) {
  auto cfg = synth::ScenarioConfig::test_scale();
  cfg.country.commune_count = 40;
  const geo::Territory territory = geo::build_synthetic_country(cfg.country);
  const workload::SubscriberBase base(territory, cfg.population);
  const workload::SubscriberBase decoded_base =
      decode_subscribers(encode_subscribers(base));
  EXPECT_EQ(decoded_base.counts(), base.counts());

  const auto catalog = workload::ServiceCatalog::paper_services();
  const auto bytes = encode_catalog(catalog);
  const workload::ServiceCatalog decoded = decode_catalog(bytes);
  ASSERT_EQ(decoded.size(), catalog.size());
  EXPECT_EQ(encode_catalog(decoded), bytes);
  for (std::size_t s = 0; s < catalog.size(); ++s) {
    EXPECT_EQ(decoded[s].name, catalog[s].name);
    EXPECT_EQ(decoded[s].category, catalog[s].category);
  }
}

TEST(SnapshotSerialize, DecodeRejectsTrailingAndTruncatedBytes) {
  auto bytes = encode_config(synth::ScenarioConfig::test_scale());
  auto extra = bytes;
  extra.push_back(std::byte{0});
  EXPECT_THROW(decode_config(extra), util::InputError);
  bytes.pop_back();
  EXPECT_THROW(decode_config(bytes), util::InputError);
}

// --- writer/reader ----------------------------------------------------------

TEST(SnapshotFormat, WriterReaderRoundTrip) {
  const std::string path = test::temp_path("roundtrip.snapshot").string();
  SnapshotWriter::Dimensions dims{3, 5, 168, 2, 4};
  const std::vector<double> column = {1.5, -2.25, 1e300, 0.0, 1e-300, 42.0};
  const std::vector<std::uint64_t> ids = {7, 8, 9};
  {
    SnapshotWriter writer(path, dims, 0xfeedfacecafebeefull, 77);
    ByteWriter raw;
    raw.str("payload");
    writer.add_section(SectionId::kConfig, raw.bytes());
    writer.add_f64_section(SectionId::kNationalSeries, column);
    writer.add_u64_section(SectionId::kClassSubscribers, ids);
    const std::uint64_t size = writer.finish();
    EXPECT_EQ(size, std::filesystem::file_size(path));
  }
  const SnapshotReader reader(path);
  EXPECT_EQ(reader.header().version, kSnapshotVersion);
  EXPECT_EQ(reader.header().config_hash, 0xfeedfacecafebeefull);
  EXPECT_EQ(reader.header().traffic_seed, 77u);
  EXPECT_EQ(reader.header().services, 3u);
  EXPECT_EQ(reader.header().communes, 5u);
  EXPECT_EQ(reader.header().section_count, 3u);
  EXPECT_TRUE(reader.has_section(SectionId::kNationalSeries));
  EXPECT_FALSE(reader.has_section(SectionId::kTerritory));

  const auto f64 = reader.f64_section(SectionId::kNationalSeries);
  ASSERT_EQ(f64.size(), column.size());
  for (std::size_t i = 0; i < column.size(); ++i) EXPECT_EQ(f64[i], column[i]);
  const auto u64 = reader.u64_section(SectionId::kClassSubscribers);
  ASSERT_EQ(u64.size(), ids.size());
  EXPECT_EQ(u64[0], 7u);

  // Typed accessors refuse the wrong kind.
  EXPECT_THROW(reader.f64_section(SectionId::kConfig), util::InputError);
  EXPECT_THROW(reader.u64_section(SectionId::kNationalSeries), util::InputError);
  EXPECT_THROW(reader.section(SectionId::kTotals), util::InputError);
  std::filesystem::remove(path);
}

TEST(SnapshotFormat, SectionPayloadsAreAlignedForZeroCopy) {
  const SnapshotReader reader(base_snapshot());
#if defined(__unix__) || defined(__APPLE__)
  EXPECT_TRUE(reader.mapped());
#endif
  for (const SectionEntry& e : reader.sections()) {
    EXPECT_EQ(e.offset % kSectionAlignment, 0u) << section_name(e.id);
  }
  const auto national = reader.f64_section(SectionId::kNationalSeries);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(national.data()) % alignof(double),
            0u);
}

TEST(SnapshotFormat, UnfinishedWriterLeavesPreviousFileIntact) {
  const std::string path = base_snapshot();
  const std::vector<char> before = read_file(path);
  {
    SnapshotWriter writer(path, {1, 1, 168, 2, 4}, 1, 2);
    const std::vector<double> col = {1.0};
    writer.add_f64_section(SectionId::kNationalSeries, col);
    // No finish(): simulates a crash mid-write.
  }
  EXPECT_EQ(read_file(path), before);
  EXPECT_NO_THROW(read_snapshot(path));
  EXPECT_EQ(temp_leftovers(), std::vector<std::string>{});
}

TEST(SnapshotFormat, SaveOverAnOpenLazyReaderKeepsItsSectionsValid) {
  // A reader mapping a snapshot while a writer replaces that path must keep
  // reading the file it opened: the replacement is a new file renamed into
  // place, never the old one rewritten under the live mapping.
  const std::string path = base_snapshot();
  const SnapshotReader reader(path, ValidationMode::kLazy);
  auto other = small_config();
  other.traffic_seed += 1;
  core::TrafficDataset::generate(other).save(path);
  for (const SectionEntry& e : reader.sections()) {
    EXPECT_NO_THROW(reader.section(e.id)) << section_name(e.id);
  }
  EXPECT_NE(read_snapshot_config_hash(path), reader.header().config_hash);
  EXPECT_EQ(temp_leftovers(), std::vector<std::string>{});
}

// --- corruption taxonomy ----------------------------------------------------

TEST(SnapshotCorruption, WrongMagicRejected) {
  const auto path = corrupted("magic.snapshot",
                              [](std::vector<char>& b) { b[0] = 'X'; });
  expect_input_error([&] { SnapshotReader reader(path); }, "bad magic");
  std::filesystem::remove(path);
}

TEST(SnapshotCorruption, FutureVersionRejected) {
  // The version u32 sits right after the 8-byte magic.
  const auto path = corrupted("version.snapshot",
                              [](std::vector<char>& b) { b[8] = 99; });
  expect_input_error([&] { SnapshotReader reader(path); },
                     "unsupported format version");
  std::filesystem::remove(path);
}

TEST(SnapshotCorruption, TruncatedFileRejected) {
  const auto path = corrupted("trunc.snapshot", [](std::vector<char>& b) {
    b.resize(b.size() - 100);
  });
  expect_input_error([&] { SnapshotReader reader(path); }, "truncated");
  std::filesystem::remove(path);

  const auto headerless = corrupted("headerless.snapshot",
                                    [](std::vector<char>& b) { b.resize(10); });
  expect_input_error([&] { SnapshotReader reader(headerless); }, "truncated");
  std::filesystem::remove(headerless);
}

TEST(SnapshotCorruption, TableChecksumMismatchRejected) {
  const auto path = corrupted("table.snapshot", [](std::vector<char>& b) {
    b[kHeaderBytes + 2] = static_cast<char>(b[kHeaderBytes + 2] ^ 0x40);
  });
  expect_input_error([&] { SnapshotReader reader(path); },
                     "section table checksum mismatch");
  std::filesystem::remove(path);
}

TEST(SnapshotCorruption, FlippedPayloadByteRejected) {
  // First payload byte belongs to the config section.
  const auto path = corrupted("payload.snapshot", [](std::vector<char>& b) {
    b[kPayloadStart] = static_cast<char>(b[kPayloadStart] ^ 0x01);
  });
  expect_input_error([&] { SnapshotReader reader(path); },
                     "checksum mismatch (corrupted)");
  std::filesystem::remove(path);
}

TEST(SnapshotCorruption, DimensionMismatchRejected) {
  // The services u32 lives at offset 28 (magic 8, version 4, config_hash 8,
  // traffic_seed 8). The header is not checksummed, so the structural pass
  // accepts the patch and the cross-check in read_snapshot must catch it.
  const auto path = corrupted("dims.snapshot", [](std::vector<char>& b) {
    b[28] = static_cast<char>(b[28] + 1);
  });
  expect_input_error([&] { read_snapshot(path); }, "dimension mismatch");
  std::filesystem::remove(path);
}

TEST(SnapshotCorruption, EmptyAndForeignFilesRejected) {
  const std::string empty = test::temp_path("empty.snapshot").string();
  write_file(empty, {});
  expect_input_error([&] { SnapshotReader reader(empty); }, "truncated");
  std::filesystem::remove(empty);

  const std::string foreign = test::temp_path("foreign.snapshot").string();
  std::vector<char> junk(4096, 'z');
  write_file(foreign, junk);
  expect_input_error([&] { SnapshotReader reader(foreign); }, "bad magic");
  std::filesystem::remove(foreign);

  expect_input_error(
      [&] {
        SnapshotReader reader(test::temp_path("missing.snapshot").string());
      },
      "cannot open");
}

// --- Format v1.1: region id + popularity tilt in the config section ---------

TEST(SnapshotFormatV11, VersionPackingRoundTrips) {
  EXPECT_EQ(snapshot_version_major(kSnapshotVersion), kSnapshotVersionMajor);
  EXPECT_EQ(snapshot_version_minor(kSnapshotVersion), kSnapshotVersionMinor);
  // v1.0 files wrote the bare major as the version word; it must unpack as
  // minor 0 so old snapshots keep reading.
  EXPECT_EQ(snapshot_version_major(1), 1u);
  EXPECT_EQ(snapshot_version_minor(1), 0u);
}

TEST(SnapshotFormatV11, RegionAndTiltRoundTripAndChangeTheHash) {
  synth::ScenarioConfig cfg = synth::ScenarioConfig::test_scale();
  cfg.region = "paris";
  cfg.popularity_tilt = 0.25;
  const synth::ScenarioConfig back = decode_config(encode_config(cfg));
  EXPECT_EQ(back.region, "paris");
  EXPECT_EQ(back.popularity_tilt, 0.25);

  // The region identifier is part of the config hash: two regions with
  // otherwise identical parameters must never match each other's snapshots.
  synth::ScenarioConfig other = cfg;
  other.region = "lyon";
  EXPECT_NE(config_hash(cfg), config_hash(other));
  other = cfg;
  other.popularity_tilt = 0.0;
  EXPECT_NE(config_hash(cfg), config_hash(other));
}

TEST(SnapshotFormatV11, ReadsFormatV10ConfigWithoutTail) {
  // A v1.0 config section simply ends before the v1.1 tail. With an empty
  // region and zero tilt the tail is exactly u32 strlen + f64 = 12 bytes,
  // so stripping it reproduces the v1.0 encoding; decode must default the
  // new fields instead of throwing.
  const synth::ScenarioConfig cfg = synth::ScenarioConfig::test_scale();
  ASSERT_TRUE(cfg.region.empty());
  ASSERT_EQ(cfg.popularity_tilt, 0.0);
  std::vector<std::byte> bytes = encode_config(cfg);
  ASSERT_GT(bytes.size(), 12u);
  bytes.resize(bytes.size() - 12);
  const synth::ScenarioConfig back = decode_config(bytes);
  EXPECT_EQ(back.region, "");
  EXPECT_EQ(back.popularity_tilt, 0.0);
  EXPECT_EQ(back.country.commune_count, cfg.country.commune_count);
}

TEST(SnapshotFormatV11, WrittenFilesCarryPackedVersion) {
  const SnapshotReader reader(base_snapshot());
  EXPECT_EQ(reader.header().version,
            pack_snapshot_version(kSnapshotVersionMajor, kSnapshotVersionMinor));
}

TEST(SnapshotFormatV11, FutureMinorVersionRejected) {
  // Same major, newer minor: this build must refuse (minor bumps add fields
  // readers of the same minor understand; older readers cannot).
  const auto path = corrupted("minor.snapshot", [](std::vector<char>& b) {
    // Version u32 (LE) after the 8-byte magic: set to pack(1, 2).
    b[8] = 1;
    b[9] = 0;
    b[10] = 2;
    b[11] = 0;
  });
  expect_input_error([&] { SnapshotReader reader(path); },
                     "unsupported format version 1.2");
  std::filesystem::remove(path);
}

TEST(SnapshotCorruption, ChecksumFailureIncrementsMetric) {
  const auto path = corrupted("metric.snapshot", [](std::vector<char>& b) {
    b[kPayloadStart] = static_cast<char>(b[kPayloadStart] ^ 0x01);
  });
  util::MetricsRegistry::set_enabled(true);
  util::MetricsRegistry::global().reset();
  EXPECT_THROW(SnapshotReader reader(path), util::InputError);
  const auto snap = util::MetricsRegistry::global().snapshot();
  util::MetricsRegistry::set_enabled(false);
  const auto it = snap.counters.find("io.snapshot.checksum_failures");
  ASSERT_NE(it, snap.counters.end());
  EXPECT_GE(it->second, 1u);
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace appscope::io
