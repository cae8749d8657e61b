#include "io/snapshot_writer.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <filesystem>

#include "io/binary.hpp"
#include "util/error.hpp"
#include "util/metrics.hpp"
#include "util/trace.hpp"

namespace appscope::io {

namespace {

[[noreturn]] void io_error(const std::string& what, const std::string& path) {
  const int err = errno;
  throw util::InputError("snapshot: " + what + " " + path + ": " +
                         std::strerror(err));
}

std::vector<std::byte> encode_table(const std::vector<SectionEntry>& entries) {
  ByteWriter w;
  for (const SectionEntry& e : entries) {
    w.u32(static_cast<std::uint32_t>(e.id));
    w.u32(static_cast<std::uint32_t>(e.kind));
    w.u64(e.offset);
    w.u64(e.payload_bytes);
    w.u32(e.crc);
    w.u32(0);  // reserved
  }
  for (std::size_t i = entries.size(); i < kMaxSections; ++i) {
    for (std::size_t b = 0; b < kSectionEntryBytes; ++b) w.u8(0);
  }
  return std::move(w).take();
}

void encode_header(ByteWriter& w, const SnapshotHeader& h) {
  for (const std::uint8_t m : kSnapshotMagic) w.u8(m);
  w.u32(h.version);
  w.u64(h.config_hash);
  w.u64(h.traffic_seed);
  w.u32(h.services);
  w.u32(h.communes);
  w.u32(h.hours);
  w.u32(h.directions);
  w.u32(h.urbanization_classes);
  w.u32(h.section_count);
  w.u64(h.file_bytes);
  w.u32(h.table_crc);
  while (w.size() < kHeaderBytes) w.u8(0);
}

/// Writes all of `bytes` at `offset`, or appends when offset is negative.
void write_all(int fd, std::span<const std::byte> bytes, off_t offset,
               const std::string& path) {
  while (!bytes.empty()) {
    const ssize_t n = offset < 0
                          ? ::write(fd, bytes.data(), bytes.size())
                          : ::pwrite(fd, bytes.data(), bytes.size(), offset);
    if (n < 0) {
      if (errno == EINTR) continue;
      io_error("write failed on", path);
    }
    bytes = bytes.subspan(static_cast<std::size_t>(n));
    if (offset >= 0) offset += n;
  }
}

/// A fresh name beside `path` for staging its replacement. It contains
/// ".tmp." and never ends in ".snapshot", so find_latest_snapshot cannot
/// resolve a half-written file.
std::string temp_path_beside(const std::string& path) {
  static std::atomic<std::uint64_t> sequence{0};
  return path + ".tmp." + std::to_string(::getpid()) + "." +
         std::to_string(sequence.fetch_add(1));
}

/// Renames `from` over `to` (same directory) and fsyncs that directory, so
/// the new name survives a crash.
void rename_durably(const std::string& from, const std::string& to) {
  if (::rename(from.c_str(), to.c_str()) != 0) io_error("cannot publish", to);
  const std::filesystem::path parent = std::filesystem::path(to).parent_path();
  const std::string dir = parent.empty() ? "." : parent.string();
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) io_error("cannot open directory", dir);
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) io_error("cannot fsync directory", dir);
}

}  // namespace

void publish_latest(const std::string& directory,
                    const std::string& epoch_path) {
  const std::string latest =
      (std::filesystem::path(directory) / "latest.snapshot").string();
  std::string staged;
  int rc = 0;
  do {
    staged = temp_path_beside(latest);
    rc = ::link(epoch_path.c_str(), staged.c_str());
  } while (rc != 0 && errno == EEXIST);
  if (rc != 0) io_error("cannot link " + epoch_path + " as", staged);
  try {
    rename_durably(staged, latest);
  } catch (const util::InputError&) {
    ::unlink(staged.c_str());
    throw;
  }
}

SnapshotWriter::SnapshotWriter(const std::string& path, const Dimensions& dims,
                               std::uint64_t config_hash,
                               std::uint64_t traffic_seed)
    : path_(path) {
  do {
    temp_path_ = temp_path_beside(path_);
    fd_ = ::open(temp_path_.c_str(), O_WRONLY | O_CREAT | O_EXCL | O_CLOEXEC,
                 0666);
  } while (fd_ < 0 && errno == EEXIST);
  if (fd_ < 0) io_error("cannot open for writing", path_);
  header_.config_hash = config_hash;
  header_.traffic_seed = traffic_seed;
  header_.services = dims.services;
  header_.communes = dims.communes;
  header_.hours = dims.hours;
  header_.directions = dims.directions;
  header_.urbanization_classes = dims.urbanization_classes;
  // Reserve the header + table region; finish() fills it in.
  const std::vector<std::byte> zeros(kPayloadStart, std::byte{0});
  try {
    append(zeros);
  } catch (const util::InputError&) {
    ::close(fd_);  // no destructor runs for a throwing constructor
    ::unlink(temp_path_.c_str());
    throw;
  }
}

SnapshotWriter::~SnapshotWriter() {
  if (fd_ >= 0) ::close(fd_);
  if (!finished_) ::unlink(temp_path_.c_str());
}

void SnapshotWriter::append(std::span<const std::byte> bytes) {
  write_all(fd_, bytes, -1, temp_path_);
  cursor_ += bytes.size();
}

void SnapshotWriter::add_section(SectionId id, std::span<const std::byte> payload,
                                 SectionKind kind) {
  APPSCOPE_REQUIRE(!finished_, "SnapshotWriter: add_section after finish");
  APPSCOPE_REQUIRE(entries_.size() < kMaxSections,
                   "SnapshotWriter: section table full");
  APPSCOPE_REQUIRE(std::none_of(entries_.begin(), entries_.end(),
                                [&](const SectionEntry& e) { return e.id == id; }),
                   "SnapshotWriter: duplicate section id");
  util::ScopedSpan span("snapshot.write." + std::string(section_name(id)));

  const std::uint64_t aligned = align_up(cursor_, kSectionAlignment);
  if (aligned > cursor_) {
    const std::vector<std::byte> pad(aligned - cursor_, std::byte{0});
    append(pad);
  }

  SectionEntry entry;
  entry.id = id;
  entry.kind = kind;
  entry.offset = cursor_;
  entry.payload_bytes = payload.size();
  entry.crc = crc32(payload);
  entries_.push_back(entry);

  append(payload);

  if (util::MetricsRegistry::enabled()) {
    auto& metrics = util::MetricsRegistry::global();
    metrics.add("io.snapshot.sections");
    metrics.add("io.snapshot.bytes_written", payload.size());
  }
}

void SnapshotWriter::add_f64_section(SectionId id, std::span<const double> column) {
  add_section(id, std::as_bytes(column), SectionKind::kF64);
}

void SnapshotWriter::add_u64_section(SectionId id,
                                     std::span<const std::uint64_t> column) {
  add_section(id, std::as_bytes(column), SectionKind::kU64);
}

std::uint64_t SnapshotWriter::finish() {
  APPSCOPE_REQUIRE(!finished_, "SnapshotWriter: finish called twice");

  header_.section_count = static_cast<std::uint32_t>(entries_.size());
  header_.file_bytes = cursor_;
  const std::vector<std::byte> table = encode_table(entries_);
  header_.table_crc = crc32(table);
  ByteWriter head;
  encode_header(head, header_);
  head.raw(table.data(), table.size());

  write_all(fd_, head.bytes(), 0, temp_path_);
  if (::fsync(fd_) != 0) io_error("cannot fsync", temp_path_);
  const int rc = ::close(fd_);
  fd_ = -1;
  if (rc != 0) io_error("cannot close", temp_path_);
  rename_durably(temp_path_, path_);
  finished_ = true;

  if (util::MetricsRegistry::enabled()) {
    // Count the header/table/padding overhead too, so the counter totals
    // the exact on-disk size of every snapshot written.
    std::uint64_t payload = 0;
    for (const SectionEntry& e : entries_) payload += e.payload_bytes;
    util::MetricsRegistry::global().add("io.snapshot.bytes_written",
                                        header_.file_bytes - payload);
  }
  return header_.file_bytes;
}

}  // namespace appscope::io
