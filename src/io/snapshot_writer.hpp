// appscope/io/snapshot_writer.hpp
//
// Single-pass streaming writer for the "appscope.snapshot/1" format: the
// fixed-capacity header + section table is reserved up front, payload
// sections append sequentially at kSectionAlignment boundaries, and
// finish() fills in the table, checksums and total size with one pwrite.
// Memory stays O(largest section) — sections are handed in as ready-made
// byte/column spans, never buffered twice.
//
// Every snapshot is published atomically: the bytes go to a unique temp
// name beside the destination, and finish() fsyncs the file, renames it
// over the destination and fsyncs the directory. A reader (or an mmap
// already open on the destination) only ever sees a complete file.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "io/format.hpp"

namespace appscope::io {

class SnapshotWriter {
 public:
  /// Dimension block copied into the header; readers cross-check every
  /// columnar section (and the embedded config) against it.
  struct Dimensions {
    std::uint32_t services = 0;
    std::uint32_t communes = 0;
    std::uint32_t hours = 0;
    std::uint32_t directions = 0;
    std::uint32_t urbanization_classes = 0;
  };

  /// Creates the temp file `path` is later published from. Throws
  /// InputError on I/O error; `path` itself is not touched until finish().
  SnapshotWriter(const std::string& path, const Dimensions& dims,
                 std::uint64_t config_hash, std::uint64_t traffic_seed);

  /// A writer abandoned before finish() unlinks its temp file: the
  /// destination keeps its previous content (or stays absent).
  ~SnapshotWriter();
  SnapshotWriter(const SnapshotWriter&) = delete;
  SnapshotWriter& operator=(const SnapshotWriter&) = delete;

  /// Appends one section (aligned, CRC32-summed). Section ids must be
  /// unique; at most kMaxSections sections fit.
  void add_section(SectionId id, std::span<const std::byte> payload,
                   SectionKind kind = SectionKind::kRaw);
  void add_f64_section(SectionId id, std::span<const double> column);
  void add_u64_section(SectionId id, std::span<const std::uint64_t> column);

  /// Writes the header + section table, fsyncs, and renames the file into
  /// place. Returns the total file size in bytes. Must be called exactly
  /// once.
  std::uint64_t finish();

 private:
  void append(std::span<const std::byte> bytes);

  std::string path_;
  std::string temp_path_;
  int fd_ = -1;
  SnapshotHeader header_;
  std::vector<SectionEntry> entries_;
  std::uint64_t cursor_ = 0;
  bool finished_ = false;
};

/// Republishes `epoch_path`, a complete snapshot inside `directory`, as
/// `<directory>/latest.snapshot`: hard-links it to a temp name, renames that
/// over latest and fsyncs the directory. No bytes are copied; readers see
/// the previous latest or this one, never neither. Throws util::InputError.
void publish_latest(const std::string& directory, const std::string& epoch_path);

}  // namespace appscope::io
