#include "io/binary.hpp"

#include <array>
#include <bit>
#include <cstring>

#include "util/error.hpp"

namespace appscope::io {

namespace {

/// Slicing-by-16 tables: t[0] is the classic byte-at-a-time table, and
/// t[k][n] is the CRC state after feeding byte n followed by k zero bytes,
/// so sixteen lookups advance the state over sixteen input bytes at once.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 16>;

CrcTables make_crc_tables() noexcept {
  CrcTables t{};
  for (std::uint32_t n = 0; n < 256; ++n) {
    std::uint32_t c = n;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[0][n] = c;
  }
  for (std::size_t k = 1; k < t.size(); ++k) {
    for (std::uint32_t n = 0; n < 256; ++n) {
      t[k][n] = (t[k - 1][n] >> 8) ^ t[0][t[k - 1][n] & 0xFFu];
    }
  }
  return t;
}

/// Little-endian u32 at `p`, by explicit shifts (any host, any alignment).
std::uint32_t load_le32(const std::byte* p) noexcept {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

}  // namespace

std::uint32_t crc32(std::span<const std::byte> bytes) noexcept {
  static const CrcTables t = make_crc_tables();
  std::uint32_t crc = 0xFFFFFFFFu;
  const std::byte* p = bytes.data();
  std::size_t n = bytes.size();
  for (; n >= 16; p += 16, n -= 16) {
    const std::uint32_t w0 = load_le32(p) ^ crc;
    const std::uint32_t w1 = load_le32(p + 4);
    const std::uint32_t w2 = load_le32(p + 8);
    const std::uint32_t w3 = load_le32(p + 12);
    crc = t[15][w0 & 0xFFu] ^ t[14][(w0 >> 8) & 0xFFu] ^
          t[13][(w0 >> 16) & 0xFFu] ^ t[12][w0 >> 24] ^
          t[11][w1 & 0xFFu] ^ t[10][(w1 >> 8) & 0xFFu] ^
          t[9][(w1 >> 16) & 0xFFu] ^ t[8][w1 >> 24] ^
          t[7][w2 & 0xFFu] ^ t[6][(w2 >> 8) & 0xFFu] ^
          t[5][(w2 >> 16) & 0xFFu] ^ t[4][w2 >> 24] ^
          t[3][w3 & 0xFFu] ^ t[2][(w3 >> 8) & 0xFFu] ^
          t[1][(w3 >> 16) & 0xFFu] ^ t[0][w3 >> 24];
  }
  for (; n > 0; ++p, --n) {
    crc = t[0][(crc ^ static_cast<std::uint32_t>(*p)) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

std::uint64_t fnv1a64(std::span<const std::byte> bytes) noexcept {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (const std::byte b : bytes) {
    hash ^= static_cast<std::uint64_t>(b);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

// --- ByteWriter -------------------------------------------------------------

void ByteWriter::u32(std::uint32_t v) {
  for (int shift = 0; shift < 32; shift += 8) {
    buffer_.push_back(static_cast<std::byte>((v >> shift) & 0xFFu));
  }
}

void ByteWriter::u64(std::uint64_t v) {
  for (int shift = 0; shift < 64; shift += 8) {
    buffer_.push_back(static_cast<std::byte>((v >> shift) & 0xFFu));
  }
}

void ByteWriter::f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

void ByteWriter::str(std::string_view s) {
  APPSCOPE_REQUIRE(s.size() <= 0xFFFFFFFFu, "ByteWriter: string too long");
  u32(static_cast<std::uint32_t>(s.size()));
  raw(s.data(), s.size());
}

void ByteWriter::raw(const void* data, std::size_t size) {
  const auto* p = static_cast<const std::byte*>(data);
  buffer_.insert(buffer_.end(), p, p + size);
}

// --- ByteReader -------------------------------------------------------------

void ByteReader::require(std::size_t size) const {
  if (remaining() < size) {
    throw util::InputError("snapshot: truncated payload (need " +
                           std::to_string(size) + " bytes, have " +
                           std::to_string(remaining()) + ")");
  }
}

std::uint8_t ByteReader::u8() {
  require(1);
  return static_cast<std::uint8_t>(bytes_[offset_++]);
}

std::uint32_t ByteReader::u32() {
  require(4);
  std::uint32_t v = 0;
  for (int shift = 0; shift < 32; shift += 8) {
    v |= static_cast<std::uint32_t>(bytes_[offset_++]) << shift;
  }
  return v;
}

std::uint64_t ByteReader::u64() {
  require(8);
  std::uint64_t v = 0;
  for (int shift = 0; shift < 64; shift += 8) {
    v |= static_cast<std::uint64_t>(bytes_[offset_++]) << shift;
  }
  return v;
}

double ByteReader::f64() { return std::bit_cast<double>(u64()); }

std::string ByteReader::str() {
  const std::uint32_t size = u32();
  require(size);
  std::string out(size, '\0');
  std::memcpy(out.data(), bytes_.data() + offset_, size);
  offset_ += size;
  return out;
}

void ByteReader::raw(void* out, std::size_t size) {
  require(size);
  std::memcpy(out, bytes_.data() + offset_, size);
  offset_ += size;
}

}  // namespace appscope::io
