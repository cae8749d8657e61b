// appscope/net/event.hpp
//
// The one traffic event of the pipeline: one service-classified volume
// report for one commune. net::Probe emits it for every classified GTP-U
// record, the appscope_serve daemon aggregates it at production rates, and
// core::TrafficDataset::from_events folds a captured stream of it. It is
// fixed-size, always classified and second-granular, so a frame of events
// can be encoded, shipped and replayed without any per-event allocation.
//
// Framing ("appscope.events/1"): a frame is a 24-byte header followed by
// `count` fixed 28-byte little-endian records and protected by an FNV-1a-64
// checksum over the record payload. decode_event_frame validates magic,
// version, size and checksum and throws util::InputError on any mismatch —
// a truncated or corrupted frame never decodes partially.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "geo/commune.hpp"
#include "net/types.hpp"

namespace appscope::net {

/// One service-level traffic event. `timestamp` is in seconds and may run
/// past one week (a live stream covers many rolling weeks); consumers fold
/// it into the weekly cycle with week_hour().
struct ServiceEvent {
  Timestamp timestamp = 0;
  geo::CommuneId commune = 0;
  std::uint16_t service = 0;
  std::uint8_t urbanization = 0;  // geo::Urbanization
  std::uint8_t flags = 0;         // reserved
  Bytes downlink_bytes = 0;
  Bytes uplink_bytes = 0;

  /// Hour of the measurement week this event falls in, [0, 168).
  std::size_t week_hour() const noexcept {
    return (timestamp % kSecondsPerWeek) / kSecondsPerHour;
  }

  friend bool operator==(const ServiceEvent&, const ServiceEvent&) = default;
};

/// Wire sizes of the appscope.events/1 framing.
inline constexpr std::size_t kEventFrameHeaderBytes = 24;
inline constexpr std::size_t kEventWireBytes = 28;
inline constexpr std::uint32_t kEventFrameMagic = 0x56455341u;  // "ASEV" LE
inline constexpr std::uint16_t kEventFrameVersion = 1;

/// Serializes events into one self-validating frame.
std::vector<std::uint8_t> encode_event_frame(std::span<const ServiceEvent> events);

/// Parses and validates a frame produced by encode_event_frame. Throws
/// util::InputError on bad magic, version skew, truncation, trailing bytes
/// or checksum mismatch.
std::vector<ServiceEvent> decode_event_frame(std::span<const std::uint8_t> bytes);

}  // namespace appscope::net
