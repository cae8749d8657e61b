// appscope/net/probe.hpp
//
// Passive measurement probe tapping the Gn / S5-S8 interfaces (paper Sec. 2):
// it follows GTP-C to keep the last-known ULI of every bearer, inspects
// GTP-U records, classifies them with DPI, geo-references them to the
// commune of the ULI's cell, and emits one net::ServiceEvent per classified
// record — the same event the streaming ingest daemon aggregates.
#pragma once

#include <array>
#include <functional>
#include <unordered_map>

#include "net/base_station.hpp"
#include "net/dpi.hpp"
#include "net/event.hpp"
#include "net/gtp.hpp"

namespace appscope::net {

class Probe {
 public:
  using Sink = std::function<void(const ServiceEvent&)>;

  /// The probe needs the cell->commune mapping and the DPI engine; both must
  /// outlive it.
  Probe(const BaseStationRegistry& cells, const DpiEngine& dpi);

  /// Registers the consumer of classified events.
  void set_sink(Sink sink);

  /// Control-plane tap: create/refresh/delete bearer state and its ULI.
  void on_gtpc(const GtpcEvent& event);

  /// User-plane tap: classify + geo-reference, then emit a ServiceEvent
  /// stamped with min(record.time, kSecondsPerWeek - 1), so late records
  /// fold into hour 167. Unclassified traffic (~12%) is only counted;
  /// records of unknown bearers are counted as orphans and dropped (in a
  /// real deployment these are bearers created before the probe started).
  void on_gtpu(const GtpuRecord& record);

  struct Counters {
    std::uint64_t gtpc_events = 0;
    std::uint64_t gtpu_records = 0;
    std::uint64_t orphan_records = 0;
    Bytes classified_bytes = 0;
    Bytes unclassified_bytes = 0;
    /// Classified records per DPI technique (SNI, host suffix, heuristic).
    std::array<std::uint64_t, 3> technique_hits{};

    /// Fraction of traffic volume the DPI classified (paper: ~0.88).
    double classified_fraction() const noexcept {
      const Bytes total = classified_bytes + unclassified_bytes;
      return total > 0 ? static_cast<double>(classified_bytes) /
                             static_cast<double>(total)
                       : 0.0;
    }
  };

  const Counters& counters() const noexcept { return counters_; }
  std::size_t tracked_bearers() const noexcept { return bearers_.size(); }

 private:
  const BaseStationRegistry& cells_;
  const DpiEngine& dpi_;
  Sink sink_;
  std::unordered_map<SessionId, UserLocationInfo> bearers_;
  Counters counters_;
};

}  // namespace appscope::net
