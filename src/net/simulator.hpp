// appscope/net/simulator.hpp
//
// Event-level traffic simulator: drives subscriber IP sessions through the
// co-located GGSN / P-GW gateways so that attached probes observe the same
// GTP-C / GTP-U event stream a real deployment produces. This is the
// demonstration path of the measurement pipeline; the full-scale figures use
// the statistically equivalent streaming generator in synth/ (see DESIGN.md).
#pragma once

#include <cstdint>

#include "net/base_station.hpp"
#include "net/dpi.hpp"
#include "net/gateway.hpp"
#include "net/probe.hpp"
#include "workload/catalog.hpp"
#include "workload/population.hpp"

namespace appscope::net {

struct SessionSimConfig {
  std::uint64_t seed = 77;
  /// Average sessions per subscriber per week for each service, before the
  /// temporal profile distributes them over hours.
  double sessions_per_user_week = 4.0;
  /// Global scale on the session count (< 1 thins the event stream while
  /// preserving total volume: per-session bytes are scaled up accordingly).
  double session_thinning = 1.0;
  /// Fraction of sessions whose flows expose a DPI-usable fingerprint
  /// (paper: the operator's DPI classifies ~88% of traffic).
  double fingerprint_visible_fraction = 0.88;
  /// Lognormal sigma of per-session volume jitter (mean preserved).
  double volume_sigma = 0.8;
  /// Probability a session performs a mid-life ULI refresh (handover).
  double handover_probability = 0.05;
  /// ULI localization error (paper Sec. 2: ~3 km median error because the
  /// ULI is only refreshed on session establishment and RA/TA changes):
  /// with this probability the session is attributed to a neighbouring
  /// commune within `uli_error_radius_km` instead of the true one.
  double uli_error_probability = 0.2;
  double uli_error_radius_km = 4.0;
};

struct SessionSimReport {
  Probe::Counters probe;
  std::uint64_t sessions = 0;
  std::uint64_t transfers = 0;
  std::uint64_t handovers = 0;
  Bytes offered_downlink = 0;
  Bytes offered_uplink = 0;
};

class SessionSimulator {
 public:
  /// All references must outlive the simulator.
  SessionSimulator(const geo::Territory& territory,
                   const workload::SubscriberBase& subscribers,
                   const workload::ServiceCatalog& catalog,
                   const BaseStationRegistry& cells, const DpiEngine& dpi,
                   SessionSimConfig config);

  /// Simulates the full measurement week; every classified event the
  /// probe emits is delivered to `sink`. Returns pipeline statistics.
  SessionSimReport run(const Probe::Sink& sink);

 private:
  const geo::Territory& territory_;
  const workload::SubscriberBase& subscribers_;
  const workload::ServiceCatalog& catalog_;
  const BaseStationRegistry& cells_;
  const DpiEngine& dpi_;
  SessionSimConfig config_;
};

}  // namespace appscope::net
