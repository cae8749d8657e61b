#include "net/probe.hpp"

#include <algorithm>

namespace appscope::net {

Probe::Probe(const BaseStationRegistry& cells, const DpiEngine& dpi)
    : cells_(cells), dpi_(dpi) {}

void Probe::set_sink(Sink sink) { sink_ = std::move(sink); }

void Probe::on_gtpc(const GtpcEvent& event) {
  ++counters_.gtpc_events;
  switch (event.type) {
    case GtpcMessageType::kCreateSession:
    case GtpcMessageType::kLocationUpdate:
      bearers_[event.session] = event.uli;
      break;
    case GtpcMessageType::kDeleteSession:
      bearers_.erase(event.session);
      break;
  }
}

void Probe::on_gtpu(const GtpuRecord& record) {
  ++counters_.gtpu_records;
  const auto it = bearers_.find(record.session);
  if (it == bearers_.end()) {
    ++counters_.orphan_records;
    return;
  }
  const Bytes volume = record.downlink_bytes + record.uplink_bytes;
  const auto match = dpi_.classify(record.fingerprint);
  if (!match) {
    counters_.unclassified_bytes += volume;
    return;
  }
  counters_.classified_bytes += volume;
  ++counters_.technique_hits[static_cast<std::size_t>(match->technique)];

  const BaseStation& cell = cells_.station(it->second.cell);
  ServiceEvent event;
  event.timestamp = std::min<Timestamp>(record.time, kSecondsPerWeek - 1);
  event.commune = cell.commune;
  event.service = static_cast<std::uint16_t>(match->service);
  event.urbanization = static_cast<std::uint8_t>(cell.urbanization);
  event.downlink_bytes = record.downlink_bytes;
  event.uplink_bytes = record.uplink_bytes;
  if (sink_) sink_(event);
}

}  // namespace appscope::net
