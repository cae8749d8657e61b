#include "synth/sinks.hpp"

#include <algorithm>

#include "la/simd.hpp"
#include "util/error.hpp"

namespace appscope::synth {

namespace {
constexpr std::size_t dir_index(workload::Direction d) noexcept {
  return static_cast<std::size_t>(d);
}
}  // namespace

// --- NationalSeriesSink -----------------------------------------------------

NationalSeriesSink::NationalSeriesSink(std::size_t service_count)
    : services_(service_count), data_(service_count) {
  APPSCOPE_REQUIRE(service_count > 0, "NationalSeriesSink: no services");
  for (auto& per_service : data_) {
    for (auto& series : per_service) series.assign(ts::kHoursPerWeek, 0.0);
  }
}

void NationalSeriesSink::consume_row(const TrafficRow& row) {
  APPSCOPE_DCHECK(row.service < services_ &&
                      row.downlink_bytes.size() == ts::kHoursPerWeek &&
                      row.uplink_bytes.size() == ts::kHoursPerWeek,
                  "NationalSeriesSink: row out of range");
  auto& per_service = data_[row.service];
  const la::simd::Kernels& kernels = la::simd::active();
  kernels.accumulate(per_service[0].data(), row.downlink_bytes.data(),
                     ts::kHoursPerWeek);
  kernels.accumulate(per_service[1].data(), row.uplink_bytes.data(),
                     ts::kHoursPerWeek);
}

const std::vector<double>& NationalSeriesSink::series(
    workload::ServiceIndex service, workload::Direction d) const {
  APPSCOPE_REQUIRE(service < services_, "NationalSeriesSink: bad service");
  return data_[service][dir_index(d)];
}

ts::TimeSeries NationalSeriesSink::time_series(workload::ServiceIndex service,
                                               workload::Direction d,
                                               const std::string& label) const {
  const auto& s = series(service, d);
  return ts::TimeSeries(std::vector<double>(s.begin(), s.end()), label);
}

std::vector<double> NationalSeriesSink::snapshot_data() const {
  std::vector<double> flat;
  flat.reserve(services_ * workload::kDirectionCount * ts::kHoursPerWeek);
  for (const auto& per_service : data_) {
    for (const auto& series : per_service) {
      flat.insert(flat.end(), series.begin(), series.end());
    }
  }
  return flat;
}

void NationalSeriesSink::restore(std::span<const double> flat) {
  APPSCOPE_REQUIRE(
      flat.size() == services_ * workload::kDirectionCount * ts::kHoursPerWeek,
      "NationalSeriesSink::restore: payload size mismatch");
  std::size_t pos = 0;
  for (auto& per_service : data_) {
    for (auto& series : per_service) {
      std::copy_n(flat.begin() + static_cast<std::ptrdiff_t>(pos),
                  ts::kHoursPerWeek, series.begin());
      pos += ts::kHoursPerWeek;
    }
  }
}

// --- CommuneTotalsSink --------------------------------------------------------

CommuneTotalsSink::CommuneTotalsSink(std::size_t service_count,
                                     std::size_t commune_count)
    : services_(service_count), communes_(commune_count) {
  APPSCOPE_REQUIRE(service_count > 0 && commune_count > 0,
                   "CommuneTotalsSink: empty dimensions");
  for (auto& plane : data_) plane.assign(service_count * commune_count, 0.0);
}

void CommuneTotalsSink::consume_row(const TrafficRow& row) {
  APPSCOPE_DCHECK(row.service < services_ && row.commune < communes_,
                  "CommuneTotalsSink: row out of range");
  const std::size_t i = row.service * communes_ + row.commune;
  // Sequential reductions into a single total: scalar, hour-ascending,
  // exactly the adds a per-hour fold performs.
  double dl = data_[0][i];
  for (const double v : row.downlink_bytes) dl += v;
  data_[0][i] = dl;
  double ul = data_[1][i];
  for (const double v : row.uplink_bytes) ul += v;
  data_[1][i] = ul;
}

double CommuneTotalsSink::total(workload::ServiceIndex service,
                                geo::CommuneId commune,
                                workload::Direction d) const {
  APPSCOPE_REQUIRE(service < services_ && commune < communes_,
                   "CommuneTotalsSink: index out of range");
  return data_[dir_index(d)][service * communes_ + commune];
}

std::vector<double> CommuneTotalsSink::commune_vector(
    workload::ServiceIndex service, workload::Direction d) const {
  APPSCOPE_REQUIRE(service < services_, "CommuneTotalsSink: bad service");
  const auto& plane = data_[dir_index(d)];
  const std::size_t base = service * communes_;
  return std::vector<double>(plane.begin() + static_cast<std::ptrdiff_t>(base),
                             plane.begin() + static_cast<std::ptrdiff_t>(base + communes_));
}

std::vector<double> CommuneTotalsSink::snapshot_data() const {
  std::vector<double> flat;
  flat.reserve(workload::kDirectionCount * services_ * communes_);
  for (const auto& plane : data_) {
    flat.insert(flat.end(), plane.begin(), plane.end());
  }
  return flat;
}

void CommuneTotalsSink::restore(std::span<const double> flat) {
  APPSCOPE_REQUIRE(
      flat.size() == workload::kDirectionCount * services_ * communes_,
      "CommuneTotalsSink::restore: payload size mismatch");
  const std::size_t plane_size = services_ * communes_;
  std::size_t pos = 0;
  for (auto& plane : data_) {
    std::copy_n(flat.begin() + static_cast<std::ptrdiff_t>(pos), plane_size,
                plane.begin());
    pos += plane_size;
  }
}

// --- UrbanizationSeriesSink ---------------------------------------------------

UrbanizationSeriesSink::UrbanizationSeriesSink(std::size_t service_count)
    : services_(service_count), data_(service_count) {
  APPSCOPE_REQUIRE(service_count > 0, "UrbanizationSeriesSink: no services");
  for (auto& per_service : data_) {
    for (auto& per_class : per_service) {
      for (auto& series : per_class) series.assign(ts::kHoursPerWeek, 0.0);
    }
  }
}

void UrbanizationSeriesSink::consume_row(const TrafficRow& row) {
  APPSCOPE_DCHECK(row.service < services_ &&
                      row.downlink_bytes.size() == ts::kHoursPerWeek &&
                      row.uplink_bytes.size() == ts::kHoursPerWeek,
                  "UrbanizationSeriesSink: row out of range");
  auto& per_class = data_[row.service][static_cast<std::size_t>(row.urbanization)];
  const la::simd::Kernels& kernels = la::simd::active();
  kernels.accumulate(per_class[0].data(), row.downlink_bytes.data(),
                     ts::kHoursPerWeek);
  kernels.accumulate(per_class[1].data(), row.uplink_bytes.data(),
                     ts::kHoursPerWeek);
}

const std::vector<double>& UrbanizationSeriesSink::series(
    workload::ServiceIndex service, geo::Urbanization u,
    workload::Direction d) const {
  APPSCOPE_REQUIRE(service < services_, "UrbanizationSeriesSink: bad service");
  return data_[service][static_cast<std::size_t>(u)][dir_index(d)];
}

std::vector<double> UrbanizationSeriesSink::snapshot_data() const {
  std::vector<double> flat;
  flat.reserve(services_ * geo::kUrbanizationCount * workload::kDirectionCount *
               ts::kHoursPerWeek);
  for (const auto& per_service : data_) {
    for (const auto& per_class : per_service) {
      for (const auto& series : per_class) {
        flat.insert(flat.end(), series.begin(), series.end());
      }
    }
  }
  return flat;
}

void UrbanizationSeriesSink::restore(std::span<const double> flat) {
  APPSCOPE_REQUIRE(flat.size() == services_ * geo::kUrbanizationCount *
                                      workload::kDirectionCount *
                                      ts::kHoursPerWeek,
                   "UrbanizationSeriesSink::restore: payload size mismatch");
  std::size_t pos = 0;
  for (auto& per_service : data_) {
    for (auto& per_class : per_service) {
      for (auto& series : per_class) {
        std::copy_n(flat.begin() + static_cast<std::ptrdiff_t>(pos),
                    ts::kHoursPerWeek, series.begin());
        pos += ts::kHoursPerWeek;
      }
    }
  }
}

// --- TotalsSink ------------------------------------------------------------------

void TotalsSink::consume_row(const TrafficRow& row) {
  double dl = downlink_;
  for (const double v : row.downlink_bytes) dl += v;
  downlink_ = dl;
  double ul = uplink_;
  for (const double v : row.uplink_bytes) ul += v;
  uplink_ = ul;
  cells_ += row.downlink_bytes.size();
}

void TotalsSink::restore(double downlink, double uplink,
                         std::uint64_t cells) noexcept {
  downlink_ = downlink;
  uplink_ = uplink;
  cells_ = cells;
}

// --- RowBufferSink ---------------------------------------------------------------

void RowBufferSink::consume_row(const TrafficRow& row) {
  APPSCOPE_DCHECK(row.downlink_bytes.size() == ts::kHoursPerWeek &&
                      row.uplink_bytes.size() == ts::kHoursPerWeek,
                  "RowBufferSink: row must span a full week");
  headers_.push_back({row.service, row.commune, row.urbanization});
  downlink_.insert(downlink_.end(), row.downlink_bytes.begin(),
                   row.downlink_bytes.end());
  uplink_.insert(uplink_.end(), row.uplink_bytes.begin(),
                 row.uplink_bytes.end());
}

void RowBufferSink::reserve(std::size_t rows) {
  headers_.reserve(rows);
  downlink_.reserve(rows * ts::kHoursPerWeek);
  uplink_.reserve(rows * ts::kHoursPerWeek);
}

std::size_t RowBufferSink::buffered_bytes() const noexcept {
  return headers_.size() * sizeof(Header) +
         (downlink_.size() + uplink_.size()) * sizeof(double);
}

TrafficRow RowBufferSink::row(std::size_t r) const {
  APPSCOPE_REQUIRE(r < headers_.size(), "RowBufferSink: row out of range");
  const Header& h = headers_[r];
  const std::size_t base = r * ts::kHoursPerWeek;
  return {h.service, h.commune, h.urbanization,
          {downlink_.data() + base, ts::kHoursPerWeek},
          {uplink_.data() + base, ts::kHoursPerWeek}};
}

void RowBufferSink::replay_into(TrafficSink& sink) const {
  for (std::size_t r = 0; r < headers_.size(); ++r) sink.consume_row(row(r));
}

void RowBufferSink::clear() noexcept {
  headers_.clear();
  downlink_.clear();
  uplink_.clear();
}

// --- FanoutSink ------------------------------------------------------------------

FanoutSink::FanoutSink(std::vector<TrafficSink*> sinks) : sinks_(std::move(sinks)) {
  for (TrafficSink* s : sinks_) {
    APPSCOPE_REQUIRE(s != nullptr, "FanoutSink: null sink");
  }
}

void FanoutSink::consume_row(const TrafficRow& row) {
  for (TrafficSink* s : sinks_) s->consume_row(row);
}

}  // namespace appscope::synth
