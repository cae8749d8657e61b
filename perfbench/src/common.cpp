#include "common.hpp"

#include <malloc.h>
#include <sys/resource.h>
#include <sys/vfs.h>
#include <time.h>

#include <algorithm>
#include <charconv>
#include <fstream>
#include <iterator>
#include <stdexcept>

namespace perfbench {

namespace fs = std::filesystem;

void Report::set(const std::string& name, double value,
                 const std::string& unit) {
  metrics.push_back({name, value, unit});
}

void Report::fail(const std::string& what) {
  checks_passed = false;
  notes.push_back("CHECK FAILED: " + what);
}

void Samples::layer(const std::string& name, double value,
                    const std::string& unit) {
  layers[name].push_back(value);
  layer_units[name] = unit;
}

void finish(Report& report, const RunOptions& options, const Samples& s) {
  const double cpu = median(s.cpu_s);
  const double setup = median(s.setup_cpu_s);
  const double heap = s.reference_heap_mib.empty()
                          ? median(s.peak_heap_mib)
                          : median(s.reference_heap_mib);
  const double disk_mib = static_cast<double>(s.disk_bytes) / (1024.0 * 1024.0);
  const auto spread = [](const std::vector<double>& v) {
    return " (" + std::to_string(v.size()) + " samples; quartiles " +
           format_number(quantile(v, 0.25)) + ", " + format_number(median(v)) +
           ", " + format_number(quantile(v, 0.75)) + ")";
  };
  report.note("e2e cpu_s = " + format_number(cpu) + " s" + spread(s.cpu_s));
  report.note("e2e wall_s = " + format_number(median(s.wall_s)) + " s" +
              spread(s.wall_s));
  report.note("e2e setup_s = " + format_number(setup) + " s" +
              spread(s.setup_cpu_s) + ", wall " +
              format_number(median(s.setup_wall_s)) + " s");
  report.note("e2e peak_heap_mb = " + format_number(heap) + " MiB" +
              spread(s.reference_heap_mib.empty() ? s.peak_heap_mib
                                                  : s.reference_heap_mib));
  report.note("e2e peak_rss_mb = " + format_number(median(s.peak_rss_mib)) +
              " MiB" + spread(s.peak_rss_mib));
  report.note("e2e disk_mb = " + format_number(disk_mib) + " MiB");
  report.note("e2e failed_ratio = " + std::to_string(report.failed) + "/" +
              std::to_string(report.attempted));
  if (!options.trace) {
    report.set("cpu_s", cpu, "s");
    report.set("setup_s", setup, "s");
    report.set("peak_heap_mb", heap, "MiB");
    report.set("disk_mb", disk_mib, "MiB");
    return;
  }
  for (const auto& [name, values] : s.layers) {
    report.set(name, median(values), s.layer_units.at(name));
  }
  report.set("trace.attributed_ratio", median(s.attributed), "ratio");
  report.set("trace.overhead_ratio",
             median(s.traced_wall_s) / median(s.wall_s) - 1.0, "ratio");
}

double Trace::seconds(const std::string& name) const {
  const auto it = spans_.find(name);
  return it == spans_.end() ? 0.0 : it->second.seconds;
}

double Trace::total_seconds() const {
  double total = 0.0;
  for (const auto& [name, stat] : spans_) total += stat.seconds;
  return total;
}

namespace {

double clock_seconds(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

}  // namespace

double cpu_seconds() { return clock_seconds(CLOCK_PROCESS_CPUTIME_ID); }

double thread_cpu_seconds() { return clock_seconds(CLOCK_THREAD_CPUTIME_ID); }

PeakMemory::PeakMemory() {
  // Hand freed heap back first, so the window starts from live memory
  // rather than from whatever the allocator kept of earlier repetitions;
  // then "5" resets the peak RSS to the current RSS (Linux >= 4.0).
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
  reset_heap_peak();
}

double PeakMemory::heap_mib() const { return heap_peak_mib(); }

double PeakMemory::rss_mib() const {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}


double CpuTimes::steal_share_since(const CpuTimes& before) const {
  const double total = static_cast<double>(total_ - before.total_);
  return total > 0.0 ? static_cast<double>(steal_ - before.steal_) / total
                     : 0.0;
}

CpuTimes CpuTimes::now() {
  // First line of /proc/stat: "cpu user nice system idle iowait irq softirq
  // steal guest guest_nice", in clock ticks summed over all CPUs. Guest
  // time is already counted in user and nice.
  CpuTimes t;
  std::ifstream stat("/proc/stat");
  std::string label;
  stat >> label;
  std::uint64_t field = 0;
  for (int i = 0; i < 8 && stat >> field; ++i) {
    t.total_ += field;
    if (i == 7) t.steal_ = field;
  }
  return t;
}

std::uint64_t directory_bytes(const fs::path& dir) {
  std::uint64_t total = 0;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) total += entry.file_size();
  }
  return total;
}

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path.string());
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_file(const fs::path& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!out) throw std::runtime_error("cannot write " + path.string());
}

std::string filesystem_type(const fs::path& path) {
  struct statfs info{};
  if (statfs(path.c_str(), &info) != 0) return "unknown";
  switch (static_cast<unsigned long>(info.f_type)) {
    case 0xEF53UL: return "ext4";
    case 0x01021994UL: return "tmpfs";
    case 0x58465342UL: return "xfs";
    case 0x9123683EUL: return "btrfs";
    case 0x794C7630UL: return "overlayfs";
    default: {
      char buf[32];
      const auto res =
          std::to_chars(buf, buf + sizeof(buf),
                        static_cast<unsigned long>(info.f_type), 16);
      return "0x" + std::string(buf, res.ptr);
    }
  }
}

std::uint64_t fold_seed(std::uint64_t base, std::uint64_t seed) {
  // splitmix64 finalizer over (base, seed).
  std::uint64_t z = base + 0x9E3779B97F4A7C15ULL * (seed + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::string format_number(double value) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), value);
  return std::string(buf, res.ptr);
}

}  // namespace perfbench
