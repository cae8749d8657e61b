// Shared plumbing of the appscope end-to-end benchmark: run options, the
// metric sheet a workload fills, the benchmark-side span recorder, rusage
// and file-system helpers, and seed folding.
//
// Tracing here is the benchmark's own: spans wrap the calls the benchmark
// makes into a layer's public functions. The program under test is never
// instrumented further.
#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Unique scratch directory of this process (created and removed by
  /// main); workloads write only below it.
  std::filesystem::path work_dir;
  std::size_t nproc = 1;
};

/// One named metric with its unit.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a workload reports. `metrics` holds the end-to-end sheet (untraced
/// run) or the per-layer sheet (traced run); `notes` are the human-readable
/// lines printed before the result, including the workload's own
/// end-to-end figures that the shared sheet cannot carry.
struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool checks_passed = true;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;
  /// Run metadata (key -> value) printed with the result.
  std::map<std::string, std::string> meta;

  void set(const std::string& name, double value, const std::string& unit);
  /// Records a failed correctness check: it fails the run and is printed.
  void fail(const std::string& what);
  void note(const std::string& line) { notes.push_back(line); }
};

/// Accumulated time of one span name.
struct SpanStat {
  double seconds = 0.0;
};

/// In-memory span store of one traced run, keyed by layer name. Workloads
/// take a SpanStat& once and time calls into it with ScopedSpan or
/// LapTimer, so the hot path never looks up names.
class Trace {
 public:
  SpanStat& stat(const std::string& name) { return spans_[name]; }
  double seconds(const std::string& name) const;
  /// Sum of every span (all spans a workload records are top level).
  double total_seconds() const;

 private:
  std::map<std::string, SpanStat> spans_;
};

class ScopedSpan {
 public:
  explicit ScopedSpan(SpanStat& stat) : stat_(stat), start_(Clock::now()) {}
  ~ScopedSpan() { stat_.seconds += seconds_since(start_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanStat& stat_;
  Clock::time_point start_;
};

/// Back-to-back spans that share their boundaries: lap(stat) charges the
/// time since the previous lap (or construction) to `stat`. For calls too
/// short for ScopedSpan's two clock reads each to stay out of the figures.
class LapTimer {
 public:
  LapTimer() : start_(Clock::now()), last_(start_) {}
  void lap(SpanStat& stat) {
    const auto now = Clock::now();
    stat.seconds += std::chrono::duration<double>(now - last_).count();
    last_ = now;
  }
  /// Seconds from construction to the last lap.
  double elapsed() const {
    return std::chrono::duration<double>(last_ - start_).count();
  }

 private:
  Clock::time_point start_;
  Clock::time_point last_;
};

/// CPU seconds of every thread of this process so far
/// (CLOCK_PROCESS_CPUTIME_ID), and of the calling thread alone
/// (CLOCK_THREAD_CPUTIME_ID). Time a thread waits for a CPU is not CPU
/// time, and on a guest whose kernel accounts steal (paravirtualised time
/// accounting, as on KVM and Firecracker) neither is time the hypervisor
/// gave to other guests.
double cpu_seconds();
double thread_cpu_seconds();

/// CPU and wall time of one job, from construction to the calls. With
/// `calling_thread_only`, CPU time counts the constructing thread alone.
class JobClock {
 public:
  explicit JobClock(bool calling_thread_only = false)
      : thread_only_(calling_thread_only),
        cpu0_(read_cpu()),
        wall0_(Clock::now()) {}
  double cpu_s() const { return read_cpu() - cpu0_; }
  double wall_s() const { return seconds_since(wall0_); }

 private:
  double read_cpu() const {
    return thread_only_ ? thread_cpu_seconds() : cpu_seconds();
  }
  bool thread_only_;
  double cpu0_;
  Clock::time_point wall0_;
};

/// Peak memory over a window of this process's life. For the resident set,
/// the constructor returns freed heap to the kernel and resets its
/// high-water mark (VmHWM); rss_mib() reads the mark. Where procfs offers
/// neither, it reads the peak of the whole process (getrusage).
class PeakMemory {
 public:
  PeakMemory();
  double rss_mib() const;
  /// The most heap the program held at once in the window: bytes taken
  /// through operator new and not yet returned, by usable size (heap.cpp).
  /// Unlike the resident set, it does not depend on what the allocator
  /// kept of freed memory or on which thread freed it.
  double heap_mib() const;
};

/// Heap accounting behind PeakMemory (heap.cpp): restart the high-water
/// mark at the bytes held now; read it.
void reset_heap_peak();
double heap_peak_mib();

/// Median and linear-interpolated quantile (q in [0, 1]) of a sample (0
/// when it is empty).
double median(std::vector<double> values);
double quantile(std::vector<double> values, double q);

/// Host-wide CPU time counters (/proc/stat), to tell how much of the run
/// the hypervisor gave to other guests.
class CpuTimes {
 public:
  static CpuTimes now();
  /// Share of all CPU time since `before` that was stolen (0 without
  /// procfs).
  double steal_share_since(const CpuTimes& before) const;

 private:
  std::uint64_t total_ = 0;
  std::uint64_t steal_ = 0;
};

/// Total size of the regular files under `dir`.
std::uint64_t directory_bytes(const std::filesystem::path& dir);
std::string read_file(const std::filesystem::path& path);
void write_file(const std::filesystem::path& path, const std::string& bytes);
/// Name of the file-system type `path` lives on ("ext4", "tmpfs", ...).
std::string filesystem_type(const std::filesystem::path& path);

/// Folds the workload seed into one of a scenario's base seeds, so every
/// generated input depends on --seed and distinct bases stay distinct.
std::uint64_t fold_seed(std::uint64_t base, std::uint64_t seed);

/// Formats a double with every digit needed to read it back exactly.
std::string format_number(double value);

/// The benchmark's repetition loop: true while another repetition should
/// start (always for the first `min_reps`, then until `seconds` have passed
/// since the loop began).
class RepBudget {
 public:
  RepBudget(double seconds, std::size_t min_reps)
      : seconds_(seconds), min_reps_(min_reps), start_(Clock::now()) {}
  bool next() {
    if (reps_ < min_reps_ || seconds_since(start_) < seconds_) {
      ++reps_;
      return true;
    }
    return false;
  }

 private:
  double seconds_;
  std::size_t min_reps_;
  std::size_t reps_ = 0;
  Clock::time_point start_;
};

/// Set-ups per run where set-up is not repeated with every repetition;
/// setup_s is the median of their CPU times.
constexpr std::size_t kSetups = 3;

/// Per-repetition samples a workload collects; finish() turns them into
/// the metric sheet of the run (end-to-end or per-layer, by options.trace).
struct Samples {
  // One per set-up.
  std::vector<double> setup_cpu_s;
  std::vector<double> setup_wall_s;
  // One per untraced repetition (see rep()).
  std::vector<double> cpu_s;
  std::vector<double> wall_s;
  std::vector<double> peak_rss_mib;
  std::vector<double> peak_heap_mib;
  /// Peak heap of single-threaded reference jobs, where a workload's
  /// repetitions do not repeat theirs; peak_heap_mb reads these then.
  std::vector<double> reference_heap_mib;
  std::vector<double> traced_wall_s;  // one per traced repetition
  std::vector<double> attributed;     // span sum / traced wall, per traced rep
  /// Bytes the job left on disk (last repetition).
  std::uint64_t disk_bytes = 0;

  /// Records one set-up that `clock` timed, as it ends.
  void setup(const JobClock& clock) {
    setup_cpu_s.push_back(clock.cpu_s());
    setup_wall_s.push_back(clock.wall_s());
  }
  /// Records one untraced repetition: the CPU and wall time of its job and
  /// its peak resident set and heap (PeakMemory).
  void rep(double cpu, double wall, double rss_mib, double heap_mib) {
    cpu_s.push_back(cpu);
    wall_s.push_back(wall);
    peak_rss_mib.push_back(rss_mib);
    peak_heap_mib.push_back(heap_mib);
  }

  /// One per-layer value of one traced repetition; the sheet reports the
  /// median over repetitions.
  void layer(const std::string& name, double value, const std::string& unit);

  std::map<std::string, std::vector<double>> layers;
  std::map<std::string, std::string> layer_units;
};

void finish(Report& report, const RunOptions& options, const Samples& samples);

Report run_study(const RunOptions& options);
Report run_serve_week(const RunOptions& options);
Report run_campaign(const RunOptions& options);
Report run_query_mix(const RunOptions& options);

}  // namespace perfbench
