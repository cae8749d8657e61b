// appscope_perfbench: runs one end-to-end workload of the appscope
// benchmark and prints its metrics.
//
//   appscope_perfbench --workload=study|serve_week|campaign|query_mix
//                      [--seed=N] [--seconds=S] [--trace=0|1]
//
// With --trace=0 the last stdout line carries the end-to-end metrics, with
// --trace=1 the per-layer metrics of a traced run (see README.md). Every
// workload checks its outputs; a failed check is counted, printed, and
// makes the process exit with status 1. Scratch files live in a directory
// unique to this process, under the current directory, removed on exit.
// Where the process may create a private mount namespace, that directory
// is a tmpfs mounted for this process alone, so device noise stays out of
// the figures; otherwise it is a plain directory on the checkout's file
// system. The metadata line says which.
#include <malloc.h>
#include <sched.h>
#include <sys/mount.h>
#include <unistd.h>

#include <cmath>
#include <exception>
#include <filesystem>
#include <iostream>
#include <random>
#include <string>

#include "common.hpp"
#include "la/simd.hpp"
#include "util/metrics.hpp"
#include "util/parallel.hpp"

namespace {

using perfbench::Report;
using perfbench::RunOptions;

#if !defined(NDEBUG) || defined(__SANITIZE_ADDRESS__) || \
    defined(__SANITIZE_THREAD__) || defined(PERFBENCH_SANITIZED)
constexpr bool kMeasurableBuild = false;
#else
constexpr bool kMeasurableBuild = true;
#endif

/// Host CPU steal above which a run's wall times are flagged: on a quiet
/// host it stays below 1%, and at 5% study repetitions already take ~20%
/// longer. The gated figures are CPU times, which steal does not enter.
constexpr double kStealWarning = 0.03;

std::size_t online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<std::size_t>(n);
  }
  return 1;
}

/// Accepts --key=value and --key value.
bool parse_args(int argc, char** argv, RunOptions& options) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) return false;
    std::string key = arg.substr(2);
    std::string value;
    const auto eq = key.find('=');
    if (eq != std::string::npos) {
      value = key.substr(eq + 1);
      key.resize(eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      return false;
    }
    try {
      if (key == "workload") {
        options.workload = value;
      } else if (key == "seed") {
        options.seed = std::stoull(value);
      } else if (key == "seconds") {
        options.seconds = std::stod(value);
      } else if (key == "trace") {
        options.trace = std::stoi(value) != 0;
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return !options.workload.empty() && options.seconds > 0.0;
}

/// Mounts a tmpfs over `dir` in a mount namespace private to this process
/// (and the threads it starts later), so the mount vanishes with it.
/// Returns false, changing nothing visible, when that is not permitted.
bool mount_private_tmpfs(const std::filesystem::path& dir) {
  if (unshare(CLONE_NEWNS) != 0) return false;
  if (mount(nullptr, "/", nullptr, MS_REC | MS_PRIVATE, nullptr) != 0) {
    return false;
  }
  return mount("perfbench", dir.c_str(), "tmpfs", MS_NOSUID | MS_NODEV,
               "size=4g,mode=0700") == 0;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

void print_result(const Report& report) {
  for (const std::string& line : report.notes) std::cout << line << "\n";
  std::cout << "meta:";
  for (const auto& [key, value] : report.meta) {
    std::cout << " " << key << "=" << value;
  }
  std::cout << "\n";
  for (const auto& m : report.metrics) {
    std::cout << "metric " << m.name << " = "
              << perfbench::format_number(m.value) << " " << m.unit << "\n";
  }
  const bool correct = report.checks_passed && report.failed == 0;
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << report.attempted
            << ", \"failed\": " << report.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const auto& m = report.metrics[i];
    std::cout << (i == 0 ? "" : ", ") << "\"" << json_escape(m.name)
              << "\": {\"value\": " << perfbench::format_number(m.value)
              << ", \"unit\": \"" << json_escape(m.unit) << "\"}";
  }
  std::cout << "}}" << std::endl;
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions options;
  if (!parse_args(argc, argv, options)) {
    std::cerr << "usage: appscope_perfbench --workload=study|serve_week|"
                 "campaign|query_mix [--seed=N] [--seconds=S] [--trace=0|1]\n";
    return 2;
  }
  if (!kMeasurableBuild) {
    std::cerr << "appscope_perfbench: refusing to measure a debug or "
                 "sanitizer build (" PERFBENCH_BUILD_TYPE ")\n";
    return 2;
  }
  Report (*run)(const RunOptions&) = nullptr;
  if (options.workload == "study") run = perfbench::run_study;
  if (options.workload == "serve_week") run = perfbench::run_serve_week;
  if (options.workload == "campaign") run = perfbench::run_campaign;
  if (options.workload == "query_mix") run = perfbench::run_query_mix;
  if (run == nullptr) {
    std::cerr << "appscope_perfbench: unknown workload " << options.workload
              << "\n";
    return 2;
  }

  options.nproc = online_cpus();
  // At most one malloc arena per thread the workloads may run. Past that,
  // glibc adds arenas when threads contend for one, which makes both the
  // memory figures and the page-fault share of the times depend on how
  // busy the host happens to be.
  mallopt(M_ARENA_MAX, static_cast<int>(options.nproc));
  // One directory per process (pid + random nonce), so concurrent
  // benchmark processes never share a file.
  std::random_device entropy;
  options.work_dir = std::filesystem::current_path() /
                     (".bench_run-" + options.workload + "-" +
                      std::to_string(::getpid()) + "-" +
                      std::to_string(entropy()));
  std::filesystem::create_directory(options.work_dir);
  // Before any thread exists: the namespace is per thread at creation.
  const bool tmpfs = mount_private_tmpfs(options.work_dir);

  appscope::util::ThreadPool::set_global_threads(options.nproc);
  // Whatever APPSCOPE_METRICS says: only the traced study repetitions turn
  // the program's own instruments on, and only for their run_study call.
  appscope::util::MetricsRegistry::set_enabled(false);
  int status = 0;
  try {
    const auto cpu_before = perfbench::CpuTimes::now();
    Report report = run(options);
    const double steal =
        perfbench::CpuTimes::now().steal_share_since(cpu_before);
    report.meta["steal_pct"] = perfbench::format_number(
        std::round(steal * 1000.0) / 10.0);
    if (steal > kStealWarning) {
      report.note("warning: the hypervisor stole " +
                  report.meta["steal_pct"] +
                  "% of the host's CPU time during this run; its wall times "
                  "are comparable only with runs under similar steal");
    }
    report.meta["build_type"] = PERFBENCH_BUILD_TYPE;
    report.meta["compiler"] = "\"" __VERSION__ "\"";
    report.meta["simd"] = appscope::la::simd::active_name();
    report.meta["nproc"] = std::to_string(options.nproc);
    report.meta["seed"] = std::to_string(options.seed);
    report.meta["trace"] = options.trace ? "1" : "0";
    report.meta["fs"] = perfbench::filesystem_type(options.work_dir);
    report.meta["pool_threads"] =
        std::to_string(appscope::util::ThreadPool::global_thread_count());
    print_result(report);
    status = report.checks_passed && report.failed == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "appscope_perfbench: " << options.workload
              << " failed: " << e.what() << "\n";
    status = 1;
  }
  std::error_code ec;
  if (tmpfs) umount2(options.work_dir.c_str(), MNT_DETACH);
  std::filesystem::remove_all(options.work_dir, ec);
  return status;
}
