// Shared plumbing for the perfbench binary: clocks, percentiles, metric
// records, scratch directories, and the per-workload result every workload
// hands back to main.cc.
#ifndef PERFBENCH_SRC_COMMON_H_
#define PERFBENCH_SRC_COMMON_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <sched.h>
#include <sys/types.h>
#include <string>
#include <vector>

#include "src/common/status.h"

namespace perfbench {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

// Percentile q in [0, 1] of `v` (reorders `v`; 0 when empty): the mean of
// the samples ranked within +-0.1% of the nearest rank, so that a quantile of
// many integer samples carries more digits and less jitter than one sample.
template <typename T>
double Percentile(std::vector<T>& v, double q) {
  if (v.empty()) {
    return 0;
  }
  const size_t n = v.size();
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n) - 1;
  const size_t half = n / 1000;
  const size_t lo = rank > half ? rank - half : 0;
  const size_t hi = std::min(n - 1, rank + half);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(lo), v.end());
  if (hi > lo) {
    std::nth_element(v.begin() + static_cast<std::ptrdiff_t>(lo) + 1,
                     v.begin() + static_cast<std::ptrdiff_t>(hi), v.end());
  }
  double sum = 0;
  for (size_t i = lo; i <= hi; ++i) {
    sum += static_cast<double>(v[i]);
  }
  return sum / static_cast<double>(hi - lo + 1);
}

template <typename T>
double Median(std::vector<T> v) {
  return Percentile(v, 0.5);
}

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
};

// What one workload run hands back. `e2e` holds the end-to-end metrics of an
// untraced run; `layers` the per-layer metrics of a traced run. `attempted`
// and `failed` count the workload's timed operations; `correct` is false as
// soon as any oracle rejects an output.
struct WorkloadResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> e2e;
  std::vector<Metric> layers;

  void Add(std::vector<Metric>* into, std::string name, std::string unit, double value) {
    into->push_back({std::move(name), std::move(unit), value});
  }
  // Records an oracle rejection (printed to stderr, never silently dropped).
  void Reject(const std::string& what) {
    if (correct) {
      std::fprintf(stderr, "perfbench: oracle rejected: %s\n", what.c_str());
    }
    correct = false;
  }
};

// Time-bounded workloads split a run into sub-runs of about this length, each
// on fresh client threads, and report the median over sub-runs: interference
// from outside the benchmark, and the luck of where threads are placed, then
// move one sub-run rather than the whole run.
inline constexpr double kSubRunSeconds = 1.0;

inline int SubRuns(double seconds) {
  return std::max(1, static_cast<int>(std::lround(seconds / kSubRunSeconds)));
}

// Confines the calling thread, and so every thread and process it starts
// afterwards, to the last `n` CPUs it may run on, for the scope. Unconfined,
// the workloads' cross-thread wake-ups wander over every vCPU of the VM and
// their throughput swings with the host's load (README.md, "CPU placement").
class CpuSubset {
 public:
  explicit CpuSubset(int n) {
    ::sched_getaffinity(0, sizeof(saved_), &saved_);
    cpu_set_t subset;
    CPU_ZERO(&subset);
    for (int cpu = CPU_SETSIZE - 1; cpu >= 0 && n > 0; --cpu) {
      if (CPU_ISSET(cpu, &saved_)) {
        CPU_SET(cpu, &subset);
        --n;
      }
    }
    ::sched_setaffinity(0, sizeof(subset), &subset);
  }
  ~CpuSubset() { ::sched_setaffinity(0, sizeof(saved_), &saved_); }
  CpuSubset(const CpuSubset&) = delete;
  CpuSubset& operator=(const CpuSubset&) = delete;

 private:
  cpu_set_t saved_;
};

// Everything a workload needs from the command line.
struct RunConfig {
  uint64_t seed = 1;
  double seconds = 10;
  std::filesystem::path scratch;  // Private, empty directory inside the checkout.
  std::string self_exe;           // This binary, re-executed by `recover`.
};

// Child processes (puddled, recover children) that Die must stop first.
void TrackChild(pid_t pid);
void UntrackChild(pid_t pid);

// Aborts the run with a message after killing and reaping every tracked
// child: set-up failures are not measurable.
[[noreturn]] void Die(const std::string& what);

inline void Check(const puddles::Status& status, const char* what) {
  if (!status.ok()) {
    Die(std::string(what) + ": " + status.ToString());
  }
}

template <typename T>
T Take(puddles::Result<T> result, const char* what) {
  if (!result.ok()) {
    Die(std::string(what) + ": " + result.status().ToString());
  }
  return std::move(*result);
}

// Apparent size of every regular file under `dir` (puddle files, daemon
// tables): the persistent footprint the daemon root holds.
inline uint64_t FileBytesUnder(const std::filesystem::path& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (auto it = std::filesystem::recursive_directory_iterator(dir, ec);
       !ec && it != std::filesystem::recursive_directory_iterator(); it.increment(ec)) {
    if (it->is_regular_file(ec)) {
      total += it->file_size(ec);
    }
  }
  return total;
}

inline void ResetDir(const std::filesystem::path& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    Die("cannot create " + dir.string() + ": " + ec.message());
  }
}

}  // namespace perfbench

#endif  // PERFBENCH_SRC_COMMON_H_
