// Shared vocabulary of the repository benchmark: command-line arguments,
// the result a workload hands back, the correctness gate, and small
// statistics helpers. Everything here measures the runtime from the
// outside — through its public API, observer callbacks and Stats().
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline void SleepUntilNs(int64_t deadline_ns) {
  const auto due = Clock::time_point(std::chrono::nanoseconds(deadline_ns));
  while (Clock::now() < due) std::this_thread::sleep_until(due);
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  /// Scratch directory for WAL files, the span dump and the results file.
  std::string out_dir;
};

/// One named number with its unit, printed in insertion order.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Per-layer values by metric name (see harness.h for the canonical set).
using LayerValues = std::map<std::string, double>;

class MetricList {
 public:
  void Add(std::string name, double value, std::string unit) {
    items_.push_back({std::move(name), value, std::move(unit)});
  }
  const std::vector<Metric>& items() const { return items_; }

 private:
  std::vector<Metric> items_;
};

/// The correctness gate: every failed check is remembered with a message.
/// A run with any failure prints no numbers and exits nonzero.
class Gate {
 public:
  void Check(bool ok, const std::string& what) {
    if (!ok) failures_.push_back(what);
  }
  bool ok() const { return failures_.empty(); }
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  std::vector<std::string> failures_;
};

/// What one workload run hands back to main.
struct Report {
  int64_t attempted = 0;
  int64_t failed = 0;
  /// End-to-end metrics (the BENCHMARK.json `end_to_end` set).
  MetricList e2e;
  /// Per-layer metrics (the `per_layer` set); filled by traced runs only.
  MetricList layers;
  /// Extra context for the results file (per-rung tables, hashes, ...),
  /// as name -> already-serialized JSON value.
  std::vector<std::pair<std::string, std::string>> details;
};

/// Latency samples of one measured population. Processes that failed, were
/// refused or never terminated are "misses": they rank above every measured
/// sample (+inf latency) and are reported at `miss_ns`, the longest the
/// benchmark waited for them, whenever a percentile lands on one.
struct LatencySet {
  std::vector<int64_t> ns;
  int64_t misses = 0;
  int64_t miss_ns = 0;

  /// Nearest-rank percentile, q in (0, 1]; 0 when there is no sample.
  double PercentileNs(double q);
  /// Mean, with every miss counted at miss_ns.
  double MeanNs() const;
  int64_t count() const { return static_cast<int64_t>(ns.size()) + misses; }

 private:
  bool sorted_ = false;
};

/// Nearest-rank percentile of plain (always finite) samples.
double Percentile(std::vector<double> values, double q);
double Median(std::vector<double> values);

/// Peak resident set size of this process, in MiB.
double PeakRssMb();

/// Hands memory freed by a finished runtime back to the system, so that
/// the peak resident set reflects one runtime's working set rather than
/// what the allocator happened to keep from the previous ones.
void ReleaseFreedMemory();

/// Filesystem type of `path` as statfs(2) reports it ("ext4", "tmpfs", ...).
std::string FilesystemOf(const std::string& path);

/// Creates `path` (and parents) after removing whatever was there.
bool FreshDir(const std::string& path);

/// FNV-1a over the bytes of a file; 0 when it cannot be read.
uint64_t HashFile(const std::string& path, uint64_t seed);
int64_t FileBytes(const std::string& path);

std::string JsonString(const std::string& s);
std::string JsonNumber(double v);

/// Deterministic generator for workload inputs (splitmix64): the same seed
/// yields the same stream on every platform.
class InputRng {
 public:
  explicit InputRng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n).
  int Below(int n) { return static_cast<int>(Next() % static_cast<uint64_t>(n)); }

 private:
  uint64_t state_;
};

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
