// Pieces every workload shares: the canonical metric tables, registering a
// world with or without the tracing decorators, and the Stats()/WAL-derived
// per-layer numbers.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "runtime/sharded_runtime.h"
#include "trace.h"
#include "workload/sharded_world.h"

namespace perfbench {

struct MetricDef {
  const char* name;
  const char* unit;
};

/// The end-to-end metrics every workload prints with tracing off.
const std::vector<MetricDef>& EndToEndTable();
/// The per-layer metrics every traced run prints (trace.overhead.* are
/// added by run.py, which also runs the untraced reference).
const std::vector<MetricDef>& LayerTable();

/// Copies `values` into `out` in table order, with 0 for what a workload
/// does not exercise. A name outside the table is
/// a gate failure (it would be silently dropped otherwise).
void EmitLayers(const LayerValues& values, MetricList* out, Gate* gate);

/// The world's subsystems as registered with one runtime: either the
/// subsystems themselves or, traced, a TracedSubsystem around each.
class Registration {
 public:
  /// Registers every non-empty subsystem of `world` plus its per-tenant
  /// colocation groups (what ShardedWorld::RegisterAll does, with the
  /// decorators swapped in when `traced`).
  tpm::Status Register(tpm::ShardedWorld* world, tpm::ShardedRuntime* runtime,
                       bool traced, size_t reserve_per_subsystem);
  /// After Start: which shard owns each decorator.
  void ResolveShards(const tpm::ShardedRuntime& runtime);

  /// What the runtime knows `subsystem` as: its decorator when traced.
  const tpm::Subsystem* Registered(const tpm::Subsystem* subsystem) const;

  const std::vector<TracedSubsystem*>& decorators() const { return ptrs_; }
  const std::vector<int>& shards() const { return shards_; }

 private:
  std::vector<std::unique_ptr<TracedSubsystem>> owned_;
  std::vector<TracedSubsystem*> ptrs_;
  std::vector<int> shards_;
};

/// Stats()-derived counters summed over every runtime a workload ran:
/// waste counts (core.*) and span counters (runtime.span.*).
struct StatsTotals {
  tpm::SchedulerStats merged;
  int64_t spans_begun = 0;
  int64_t spans_committed = 0;

  void Add(const tpm::RuntimeStats& stats);
  /// Ratios per user-visible commit.
  void AddTo(int64_t user_commits, LayerValues* values) const;
};

/// Records and bytes the shard WALs held after Stop, summed over runtimes.
struct LogTotals {
  int64_t records = 0;
  int64_t bytes = 0;

  /// `wal_dir` non-empty: file bytes of every WAL file in it (shards and
  /// coordinator); otherwise the bytes of the in-memory records.
  void Add(tpm::ShardedRuntime* runtime, const std::string& wal_dir);
  void AddTo(int64_t user_commits, LayerValues* values) const;
};

/// Producer-side queue-depth samples (QueueDepths() summed over shards).
struct DepthSampler {
  int64_t next_ns = 0;
  int64_t period_ns = 1'000'000;
  double sum = 0;
  double max = 0;
  int64_t samples = 0;

  void MaybeSample(const tpm::ShardedRuntime& runtime, int64_t now_ns);
  void AddTo(LayerValues* values) const;
};

/// Everything a traced run accumulates over the runtimes it starts.
struct TraceTotals {
  LayerTrace spans;
  StatsTotals stats;
  LogTotals log;
  DepthSampler depth;
  /// User-visible commits the Stats() and the log totals are divided by.
  int64_t stats_commits = 0;
  int64_t log_commits = 0;
  std::ofstream dump;
  size_t dump_budget = 20000;

  /// Opens <out_dir>/spans-<workload>-seed<n>.jsonl.
  void OpenDump(const Args& args);
  /// Assembles one runtime's spans into `spans` and the dump.
  void Assemble(const Recorder& recorder, const Registration& registration,
                int shards, const std::vector<Submission>& subs,
                const std::string& label);
  /// The span, Stats(), log and queue-depth per-layer values.
  void AddTo(LayerValues* values);
};

/// Adds a vector of plain JSON numbers as one details entry.
std::string JsonArray(const std::vector<double>& values);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
