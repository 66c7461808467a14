// E26 — control plane: how `Start`, the conflict derivation under it and a
// component migration scale with the number of registered services.
//
// The world is the perfbench `restart` catalog shape: two tenants of the
// sharded world, each with its KV, escrow and queue subsystem, grown by
// order/consume/refill variants until S services are registered, for
// S in {10^2, 10^3, 10^4}. Per size and rep, on one fresh world:
//
//   derive    — ServiceRegistry::DeriveConflicts of every registry into one
//               union spec (what Start does first);
//   partition — ComputeConflictPartition over that spec with the
//               subsystem and tenant colocation groups;
//   start     — ShardedRuntime::Start on 2 free-running shards (union
//               derivation, partition, and every shard scheduler's own
//               derivation in RegisterSubsystem);
//   migrate   — at the largest S only: MigrateComponent of tenant 0's
//               component to the other shard after 64 processes drained
//               (re-registration on the target derives again).
//
// Each size repeats until it has run at least 5 reps and 2 s, and its row
// reports the median plus min/max over the reps. Gate (exit code): median
// start(10^4) / start(10^3) <= 20. Comparing every pair of services reads
// ~100-150; a linear derivation reads 10 times the growth of the
// per-service cost from 10^3 to 10^4 services, which is cache-bound (the
// 10^3 world fits in cache, the 10^4 one does not). The ratio does not
// depend on the thread count.
//
// Flag: --json <path> writes BENCH_control_plane.json.

#include <algorithm>
#include <chrono>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/json_writer.h"
#include "common/str_util.h"
#include "core/conflict.h"
#include "runtime/conflict_partition.h"
#include "runtime/sharded_runtime.h"
#include "workload/sharded_world.h"

using namespace tpm;

namespace {

constexpr int kTenants = 2;
constexpr int kShards = 2;
constexpr int kMigrationWarmup = 64;
constexpr int kMinReps = 5;
constexpr double kMinSeconds = 2.0;
constexpr double kMaxStartRatio = 20.0;
constexpr int kSizes[] = {100, 1000, 10000};

#ifndef TPM_BUILD_TYPE
#define TPM_BUILD_TYPE "unknown"
#endif

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Median plus extremes of one timed quantity over the reps.
struct Spread {
  double median = 0;
  double min = 0;
  double max = 0;
};

Spread SpreadOf(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  const double median = n % 2 == 1
                            ? samples[n / 2]
                            : (samples[n / 2 - 1] + samples[n / 2]) / 2;
  return {median, samples.front(), samples.back()};
}

/// A two-tenant world holding at least `services` services; the order
/// defs are returned for the migration warm-up traffic.
struct World {
  std::unique_ptr<ShardedWorld> world;
  std::vector<const ProcessDef*> orders;
  size_t services = 0;

  std::vector<const Subsystem*> Subsystems() const {
    std::vector<const Subsystem*> subsystems;
    for (int t = 0; t < kTenants; ++t) {
      subsystems.push_back(world->kv(t));
      subsystems.push_back(world->escrow(t));
      subsystems.push_back(world->queue(t));
    }
    return subsystems;
  }
};

World BuildWorld(int services) {
  World w;
  w.world = std::make_unique<ShardedWorld>(ShardedWorldOptions{
      .seed = 7, .num_tenants = kTenants, .escrow_initial = 1'000'000,
      .queue_initial_tokens = 4096});
  for (int v = 0; w.services < static_cast<size_t>(services); ++v) {
    for (int t = 0; t < kTenants; ++t) {
      const std::string suffix = StrCat("_t", t, "_v", v);
      w.orders.push_back(
          w.world->MakeOrderProcess(t, StrCat("order", suffix), v));
      w.world->MakeConsumeProcess(t, StrCat("consume", suffix), v);
      w.world->MakeRefillProcess(t, StrCat("refill", suffix), v);
    }
    w.services = 0;
    for (int t = 0; t < kTenants; ++t) {
      w.services += w.world->TenantServices(t).size();
    }
  }
  return w;
}

ShardedRuntimeOptions RuntimeOptions(bool elastic) {
  ShardedRuntimeOptions options;
  options.num_shards = kShards;
  options.mode = TickMode::kFreeRunning;
  options.elastic.enabled = elastic;
  return options;
}

struct Row {
  int target = 0;
  size_t services = 0;
  size_t conflict_pairs = 0;
  std::vector<double> derive_s, partition_s, start_s, migrate_s;
  std::string error;
};

bool TimeDerivePartition(const World& w, Row* row) {
  row->services = w.services;
  const auto derive_start = std::chrono::steady_clock::now();
  ConflictSpec spec;
  for (const Subsystem* subsystem : w.Subsystems()) {
    subsystem->services().DeriveConflicts(&spec);
  }
  row->derive_s.push_back(SecondsSince(derive_start));
  row->conflict_pairs = spec.num_conflict_pairs();

  ColocationGroups groups;
  for (const Subsystem* subsystem : w.Subsystems()) {
    groups.push_back(subsystem->services().AllIds());
  }
  for (int t = 0; t < kTenants; ++t) {
    groups.push_back(w.world->TenantServices(t));
  }
  const auto partition_start = std::chrono::steady_clock::now();
  auto partition = ComputeConflictPartition(spec, kShards, groups);
  row->partition_s.push_back(SecondsSince(partition_start));
  if (!partition.ok()) {
    row->error = StrCat("partition: ", partition.status().ToString());
    return false;
  }
  return true;
}

bool TimeStart(const World& w, Row* row) {
  ShardedRuntime runtime(RuntimeOptions(/*elastic=*/false));
  Status status = w.world->RegisterAll(&runtime);
  const auto start = std::chrono::steady_clock::now();
  if (status.ok()) status = runtime.Start();
  row->start_s.push_back(SecondsSince(start));
  if (status.ok()) status = runtime.Stop();
  if (!status.ok()) {
    row->error = StrCat("start: ", status.ToString());
    return false;
  }
  return true;
}

bool TimeMigrate(const World& w, Row* row) {
  ShardedRuntime runtime(RuntimeOptions(/*elastic=*/true));
  Status status = w.world->RegisterAll(&runtime);
  if (status.ok()) status = runtime.Start();
  for (int i = 0; status.ok() && i < kMigrationWarmup; ++i) {
    status = runtime.Submit(w.orders[static_cast<size_t>(i) % w.orders.size()])
                 .status();
  }
  if (status.ok()) status = runtime.Drain();
  if (status.ok()) {
    const int component = runtime.router().ComponentOfService(
        w.world->TenantServices(0).front());
    const int to = 1 - runtime.router().ShardOfComponent(component);
    const auto start = std::chrono::steady_clock::now();
    status = runtime.MigrateComponent(component, to);
    row->migrate_s.push_back(SecondsSince(start));
  }
  const Status stopped = runtime.Stop();
  if (status.ok()) status = stopped;
  if (!status.ok()) {
    row->error = StrCat("migrate: ", status.ToString());
    return false;
  }
  return true;
}

void PrintSpread(const char* name, const std::vector<double>& samples) {
  if (samples.empty()) return;
  const Spread s = SpreadOf(samples);
  std::cout << "    " << std::left << std::setw(10) << name << std::right
            << std::fixed << std::setprecision(2) << std::setw(10)
            << s.median * 1e3 << " ms  (min " << s.min * 1e3 << ", max "
            << s.max * 1e3 << ")\n";
}

void WriteSpread(bench::JsonWriter* writer, const std::string& key,
                 const std::vector<double>& samples) {
  if (samples.empty()) return;
  const Spread s = SpreadOf(samples);
  writer->BeginObject(key);
  writer->Field("median_s", s.median, 6);
  writer->Field("min_s", s.min, 6);
  writer->Field("max_s", s.max, 6);
  writer->EndObject();
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::cerr << "usage: " << argv[0] << " [--json <path>]\n";
      return 2;
    }
  }
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  std::cout << "E26 control plane: " << kTenants << " tenants, " << kShards
            << " free-running shards, >= " << kMinReps << " reps and >= "
            << kMinSeconds << " s per size, " << hw
            << " hardware threads, " << TPM_BUILD_TYPE << " build\n";

  std::vector<Row> rows;
  bool all_ok = true;
  for (int target : kSizes) {
    Row row;
    row.target = target;
    const bool migrate = target == kSizes[std::size(kSizes) - 1];
    const auto began = std::chrono::steady_clock::now();
    int reps = 0;
    while (reps < kMinReps || SecondsSince(began) < kMinSeconds) {
      // One fresh world per rep; its subsystems serve one runtime at a
      // time, as after a restart.
      const World w = BuildWorld(target);
      if (!TimeDerivePartition(w, &row) || !TimeStart(w, &row)) break;
      if (migrate && !TimeMigrate(w, &row)) break;
      ++reps;
    }
    std::cout << "\n  S = " << row.services << " services (target " << target
              << "), " << row.conflict_pairs << " conflicting pairs, " << reps
              << " reps\n";
    if (!row.error.empty()) {
      std::cout << "    FAILED: " << row.error << "\n";
      all_ok = false;
    }
    PrintSpread("derive", row.derive_s);
    PrintSpread("partition", row.partition_s);
    PrintSpread("start", row.start_s);
    PrintSpread("migrate", row.migrate_s);
    rows.push_back(std::move(row));
  }

  double ratio = 0;
  if (all_ok) {
    ratio = SpreadOf(rows[2].start_s).median / SpreadOf(rows[1].start_s).median;
  }
  const bool pass = all_ok && ratio <= kMaxStartRatio;
  std::cout << "\n  gate: median start(" << rows[2].services << ") / start("
            << rows[1].services << ") = " << std::fixed << std::setprecision(2)
            << ratio << " (require <= " << kMaxStartRatio
            << "; linear ~10, all-pairs ~100) " << (pass ? "[OK]" : "[FAIL]")
            << "\n";

  std::ostringstream json;
  bench::JsonWriter writer(json);
  writer.BeginObject();
  writer.Field("benchmark",
               StrCat("bench_control_plane E26 control plane vs services (",
                      kTenants, " tenants, ", kShards, " shards)"));
  writer.Field("methodology",
               StrCat("fresh two-tenant sharded world per size and rep; "
                      "derive = DeriveConflicts of every registry into one "
                      "spec, partition = ComputeConflictPartition with the "
                      "colocation groups, start = ShardedRuntime::Start on ",
                      kShards, " free-running shards, migrate = "
                      "MigrateComponent of tenant 0 after ", kMigrationWarmup,
                      " drained processes (largest size only); each size "
                      "repeats for >= ", kMinReps, " reps and >= ",
                      kMinSeconds, " s; median and min/max over its reps"));
  writer.Field("hardware_threads", hw);
  writer.Field("build_type", TPM_BUILD_TYPE);
  writer.BeginArray("sizes");
  for (const Row& row : rows) {
    writer.BeginObject();
    writer.Field("target_services", row.target);
    writer.Field("services", static_cast<int64_t>(row.services));
    writer.Field("conflict_pairs", static_cast<int64_t>(row.conflict_pairs));
    writer.Field("reps", static_cast<int64_t>(row.start_s.size()));
    WriteSpread(&writer, "derive", row.derive_s);
    WriteSpread(&writer, "partition", row.partition_s);
    WriteSpread(&writer, "start", row.start_s);
    WriteSpread(&writer, "migrate", row.migrate_s);
    writer.Field("ok", row.error.empty());
    if (!row.error.empty()) writer.Field("error", row.error);
    writer.EndObject();
  }
  writer.EndArray();
  writer.BeginObject("gate");
  writer.Field("start_ratio_large_over_mid", ratio, 3);
  writer.Field("max_ratio", kMaxStartRatio, 1);
  writer.Field("pass", pass);
  writer.EndObject();
  writer.EndObject();

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << json.str();
    std::cout << "\n  wrote " << json_path << "\n";
  }
  return pass ? 0 : 1;
}
