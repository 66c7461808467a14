#include "harness.h"

#include <filesystem>

namespace perfbench {

const std::vector<MetricDef>& EndToEndTable() {
  static const std::vector<MetricDef> table = {
      {"setup_s", "s"},
      {"peak_rss_mb", "MB"},
      {"latency_mean_ms", "ms"},
      {"latency_p99_ms", "ms"},
      {"throughput_per_s", "1/s"},
      {"completed_share", "ratio"},
  };
  return table;
}

const std::vector<MetricDef>& LayerTable() {
  static const std::vector<MetricDef> table = {
      {"runtime.submit_us.p50", "us"},
      {"runtime.submit_us.p99", "us"},
      {"runtime.queue_depth.mean", "count"},
      {"runtime.queue_depth.max", "count"},
      {"runtime.to_first_invoke_us.p50", "us"},
      {"runtime.to_first_invoke_us.p99", "us"},
      {"runtime.start_s", "s"},
      {"runtime.recover_s", "s"},
      {"runtime.span.held_us.p50", "us"},
      {"runtime.span.held_us.p99", "us"},
      {"runtime.span.commit_ratio", "ratio"},
      {"runtime.span.begun", "count"},
      {"runtime.self_us.mean", "us"},
      {"core.emit_us.p50", "us"},
      {"core.emit_us.p99", "us"},
      {"core.finish_us.p50", "us"},
      {"core.pass_wait_us.p50", "us"},
      {"core.pass_wait_us.p99", "us"},
      {"core.steps_per_commit", "1/commit"},
      {"core.deferrals_per_commit", "1/commit"},
      {"core.lock_blocks_per_commit", "1/commit"},
      {"core.compensations_per_commit", "1/commit"},
      {"core.alternatives_per_commit", "1/commit"},
      {"core.commit_ratio", "ratio"},
      {"core.verify_s", "s"},
      {"core.replay_s", "s"},
      {"core.self_us.mean", "us"},
      {"subsystem.invoke_us.p50", "us"},
      {"subsystem.invoke_us.p99", "us"},
      {"subsystem.invoke_busy_s", "s"},
      {"subsystem.invocations", "count"},
      {"subsystem.invoke_failed", "count"},
      {"subsystem.prepared", "count"},
      {"subsystem.self_us.mean", "us"},
      {"log.records_per_commit", "1/commit"},
      {"log.wal_bytes_per_commit", "B/commit"},
      {"log.records_replayed", "count"},
      {"bench.send_lag_us.p99", "us"},
      {"bench.send_lag_us.max", "us"},
      {"bench.self_us.mean", "us"},
      {"trace.e2e_us.mean", "us"},
      {"trace.layer_sum_ratio", "ratio"},
      {"trace.processes", "count"},
  };
  return table;
}

void EmitLayers(const LayerValues& values, MetricList* out, Gate* gate) {
  for (const auto& [name, value] : values) {
    bool known = false;
    for (const MetricDef& def : LayerTable()) known = known || name == def.name;
    gate->Check(known, "per-layer metric '" + name + "' is not in the table");
  }
  for (const MetricDef& def : LayerTable()) {
    auto it = values.find(def.name);
    out->Add(def.name, it == values.end() ? 0.0 : it->second, def.unit);
  }
}

tpm::Status Registration::Register(tpm::ShardedWorld* world,
                                   tpm::ShardedRuntime* runtime, bool traced,
                                   size_t reserve_per_subsystem) {
  if (!traced) return world->RegisterAll(runtime);
  for (int t = 0; t < world->num_tenants(); ++t) {
    for (tpm::Subsystem* s :
         {static_cast<tpm::Subsystem*>(world->kv(t)),
          static_cast<tpm::Subsystem*>(world->escrow(t)),
          static_cast<tpm::Subsystem*>(world->queue(t))}) {
      if (s->services().AllIds().empty()) continue;
      owned_.push_back(
          std::make_unique<TracedSubsystem>(s, reserve_per_subsystem));
      ptrs_.push_back(owned_.back().get());
      TPM_RETURN_IF_ERROR(runtime->AddSubsystem(owned_.back().get()));
    }
  }
  for (int t = 0; t < world->num_tenants(); ++t) {
    std::vector<tpm::ServiceId> group = world->TenantServices(t);
    if (group.size() >= 2) {
      TPM_RETURN_IF_ERROR(runtime->AddColocation(std::move(group)));
    }
  }
  return tpm::Status::OK();
}

const tpm::Subsystem* Registration::Registered(
    const tpm::Subsystem* subsystem) const {
  for (const TracedSubsystem* dec : ptrs_) {
    if (dec->inner() == subsystem) return dec;
  }
  return subsystem;
}

void Registration::ResolveShards(const tpm::ShardedRuntime& runtime) {
  shards_.clear();
  for (TracedSubsystem* dec : ptrs_) {
    shards_.push_back(runtime.ShardOfSubsystem(dec));
  }
}

void StatsTotals::Add(const tpm::RuntimeStats& stats) {
  merged.MergeFrom(stats.merged);
  spans_begun += stats.spans_begun;
  spans_committed += stats.spans_committed;
}

void StatsTotals::AddTo(int64_t user_commits, LayerValues* values) const {
  const double commits =
      user_commits > 0 ? static_cast<double>(user_commits) : 1.0;
  auto per_commit = [&](int64_t n) { return static_cast<double>(n) / commits; };
  (*values)["core.steps_per_commit"] = per_commit(merged.steps);
  (*values)["core.deferrals_per_commit"] = per_commit(merged.deferrals);
  (*values)["core.lock_blocks_per_commit"] =
      per_commit(merged.blocked_by_locks);
  (*values)["core.compensations_per_commit"] =
      per_commit(merged.compensations);
  (*values)["core.alternatives_per_commit"] =
      per_commit(merged.alternatives_taken);
  const int64_t terminal = merged.processes_committed + merged.processes_aborted;
  (*values)["core.commit_ratio"] =
      terminal > 0 ? static_cast<double>(merged.processes_committed) /
                         static_cast<double>(terminal)
                   : 0.0;
  (*values)["runtime.span.begun"] = static_cast<double>(spans_begun);
  (*values)["runtime.span.commit_ratio"] =
      spans_begun > 0 ? static_cast<double>(spans_committed) /
                            static_cast<double>(spans_begun)
                      : 0.0;
}

void LogTotals::Add(tpm::ShardedRuntime* runtime, const std::string& wal_dir) {
  for (int s = 0; s < runtime->num_shards(); ++s) {
    tpm::RecoveryLog* log = runtime->shard_log(s);
    if (log == nullptr) continue;
    records += static_cast<int64_t>(log->size());
    if (wal_dir.empty()) {
      for (const std::string& record : log->wal()->backend()->records()) {
        bytes += static_cast<int64_t>(record.size());
      }
    }
  }
  if (!wal_dir.empty()) {
    std::error_code ec;
    for (const auto& entry : std::filesystem::directory_iterator(wal_dir, ec)) {
      bytes += FileBytes(entry.path().string());
    }
  }
}

void LogTotals::AddTo(int64_t user_commits, LayerValues* values) const {
  const double commits =
      user_commits > 0 ? static_cast<double>(user_commits) : 1.0;
  (*values)["log.records_per_commit"] = static_cast<double>(records) / commits;
  (*values)["log.wal_bytes_per_commit"] = static_cast<double>(bytes) / commits;
}

void DepthSampler::MaybeSample(const tpm::ShardedRuntime& runtime,
                               int64_t now_ns) {
  if (now_ns < next_ns) return;
  next_ns = now_ns + period_ns;
  double depth = 0;
  for (size_t d : runtime.QueueDepths()) depth += static_cast<double>(d);
  sum += depth;
  max = std::max(max, depth);
  ++samples;
}

void DepthSampler::AddTo(LayerValues* values) const {
  (*values)["runtime.queue_depth.mean"] =
      samples > 0 ? sum / static_cast<double>(samples) : 0.0;
  (*values)["runtime.queue_depth.max"] = max;
}

void TraceTotals::OpenDump(const Args& args) {
  dump.open(args.out_dir + "/spans-" + args.workload + "-seed" +
            std::to_string(args.seed) + ".jsonl");
}

void TraceTotals::Assemble(const Recorder& recorder,
                           const Registration& registration, int shards,
                           const std::vector<Submission>& subs,
                           const std::string& label) {
  AssembleSpans(recorder, registration.decorators(), registration.shards(),
                shards, subs, label, &dump, &dump_budget, &spans);
}

void TraceTotals::AddTo(LayerValues* values) {
  AddSpanMetrics(&spans, values);
  stats.AddTo(stats_commits, values);
  log.AddTo(log_commits, values);
  depth.AddTo(values);
}

std::string JsonArray(const std::vector<double>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ",";
    out += JsonNumber(values[i]);
  }
  return out + "]";
}

}  // namespace perfbench
