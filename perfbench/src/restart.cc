// restart: the control plane and recovery. Two tenants carry a catalog of
// about 5k registered services. A deterministic pre-crash phase (lockstep,
// fixed submissions, a fixed tick count, the file WAL) leaves committed
// and in-flight processes behind; Stop is the crash. The timed phase
// builds a new runtime over the surviving subsystems and WAL files: Start,
// Recover with verification on, and a burst of new processes that were
// queued at the crash. Each iteration starts from a fresh world and WAL.

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <future>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/pred.h"
#include "core/recoverability.h"
#include "core/schedule.h"
#include "harness.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr int kShards = 2;
constexpr int kTenants = 2;
/// Catalog size: each variant of the three shapes registers five KV keys
/// (ten services) per tenant, so 2 x 250 variants give ~5k services.
constexpr int kVariants = 250;
/// The fixed pre-crash phase: these submissions, then this many ticks.
constexpr int kPreCrashProcesses = 200;
constexpr int kPreCrashTicks = 4;
/// New processes queued at the crash and submitted once Recover returns.
constexpr int kBurst = 64;
constexpr int kMinIterations = 3;
constexpr int64_t kBurstLimitNs = 30'000'000'000;

/// Catalog shapes. Consume processes are registered (their services are
/// part of the catalog) but never submitted: their dequeue conflicts with
/// every other queue operation and aborts processes under load.
constexpr int kOrder = 0;
constexpr int kRefill = 2;

/// One fresh world with the full catalog.
struct Catalog {
  std::unique_ptr<tpm::ShardedWorld> world;
  std::vector<const tpm::ProcessDef*> defs;  // [tenant][shape][variant]

  const tpm::ProcessDef* At(int tenant, int shape, int variant) const {
    return defs[static_cast<size_t>((tenant * 3 + shape) * kVariants +
                                    variant)];
  }
};

bool BuildCatalog(Catalog* catalog) {
  catalog->world = std::make_unique<tpm::ShardedWorld>(
      tpm::ShardedWorldOptions{.seed = 7,
                               .num_tenants = kTenants,
                               .escrow_initial = 1'000'000,
                               .queue_initial_tokens = 4096});
  tpm::ShardedWorld& w = *catalog->world;
  for (int t = 0; t < kTenants; ++t) {
    const std::string tenant = "_t" + std::to_string(t) + "_v";
    for (int v = 0; v < kVariants; ++v) {
      catalog->defs.push_back(
          w.MakeOrderProcess(t, "order" + tenant + std::to_string(v), v));
    }
    for (int v = 0; v < kVariants; ++v) {
      catalog->defs.push_back(
          w.MakeConsumeProcess(t, "consume" + tenant + std::to_string(v), v));
    }
    for (int v = 0; v < kVariants; ++v) {
      catalog->defs.push_back(
          w.MakeRefillProcess(t, "refill" + tenant + std::to_string(v), v));
    }
  }
  for (const tpm::ProcessDef* def : catalog->defs) {
    if (def == nullptr) return false;
  }
  return true;
}

tpm::ShardedRuntimeOptions Options(const std::string& wal_dir,
                                   tpm::TickMode mode) {
  tpm::ShardedRuntimeOptions options;
  options.num_shards = kShards;
  options.mode = mode;
  options.log_mode = tpm::ShardLogMode::kFile;
  options.wal_dir = wal_dir;
  return options;
}

struct Iteration {
  double setup_s = 0;
  double start_s = 0;
  double recover_s = 0;
  double verify_s = 0;
  double restart_s = 0;
  double burst_s = 0;
  uint64_t wal_hash = 0;
  int64_t committed_before = 0;
  int64_t in_flight_at_crash = 0;
  int64_t records_replayed = 0;
  int64_t burst_committed = 0;
  std::vector<int64_t> latencies_ns;  // burst, from the crash
};

Iteration RunIteration(const Args& args, int index, TraceTotals* traced,
                       Gate* gate) {
  Iteration it;
  const std::string where = "restart #" + std::to_string(index) + ": ";
  const std::string wal_dir =
      args.out_dir + "/wal-restart-" + std::to_string(index);
  if (!FreshDir(wal_dir)) {
    gate->Check(false, where + "cannot create " + wal_dir);
    return it;
  }

  // ---- Pre-crash phase (deterministic; its setup is the setup metric).
  const int64_t setup_begin = NowNs();
  Catalog catalog;
  if (!BuildCatalog(&catalog)) {
    gate->Check(false, where + "catalog failed to build");
    return it;
  }
  std::set<std::pair<int, int64_t>> committed_before;
  {
    Recorder recorder(kShards, false, kPreCrashProcesses);
    tpm::ShardedRuntime runtime(Options(wal_dir, tpm::TickMode::kLockstep));
    tpm::Status status = runtime.AddObserver(&recorder);
    if (status.ok()) status = catalog.world->RegisterAll(&runtime);
    if (status.ok()) status = runtime.Start();
    it.setup_s = 1e-9 * static_cast<double>(NowNs() - setup_begin);
    for (int i = 0; status.ok() && i < kPreCrashProcesses; ++i) {
      const int tenant = i % kTenants;
      const int shape = (i / kTenants) % 2 == 0 ? kOrder : kRefill;
      const int variant = (i * 37) % kVariants;
      tpm::Result<tpm::SubmitTicket> ticket =
          runtime.Submit(catalog.At(tenant, shape, variant));
      status = ticket.status();
    }
    if (status.ok()) status = runtime.Tick(kPreCrashTicks);
    // The crash: kill semantics, nothing drained.
    tpm::Status stopped = runtime.Stop();
    gate->Check(status.ok() && stopped.ok(),
                where + "pre-crash phase: " + status.ToString() + " / " +
                    stopped.ToString());
    for (int s = 0; s < kShards; ++s) {
      for (const Rec& rec : recorder.records(s)) {
        if (rec.kind == RecKind::kTerminated && rec.flag) {
          committed_before.insert({s, rec.pid});
        }
      }
      it.records_replayed +=
          static_cast<int64_t>(runtime.shard_log(s)->size());
    }
    it.committed_before = static_cast<int64_t>(committed_before.size());
    it.in_flight_at_crash = kPreCrashProcesses - recorder.terminated();
    if (traced != nullptr) {
      // The log figures are the pre-crash phase's: what it wrote, per
      // commit, is what the timed phase replays.
      traced->log.Add(&runtime, wal_dir);
      traced->log_commits += it.committed_before;
    }
  }
  uint64_t hash = 0xcbf29ce484222325ULL;
  std::vector<std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(wal_dir)) {
    files.push_back(entry.path().string());
  }
  std::sort(files.begin(), files.end());
  for (const std::string& file : files) hash = HashFile(file, hash);
  it.wal_hash = hash;

  // ---- Timed phase: a new runtime serves again.
  const bool trace = traced != nullptr;
  const int64_t crash_ns = NowNs();
  Recorder recorder(kShards, trace, 64 * kBurst);
  Registration registration;
  tpm::ShardedRuntime runtime(Options(wal_dir, tpm::TickMode::kFreeRunning));
  tpm::Status status = runtime.AddObserver(&recorder);
  if (status.ok()) {
    status = registration.Register(catalog.world.get(), &runtime, trace,
                                   trace ? 16 * kBurst : 0);
  }
  const int64_t start_begin = NowNs();
  if (status.ok()) status = runtime.Start();
  const int64_t recover_begin = NowNs();
  if (status.ok()) status = runtime.Recover(catalog.world->DefsByName());
  const int64_t recover_end = NowNs();
  it.start_s = 1e-9 * static_cast<double>(recover_begin - start_begin);
  it.recover_s = 1e-9 * static_cast<double>(recover_end - recover_begin);
  gate->Check(status.ok(), where + "Start/Recover: " + status.ToString());
  if (!status.ok()) {
    (void)runtime.Stop();
    return it;
  }
  registration.ResolveShards(runtime);

  InputRng rng(args.seed * 0x9E3779B97F4A7C15ULL + static_cast<uint64_t>(index));
  std::vector<Submission> subs(kBurst);
  std::vector<tpm::SubmitTicket> tickets(kBurst);
  int64_t accepted = 0;
  for (int i = 0; i < kBurst; ++i) {
    const int tenant = rng.Below(kTenants);
    const int shape = rng.Below(2) == 0 ? kOrder : kRefill;
    const tpm::ProcessDef* def =
        catalog.At(tenant, shape, rng.Below(kVariants));
    Submission& sub = subs[static_cast<size_t>(i)];
    sub.submit_start_ns = NowNs();
    sub.due_ns = sub.submit_start_ns;
    tpm::Result<tpm::SubmitTicket> ticket = runtime.Submit(def);
    sub.submit_end_ns = NowNs();
    sub.accepted = ticket.ok();
    if (ticket.ok()) {
      tickets[static_cast<size_t>(i)] = *ticket;
      ++accepted;
    }
    if (trace) traced->depth.MaybeSample(runtime, sub.submit_end_ns);
  }
  // Recovery itself terminates the in-flight pre-crash processes; the
  // burst's terminations come on top of those.
  const int64_t recovered_terminations = recorder.terminated();
  const bool finished = recorder.WaitTerminated(
      recovered_terminations + accepted, NowNs() + kBurstLimitNs);
  if (finished) {
    tpm::Status drained = runtime.Drain();
    gate->Check(drained.ok(), where + "Drain: " + drained.ToString());
  }
  tpm::Status stopped = runtime.Stop();
  gate->Check(stopped.ok(), where + "Stop: " + stopped.ToString());

  for (int i = 0; i < kBurst; ++i) {
    if (!subs[static_cast<size_t>(i)].accepted) continue;
    tpm::SubmitTicket& ticket = tickets[static_cast<size_t>(i)];
    const bool resolved = ticket.pid.wait_for(std::chrono::seconds(0)) ==
                          std::future_status::ready;
    gate->Check(resolved, where + "a ticket never resolved");
    if (!resolved) continue;
    tpm::Result<tpm::ProcessId> pid = ticket.Await();
    if (pid.ok()) {
      subs[static_cast<size_t>(i)].slices.emplace_back(ticket.shard,
                                                       pid->value());
    }
  }
  Outcomes outcomes(recorder, kShards);
  std::string join_error;
  const bool joined = JoinSlices(outcomes, kShards, &subs,
                         std::vector<int>(subs.size(), -1), &join_error);
  gate->Check(joined, where + "join: " + join_error);
  int64_t first_commit = 0;
  int64_t last_done = crash_ns;
  for (const Submission& sub : subs) {
    if (!sub.committed) continue;
    ++it.burst_committed;
    it.latencies_ns.push_back(sub.done_ns - crash_ns);
    first_commit = first_commit == 0 ? sub.done_ns
                                     : std::min(first_commit, sub.done_ns);
    last_done = std::max(last_done, sub.done_ns);
  }
  it.restart_s =
      first_commit == 0 ? 0 : 1e-9 * static_cast<double>(first_commit - crash_ns);
  it.burst_s = 1e-9 * static_cast<double>(last_done - crash_ns);

  // Correctness gate: every process observed committed before the crash is
  // committed after recovery, and the ADT invariants hold.
  for (const auto& [shard, pid] : committed_before) {
    gate->Check(runtime.shard_scheduler(shard)->OutcomeOf(tpm::ProcessId(pid)) ==
                    tpm::ProcessOutcome::kCommitted,
                where + "P" + std::to_string(pid) + " on shard " +
                    std::to_string(shard) +
                    " committed before the crash but not after recovery");
  }
  tpm::Status adt = catalog.world->CheckAdtInvariants();
  gate->Check(adt.ok(), where + "ADT invariants: " + adt.ToString());
  gate->Check(accepted == kBurst, where + "a new submission was refused");
  int64_t failed = 0;
  for (const Submission& sub : subs) failed += sub.committed ? 0 : 1;
  gate->Check(it.burst_committed + failed == kBurst,
              where + "committed + failed != attempted");

  if (trace) {
    // The checks Recover ran internally, timed from outside on what it
    // verified: each shard's history up to the first event of a process
    // submitted after Recover (those carry the highest pids).
    std::vector<int64_t> first_new_pid(kShards, INT64_MAX);
    for (const Submission& sub : subs) {
      for (const auto& [shard, pid] : sub.slices) {
        first_new_pid[static_cast<size_t>(shard)] =
            std::min(first_new_pid[static_cast<size_t>(shard)], pid);
      }
    }
    std::vector<tpm::ProcessSchedule> recovered(kShards);
    for (int s = 0; s < kShards; ++s) {
      const tpm::ProcessSchedule& history =
          runtime.shard_scheduler(s)->history();
      const int64_t first_new = first_new_pid[static_cast<size_t>(s)];
      tpm::ProcessSchedule& prefix = recovered[static_cast<size_t>(s)];
      tpm::Status copied;
      for (const auto& [pid, def] : history.processes()) {
        if (copied.ok() && pid.value() < first_new) {
          copied = prefix.AddProcess(pid, def);
        }
      }
      for (const tpm::ScheduleEvent& event : history.events()) {
        if (!copied.ok() || event.process.value() >= first_new) break;
        copied = prefix.Append(event, /*enforce_legal=*/false);
      }
      gate->Check(copied.ok(), where + "copying the recovered history: " +
                                   copied.ToString());
    }
    // Recover verifies the shards concurrently, one per worker, so the
    // layer's wall time is the slowest shard's.
    for (int s = 0; s < kShards; ++s) {
      const int64_t verify_begin = NowNs();
      const tpm::ConflictSpec& spec =
          runtime.shard_scheduler(s)->conflict_spec();
      tpm::Result<tpm::PredOutcome> pred =
          tpm::AnalyzePRED(recovered[static_cast<size_t>(s)], spec);
      gate->Check(pred.ok() && pred->prefix_reducible,
                  where + "recovered history of shard " + std::to_string(s) +
                      " is not PRED");
      tpm::ProcRecOutcome rec = tpm::AnalyzeProcessRecoverability(
          tpm::CommittedProjection(recovered[static_cast<size_t>(s)]), spec);
      gate->Check(rec.process_recoverable,
                  where + "recovered committed projection of shard " +
                      std::to_string(s) + " is not Proc-REC");
      it.verify_s = std::max(
          it.verify_s, 1e-9 * static_cast<double>(NowNs() - verify_begin));
    }
    traced->stats.Add(runtime.Stats());
    traced->stats_commits += it.burst_committed;
    traced->Assemble(recorder, registration, kShards, subs,
                     "restart/" + std::to_string(index));
  }
  std::error_code ec;
  std::filesystem::remove_all(wal_dir, ec);
  return it;
}

}  // namespace

void RunRestart(const Args& args, Report* report, Gate* gate) {
  TraceTotals totals;
  TraceTotals* traced = args.trace ? &totals : nullptr;
  if (traced != nullptr) {
    totals.OpenDump(args);
    totals.depth.period_ns = 0;  // sample on every new submission
  }
  std::vector<Iteration> runs;
  const int64_t end = NowNs() + static_cast<int64_t>(1e9 * args.seconds);
  while (static_cast<int>(runs.size()) < kMinIterations || NowNs() < end) {
    runs.push_back(RunIteration(args, static_cast<int>(runs.size()), traced,
                                gate));
    if (!gate->ok()) return;
    ReleaseFreedMemory();
  }

  std::vector<double> setups, starts, recovers, verifies, restarts;
  std::vector<double> means, p50s, p99s, throughputs;
  int64_t burst_commits = 0;
  for (Iteration& it : runs) {
    gate->Check(it.wal_hash == runs[0].wal_hash,
                "restart: the pre-crash WAL differs between iterations");
    setups.push_back(it.setup_s);
    starts.push_back(it.start_s);
    recovers.push_back(it.recover_s);
    verifies.push_back(it.verify_s);
    restarts.push_back(it.restart_s);
    LatencySet latency;
    latency.ns = it.latencies_ns;
    latency.misses = kBurst - it.burst_committed;
    latency.miss_ns = kBurstLimitNs;
    means.push_back(1e-6 * latency.MeanNs());
    p50s.push_back(1e-6 * latency.PercentileNs(0.50));
    p99s.push_back(1e-6 * latency.PercentileNs(0.99));
    throughputs.push_back(
        it.burst_s > 0 ? static_cast<double>(it.burst_committed) / it.burst_s
                       : 0.0);
    report->attempted += kBurst;
    report->failed += kBurst - it.burst_committed;
    burst_commits += it.burst_committed;
  }
  const Iteration& first = runs[0];
  gate->Check(first.committed_before > 0 && first.in_flight_at_crash > 0,
              "restart: the crash must leave committed and in-flight "
              "processes (committed " + std::to_string(first.committed_before) +
                  ", in flight " + std::to_string(first.in_flight_at_crash) +
                  ")");

  report->e2e.Add("setup_s", Median(setups), "s");
  report->e2e.Add("peak_rss_mb", PeakRssMb(), "MB");
  // Per-iteration figures, then the median over iterations.
  report->e2e.Add("latency_mean_ms", Median(means), "ms");
  report->e2e.Add("latency_p99_ms", Median(p99s), "ms");
  report->e2e.Add("throughput_per_s", Median(throughputs), "1/s");
  report->e2e.Add("completed_share",
                  report->attempted > 0
                      ? static_cast<double>(burst_commits) /
                            static_cast<double>(report->attempted)
                      : 0.0,
                  "ratio");
  char hash[24];
  std::snprintf(hash, sizeof(hash), "%016llx",
                static_cast<unsigned long long>(first.wal_hash));
  report->details.emplace_back("restart_s", JsonNumber(Median(restarts)));
  report->details.emplace_back("latency_p50_ms", JsonNumber(Median(p50s)));
  report->details.emplace_back("restart_s_all", JsonArray(restarts));
  report->details.emplace_back("iterations",
                               JsonNumber(static_cast<double>(runs.size())));
  report->details.emplace_back("pre_crash_wal_fnv1a", JsonString(hash));
  report->details.emplace_back(
      "pre_crash_committed", JsonNumber(static_cast<double>(first.committed_before)));
  report->details.emplace_back(
      "pre_crash_in_flight",
      JsonNumber(static_cast<double>(first.in_flight_at_crash)));
  report->details.emplace_back(
      "pre_crash_wal_records",
      JsonNumber(static_cast<double>(first.records_replayed)));
  report->details.emplace_back("start_s", JsonNumber(Median(starts)));
  report->details.emplace_back("recover_s", JsonNumber(Median(recovers)));

  if (traced != nullptr) {
    LayerValues values;
    totals.AddTo(&values);
    values["runtime.start_s"] = Median(starts);
    values["runtime.recover_s"] = Median(recovers);
    values["core.verify_s"] = Median(verifies);
    values["core.replay_s"] = Median(recovers) - Median(verifies);
    values["log.records_replayed"] = static_cast<double>(first.records_replayed);
    EmitLayers(values, &report->layers, gate);
  }
}

}  // namespace perfbench
