// escrow_backlog: the commuting-escrow hot spot with a deep backlog. Two
// shards, each owning one tenant with one hot escrow account; every
// process is the two-activity commuting pay process (reserve: inc with a
// dec compensation, then settle: pivot inc). The in-memory WAL (the
// runtime default) appends every record without an fsync, and
// reclaim_terminated is on. One producer keeps a closed-loop window of
// 1024 processes in flight: it sends the next process when one terminates.
// The figures are medians over segments that each run on a fresh runtime.

#include <algorithm>
#include <fstream>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "harness.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr int kShards = 2;
constexpr int kTenants = 2;
/// Processes kept in flight by the closed loop.
constexpr int64_t kWindow = 1024;
/// The run is a series of segments, each on a fresh runtime, until
/// --seconds have passed (at least kMinSegments). A segment submits
/// kSegmentProcesses processes (or stops at kSegmentMaxNs); the figures
/// are medians over the segments.
constexpr int kMinSegments = 3;
constexpr int64_t kSegmentProcesses = 40000;
constexpr int64_t kSegmentMaxNs = 4'000'000'000;
/// Leading share of a segment's submissions excluded as ramp-up.
constexpr double kWarmupShare = 0.1;
/// How long the loop may take to drain its window after it stops sending.
constexpr int64_t kDrainLimitNs = 20'000'000'000;
constexpr int64_t kInitialBalance = 1000;
const char* const kAccount = "acct";

/// One configured and started runtime over a fresh two-tenant world.
struct Instance {
  std::unique_ptr<tpm::ShardedWorld> world;
  std::vector<std::unique_ptr<tpm::ProcessDef>> pay;  // one per tenant
  std::unique_ptr<Recorder> recorder;
  std::unique_ptr<Registration> registration;
  std::unique_ptr<tpm::ShardedRuntime> runtime;
  double setup_s = 0;
  double start_s = 0;
};

tpm::Status Build(bool traced, size_t reserve, Instance* inst) {
  const int64_t setup_begin = NowNs();
  inst->world = std::make_unique<tpm::ShardedWorld>(tpm::ShardedWorldOptions{
      .seed = 1, .num_tenants = kTenants, .escrow_initial = kInitialBalance});
  for (int t = 0; t < kTenants; ++t) {
    auto def = std::make_unique<tpm::ProcessDef>("pay_t" + std::to_string(t));
    const tpm::ActivityId reserve_act = def->AddActivity(
        "reserve", tpm::ActivityKind::kCompensatable,
        inst->world->EscrowInc(t, kAccount), inst->world->EscrowDec(t, kAccount));
    const tpm::ActivityId settle = def->AddActivity(
        "settle", tpm::ActivityKind::kPivot, inst->world->EscrowInc(t, kAccount));
    TPM_RETURN_IF_ERROR(def->AddEdge(reserve_act, settle));
    TPM_RETURN_IF_ERROR(def->Validate());
    inst->pay.push_back(std::move(def));
  }
  tpm::ShardedRuntimeOptions options;
  options.num_shards = kShards;
  options.scheduler.reclaim_terminated = true;
  inst->recorder = std::make_unique<Recorder>(kShards, traced, reserve);
  inst->registration = std::make_unique<Registration>();
  inst->runtime = std::make_unique<tpm::ShardedRuntime>(options);
  TPM_RETURN_IF_ERROR(inst->runtime->AddObserver(inst->recorder.get()));
  TPM_RETURN_IF_ERROR(inst->registration->Register(
      inst->world.get(), inst->runtime.get(), traced, traced ? reserve : 0));
  const int64_t start_begin = NowNs();
  TPM_RETURN_IF_ERROR(inst->runtime->Start());
  const int64_t end = NowNs();
  inst->start_s = 1e-9 * static_cast<double>(end - start_begin);
  inst->setup_s = 1e-9 * static_cast<double>(end - setup_begin);
  inst->registration->ResolveShards(*inst->runtime);
  return tpm::Status::OK();
}

/// What one segment measured.
struct Segment {
  double setup_s = 0;
  double start_s = 0;
  double throughput = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  LatencySet latency;
  int64_t attempted = 0;
  int64_t committed = 0;
};

Segment RunSegment(const Args& args, int index, TraceTotals* traced,
                   Gate* gate) {
  Segment seg;
  const std::string where = "escrow_backlog #" + std::to_string(index) + ": ";
  const bool trace = traced != nullptr;
  const size_t reserve = static_cast<size_t>(kSegmentProcesses);
  Instance inst;
  tpm::Status built = Build(trace, trace ? 3 * reserve : reserve, &inst);
  if (!built.ok()) {
    gate->Check(false, where + "setup: " + built.ToString());
    if (inst.runtime != nullptr) (void)inst.runtime->Stop();
    return seg;
  }
  seg.setup_s = inst.setup_s;
  seg.start_s = inst.start_s;
  tpm::ShardedRuntime& runtime = *inst.runtime;
  Recorder& recorder = *inst.recorder;

  std::vector<Submission> subs;
  std::vector<tpm::SubmitTicket> tickets;
  std::vector<int> tenant_of;
  subs.reserve(reserve);
  tickets.reserve(reserve);
  tenant_of.reserve(reserve);
  InputRng rng(args.seed * 0x9E3779B97F4A7C15ULL +
               static_cast<uint64_t>(index));

  const int64_t begin = NowNs();
  const int64_t end = begin + kSegmentMaxNs;
  int64_t in_system = 0;  // accepted submissions
  while (static_cast<int64_t>(subs.size()) < kSegmentProcesses) {
    if (in_system - recorder.terminated() >= kWindow) {
      if (NowNs() >= end) break;
      recorder.WaitTerminated(in_system - kWindow + 1, end);
      continue;
    }
    const int tenant = rng.Below(kTenants);
    Submission sub;
    sub.submit_start_ns = NowNs();
    sub.due_ns = sub.submit_start_ns;  // closed loop: sent when a slot frees
    tpm::Result<tpm::SubmitTicket> ticket =
        runtime.Submit(inst.pay[static_cast<size_t>(tenant)].get());
    sub.submit_end_ns = NowNs();
    sub.accepted = ticket.ok();
    tickets.push_back(ticket.ok() ? *ticket : tpm::SubmitTicket{});
    subs.push_back(sub);
    tenant_of.push_back(tenant);
    if (ticket.ok()) ++in_system;
    if (trace) traced->depth.MaybeSample(runtime, sub.submit_end_ns);
  }
  const int64_t last_submit = NowNs();
  const int64_t hard_stop = last_submit + kDrainLimitNs;
  const bool finished = recorder.WaitTerminated(in_system, hard_stop);
  if (finished) {
    tpm::Status drained = runtime.Drain();
    gate->Check(drained.ok(), where + "Drain: " + drained.ToString());
  }
  tpm::Status stopped = runtime.Stop();
  gate->Check(stopped.ok(), where + "Stop: " + stopped.ToString());

  // FIFO admission: per shard, pids rise in submission order.
  std::vector<int64_t> last_pid(kShards, 0);
  bool fifo = true;
  for (size_t i = 0; i < subs.size(); ++i) {
    if (!subs[i].accepted) continue;
    const bool resolved = tickets[i].pid.wait_for(std::chrono::seconds(0)) ==
                          std::future_status::ready;
    gate->Check(resolved, where + "a ticket never resolved");
    if (!resolved) continue;
    tpm::Result<tpm::ProcessId> pid = tickets[i].Await();
    if (!pid.ok()) continue;
    const int shard = tickets[i].shard;
    fifo = fifo && pid->value() > last_pid[static_cast<size_t>(shard)];
    last_pid[static_cast<size_t>(shard)] = pid->value();
    subs[i].slices.emplace_back(shard, pid->value());
  }
  gate->Check(fifo, where + "pids do not rise per shard (FIFO)");
  Outcomes outcomes(recorder, kShards);
  std::string join_error;
  const bool joined = JoinSlices(outcomes, kShards, &subs,
                                 std::vector<int>(subs.size(), -1),
                                 &join_error);
  gate->Check(joined, where + "join: " + join_error);

  // Steady state: from the end of the ramp-up to the last submission, while
  // the window is full.
  const size_t warm = static_cast<size_t>(kWarmupShare *
                                          static_cast<double>(subs.size()));
  const int64_t steady_from =
      warm < subs.size() ? subs[warm].submit_start_ns : last_submit;
  LatencySet& latency = seg.latency;
  latency.miss_ns = hard_stop - begin;
  std::vector<int64_t> committed_by_tenant(kTenants, 0);
  int64_t steady_commits = 0;
  for (size_t i = 0; i < subs.size(); ++i) {
    const Submission& sub = subs[i];
    ++seg.attempted;
    if (sub.committed) {
      ++seg.committed;
      ++committed_by_tenant[static_cast<size_t>(tenant_of[i])];
      if (sub.done_ns >= steady_from && sub.done_ns <= last_submit) {
        ++steady_commits;
      }
    }
    if (i < warm) continue;
    if (sub.committed) {
      latency.ns.push_back(sub.done_ns - sub.submit_start_ns);
    } else {
      ++latency.misses;
    }
  }
  seg.p50_ms = 1e-6 * latency.PercentileNs(0.50);
  seg.p99_ms = 1e-6 * latency.PercentileNs(0.99);
  if (last_submit > steady_from) {
    seg.throughput = static_cast<double>(steady_commits) /
                     (1e-9 * static_cast<double>(last_submit - steady_from));
  }

  // Correctness gate.
  int64_t refused = 0, unterminated = 0, aborted = 0;
  for (const Submission& sub : subs) {
    if (sub.slices.empty()) {
      ++refused;
    } else if (sub.done_ns == 0) {
      ++unterminated;
    } else if (!sub.committed) {
      ++aborted;
    }
  }
  gate->Check(seg.committed + refused + unterminated + aborted == seg.attempted,
              where + "committed + failed != attempted");
  tpm::Status adt = inst.world->CheckAdtInvariants();
  gate->Check(adt.ok(), where + "ADT invariants: " + adt.ToString());
  for (int t = 0; t < kTenants; ++t) {
    std::string account = "t";
    account += std::to_string(t);
    account += "/";
    account += kAccount;
    const int64_t balance = inst.world->escrow(t)->BalanceOf(account);
    gate->Check(balance == kInitialBalance + 2 * committed_by_tenant[t],
                where + "tenant " + std::to_string(t) + " balance " +
                    std::to_string(balance) +
                    " != initial + committed increments");
  }
  const tpm::RuntimeStats stats = runtime.Stats();
  gate->Check(stats.merged.processes_committed == seg.committed,
              where + "Stats() commits disagree with the observer");

  if (trace) {
    traced->stats.Add(stats);
    traced->log.Add(&runtime, "");
    traced->stats_commits += seg.committed;
    traced->log_commits += seg.committed;
    traced->Assemble(recorder, *inst.registration, kShards, subs,
                     "escrow_backlog/" + std::to_string(index));
  }
  return seg;
}

}  // namespace

void RunEscrowBacklog(const Args& args, Report* report, Gate* gate) {
  TraceTotals totals;
  TraceTotals* traced = args.trace ? &totals : nullptr;
  if (traced != nullptr) totals.OpenDump(args);
  const int64_t run_end = NowNs() + static_cast<int64_t>(1e9 * args.seconds);
  std::vector<Segment> segments;
  while (static_cast<int>(segments.size()) < kMinSegments ||
         NowNs() < run_end) {
    segments.push_back(
        RunSegment(args, static_cast<int>(segments.size()), traced, gate));
    if (!gate->ok()) return;
    ReleaseFreedMemory();
  }

  std::vector<double> setups, starts, throughputs, p50s, p99s;
  LatencySet pooled;
  int64_t committed = 0;
  for (const Segment& seg : segments) {
    pooled.ns.insert(pooled.ns.end(), seg.latency.ns.begin(),
                     seg.latency.ns.end());
    pooled.misses += seg.latency.misses;
    pooled.miss_ns = std::max(pooled.miss_ns, seg.latency.miss_ns);
    setups.push_back(seg.setup_s);
    starts.push_back(seg.start_s);
    throughputs.push_back(seg.throughput);
    p50s.push_back(seg.p50_ms);
    p99s.push_back(seg.p99_ms);
    report->attempted += seg.attempted;
    report->failed += seg.attempted - seg.committed;
    committed += seg.committed;
  }
  report->e2e.Add("setup_s", Median(setups), "s");
  report->e2e.Add("peak_rss_mb", PeakRssMb(), "MB");
  // The closed loop's latencies are bimodal (pass cohorts: about half
  // finish within a few ms, the rest wait out a long pass), and the median
  // sits in the gap between the modes, so it jumps from run to run. The
  // mean of the pooled steady-state samples is steady (Little's law ties it
  // to the window and the throughput); the median stays in the details.
  // p99 is the median over segments of each segment's p99, so one slow
  // segment does not set it.
  report->e2e.Add("latency_mean_ms", 1e-6 * pooled.MeanNs(), "ms");
  report->e2e.Add("latency_p99_ms", Median(p99s), "ms");
  report->e2e.Add("throughput_per_s", Median(throughputs), "1/s");
  report->e2e.Add("completed_share",
                  report->attempted > 0
                      ? static_cast<double>(committed) /
                            static_cast<double>(report->attempted)
                      : 0.0,
                  "ratio");
  report->details.emplace_back("window", JsonNumber(kWindow));
  report->details.emplace_back("segments",
                               JsonNumber(static_cast<double>(segments.size())));
  report->details.emplace_back("throughput_per_s_all", JsonArray(throughputs));
  report->details.emplace_back("latency_p50_ms",
                               JsonNumber(1e-6 * pooled.PercentileNs(0.50)));
  report->details.emplace_back("latency_p50_ms_all", JsonArray(p50s));
  report->details.emplace_back("latency_p99_ms_all", JsonArray(p99s));
  report->details.emplace_back("setup_s_all", JsonArray(setups));

  if (traced != nullptr) {
    LayerValues values;
    totals.AddTo(&values);
    values["runtime.start_s"] = Median(starts);
    EmitLayers(values, &report->layers, gate);
  }
}

}  // namespace perfbench
