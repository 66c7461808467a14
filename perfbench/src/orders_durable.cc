// orders_durable: the durable end-to-end path. Two shards, four
// ShardedWorld tenants (two per shard), the file WAL with one fsync per
// synchronous append, reclaim_terminated on. One producer thread sends
// processes drawn by seed from a fixed pool of order and refill
// definitions; 5% of the processes span tenants on different shards.
// Open-loop rungs at fixed rates come first, then a closed-loop capacity
// rung, then a ladder of fixed rates that stops at the first rung failing
// the limits. Every rung runs on a fresh runtime and WAL directory.

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "harness.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr int kShards = 2;
constexpr int kTenants = 4;
constexpr int kVariants = 4;
/// Spanning processes per thousand.
constexpr int kSpanPerMille = 50;
/// Limits a rung must meet to count as sustained.
constexpr double kP99LimitMs = 20.0;
constexpr double kMaxFailedShare = 0.01;
/// "No growing queue": at the end of the send window at most
/// rate x kBacklogLimitS processes may still be in flight.
constexpr double kBacklogLimitS = 0.020;
/// Latency percentiles are taken per window of due times, then the median
/// over the windows is reported.
constexpr int64_t kWindowNs = 500'000'000;
/// Hard stop of every rung, after its send window ends.
constexpr int64_t kGraceNs = 500'000'000;
/// Fixed rates (per second), each sent for kFixedShare x --seconds in
/// total; the end-to-end latency is the second one's.
constexpr int kFixedRates[] = {200, 400};
constexpr double kFixedShare = 0.25;
/// Rounds of the fixed loads (both fixed rates and the capacity loop).
constexpr int kRounds = 2;
/// The closed-loop capacity rung: kCapacityWindow slices kept in flight
/// for kCapacityShare x --seconds in total.
constexpr int kCapacityWindow = 16;
constexpr double kCapacityShare = 0.2;
/// The search ladder, each rung sent for kLadderShare x --seconds.
constexpr int kLadder[] = {600, 800, 1000, 1250, 1500, 1750, 2000, 2500};
constexpr double kLadderShare = 0.08;

/// A rung's load: an open-loop rate, or (window > 0) a closed loop that
/// keeps `window` slices in flight.
struct Load {
  int rate = 0;
  int window = 0;

  std::string Label() const {
    std::string label = window == 0 ? "r" : "w";
    label += std::to_string(window == 0 ? rate : window);
    return label;
  }
};

struct Input {
  const tpm::ProcessDef* def = nullptr;
  bool spanning = false;
  int dest_shard = -1;
};

struct Rung {
  int rate = 0;
  int window = 0;
  bool fixed = false;
  double send_s = 0;
  double setup_s = 0;
  double start_s = 0;
  int64_t attempted = 0;
  int64_t committed = 0;
  int64_t aborted = 0;
  int64_t refused = 0;
  int64_t unterminated = 0;
  int64_t spans = 0;
  int64_t in_flight_at_end = 0;
  bool killed = false;
  bool pass = false;
  double commit_rate = 0;
  tpm::SchedulerStats stats;
  LatencySet latency;
  /// The same samples split by due time into kWindowNs windows.
  std::vector<LatencySet> windows;
  /// Closed loop: commits per second in each window of completion times
  /// after the first (ramp-up) that ends before sending stops.
  std::vector<double> rate_windows;
  std::vector<double> send_lag_us;

  /// Median over the windows of each window's percentile q, in ms: the
  /// rung's reported latency, steady against a single slow stretch.
  double WindowedMs(double q) {
    std::vector<double> per_window;
    for (LatencySet& w : windows) {
      if (w.count() > 0) per_window.push_back(1e-6 * w.PercentileNs(q));
    }
    return Median(per_window);
  }

  /// Median over the windows of each window's mean latency, in ms.
  double WindowedMeanMs() const {
    std::vector<double> per_window;
    for (const LatencySet& w : windows) {
      if (w.count() > 0) per_window.push_back(1e-6 * w.MeanNs());
    }
    return Median(per_window);
  }

  int64_t failed() const { return aborted + refused + unterminated; }
  double failed_share() const {
    return attempted > 0 ? static_cast<double>(failed()) /
                               static_cast<double>(attempted)
                         : 1.0;
  }
};

std::string Name(const char* kind, int tenant, int variant) {
  return std::string(kind) + "_t" + std::to_string(tenant) + "_v" +
         std::to_string(variant);
}

Rung RunRung(const Args& args, int index, Load load, double send_s,
             TraceTotals* traced, Gate* gate) {
  Rung rung;
  rung.rate = load.rate;
  rung.window = load.window;
  rung.send_s = send_s;
  const std::string where = "orders_durable " + load.Label() + ": ";
  const std::string wal_dir =
      args.out_dir + "/wal-orders-" + std::to_string(index);
  if (!FreshDir(wal_dir)) {
    gate->Check(false, where + "cannot create " + wal_dir);
    return rung;
  }
  // Open loop: exactly this many; closed loop: a sizing estimate.
  const int64_t n = std::llround((load.window == 0 ? load.rate : 2000) * send_s);

  const int64_t setup_begin = NowNs();
  tpm::ShardedWorld world({.seed = args.seed,
                           .num_tenants = kTenants,
                           .escrow_initial = 1'000'000,
                           .queue_initial_tokens = 4096});
  // The fixed pool: 4 variants of the order and refill shapes per tenant,
  // and one spanning shape per ordered tenant pair.
  std::vector<const tpm::ProcessDef*> local[kTenants];
  const tpm::ProcessDef* span[kTenants][kTenants] = {};
  bool pool_ok = true;
  for (int t = 0; t < kTenants; ++t) {
    for (int v = 0; v < kVariants; ++v) {
      local[t].push_back(world.MakeOrderProcess(t, Name("order", t, v), v));
    }
    for (int v = 0; v < kVariants; ++v) {
      local[t].push_back(world.MakeRefillProcess(t, Name("refill", t, v), v));
    }
    for (const tpm::ProcessDef* def : local[t]) pool_ok &= def != nullptr;
  }
  for (int a = 0; a < kTenants; ++a) {
    for (int b = 0; b < kTenants; ++b) {
      if (a == b) continue;
      span[a][b] = world.MakeSpanningProcess(
          "span_t" + std::to_string(a) + "_t" + std::to_string(b), a, b);
      pool_ok &= span[a][b] != nullptr;
    }
  }
  gate->Check(pool_ok, where + "process pool failed to build");

  tpm::ShardedRuntimeOptions options;
  options.num_shards = kShards;
  options.log_mode = tpm::ShardLogMode::kFile;
  options.wal_dir = wal_dir;
  options.scheduler.reclaim_terminated = true;
  const bool trace = traced != nullptr;
  Recorder recorder(kShards, trace,
                    static_cast<size_t>(trace ? 8 * n : 2 * n) / kShards + 64);
  Registration registration;
  tpm::ShardedRuntime runtime(options);
  tpm::Status status = runtime.AddObserver(&recorder);
  if (status.ok()) {
    status = registration.Register(&world, &runtime, trace,
                                   trace ? static_cast<size_t>(n) : 0);
  }
  const int64_t start_begin = NowNs();
  if (status.ok()) status = runtime.Start();
  const int64_t setup_end = NowNs();
  rung.start_s = 1e-9 * static_cast<double>(setup_end - start_begin);
  rung.setup_s = 1e-9 * static_cast<double>(setup_end - setup_begin);
  if (!pool_ok || !status.ok()) {
    gate->Check(status.ok(), where + "setup: " + status.ToString());
    (void)runtime.Stop();
    return rung;
  }
  registration.ResolveShards(runtime);

  int shard_of[kTenants];
  std::vector<int> tenants_on[kShards];
  for (int t = 0; t < kTenants; ++t) {
    shard_of[t] =
        runtime.ShardOfSubsystem(registration.Registered(world.kv(t)));
    if (shard_of[t] >= 0 && shard_of[t] < kShards) {
      tenants_on[shard_of[t]].push_back(t);
    }
  }
  if (tenants_on[0].size() != 2 || tenants_on[1].size() != 2) {
    gate->Check(false, where + "the partition does not put two tenants on "
                               "each shard");
    (void)runtime.Stop();
    return rung;
  }

  // Inputs are drawn by seed from the fixed pool: 5% spanning processes
  // between tenants on different shards, the rest order or refill.
  InputRng rng(args.seed * 0x9E3779B97F4A7C15ULL + static_cast<uint64_t>(index));
  auto draw = [&]() {
    Input input;
    if (rng.Below(1000) < kSpanPerMille) {
      const int a = rng.Below(kTenants);
      const std::vector<int>& far = tenants_on[1 - shard_of[a]];
      const int b = far[static_cast<size_t>(rng.Below(2))];
      input = {span[a][b], true, shard_of[b]};
    } else {
      input.def = local[rng.Below(kTenants)]
                       [static_cast<size_t>(rng.Below(2 * kVariants))];
    }
    return input;
  };

  std::vector<Submission> subs;
  std::vector<tpm::SubmitTicket> tickets;
  std::vector<int> dest;
  subs.reserve(static_cast<size_t>(n));
  tickets.reserve(static_cast<size_t>(n));
  dest.reserve(static_cast<size_t>(n));
  rung.send_lag_us.reserve(static_cast<size_t>(n));
  int64_t accepted_pinned = 0;
  int64_t accepted_spans = 0;
  int64_t expected_slices = 0;
  const int64_t first_due = NowNs() + 1'000'000;
  const int64_t send_until =
      first_due + static_cast<int64_t>(1e9 * send_s);
  for (int64_t i = 0;; ++i) {
    const Input input = draw();
    Submission sub;
    if (load.window == 0) {
      if (i >= n) break;
      sub.due_ns = first_due + static_cast<int64_t>(static_cast<double>(i) *
                                                    1e9 / load.rate);
      SleepUntilNs(sub.due_ns);
    } else {
      // Closed loop: send when fewer than `window` slices are in flight.
      while (expected_slices - recorder.terminated() >= load.window &&
             NowNs() < send_until) {
        recorder.WaitTerminated(expected_slices - load.window + 1,
                                send_until);
      }
      sub.due_ns = std::max(first_due, NowNs());
      if (sub.due_ns >= send_until) break;
    }
    sub.spanning = input.spanning;
    sub.submit_start_ns = NowNs();
    tpm::Result<tpm::SubmitTicket> ticket = runtime.Submit(input.def);
    sub.submit_end_ns = NowNs();
    if (ticket.ok()) {
      sub.accepted = true;
      sub.gsn = ticket->gsn;
      ++(sub.spanning ? accepted_spans : accepted_pinned);
      expected_slices += sub.spanning ? 2 : 1;
    }
    rung.send_lag_us.push_back(
        1e-3 * static_cast<double>(sub.submit_start_ns - sub.due_ns));
    subs.push_back(sub);
    tickets.push_back(ticket.ok() ? *ticket : tpm::SubmitTicket{});
    dest.push_back(input.dest_shard);
    if (trace) traced->depth.MaybeSample(runtime, sub.submit_end_ns);
  }
  const int64_t send_end = NowNs();
  rung.in_flight_at_end = accepted_pinned + accepted_spans -
                          recorder.terminated();
  const int64_t hard_stop = send_end + kGraceNs;
  // Done when every pinned process and every launched slice terminated and
  // every span is decided (Stats() is published at the end of every pass).
  bool finished = false;
  while (!finished && NowNs() < hard_stop) {
    const tpm::RuntimeStats now = runtime.Stats();
    finished = now.spans_committed + now.spans_aborted == accepted_spans &&
               now.merged.processes_committed + now.merged.processes_aborted ==
                   accepted_pinned + now.merged.spanning_admitted &&
               recorder.terminated() ==
                   accepted_pinned + now.merged.spanning_admitted;
    if (!finished) std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  rung.killed = !finished;
  if (finished) {
    status = runtime.Drain();
    gate->Check(status.ok(), where + "Drain: " + status.ToString());
  }
  // Kill semantics when the rung did not finish in time.
  status = runtime.Stop();
  gate->Check(status.ok(), where + "Stop: " + status.ToString());

  for (size_t i = 0; i < subs.size(); ++i) {
    if (!subs[i].accepted) continue;
    const bool resolved = tickets[i].pid.wait_for(std::chrono::seconds(0)) ==
                          std::future_status::ready;
    gate->Check(resolved, where + "a ticket never resolved");
    if (!resolved) continue;
    tpm::Result<tpm::ProcessId> pid = tickets[i].Await();
    if (pid.ok()) subs[i].slices.emplace_back(tickets[i].shard, pid->value());
  }
  Outcomes outcomes(recorder, kShards);
  std::string join_error;
  const bool joined = JoinSlices(outcomes, kShards, &subs, dest, &join_error);
  if (!rung.killed) gate->Check(joined, where + "span join: " + join_error);

  int64_t spans_committed = 0;
  for (Submission& sub : subs) {
    if (!sub.spanning || !sub.accepted) continue;
    ++rung.spans;
    const tpm::SpanOutcome fate = runtime.SpanningOutcome(sub.gsn);
    if (!rung.killed) {
      gate->Check(fate == tpm::SpanOutcome::kCommitted ||
                      fate == tpm::SpanOutcome::kAborted,
                  where + "a spanning process never decided");
      gate->Check(sub.committed == (fate == tpm::SpanOutcome::kCommitted),
                  where + "span decision disagrees with its slices");
    }
    sub.committed = sub.committed && fate == tpm::SpanOutcome::kCommitted;
    if (sub.committed) ++spans_committed;
  }

  int64_t last_done = first_due;
  const int64_t miss_ns = hard_stop - first_due;
  for (const Submission& sub : subs) {
    ++rung.attempted;
    const size_t w = static_cast<size_t>((sub.due_ns - first_due) / kWindowNs);
    if (w >= rung.windows.size()) rung.windows.resize(w + 1);
    LatencySet& window = rung.windows[w];
    window.miss_ns = miss_ns;
    if (sub.committed) {
      window.ns.push_back(sub.done_ns - sub.due_ns);
    } else {
      ++window.misses;
    }
    if (sub.slices.empty()) {
      ++rung.refused;
    } else if (sub.done_ns == 0) {
      ++rung.unterminated;
    } else if (sub.committed) {
      ++rung.committed;
      rung.latency.ns.push_back(sub.done_ns - sub.due_ns);
      last_done = std::max(last_done, sub.done_ns);
    } else {
      ++rung.aborted;
    }
  }
  rung.latency.misses = rung.attempted - rung.committed;
  rung.latency.miss_ns = miss_ns;
  rung.commit_rate = static_cast<double>(rung.committed) /
                     (1e-9 * static_cast<double>(last_done - first_due));
  if (load.window > 0) {
    const size_t windows = static_cast<size_t>(
        (send_until - first_due) / kWindowNs);
    std::vector<double> per_window(windows, 0.0);
    for (const Submission& sub : subs) {
      if (!sub.committed) continue;
      const size_t w = static_cast<size_t>((sub.done_ns - first_due) /
                                           kWindowNs);
      if (w < windows) per_window[w] += 1e9 / kWindowNs;
    }
    if (windows > 1) {
      rung.rate_windows.assign(per_window.begin() + 1, per_window.end());
      rung.commit_rate = Median(rung.rate_windows);
    } else {
      rung.rate_windows.push_back(rung.commit_rate);  // too short to split
    }
  }


  // Correctness gate.
  tpm::Status adt = world.CheckAdtInvariants();
  gate->Check(adt.ok(), where + "ADT invariants: " + adt.ToString());
  gate->Check(rung.committed + rung.failed() == rung.attempted,
              where + "committed + failed != attempted");
  const tpm::RuntimeStats stats = runtime.Stats();
  rung.stats = stats.merged;
  gate->Check(stats.merged.processes_committed +
                      stats.merged.processes_aborted ==
                  recorder.terminated(),
              where + "Stats() terminal counts disagree with the observer");
  if (!rung.killed) {
    gate->Check(stats.spans_committed == spans_committed,
                where + "Stats() span commits disagree with SpanningOutcome");
  }

  const double p99_ms = rung.WindowedMs(0.99);
  rung.pass = !rung.killed && rung.failed_share() <= kMaxFailedShare &&
              p99_ms <= kP99LimitMs &&
              static_cast<double>(rung.in_flight_at_end) <=
                  std::max(16.0, load.rate * kBacklogLimitS);

  if (trace) {
    traced->stats.Add(stats);
    traced->log.Add(&runtime, wal_dir);
    traced->stats_commits += rung.committed;
    traced->log_commits += rung.committed;
    traced->Assemble(recorder, registration, kShards, subs,
                     "orders_durable/" + load.Label());
  }
  return rung;
}

std::string RungJson(Rung& r) {
  std::string s = "{";
  auto field = [&](const char* name, double v) {
    if (s.size() > 1) s += ",";
    s += std::string("\"") + name + "\":" + JsonNumber(v);
  };
  field("rate_per_s", r.rate);
  field("window", r.window);
  field("fixed", r.fixed ? 1 : 0);
  field("send_s", r.send_s);
  field("setup_s", r.setup_s);
  field("attempted", static_cast<double>(r.attempted));
  field("committed", static_cast<double>(r.committed));
  field("aborted", static_cast<double>(r.aborted));
  field("refused", static_cast<double>(r.refused));
  field("unterminated", static_cast<double>(r.unterminated));
  field("spans", static_cast<double>(r.spans));
  field("latency_p50_ms", r.WindowedMs(0.50));
  field("latency_p99_ms", r.WindowedMs(0.99));
  field("pooled_p50_ms", 1e-6 * r.latency.PercentileNs(0.50));
  field("pooled_p99_ms", 1e-6 * r.latency.PercentileNs(0.99));
  field("in_flight_at_end", static_cast<double>(r.in_flight_at_end));
  field("send_lag_p99_us", Percentile(r.send_lag_us, 0.99));
  field("send_lag_max_us", Percentile(r.send_lag_us, 1.0));
  field("commit_rate_per_s", r.commit_rate);
  field("steps", static_cast<double>(r.stats.steps));
  field("failed_invocations", static_cast<double>(r.stats.failed_invocations));
  field("deadlock_victims", static_cast<double>(r.stats.deadlock_victims));
  field("cascading_aborts", static_cast<double>(r.stats.cascading_aborts));
  field("compensations", static_cast<double>(r.stats.compensations));
  field("deferrals", static_cast<double>(r.stats.deferrals));
  field("blocked_by_locks", static_cast<double>(r.stats.blocked_by_locks));
  field("commit_waits", static_cast<double>(r.stats.commit_waits));
  field("prepared_branches", static_cast<double>(r.stats.prepared_branches));
  field("killed", r.killed ? 1 : 0);
  field("pass", r.pass ? 1 : 0);
  return s + "}";
}

}  // namespace

void RunOrdersDurable(const Args& args, Report* report, Gate* gate) {
  TraceTotals totals;
  TraceTotals* traced = args.trace ? &totals : nullptr;
  if (traced != nullptr) totals.OpenDump(args);
  // The fixed loads run in kRounds interleaved rounds, so that a slow
  // stretch of the shared disk hits one round's windows, not a whole load.
  std::vector<Rung> rungs;
  int index = 0;
  for (int round = 0; round < kRounds; ++round) {
    for (int rate : kFixedRates) {
      rungs.push_back(RunRung(args, index++, Load{rate, 0},
                              kFixedShare * args.seconds / kRounds, traced,
                              gate));
      rungs.back().fixed = true;
      if (!gate->ok()) return;
      ReleaseFreedMemory();
    }
    rungs.push_back(RunRung(args, index++, Load{0, kCapacityWindow},
                            kCapacityShare * args.seconds / kRounds, traced,
                            gate));
    if (!gate->ok()) return;
    ReleaseFreedMemory();
  }
  // Every rung of one load, merged.
  auto merged = [&](const Load& load) {
    Rung all;
    all.rate = load.rate;
    all.window = load.window;
    for (const Rung& r : rungs) {
      if (r.rate != load.rate || r.window != load.window) continue;
      all.windows.insert(all.windows.end(), r.windows.begin(),
                         r.windows.end());
      all.rate_windows.insert(all.rate_windows.end(), r.rate_windows.begin(),
                              r.rate_windows.end());
      all.pass = all.attempted == 0 ? r.pass : all.pass && r.pass;
      all.attempted += r.attempted;
      all.committed += r.committed;
    }
    return all;
  };
  Rung low = merged(Load{kFixedRates[0], 0});
  Rung high = merged(Load{kFixedRates[1], 0});
  const Rung capacity = merged(Load{0, kCapacityWindow});

  // The search climbs from the last fixed rate and stops at the first rung
  // that fails, so an overloaded rung never has to drain.
  double sustained = 0;
  if (low.pass) sustained = kFixedRates[0];
  if (low.pass && high.pass) sustained = kFixedRates[1];
  bool climbing = high.pass;
  for (int rate : kLadder) {
    if (!climbing) break;
    rungs.push_back(RunRung(args, index++, Load{rate, 0},
                            kLadderShare * args.seconds, traced, gate));
    if (!gate->ok()) return;
    ReleaseFreedMemory();
    climbing = rungs.back().pass;
    if (climbing) sustained = rungs.back().commit_rate;
  }

  // The fixed rungs, the capacity loops and every passing ladder rung are
  // the measured population; the failing rung that ended the search is the
  // probe.
  std::vector<double> setups;
  std::vector<double> starts;
  std::vector<double> send_lag;
  std::string table = "[";
  for (Rung& r : rungs) {
    setups.push_back(r.setup_s);
    starts.push_back(r.start_s);
    if (table.size() > 1) table += ",";
    table += RungJson(r);
    if (r.fixed || r.window > 0 || r.pass) {
      report->attempted += r.attempted;
      report->failed += r.failed();
      if (r.window == 0) {
        send_lag.insert(send_lag.end(), r.send_lag_us.begin(),
                        r.send_lag_us.end());
      }
    }
  }
  const int64_t committed = report->attempted - report->failed;
  report->e2e.Add("setup_s", Median(setups), "s");
  report->e2e.Add("peak_rss_mb", PeakRssMb(), "MB");
  report->e2e.Add("latency_mean_ms", high.WindowedMeanMs(), "ms");
  report->e2e.Add("latency_p99_ms", high.WindowedMs(0.99), "ms");
  report->e2e.Add("throughput_per_s", Median(capacity.rate_windows), "1/s");
  report->e2e.Add("completed_share",
                  report->attempted > 0
                      ? static_cast<double>(committed) /
                            static_cast<double>(report->attempted)
                      : 0.0,
                  "ratio");

  const std::string lo = ".r" + std::to_string(low.rate);
  const std::string hi = ".r" + std::to_string(high.rate);
  report->details.emplace_back("rungs", table + "]");
  report->details.emplace_back("latency_p50_ms" + lo,
                               JsonNumber(low.WindowedMs(0.50)));
  report->details.emplace_back("latency_p99_ms" + lo,
                               JsonNumber(low.WindowedMs(0.99)));
  report->details.emplace_back("latency_p50_ms" + hi,
                               JsonNumber(high.WindowedMs(0.50)));
  report->details.emplace_back("latency_p99_ms" + hi,
                               JsonNumber(high.WindowedMs(0.99)));
  report->details.emplace_back("sustained_per_s", JsonNumber(sustained));
  report->details.emplace_back("capacity_per_s",
                               JsonNumber(Median(capacity.rate_windows)));
  report->details.emplace_back(
      "failed_share",
      JsonNumber(report->attempted > 0
                     ? static_cast<double>(report->failed) /
                           static_cast<double>(report->attempted)
                     : 0.0));
  report->details.emplace_back("send_lag_us.p99",
                               JsonNumber(Percentile(send_lag, 0.99)));
  report->details.emplace_back("send_lag_us.max",
                               JsonNumber(Percentile(send_lag, 1.0)));
  report->details.emplace_back("wal_filesystem",
                               JsonString(FilesystemOf(args.out_dir)));

  if (traced != nullptr) {
    LayerValues values;
    totals.AddTo(&values);
    values["runtime.start_s"] = Median(starts);
    values["bench.send_lag_us.p99"] = Percentile(send_lag, 0.99);
    values["bench.send_lag_us.max"] = Percentile(send_lag, 1.0);
    EmitLayers(values, &report->layers, gate);
  }
  for (int i = 0; i < index; ++i) {
    std::error_code ec;
    std::filesystem::remove_all(
        args.out_dir + "/wal-orders-" + std::to_string(i), ec);
  }
}

}  // namespace perfbench
