#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <set>

namespace perfbench {

// ---------------------------------------------------------------- Recorder

Recorder::Recorder(int shards, bool detailed, size_t reserve_per_shard)
    : detailed_(detailed), shards_(static_cast<size_t>(shards)) {
  for (auto& buffer : shards_) buffer.reserve(reserve_per_shard);
}

void Recorder::OnActivityCommitted(int shard, tpm::ProcessId pid,
                                   tpm::ActivityId, bool) {
  if (!detailed_) return;
  const int64_t now = NowNs();
  Add(shard, {pid.value(), now, now, RecKind::kActivityCommitted, false});
}

void Recorder::OnInvocationFailed(int shard, tpm::ProcessId pid,
                                  tpm::ActivityId) {
  if (!detailed_) return;
  const int64_t now = NowNs();
  Add(shard, {pid.value(), now, now, RecKind::kInvocationFailed, false});
}

void Recorder::OnAlternativeTaken(int shard, tpm::ProcessId pid,
                                  tpm::ActivityId, int) {
  if (!detailed_) return;
  const int64_t now = NowNs();
  Add(shard, {pid.value(), now, now, RecKind::kAlternative, false});
}

void Recorder::OnCommitHeld(int shard, tpm::ProcessId pid) {
  const int64_t now = NowNs();
  Add(shard, {pid.value(), now, now, RecKind::kCommitHeld, false});
}

void Recorder::OnProcessTerminated(int shard, tpm::ProcessId pid,
                                   tpm::ProcessOutcome outcome) {
  const int64_t now = NowNs();
  Add(shard, {pid.value(), now, now, RecKind::kTerminated,
              outcome == tpm::ProcessOutcome::kCommitted});
  const int64_t n = terminated_.fetch_add(1) + 1;
  if (n >= wait_target_.load()) {
    std::lock_guard<std::mutex> lock(wait_mu_);
    wait_cv_.notify_one();
  }
}

bool Recorder::WaitTerminated(int64_t target, int64_t deadline_ns) {
  std::unique_lock<std::mutex> lock(wait_mu_);
  wait_target_.store(target);
  const auto deadline =
      Clock::time_point(std::chrono::nanoseconds(deadline_ns));
  const bool reached = wait_cv_.wait_until(
      lock, deadline, [&] { return terminated_.load() >= target; });
  wait_target_.store(INT64_MAX);
  return reached;
}

// --------------------------------------------------------- TracedSubsystem

TracedSubsystem::TracedSubsystem(tpm::Subsystem* inner, size_t reserve)
    : inner_(inner) {
  records_.reserve(reserve);
}

tpm::Result<tpm::InvocationOutcome> TracedSubsystem::Invoke(
    tpm::ServiceId service, const tpm::ServiceRequest& request) {
  const int64_t t0 = NowNs();
  tpm::Result<tpm::InvocationOutcome> result = inner_->Invoke(service, request);
  const int64_t t1 = NowNs();
  ++invocations_;
  if (!result.ok()) ++failed_;
  records_.push_back(
      {request.process.value(), t0, t1, RecKind::kInvoke, !result.ok()});
  return result;
}

tpm::Result<tpm::PreparedHandle> TracedSubsystem::InvokePrepared(
    tpm::ServiceId service, const tpm::ServiceRequest& request) {
  const int64_t t0 = NowNs();
  tpm::Result<tpm::PreparedHandle> result =
      inner_->InvokePrepared(service, request);
  const int64_t t1 = NowNs();
  ++invocations_;
  ++prepared_;
  if (!result.ok()) {
    ++failed_;
  } else {
    tx_owner_[result->tx.value()] = request.process.value();
  }
  records_.push_back(
      {request.process.value(), t0, t1, RecKind::kInvoke, !result.ok()});
  return result;
}

tpm::Status TracedSubsystem::CommitPrepared(tpm::TxId tx) {
  const int64_t t0 = NowNs();
  tpm::Status status = inner_->CommitPrepared(tx);
  const int64_t t1 = NowNs();
  auto owner = tx_owner_.find(tx.value());
  const int64_t pid = owner == tx_owner_.end() ? -1 : owner->second;
  if (owner != tx_owner_.end()) tx_owner_.erase(owner);
  records_.push_back({pid, t0, t1, RecKind::kInvoke, !status.ok()});
  return status;
}

tpm::Status TracedSubsystem::AbortPrepared(tpm::TxId tx) {
  const int64_t t0 = NowNs();
  tpm::Status status = inner_->AbortPrepared(tx);
  const int64_t t1 = NowNs();
  auto owner = tx_owner_.find(tx.value());
  const int64_t pid = owner == tx_owner_.end() ? -1 : owner->second;
  if (owner != tx_owner_.end()) tx_owner_.erase(owner);
  records_.push_back({pid, t0, t1, RecKind::kInvoke, !status.ok()});
  return status;
}

// ---------------------------------------------------------------- Outcomes

Outcomes::Outcomes(const Recorder& recorder, int shards)
    : rows_(static_cast<size_t>(shards)),
      seen_(static_cast<size_t>(shards)) {
  for (int s = 0; s < shards; ++s) {
    for (const Rec& rec : recorder.records(s)) {
      if (rec.kind == RecKind::kTerminated) {
        Row& row = rows_[s][rec.pid];
        row.term_ns = rec.t0;
        row.committed = rec.flag;
      } else if (rec.kind == RecKind::kCommitHeld) {
        rows_[s][rec.pid].held_ns = rec.t0;
      }
    }
    for (const auto& entry : rows_[s]) seen_[s].push_back(entry.first);
  }
}

int64_t Outcomes::term_ns(int shard, int64_t pid) const {
  auto it = rows_[shard].find(pid);
  return it == rows_[shard].end() ? 0 : it->second.term_ns;
}

bool Outcomes::committed(int shard, int64_t pid) const {
  auto it = rows_[shard].find(pid);
  return it != rows_[shard].end() && it->second.committed;
}

int64_t Outcomes::held_ns(int shard, int64_t pid) const {
  auto it = rows_[shard].find(pid);
  return it == rows_[shard].end() ? 0 : it->second.held_ns;
}

bool JoinSlices(const Outcomes& outcomes, int shards,
                std::vector<Submission>* subs,
                const std::vector<int>& span_dest_shard, std::string* error) {
  std::vector<std::set<int64_t>> claimed(static_cast<size_t>(shards));
  for (const Submission& sub : *subs) {
    if (!sub.slices.empty()) claimed[sub.slices[0].first].insert(sub.slices[0].second);
  }
  // Unclaimed pids per shard, ascending: the launched later slices.
  std::vector<std::vector<int64_t>> unclaimed(static_cast<size_t>(shards));
  for (int s = 0; s < shards; ++s) {
    for (int64_t pid : outcomes.seen(s)) {
      if (claimed[s].count(pid) == 0) unclaimed[s].push_back(pid);
    }
  }
  // Spans per destination shard, in the order their first slices voted.
  std::vector<std::vector<std::pair<int64_t, size_t>>> waiting(
      static_cast<size_t>(shards));
  for (size_t i = 0; i < subs->size(); ++i) {
    Submission& sub = (*subs)[i];
    if (!sub.spanning || sub.slices.empty()) continue;
    const auto [shard, pid] = sub.slices[0];
    const int64_t voted = outcomes.held_ns(shard, pid);
    if (voted == 0) continue;
    waiting[span_dest_shard[i]].emplace_back(voted, i);
  }
  bool consistent = true;
  const bool any_span = std::any_of(
      subs->begin(), subs->end(), [](const Submission& sub) { return sub.spanning; });
  for (int s = 0; any_span && s < shards; ++s) {
    std::sort(waiting[s].begin(), waiting[s].end());
    if (waiting[s].size() != unclaimed[s].size()) {
      consistent = false;
      if (error->empty()) {
        *error = "shard " + std::to_string(s) + ": " +
                 std::to_string(waiting[s].size()) +
                 " launched span slices but " +
                 std::to_string(unclaimed[s].size()) + " unclaimed pids";
      }
    }
    const size_t n = std::min(waiting[s].size(), unclaimed[s].size());
    for (size_t k = 0; k < n; ++k) {
      Submission& sub = (*subs)[waiting[s][k].second];
      const int64_t pid = unclaimed[s][k];
      sub.slices.emplace_back(s, pid);
    }
  }
  for (Submission& sub : *subs) {
    if (sub.slices.empty()) continue;
    int64_t done = 0;
    bool all_committed = true;
    for (const auto& [shard, pid] : sub.slices) {
      const int64_t t = outcomes.term_ns(shard, pid);
      if (t == 0) {
        done = 0;
        all_committed = false;
        break;
      }
      done = std::max(done, t);
      all_committed = all_committed && outcomes.committed(shard, pid);
    }
    // A span whose first slice voted is complete only once its later
    // slice terminated too; one that aborted before voting never launched
    // the later slice.
    if (sub.spanning && sub.slices.size() < 2) {
      const auto [shard, pid] = sub.slices[0];
      if (outcomes.held_ns(shard, pid) != 0) done = 0;
      all_committed = false;
    }
    sub.done_ns = done;
    sub.committed = done != 0 && all_committed;
  }
  return consistent;
}

// ----------------------------------------------------------- span assembly

namespace {

struct Seg {
  const char* name;
  int64_t t0;
  int64_t t1;
  int slice;  // -1: the process itself
  bool crit;
};

enum class Prev { kStart, kInvokeEnd, kMark, kHeld };

struct SliceResult {
  std::vector<Seg> segs;
  int64_t held_ns = 0;
  int64_t term_ns = 0;
};

/// Walks one slice's stamps in time order and names the gaps between
/// consecutive boundaries after the layer that owns them.
SliceResult WalkSlice(const Rec* begin, const Rec* end, int64_t start_ns,
                      int slice, bool first_slice) {
  SliceResult out;
  int64_t cursor = start_ns;
  Prev prev = Prev::kStart;
  const char* const start_name =
      first_slice ? "runtime.to_first_invoke" : "runtime.span.launch";
  auto emit = [&](const char* name, int64_t until, bool crit) {
    const int64_t t = std::max(cursor, until);
    out.segs.push_back({name, cursor, t, slice, crit});
    cursor = t;
  };
  for (const Rec* rec = begin; rec != end; ++rec) {
    if (rec->kind == RecKind::kInvoke) {
      const char* gap = prev == Prev::kStart  ? start_name
                        : prev == Prev::kHeld ? "runtime.span.held"
                                              : "core.pass_wait";
      emit(gap, rec->t0, prev != Prev::kHeld);
      emit("subsystem.invoke", rec->t1, prev != Prev::kHeld);
      prev = Prev::kInvokeEnd;
      continue;
    }
    const bool closing = rec->kind == RecKind::kTerminated ||
                         rec->kind == RecKind::kCommitHeld;
    const char* gap = prev == Prev::kStart       ? start_name
                      : prev == Prev::kInvokeEnd ? "core.emit"
                      : prev == Prev::kHeld      ? "runtime.span.held"
                      : closing                  ? "core.finish"
                                                 : "core.pass_wait";
    emit(gap, rec->t0, prev != Prev::kHeld);
    if (rec->kind == RecKind::kCommitHeld) {
      out.held_ns = rec->t0;
      prev = Prev::kHeld;
    } else if (rec->kind == RecKind::kTerminated) {
      out.term_ns = rec->t0;
      break;
    } else {
      prev = Prev::kMark;
    }
  }
  return out;
}

bool RecLess(const Rec& a, const Rec& b) {
  if (a.pid != b.pid) return a.pid < b.pid;
  if (a.t0 != b.t0) return a.t0 < b.t0;
  // Same instant: the invocation precedes the callback it caused.
  return static_cast<int>(a.kind) < static_cast<int>(b.kind);
}

std::string LayerOf(const std::string& name) {
  return name.substr(0, name.find('.'));
}

}  // namespace

void AssembleSpans(const Recorder& recorder,
                   const std::vector<TracedSubsystem*>& decorators,
                   const std::vector<int>& decorator_shard, int shards,
                   const std::vector<Submission>& subs,
                   const std::string& label, std::ostream* dump,
                   size_t* dump_budget, LayerTrace* out) {
  std::vector<std::vector<Rec>> merged(static_cast<size_t>(shards));
  for (int s = 0; s < shards; ++s) {
    merged[s] = recorder.records(s);
  }
  for (size_t d = 0; d < decorators.size(); ++d) {
    const TracedSubsystem* dec = decorators[d];
    for (const Rec& rec : dec->records()) {
      out->invoke_busy_s += 1e-9 * static_cast<double>(rec.t1 - rec.t0);
      if (decorator_shard[d] >= 0 && rec.pid >= 0) {
        merged[decorator_shard[d]].push_back(rec);
      }
    }
    out->invocations += dec->invocations();
    out->invoke_failed += dec->failed();
    out->prepared += dec->prepared();
  }
  for (auto& recs : merged) std::sort(recs.begin(), recs.end(), RecLess);

  for (const Submission& sub : subs) {
    if (sub.done_ns == 0 || sub.slices.empty()) continue;
    std::vector<Seg> segs;
    if (sub.submit_start_ns > sub.due_ns) {
      segs.push_back({"bench.send_lag", sub.due_ns, sub.submit_start_ns, -1,
                      true});
    }
    segs.push_back({"runtime.submit", sub.submit_start_ns, sub.submit_end_ns,
                    -1, true});
    int64_t start = sub.submit_end_ns;
    int64_t last_held = 0;
    int64_t last_term = 0;
    for (size_t k = 0; k < sub.slices.size(); ++k) {
      const auto [shard, pid] = sub.slices[k];
      const std::vector<Rec>& recs = merged[shard];
      Rec probe;
      probe.pid = pid;
      probe.t0 = INT64_MIN;
      auto lo = std::lower_bound(
          recs.begin(), recs.end(), probe,
          [](const Rec& a, const Rec& b) { return a.pid < b.pid; });
      auto hi = std::upper_bound(
          lo, recs.end(), probe,
          [](const Rec& a, const Rec& b) { return a.pid < b.pid; });
      SliceResult slice =
          WalkSlice(recs.data() + (lo - recs.begin()),
                    recs.data() + (hi - recs.begin()), start,
                    static_cast<int>(k), k == 0);
      for (const Seg& seg : slice.segs) segs.push_back(seg);
      if (slice.held_ns != 0) {
        out->samples["runtime.span.held_us"].push_back(
            1e-3 * static_cast<double>(slice.term_ns - slice.held_ns));
        last_held = std::max(last_held, slice.held_ns);
        start = slice.held_ns;  // the next slice launches from this vote
      }
      last_term = std::max(last_term, slice.term_ns);
    }
    if (last_held != 0) {
      // Critical path of a span: every slice up to its vote, then from the
      // last vote (the decision) to the last slice's release.
      segs.push_back({"runtime.span.held", last_held,
                      std::max(last_held, last_term), -1, true});
    }
    const int64_t e2e = sub.done_ns - sub.due_ns;
    out->e2e_us_sum += 1e-3 * static_cast<double>(e2e);
    ++out->processes;
    for (const Seg& seg : segs) {
      const double us = 1e-3 * static_cast<double>(seg.t1 - seg.t0);
      if (seg.crit) out->self_us[LayerOf(seg.name)] += us;
      // Held samples are per slice (above); the critical-path held segment
      // would count the decision twice.
      if (std::string(seg.name) != "runtime.span.held") {
        out->samples[std::string(seg.name) + "_us"].push_back(us);
      }
    }
    if (dump != nullptr && *dump_budget > 0) {
      --*dump_budget;
      const auto [shard0, pid0] = sub.slices[0];
      *dump << "{\"workload\":" << JsonString(label) << ",\"trace\":\"s"
           << shard0 << "p" << pid0 << "\",\"spans\":[[0,-1,\"process\","
           << 0 << "," << e2e << ",-1,1]";
      int id = 1;
      for (const Seg& seg : segs) {
        *dump << ",[" << id++ << ",0," << JsonString(seg.name) << ","
             << (seg.t0 - sub.due_ns) << "," << (seg.t1 - sub.due_ns) << ","
             << seg.slice << "," << (seg.crit ? 1 : 0) << "]";
      }
      *dump << "]}\n";
    }
  }
}

void AddSpanMetrics(LayerTrace* trace, LayerValues* values) {
  auto pct = [&](const std::string& name, double q) {
    auto it = trace->samples.find(name);
    return it == trace->samples.end() ? 0.0 : Percentile(it->second, q);
  };
  for (const char* name :
       {"runtime.submit_us", "runtime.to_first_invoke_us",
        "runtime.span.held_us", "core.emit_us", "core.pass_wait_us",
        "subsystem.invoke_us"}) {
    (*values)[std::string(name) + ".p50"] = pct(name, 0.50);
    (*values)[std::string(name) + ".p99"] = pct(name, 0.99);
  }
  (*values)["core.finish_us.p50"] = pct("core.finish_us", 0.50);
  (*values)["subsystem.invoke_busy_s"] = trace->invoke_busy_s;
  (*values)["subsystem.invocations"] = static_cast<double>(trace->invocations);
  (*values)["subsystem.invoke_failed"] =
      static_cast<double>(trace->invoke_failed);
  (*values)["subsystem.prepared"] = static_cast<double>(trace->prepared);
  const double n =
      trace->processes > 0 ? static_cast<double>(trace->processes) : 1.0;
  double layer_sum = 0;
  for (const char* layer : {"bench", "runtime", "core", "subsystem"}) {
    const double mean = trace->self_us[layer] / n;
    layer_sum += mean;
    (*values)[std::string(layer) + ".self_us.mean"] = mean;
  }
  const double e2e_mean = trace->e2e_us_sum / n;
  (*values)["trace.e2e_us.mean"] = e2e_mean;
  (*values)["trace.layer_sum_ratio"] =
      e2e_mean > 0 ? layer_sum / e2e_mean : 0.0;
  (*values)["trace.processes"] = static_cast<double>(trace->processes);
}

}  // namespace perfbench
