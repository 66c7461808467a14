// Observation from outside the program: a RuntimeObserver that stamps the
// runtime's callbacks, a Subsystem decorator that times every service
// invocation, and the span assembly that turns both into per-process
// spans, per-layer samples and self times.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"
#include "runtime/sharded_runtime.h"
#include "subsystem/kv_subsystem.h"

namespace perfbench {

/// One boundary stamp. Invocations carry [t0, t1]; callbacks are points
/// (t0 == t1).
enum class RecKind : uint8_t {
  kInvoke,          // Subsystem::Invoke / InvokePrepared / CommitPrepared
  kInvocationFailed,
  kActivityCommitted,
  kAlternative,
  kCommitHeld,
  kTerminated,
};

struct Rec {
  int64_t pid = 0;
  int64_t t0 = 0;
  int64_t t1 = 0;
  RecKind kind = RecKind::kInvoke;
  /// kInvoke: the invocation returned an error. kTerminated: committed.
  bool flag = false;
};

/// Stamps the runtime's callbacks into per-shard buffers (reserved up
/// front). Callbacks are serialized by the runtime's relay mutex, so each
/// buffer has one writer at a time; buffers are read after Stop.
/// `detailed` off keeps only what the untraced run needs: terminations and
/// held votes (the latter to join the slices of spanning processes).
class Recorder : public tpm::RuntimeObserver {
 public:
  Recorder(int shards, bool detailed, size_t reserve_per_shard);

  void OnActivityCommitted(int shard, tpm::ProcessId pid, tpm::ActivityId act,
                           bool inverse) override;
  void OnInvocationFailed(int shard, tpm::ProcessId pid,
                          tpm::ActivityId act) override;
  void OnAlternativeTaken(int shard, tpm::ProcessId pid,
                          tpm::ActivityId branch_point, int group) override;
  void OnProcessTerminated(int shard, tpm::ProcessId pid,
                           tpm::ProcessOutcome outcome) override;
  void OnCommitHeld(int shard, tpm::ProcessId pid) override;

  /// Shard-local process terminations seen so far (any thread).
  int64_t terminated() const { return terminated_.load(); }
  /// Blocks until terminated() >= target or the deadline passes.
  bool WaitTerminated(int64_t target, int64_t deadline_ns);

  /// After Stop only.
  const std::vector<Rec>& records(int shard) const { return shards_[shard]; }

 private:
  void Add(int shard, const Rec& rec) { shards_[shard].push_back(rec); }

  const bool detailed_;
  std::vector<std::vector<Rec>> shards_;
  std::atomic<int64_t> terminated_{0};
  std::atomic<int64_t> wait_target_{INT64_MAX};
  std::mutex wait_mu_;
  std::condition_variable wait_cv_;
};

/// Decorator over one registered Subsystem: forwards every call and times
/// the invocation paths. Only the owning shard's worker invokes a
/// subsystem, so `records` has a single writer; read it after Stop.
class TracedSubsystem : public tpm::Subsystem {
 public:
  TracedSubsystem(tpm::Subsystem* inner, size_t reserve);

  tpm::SubsystemId id() const override { return inner_->id(); }
  const std::string& name() const override { return inner_->name(); }
  const tpm::ServiceRegistry& services() const override {
    return inner_->services();
  }
  tpm::Result<tpm::InvocationOutcome> Invoke(
      tpm::ServiceId service, const tpm::ServiceRequest& request) override;
  tpm::Result<tpm::PreparedHandle> InvokePrepared(
      tpm::ServiceId service, const tpm::ServiceRequest& request) override;
  tpm::Status CommitPrepared(tpm::TxId tx) override;
  tpm::Status AbortPrepared(tpm::TxId tx) override;
  bool WouldBlock(tpm::ServiceId service) const override {
    return inner_->WouldBlock(service);
  }
  tpm::Status AbortAllPrepared() override { return inner_->AbortAllPrepared(); }
  void OnProcessResolved(tpm::ProcessId process, bool committed) override {
    inner_->OnProcessResolved(process, committed);
  }
  tpm::BreakerState breaker_state() const override {
    return inner_->breaker_state();
  }
  tpm::SubsystemHealthCounters health_counters() const override {
    return inner_->health_counters();
  }
  uint64_t StateFingerprint() const override {
    return inner_->StateFingerprint();
  }

  tpm::Subsystem* inner() const { return inner_; }
  const std::vector<Rec>& records() const { return records_; }
  int64_t invocations() const { return invocations_; }
  int64_t failed() const { return failed_; }
  int64_t prepared() const { return prepared_; }

 private:
  tpm::Subsystem* inner_;
  std::vector<Rec> records_;
  /// Prepared transaction -> process, so phase two is attributed.
  std::map<int64_t, int64_t> tx_owner_;
  int64_t invocations_ = 0;
  int64_t failed_ = 0;
  int64_t prepared_ = 0;
};

/// One user-visible process as the producer saw it.
struct Submission {
  int64_t due_ns = 0;
  int64_t submit_start_ns = 0;
  int64_t submit_end_ns = 0;
  bool accepted = false;
  bool spanning = false;
  int64_t gsn = -1;
  /// (shard, pid) of every slice, first slice first. Filled by the join.
  std::vector<std::pair<int, int64_t>> slices;
  /// Filled by the join: terminal instant of the last slice (0 = never),
  /// and whether the process (every slice, or the span) committed.
  int64_t done_ns = 0;
  bool committed = false;
};

/// Per-shard terminal and held-vote instants by pid, from the recorder.
class Outcomes {
 public:
  explicit Outcomes(const Recorder& recorder, int shards);
  int64_t term_ns(int shard, int64_t pid) const;
  bool committed(int shard, int64_t pid) const;
  int64_t held_ns(int shard, int64_t pid) const;
  /// Pids that terminated or voted on `shard`, ascending.
  const std::vector<int64_t>& seen(int shard) const { return seen_[shard]; }

 private:
  struct Row {
    int64_t term_ns = 0;
    int64_t held_ns = 0;
    bool committed = false;
  };
  std::vector<std::map<int64_t, Row>> rows_;
  std::vector<std::vector<int64_t>> seen_;
};

/// Resolves every submission's slices and terminal time. Pinned processes
/// take their pid from the ticket. A spanning process's first slice comes
/// from its ticket; its second slice is the first pid on the destination
/// shard that no ticket claims, matched in the order the first slices voted
/// (the coordination agent launches the next slice from inside that vote).
/// Returns false, with a message, when the join is inconsistent.
bool JoinSlices(const Outcomes& outcomes, int shards,
                std::vector<Submission>* subs,
                const std::vector<int>& span_dest_shard, std::string* error);

/// Per-layer numbers assembled from spans.
struct LayerTrace {
  /// Duration samples in microseconds, by span name.
  std::map<std::string, std::vector<double>> samples;
  /// Critical-path self time in microseconds, summed per layer.
  std::map<std::string, double> self_us;
  double e2e_us_sum = 0;
  int64_t processes = 0;
  /// Subsystem totals (all invocations, attributed or not).
  double invoke_busy_s = 0;
  int64_t invocations = 0;
  int64_t invoke_failed = 0;
  int64_t prepared = 0;
};

/// Builds the spans of every completed submission from the recorder's and
/// the decorators' stamps and accumulates them into `out` (so one
/// LayerTrace can collect several runtimes). While `*dump_budget` lasts,
/// each process's spans are written to `dump` as one JSON line.
void AssembleSpans(const Recorder& recorder,
                   const std::vector<TracedSubsystem*>& decorators,
                   const std::vector<int>& decorator_shard, int shards,
                   const std::vector<Submission>& subs,
                   const std::string& label, std::ostream* dump,
                   size_t* dump_budget, LayerTrace* out);

/// Adds the span-derived per-layer metrics shared by every workload.
void AddSpanMetrics(LayerTrace* trace, LayerValues* values);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
