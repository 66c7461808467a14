#ifndef TPM_RUNTIME_REPLICA_GROUP_H_
#define TPM_RUNTIME_REPLICA_GROUP_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/virtual_clock.h"
#include "core/scheduler.h"
#include "log/recovery_log.h"
#include "runtime/shard_core.h"
#include "runtime/submission_queue.h"
#include "runtime/voter.h"

namespace tpm {

class CrashPointListener;

/// Lifecycle of one replica inside a ReplicaGroup.
enum class ReplicaState {
  kActive,   // executing rounds and voting
  kKilled,   // died (WAL crash, step error, or an explicit Kill)
  kEvicted,  // lost a vote: diverged from the majority and was removed
};

const char* ReplicaStateName(ReplicaState state);

/// Replication knobs, carried inside RuntimeShard::Options. factor <= 1
/// disables replication entirely — the shard then runs the exact
/// pre-replication single-scheduler path.
struct ReplicationOptions {
  /// Number of scheduler replicas per shard (2 detects divergence, 3 also
  /// attributes it by majority).
  int factor = 1;
  /// Vote every N rounds (a round = one published submission batch plus
  /// the scheduling work it triggers). Smaller = earlier detection, more
  /// digest traffic.
  int64_t vote_every_rounds = 8;
  /// Attached to `listener_replica`'s WAL — the fault-injection hook the
  /// kill-a-replica-at-every-crash-point sweep arms.
  CrashPointListener* replica_crash_listener = nullptr;
  int listener_replica = 0;
};

/// Monotone counters of one shard's replica group.
struct ReplicaGroupStats {
  int64_t vote_rounds = 0;          // completed digest comparisons
  int64_t replica_divergences = 0;  // losing ballots across all votes
  int64_t replicas_evicted = 0;     // replicas removed by a lost vote
  int64_t failovers = 0;            // primary promotions
  int64_t rounds_published = 0;
  int live_replicas = 0;
  int primary = 0;

  friend bool operator==(const ReplicaGroupStats&,
                         const ReplicaGroupStats&) = default;
};

/// R deterministic scheduler replicas behind one shard: private clock +
/// private WAL each, fed the identical submission stream as numbered
/// rounds by the shard's worker thread. Majority voting over state
/// digests at epoch boundaries turns silent divergence into eviction, and
/// killing the primary promotes a live follower with no WAL replay on the
/// failover path — the follower already holds the full executed state.
///
/// Protocol in one paragraph: the shard worker publishes each drained
/// submission batch as a round; every live replica executes rounds in
/// order on its own worker thread (lockstep: exactly one scheduling pass
/// per round, bit-identical to the unreplicated shard; free-running: run
/// to quiescence) and records its admission results per round entry. Only
/// the acting primary's results are released to the submitters' promises,
/// so a diverging follower can never produce an externally visible effect.
/// Every vote_every_rounds rounds each replica submits
/// {history, store, stats} digests; when all live replicas have voted a
/// round, the majority digest wins and every loser is evicted. A dead
/// primary's promotion only swaps an index and releases the already
/// recorded backlog of the promoted follower — no replay, no pause.
///
/// Thread model: one mutex (gmu_) guards rounds, cursors, votes and
/// membership; replicas execute scheduler work outside it. Observer
/// forwarding is gated per replica (only the acting primary's events pass,
/// deduplicated across failover by a monotone watermark under relay_mu_,
/// which is never held together with gmu_).
class ReplicaGroup {
 public:
  struct Options {
    int shard_index = 0;
    ReplicationOptions replication;
    /// Per-replica scheduler options; `clock` is replaced by each
    /// replica's private clock.
    SchedulerOptions scheduler;
    /// true = lockstep (one pass per round), false = free-running (run to
    /// quiescence per round).
    bool lockstep = false;
    /// Each replica's private WAL (see OpenShardLog).
    ShardLogMode log_mode = ShardLogMode::kMemory;
    std::string wal_dir;
  };

  explicit ReplicaGroup(Options options);
  ~ReplicaGroup();

  ReplicaGroup(const ReplicaGroup&) = delete;
  ReplicaGroup& operator=(const ReplicaGroup&) = delete;

  /// Creates the replicas (clock + WAL + scheduler each) and attaches the
  /// crash-point listener. Call before any registration.
  Status Init();

  /// Setup-phase (and post-Stop inspection) access to replica `r`'s parts.
  TransactionalProcessScheduler* replica_scheduler(int r);
  RecoveryLog* replica_log(int r);
  VirtualClock* replica_clock(int r);
  int factor() const { return options_.replication.factor; }

  /// Registers `subsystem` with replica `r`'s scheduler and remembers it:
  /// replica subsystems pair up by registration order for state adoption
  /// at respawn and for the store digest. Every replica must end up with
  /// the same number of subsystems, registered in the same service order.
  Status RegisterSubsystem(int r, Subsystem* subsystem);

  /// Applies the conflict to every replica scheduler (and remembers it for
  /// respawn's fresh scheduler).
  void AddConflict(ServiceId a, ServiceId b);

  /// Downstream observer (the shard's relay): receives each scheduler
  /// event exactly once — from whichever replica is acting primary when
  /// the event first clears the watermark. Register before Start.
  void AddDownstreamObserver(SchedulerObserver* observer);

  /// Fired (outside the group mutex, on a replica worker thread) on every
  /// replica state transition.
  using StateChangeCallback =
      std::function<void(int replica, ReplicaState from, ReplicaState to)>;
  void SetStateChangeCallback(StateChangeCallback callback);

  /// Fired once if the whole group dies (all replicas dead).
  void SetErrorCallback(std::function<void(const Status&)> callback);

  /// Fired (unlocked) whenever a round completes or the group goes idle —
  /// the shard hooks its condition variables here.
  void SetNotifyCallback(std::function<void()> callback);

  /// Spawns the replica worker threads.
  void Start();

  /// Stops all workers, fails every unreleased submission promise with
  /// Unavailable, releases scheduler affinities. Idempotent.
  void Stop();

  /// Shard-worker side: publishes the next round. Free-running — returns
  /// once the round is enqueued (blocks only on the flow control window,
  /// kMaxRoundsAhead).
  Status PublishRound(std::vector<Submission> batch);

  /// Shard-worker side, lockstep: publishes and blocks until every live
  /// replica completed the round (the tick barrier).
  Status PublishRoundAndWait(std::vector<Submission> batch);

  /// True iff every live replica consumed every published round and
  /// reports no remaining scheduler work.
  bool IsIdle() const;

  /// Runs `fn` on every live replica's worker thread against its own
  /// scheduler (Recover runs per replica against its private WAL) and
  /// returns the first error. Blocks until all done. The group must not
  /// be publishing rounds concurrently.
  Status ForEachReplicaScheduler(
      std::function<Status(TransactionalProcessScheduler*)> fn);

  /// Acting primary's latest published stats snapshot.
  SchedulerStats PrimaryStatsSnapshot() const;

  ReplicaGroupStats Stats() const;

  int primary() const { return primary_.load(std::memory_order_acquire); }
  ReplicaState replica_state(int r) const;

  /// Sticky group error (set when the last live replica dies).
  Status status() const;

  /// Marks replica `r` dead (kKilled) — the hot-failover test API. The
  /// replica finishes any in-flight round without recording results; a
  /// dead primary is replaced immediately. Serving continues on the
  /// survivors with no recovery pause.
  Status Kill(int r);

  /// Rebuilds a dead replica from the acting primary while the group is
  /// idle: adopts every subsystem's state, copies the peer's WAL (pid
  /// continuity), builds a fresh scheduler that replays and certifies it
  /// (RecoverShard), syncs the clock, re-baselines every live replica's
  /// digests (votes then compare only the post-respawn suffix) and rejoins
  /// at the current round. The eviction/failover counters keep their
  /// history.
  Status Respawn(int r,
                 const std::map<std::string, const ProcessDef*>& defs_by_name);

 private:
  /// A promise to set plus the result to set it to — collected under gmu_,
  /// fired after unlocking (promise.set_value wakes arbitrary user code).
  using Fulfilment =
      std::pair<std::promise<Result<ProcessId>>, Result<ProcessId>>;
  /// (replica, from, to) — collected under gmu_, fired after unlocking.
  using StateEvent = std::tuple<int, ReplicaState, ReplicaState>;

  /// One published queue drain. Every replica reads the submissions' def
  /// and param outside gmu_; their promises, `fulfilled` and `results`
  /// are touched only under gmu_.
  struct Round {
    std::vector<Submission> submissions;
    std::vector<bool> fulfilled;  // promise already set, per submission
    /// Admission result per submission per replica. Only the acting
    /// primary's result is ever released to the promise — a diverging
    /// follower's results stay quarantined here until the round is pruned.
    std::vector<std::map<int, Result<ProcessId>>> results;
  };

  /// Exactly-once observer gate: forwards events only while its replica
  /// is the acting primary, deduplicated across failover by the group
  /// watermark (replicas emit identical deterministic event streams, so
  /// per-replica sequence numbers align).
  class ObserverGate;

  struct Replica {
    int index = 0;
    VirtualClock clock;
    std::unique_ptr<RecoveryLog> log;
    std::unique_ptr<TransactionalProcessScheduler> scheduler;
    std::vector<Subsystem*> subsystems;
    std::unique_ptr<ObserverGate> gate;
    std::thread worker;

    // All below guarded by gmu_.
    bool alive = true;
    ReplicaState state = ReplicaState::kActive;
    int64_t cursor = 0;  // next round index to execute
    bool has_work = false;
    SchedulerStats stats_snapshot;
    SchedulerStats stats_baseline;  // vote digests hash deltas since this
    std::function<Status(TransactionalProcessScheduler*)> command;
    bool command_done = true;
    Status command_status;
  };

  Status InitReplica(int r);
  void WorkerLoop(int r);
  Status PublishRoundInternal(std::vector<Submission> batch,
                              bool wait_for_completion);
  /// Executes one round on `rep` outside gmu_ (`had_work` is the replica's
  /// pre-round has_work flag, copied under the lock); returns the new
  /// has_work flag or the error that kills the replica. round == nullptr
  /// is a continuation pass (steps only, no admission) — free-running
  /// replicas run those after a round hit AdmitAndStep's step cap.
  Result<bool> ExecuteRound(Replica& rep, const Round* round, bool had_work,
                            std::vector<Result<ProcessId>>* results);
  VoteDigest ComputeDigest(const Replica& rep,
                           const SchedulerStats& baseline) const;
  /// Like ForEachReplicaScheduler, with the replica index passed through
  /// (Respawn re-baselines per replica).
  Status ForEachReplicaSchedulerIndexed(
      std::function<Status(int, TransactionalProcessScheduler*)> fn);

  std::vector<int> LiveReplicasLocked() const;
  int64_t MinLiveCursorLocked() const;
  bool IsIdleLocked() const;
  /// Releases every recorded-but-unreleased result of the acting primary
  /// for rounds it has completed, collecting the promise fulfilments into
  /// `out` (set outside the lock).
  void CollectPrimaryBacklogLocked(std::vector<Fulfilment>* out);
  /// Drops fully released rounds every live replica has passed.
  void PruneRoundsLocked();
  /// Marks a replica dead, promotes on primary death, fails everything on
  /// total death; appends state-change events and promise fulfilments for
  /// the caller to fire outside the lock. Never runs votes itself —
  /// callers follow up with ApplyVotesLocked.
  void MarkDeadLocked(int r, ReplicaState state,
                      std::vector<StateEvent>* events,
                      std::vector<Fulfilment>* fulfil);
  /// Applies completed vote outcomes (evictions), looping through the
  /// membership changes they cause.
  void ApplyVotesLocked(std::vector<StateEvent>* events,
                        std::vector<Fulfilment>* fulfil);
  void NotifyUnlocked();
  /// Fires the error callback exactly once after the group died.
  void MaybeFireError();
  void FireStateEvents(const std::vector<StateEvent>& events);

  Options options_;
  std::vector<std::unique_ptr<Replica>> replicas_;
  std::vector<SchedulerObserver*> downstream_;
  StateChangeCallback on_state_change_;
  std::function<void(const Status&)> on_error_;
  std::function<void()> on_notify_;
  /// Conflicts in registration order, replayed onto respawned schedulers.
  std::vector<std::pair<ServiceId, ServiceId>> conflicts_;

  std::atomic<int> primary_{0};

  mutable std::mutex gmu_;
  std::condition_variable cv_replicas_;  // wakes replica workers
  std::condition_variable cv_clients_;   // wakes the shard worker / waiters
  std::deque<std::shared_ptr<Round>> rounds_;
  int64_t base_round_ = 0;  // absolute index of rounds_.front()
  int64_t rounds_published_ = 0;
  bool stop_requested_ = false;
  bool started_ = false;
  Status error_;  // sticky: the group died
  bool error_fired_ = false;
  Voter voter_;
  // Counters (gmu_). live_replicas/primary are derived on read.
  ReplicaGroupStats counters_;

  /// Observer watermark: number of events already forwarded downstream.
  /// Guarded by relay_mu_, never held together with gmu_.
  std::mutex relay_mu_;
  int64_t relay_watermark_ = 0;
};

}  // namespace tpm

#endif  // TPM_RUNTIME_REPLICA_GROUP_H_
