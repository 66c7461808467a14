#include "runtime/replica_group.h"

#include <algorithm>
#include <tuple>

#include "common/str_util.h"
#include "log/wal.h"

namespace tpm {

const char* ReplicaStateName(ReplicaState state) {
  switch (state) {
    case ReplicaState::kActive:
      return "active";
    case ReplicaState::kKilled:
      return "killed";
    case ReplicaState::kEvicted:
      return "evicted";
  }
  return "unknown";
}

/// Forwards one replica's scheduler events to the downstream observers
/// exactly once group-wide. Every event is appended to a small per-replica
/// backlog; the acting primary drains its backlog through the shared
/// watermark (events at or below it were already delivered by an earlier
/// primary), and followers just trim. On failover the promoted follower's
/// backlog is drained explicitly, which closes the gap where a follower
/// running ahead of a dying primary had events suppressed that no one
/// else will emit again. All state lives under the group's relay_mu_,
/// which is never held together with gmu_.
class ReplicaGroup::ObserverGate : public SchedulerObserver {
 public:
  ObserverGate(ReplicaGroup* group, int replica)
      : group_(group), replica_(replica) {}

  void OnActivityCommitted(ProcessId pid, ActivityId act,
                           bool inverse) override {
    Emit([=, this] {
      for (auto* obs : group_->downstream_)
        obs->OnActivityCommitted(pid, act, inverse);
    });
  }
  void OnInvocationFailed(ProcessId pid, ActivityId act) override {
    Emit([=, this] {
      for (auto* obs : group_->downstream_) obs->OnInvocationFailed(pid, act);
    });
  }
  void OnAlternativeTaken(ProcessId pid, ActivityId branch_point,
                          int group) override {
    Emit([=, this] {
      for (auto* obs : group_->downstream_)
        obs->OnAlternativeTaken(pid, branch_point, group);
    });
  }
  void OnAbortStarted(ProcessId pid) override {
    Emit([=, this] {
      for (auto* obs : group_->downstream_) obs->OnAbortStarted(pid);
    });
  }
  void OnProcessTerminated(ProcessId pid, ProcessOutcome outcome) override {
    Emit([=, this] {
      for (auto* obs : group_->downstream_)
        obs->OnProcessTerminated(pid, outcome);
    });
  }
  void OnCommitHeld(ProcessId pid) override {
    Emit([=, this] {
      for (auto* obs : group_->downstream_) obs->OnCommitHeld(pid);
    });
  }
  void OnBreakerStateChange(SubsystemId subsystem, BreakerState from,
                            BreakerState to) override {
    Emit([=, this] {
      for (auto* obs : group_->downstream_)
        obs->OnBreakerStateChange(subsystem, from, to);
    });
  }
  void OnDegradedBranch(ProcessId pid, ActivityId branch_point, int group,
                        SubsystemId avoided) override {
    Emit([=, this] {
      for (auto* obs : group_->downstream_)
        obs->OnDegradedBranch(pid, branch_point, group, avoided);
    });
  }

  /// Promotion hook: deliver whatever this (now primary) replica emitted
  /// past the watermark while it was still a follower.
  void DrainBacklog() {
    std::lock_guard<std::mutex> lock(group_->relay_mu_);
    DrainLocked();
  }

  /// Respawn hook: the fresh scheduler restarts event numbering, but all
  /// live replicas are idle and re-baselined, so the respawned stream
  /// continues exactly at the watermark.
  void ResetForRespawn() {
    std::lock_guard<std::mutex> lock(group_->relay_mu_);
    seq_ = group_->relay_watermark_;
    backlog_.clear();
  }

 private:
  void Emit(std::function<void()> forward) {
    std::lock_guard<std::mutex> lock(group_->relay_mu_);
    ++seq_;
    backlog_.emplace_back(seq_, std::move(forward));
    if (group_->primary_.load(std::memory_order_acquire) == replica_) {
      DrainLocked();
    } else {
      while (!backlog_.empty() &&
             backlog_.front().first <= group_->relay_watermark_) {
        backlog_.pop_front();
      }
    }
  }

  void DrainLocked() {
    while (!backlog_.empty()) {
      auto& [seq, forward] = backlog_.front();
      if (seq > group_->relay_watermark_) {
        group_->relay_watermark_ = seq;
        forward();
      }
      backlog_.pop_front();
    }
  }

  ReplicaGroup* group_;
  int replica_;
  int64_t seq_ = 0;
  std::deque<std::pair<int64_t, std::function<void()>>> backlog_;
};

ReplicaGroup::ReplicaGroup(Options options) : options_(std::move(options)) {}

ReplicaGroup::~ReplicaGroup() { Stop(); }

Status ReplicaGroup::Init() {
  const int factor = options_.replication.factor;
  if (factor < 2) {
    return Status::InvalidArgument(
        StrCat("replication factor ", factor, " (a group needs >= 2)"));
  }
  replicas_.reserve(factor);
  for (int r = 0; r < factor; ++r) {
    replicas_.push_back(std::make_unique<Replica>());
    TPM_RETURN_IF_ERROR(InitReplica(r));
  }
  if (options_.replication.replica_crash_listener != nullptr) {
    const int target = options_.replication.listener_replica;
    if (target < 0 || target >= factor) {
      return Status::InvalidArgument(
          StrCat("listener_replica ", target, " out of range"));
    }
    if (replicas_[target]->log == nullptr) {
      return Status::InvalidArgument(
          "replica crash listener needs a WAL (log mode is none)");
    }
    replicas_[target]->log->wal()->SetCrashPointListener(
        options_.replication.replica_crash_listener);
  }
  return Status::OK();
}

Status ReplicaGroup::InitReplica(int r) {
  Replica& rep = *replicas_[r];
  rep.index = r;
  TPM_ASSIGN_OR_RETURN(rep.log,
                       OpenShardLog(options_.log_mode, options_.wal_dir,
                                    options_.shard_index, r));
  SchedulerOptions scheduler_options = options_.scheduler;
  scheduler_options.clock = &rep.clock;
  rep.scheduler = std::make_unique<TransactionalProcessScheduler>(
      scheduler_options, rep.log.get());
  rep.gate = std::make_unique<ObserverGate>(this, r);
  rep.scheduler->AddObserver(rep.gate.get());
  return Status::OK();
}

TransactionalProcessScheduler* ReplicaGroup::replica_scheduler(int r) {
  return replicas_[r]->scheduler.get();
}

RecoveryLog* ReplicaGroup::replica_log(int r) {
  return replicas_[r]->log.get();
}

VirtualClock* ReplicaGroup::replica_clock(int r) {
  return &replicas_[r]->clock;
}

Status ReplicaGroup::RegisterSubsystem(int r, Subsystem* subsystem) {
  if (r < 0 || r >= static_cast<int>(replicas_.size())) {
    return Status::InvalidArgument(StrCat("no replica ", r));
  }
  TPM_RETURN_IF_ERROR(replicas_[r]->scheduler->RegisterSubsystem(subsystem));
  replicas_[r]->subsystems.push_back(subsystem);
  return Status::OK();
}

void ReplicaGroup::AddConflict(ServiceId a, ServiceId b) {
  for (auto& rep : replicas_) {
    rep->scheduler->AddConflict(a, b);
  }
  conflicts_.push_back({a, b});
}

void ReplicaGroup::AddDownstreamObserver(SchedulerObserver* observer) {
  downstream_.push_back(observer);
}

void ReplicaGroup::SetStateChangeCallback(StateChangeCallback callback) {
  on_state_change_ = std::move(callback);
}

void ReplicaGroup::SetErrorCallback(
    std::function<void(const Status&)> callback) {
  on_error_ = std::move(callback);
}

void ReplicaGroup::SetNotifyCallback(std::function<void()> callback) {
  on_notify_ = std::move(callback);
}

void ReplicaGroup::Start() {
  for (auto& rep : replicas_) {
    // Registration happened on the setup thread; every replica worker's
    // first scheduler call rebinds the affinity guard.
    rep->scheduler->ReleaseThreadAffinity();
  }
  {
    std::lock_guard<std::mutex> lock(gmu_);
    started_ = true;
  }
  for (auto& rep : replicas_) {
    const int r = rep->index;
    rep->worker = std::thread([this, r] { WorkerLoop(r); });
  }
}

void ReplicaGroup::Stop() {
  std::vector<Fulfilment> fulfil;
  {
    std::lock_guard<std::mutex> lock(gmu_);
    if (!started_ || stop_requested_) return;
    stop_requested_ = true;
    for (auto& round : rounds_) {
      for (size_t i = 0; i < round->submissions.size(); ++i) {
        if (!round->fulfilled[i]) {
          round->fulfilled[i] = true;
          fulfil.emplace_back(
              std::move(round->submissions[i].result),
              Result<ProcessId>(Status::Unavailable(
                  StrCat("shard ", options_.shard_index,
                         " replica group stopped before admission"))));
        }
      }
    }
  }
  cv_replicas_.notify_all();
  cv_clients_.notify_all();
  for (auto& rep : replicas_) {
    if (rep->worker.joinable()) rep->worker.join();
  }
  for (auto& [promise, result] : fulfil) {
    promise.set_value(std::move(result));
  }
}

std::vector<int> ReplicaGroup::LiveReplicasLocked() const {
  std::vector<int> live;
  for (const auto& rep : replicas_) {
    if (rep->alive) live.push_back(rep->index);
  }
  return live;
}

int64_t ReplicaGroup::MinLiveCursorLocked() const {
  int64_t min_cursor = rounds_published_;
  for (const auto& rep : replicas_) {
    if (rep->alive && rep->cursor < min_cursor) min_cursor = rep->cursor;
  }
  return min_cursor;
}

bool ReplicaGroup::IsIdleLocked() const {
  for (const auto& rep : replicas_) {
    if (!rep->alive) continue;
    if (rep->cursor < rounds_published_ || rep->has_work ||
        rep->command != nullptr || !rep->command_done) {
      return false;
    }
  }
  return true;
}

bool ReplicaGroup::IsIdle() const {
  std::lock_guard<std::mutex> lock(gmu_);
  return IsIdleLocked();
}

void ReplicaGroup::CollectPrimaryBacklogLocked(std::vector<Fulfilment>* out) {
  const int p = primary_.load(std::memory_order_relaxed);
  const Replica& prim = *replicas_[p];
  for (int64_t index = base_round_; index < prim.cursor; ++index) {
    Round& round = *rounds_[index - base_round_];
    for (size_t i = 0; i < round.submissions.size(); ++i) {
      if (round.fulfilled[i]) continue;
      auto it = round.results[i].find(p);
      if (it == round.results[i].end()) continue;
      round.fulfilled[i] = true;
      out->emplace_back(std::move(round.submissions[i].result), it->second);
    }
  }
}

void ReplicaGroup::PruneRoundsLocked() {
  const int64_t min_cursor = MinLiveCursorLocked();
  while (!rounds_.empty() && base_round_ < min_cursor) {
    const std::vector<bool>& fulfilled = rounds_.front()->fulfilled;
    if (std::find(fulfilled.begin(), fulfilled.end(), false) !=
        fulfilled.end()) {
      break;
    }
    rounds_.pop_front();
    ++base_round_;
  }
}

void ReplicaGroup::MarkDeadLocked(int r, ReplicaState state,
                                  std::vector<StateEvent>* events,
                                  std::vector<Fulfilment>* fulfil) {
  Replica& rep = *replicas_[r];
  if (!rep.alive) return;
  rep.alive = false;
  const ReplicaState from = rep.state;
  rep.state = state;
  events->push_back({r, from, state});
  if (state == ReplicaState::kEvicted) ++counters_.replicas_evicted;
  voter_.RemoveReplica(r);
  if (primary_.load(std::memory_order_relaxed) != r) return;
  // The primary died: promote the lowest-index live replica. Promotion is
  // a pointer swap plus releasing the follower's already recorded results
  // — the no-stop-the-world failover path (no WAL replay, no pause).
  int promoted = -1;
  for (const auto& other : replicas_) {
    if (other->alive) {
      promoted = other->index;
      break;
    }
  }
  if (promoted >= 0) {
    primary_.store(promoted, std::memory_order_release);
    ++counters_.failovers;
    CollectPrimaryBacklogLocked(fulfil);
    return;
  }
  // Total death: the group can no longer serve.
  error_ = Status::Unavailable(
      StrCat("shard ", options_.shard_index, ": all ", replicas_.size(),
             " replicas dead (last: replica ", r, " ",
             ReplicaStateName(state), ")"));
  for (auto& round : rounds_) {
    for (size_t i = 0; i < round->submissions.size(); ++i) {
      if (round->fulfilled[i]) continue;
      round->fulfilled[i] = true;
      fulfil->emplace_back(std::move(round->submissions[i].result),
                           Result<ProcessId>(error_));
    }
  }
}

void ReplicaGroup::ApplyVotesLocked(std::vector<StateEvent>* events,
                                    std::vector<Fulfilment>* fulfil) {
  for (;;) {
    std::vector<Voter::Outcome> outcomes = voter_.TakeCompleted(
        LiveReplicasLocked(), primary_.load(std::memory_order_relaxed));
    if (outcomes.empty()) return;
    for (const Voter::Outcome& outcome : outcomes) {
      ++counters_.vote_rounds;
      counters_.replica_divergences +=
          static_cast<int64_t>(outcome.losers.size());
      for (int loser : outcome.losers) {
        MarkDeadLocked(loser, ReplicaState::kEvicted, events, fulfil);
      }
    }
    // Evictions shrank the live set; rounds previously waiting on the
    // evicted replicas' ballots may have completed.
  }
}

void ReplicaGroup::NotifyUnlocked() {
  if (on_notify_) on_notify_();
}

void ReplicaGroup::MaybeFireError() {
  Status error;
  {
    std::lock_guard<std::mutex> lock(gmu_);
    if (error_.ok() || error_fired_) return;
    error_fired_ = true;
    error = error_;
  }
  if (on_error_) on_error_(error);
}

void ReplicaGroup::FireStateEvents(const std::vector<StateEvent>& events) {
  if (!on_state_change_) return;
  for (const auto& [replica, from, to] : events) {
    on_state_change_(replica, from, to);
  }
}

Status ReplicaGroup::PublishRound(std::vector<Submission> batch) {
  return PublishRoundInternal(std::move(batch), /*wait_for_completion=*/false);
}

Status ReplicaGroup::PublishRoundAndWait(std::vector<Submission> batch) {
  return PublishRoundInternal(std::move(batch), /*wait_for_completion=*/true);
}

Status ReplicaGroup::PublishRoundInternal(std::vector<Submission> batch,
                                          bool wait_for_completion) {
  // Flow control: the shard worker runs at most this many rounds ahead of
  // the slowest live replica (bounds round memory and propagates
  // backpressure to the submission queue).
  constexpr int64_t kMaxRoundsAhead = 64;
  std::unique_lock<std::mutex> lock(gmu_);
  cv_clients_.wait(lock, [&] {
    return stop_requested_ || !error_.ok() ||
           rounds_published_ - MinLiveCursorLocked() < kMaxRoundsAhead;
  });
  if (stop_requested_ || !error_.ok()) {
    Status error = !error_.ok()
                       ? error_
                       : Status::Unavailable(StrCat(
                             "shard ", options_.shard_index,
                             " replica group stopped before admission"));
    lock.unlock();
    for (Submission& submission : batch) {
      submission.result.set_value(Result<ProcessId>(error));
    }
    return error;
  }
  auto round = std::make_shared<Round>();
  round->fulfilled.assign(batch.size(), false);
  round->results.resize(batch.size());
  round->submissions = std::move(batch);
  rounds_.push_back(std::move(round));
  const int64_t target = ++rounds_published_;
  counters_.rounds_published = rounds_published_;
  lock.unlock();
  cv_replicas_.notify_all();
  if (!wait_for_completion) return Status::OK();
  lock.lock();
  cv_clients_.wait(lock, [&] {
    if (stop_requested_ || !error_.ok()) return true;
    for (const auto& rep : replicas_) {
      if (rep->alive && rep->cursor < target) return false;
    }
    return true;
  });
  return error_;
}

Result<bool> ReplicaGroup::ExecuteRound(
    Replica& rep, const Round* round, bool had_work,
    std::vector<Result<ProcessId>>* results) {
  static const std::vector<Submission> kNoSubmissions;
  // Lockstep: exactly one scheduling pass per round — the unreplicated
  // shard's pass, which is what keeps lockstep replicated execution equal
  // to the solo-scheduler reference. Free-running: run to quiescence, so
  // vote boundaries land on deterministic quiescent states.
  Result<bool> has_work = AdmitAndStep(
      *rep.scheduler, round != nullptr ? round->submissions : kNoSubmissions,
      had_work, /*to_quiescence=*/!options_.lockstep,
      [&](std::vector<Result<ProcessId>> pids) {
        if (rep.log != nullptr && rep.log->wal()->crashed()) {
          // The admission results are tainted by the crash (kUnavailable
          // from a dead WAL is not a real refusal): discard everything
          // and die.
          return Status::Unavailable(
              StrCat("replica ", rep.index, " WAL crashed during admission"));
        }
        *results = std::move(pids);
        return Status::OK();
      });
  if (has_work.ok() && rep.log != nullptr && rep.log->wal()->crashed()) {
    return Status::Unavailable(
        StrCat("replica ", rep.index, " WAL crashed during a pass"));
  }
  return has_work;
}

VoteDigest ReplicaGroup::ComputeDigest(const Replica& rep,
                                       const SchedulerStats& baseline) const {
  VoteDigest digest;
  digest.history = rep.scheduler->HistoryDigest();
  digest.store = rep.scheduler->SubsystemStateFingerprint();
  digest.stats = rep.scheduler->stats().FingerprintSince(baseline);
  return digest;
}

void ReplicaGroup::WorkerLoop(int r) {
  Replica& rep = *replicas_[r];
  std::unique_lock<std::mutex> lock(gmu_);
  for (;;) {
    cv_replicas_.wait(lock, [&] {
      return stop_requested_ || !rep.alive || rep.command != nullptr ||
             rep.cursor < rounds_published_ ||
             (!options_.lockstep && rep.has_work);
    });
    if (rep.command != nullptr) {
      auto command = std::move(rep.command);
      rep.command = nullptr;
      lock.unlock();
      Status status = command(rep.scheduler.get());
      SchedulerStats snapshot = rep.scheduler->stats();
      lock.lock();
      rep.command_status = status;
      rep.command_done = true;
      rep.stats_snapshot = snapshot;
      cv_clients_.notify_all();
      continue;
    }
    if (stop_requested_ || !rep.alive) break;

    // have_round == false only in free-running mode, when a previous
    // round hit AdmitAndStep's step cap: continue stepping without a round.
    const bool have_round = rep.cursor < rounds_published_;
    const int64_t round_index = rep.cursor;
    std::shared_ptr<Round> round =
        have_round ? rounds_[round_index - base_round_] : nullptr;
    const bool had_work = rep.has_work;
    const SchedulerStats baseline = rep.stats_baseline;
    const bool vote_boundary =
        have_round && options_.replication.vote_every_rounds > 0 &&
        (round_index + 1) % options_.replication.vote_every_rounds == 0;
    lock.unlock();

    std::vector<Result<ProcessId>> results;
    Result<bool> outcome = ExecuteRound(rep, round.get(), had_work, &results);
    VoteDigest digest;
    if (outcome.ok() && vote_boundary) digest = ComputeDigest(rep, baseline);
    SchedulerStats snapshot = rep.scheduler->stats();

    std::vector<StateEvent> events;
    std::vector<Fulfilment> fulfil;
    lock.lock();
    if (stop_requested_) break;
    if (!rep.alive) {
      // Killed mid-round: results are discarded, the loop exits above.
      cv_clients_.notify_all();
      continue;
    }
    if (!outcome.ok()) {
      MarkDeadLocked(r, ReplicaState::kKilled, &events, &fulfil);
      ApplyVotesLocked(&events, &fulfil);
    } else {
      if (have_round) {
        for (size_t i = 0; i < round->submissions.size(); ++i) {
          round->results[i].emplace(r, results[i]);
        }
        rep.cursor = round_index + 1;
      }
      rep.has_work = *outcome;
      rep.stats_snapshot = snapshot;
      if (vote_boundary) {
        voter_.SubmitVote(round_index, r, digest);
        ApplyVotesLocked(&events, &fulfil);
      }
      if (rep.alive && primary_.load(std::memory_order_relaxed) == r) {
        CollectPrimaryBacklogLocked(&fulfil);
      }
      PruneRoundsLocked();
    }
    const int acting_primary = primary_.load(std::memory_order_relaxed);
    lock.unlock();
    cv_clients_.notify_all();
    cv_replicas_.notify_all();
    for (auto& [promise, result] : fulfil) {
      promise.set_value(std::move(result));
    }
    FireStateEvents(events);
    if (!events.empty()) {
      // A promotion may have happened: deliver the new primary's
      // suppressed observer backlog (no-op otherwise).
      replicas_[acting_primary]->gate->DrainBacklog();
      MaybeFireError();
    }
    NotifyUnlocked();
    lock.lock();
  }
  lock.unlock();
  cv_clients_.notify_all();
  NotifyUnlocked();
  // Hand the quiesced scheduler back for post-mortem inspection.
  rep.scheduler->ReleaseThreadAffinity();
}

Status ReplicaGroup::ForEachReplicaScheduler(
    std::function<Status(TransactionalProcessScheduler*)> fn) {
  return ForEachReplicaSchedulerIndexed(
      [&fn](int, TransactionalProcessScheduler* scheduler) {
        return fn(scheduler);
      });
}

Status ReplicaGroup::ForEachReplicaSchedulerIndexed(
    std::function<Status(int, TransactionalProcessScheduler*)> fn) {
  std::vector<int> targets;
  {
    std::unique_lock<std::mutex> lock(gmu_);
    if (!started_) {
      // Setup phase: the caller's thread still owns every scheduler.
      lock.unlock();
      for (auto& rep : replicas_) {
        if (!rep->alive) continue;
        TPM_RETURN_IF_ERROR(fn(rep->index, rep->scheduler.get()));
      }
      return Status::OK();
    }
    if (!error_.ok()) return error_;
    targets = LiveReplicasLocked();
    for (int r : targets) {
      Replica& rep = *replicas_[r];
      rep.command = [r, &fn](TransactionalProcessScheduler* scheduler) {
        return fn(r, scheduler);
      };
      rep.command_done = false;
    }
  }
  cv_replicas_.notify_all();
  Status first_error;
  std::unique_lock<std::mutex> lock(gmu_);
  for (int r : targets) {
    Replica& rep = *replicas_[r];
    cv_clients_.wait(lock, [&] {
      return rep.command_done || !rep.alive || stop_requested_;
    });
    if (!rep.command_done) {
      if (first_error.ok()) {
        first_error = Status::Unavailable(
            StrCat("replica ", r, " died before the command ran"));
      }
      continue;
    }
    if (first_error.ok() && !rep.command_status.ok()) {
      first_error = rep.command_status;
    }
  }
  return first_error;
}

SchedulerStats ReplicaGroup::PrimaryStatsSnapshot() const {
  std::lock_guard<std::mutex> lock(gmu_);
  return replicas_[primary_.load(std::memory_order_relaxed)]->stats_snapshot;
}

ReplicaGroupStats ReplicaGroup::Stats() const {
  std::lock_guard<std::mutex> lock(gmu_);
  ReplicaGroupStats stats = counters_;
  stats.live_replicas = static_cast<int>(LiveReplicasLocked().size());
  stats.primary = primary_.load(std::memory_order_relaxed);
  return stats;
}

ReplicaState ReplicaGroup::replica_state(int r) const {
  std::lock_guard<std::mutex> lock(gmu_);
  return replicas_[r]->state;
}

Status ReplicaGroup::status() const {
  std::lock_guard<std::mutex> lock(gmu_);
  return error_;
}

Status ReplicaGroup::Kill(int r) {
  if (r < 0 || r >= static_cast<int>(replicas_.size())) {
    return Status::InvalidArgument(StrCat("no replica ", r));
  }
  std::vector<StateEvent> events;
  std::vector<Fulfilment> fulfil;
  int acting_primary = 0;
  {
    std::lock_guard<std::mutex> lock(gmu_);
    if (!replicas_[r]->alive) {
      return Status::FailedPrecondition(
          StrCat("replica ", r, " already dead"));
    }
    MarkDeadLocked(r, ReplicaState::kKilled, &events, &fulfil);
    ApplyVotesLocked(&events, &fulfil);
    PruneRoundsLocked();
    acting_primary = primary_.load(std::memory_order_relaxed);
  }
  cv_replicas_.notify_all();
  cv_clients_.notify_all();
  for (auto& [promise, result] : fulfil) {
    promise.set_value(std::move(result));
  }
  FireStateEvents(events);
  replicas_[acting_primary]->gate->DrainBacklog();
  MaybeFireError();
  NotifyUnlocked();
  return Status::OK();
}

Status ReplicaGroup::Respawn(
    int r, const std::map<std::string, const ProcessDef*>& defs_by_name) {
  if (r < 0 || r >= static_cast<int>(replicas_.size())) {
    return Status::InvalidArgument(StrCat("no replica ", r));
  }
  int peer_index = 0;
  {
    std::lock_guard<std::mutex> lock(gmu_);
    if (!started_ || stop_requested_) {
      return Status::FailedPrecondition("replica group not running");
    }
    if (!error_.ok()) return error_;
    if (replicas_[r]->alive) {
      return Status::FailedPrecondition(StrCat("replica ", r, " is alive"));
    }
    if (!IsIdleLocked()) {
      return Status::FailedPrecondition(
          "respawn requires an idle group (drain first)");
    }
    peer_index = primary_.load(std::memory_order_relaxed);
  }
  Replica& rep = *replicas_[r];
  Replica& peer = *replicas_[peer_index];
  if (rep.log == nullptr) {
    return Status::FailedPrecondition(
        "respawn needs a WAL per replica (log mode is none): process-id "
        "continuity cannot be restored without one");
  }
  if (rep.worker.joinable()) rep.worker.join();

  // 1. Periphery: adopt every subsystem's state from the healthy peer.
  //    The group is idle, so the peer's worker is parked and its state
  //    quiescent (the gmu_ acquisition above is the happens-before edge).
  if (rep.subsystems.size() != peer.subsystems.size()) {
    return Status::Internal(
        StrCat("replica ", r, " has ", rep.subsystems.size(),
               " subsystems, peer ", peer_index, " has ",
               peer.subsystems.size()));
  }
  for (size_t i = 0; i < rep.subsystems.size(); ++i) {
    TPM_RETURN_IF_ERROR(
        rep.subsystems[i]->AdoptStateFrom(*peer.subsystems[i]));
  }

  // 2. WAL: restart it if the kill crashed it, then take the peer's
  //    records verbatim — RecoverShard below replays them for
  //    scheduler-side continuity (foremost next_pid_: replicas must keep
  //    minting identical pids after the respawn) and certifies the result.
  if (rep.log->wal()->crashed()) rep.log->wal()->Crash();
  TPM_ASSIGN_OR_RETURN(std::vector<SchedulerLogRecord> records,
                       peer.log->Records());
  TPM_RETURN_IF_ERROR(rep.log->ReplaceAll(records));

  // 3. Fresh scheduler over the adopted periphery.
  SchedulerOptions scheduler_options = options_.scheduler;
  scheduler_options.clock = &rep.clock;
  rep.scheduler = std::make_unique<TransactionalProcessScheduler>(
      scheduler_options, rep.log.get());
  for (Subsystem* subsystem : rep.subsystems) {
    TPM_RETURN_IF_ERROR(rep.scheduler->RegisterSubsystem(subsystem));
  }
  for (const auto& [a, b] : conflicts_) {
    rep.scheduler->AddConflict(a, b);
  }
  rep.scheduler->AddObserver(rep.gate.get());
  TPM_RETURN_IF_ERROR(RecoverShard(*rep.scheduler, defs_by_name,
                                   /*directives=*/nullptr,
                                   options_.shard_index));
  if (rep.clock.now() < peer.clock.now()) {
    rep.clock.AdvanceTo(peer.clock.now());
  }

  // 4. Re-baseline every live replica's vote digests: history digests
  //    restart and stats baselines snap to now, so subsequent votes
  //    compare only the post-respawn suffix (the respawned replica's
  //    absolute counters can never match its longer-lived peers').
  TPM_RETURN_IF_ERROR(ForEachReplicaSchedulerIndexed(
      [this](int index, TransactionalProcessScheduler* scheduler) {
        scheduler->ResetHistoryDigest();
        SchedulerStats baseline = scheduler->stats();
        std::lock_guard<std::mutex> lock(gmu_);
        replicas_[index]->stats_baseline = baseline;
        return Status::OK();
      }));
  rep.scheduler->ResetHistoryDigest();
  SchedulerStats own_stats = rep.scheduler->stats();
  // The fresh scheduler reports virtual_time 0 until its first step, but
  // its clock already sits at the peer's time; the baseline must account
  // for that or the first vote's virtual_time delta spans the whole
  // pre-respawn epoch and falsely diverges.
  own_stats.virtual_time = rep.clock.now();

  // 5. Rejoin at the current round with a fresh vote slate.
  ReplicaState from;
  {
    std::lock_guard<std::mutex> lock(gmu_);
    rep.stats_baseline = own_stats;
    rep.stats_snapshot = own_stats;
    rep.cursor = rounds_published_;
    rep.has_work = false;
    from = rep.state;
    rep.state = ReplicaState::kActive;
    rep.alive = true;
    voter_.Reset();
  }
  rep.gate->ResetForRespawn();
  rep.scheduler->ReleaseThreadAffinity();
  rep.worker = std::thread([this, r] { WorkerLoop(r); });
  if (on_state_change_) on_state_change_(r, from, ReplicaState::kActive);
  NotifyUnlocked();
  return Status::OK();
}

}  // namespace tpm
