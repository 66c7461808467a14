#include "runtime/shard.h"

#include <chrono>
#include <utility>
#include <vector>

#include "common/str_util.h"

namespace tpm {

RuntimeShard::RuntimeShard(Options options)
    : options_(std::move(options)), queue_(options_.queue_capacity) {}

RuntimeShard::~RuntimeShard() { Stop(); }

Status RuntimeShard::Init() {
  if (options_.replication.factor > 1) {
    if (options_.probe != nullptr) {
      return Status::InvalidArgument(
          "elastic probe is not supported on a replicated shard");
    }
    ReplicaGroup::Options group_options;
    group_options.shard_index = options_.index;
    group_options.replication = options_.replication;
    group_options.scheduler = options_.scheduler;
    group_options.lockstep = options_.mode == TickMode::kLockstep;
    group_options.log_mode = options_.log_mode;
    group_options.wal_dir = options_.wal_dir;
    group_ = std::make_unique<ReplicaGroup>(std::move(group_options));
    return group_->Init();
  }
  TPM_ASSIGN_OR_RETURN(log_, OpenShardLog(options_.log_mode, options_.wal_dir,
                                          options_.index, /*replica=*/-1));
  SchedulerOptions scheduler_options = options_.scheduler;
  scheduler_options.clock = &clock_;
  scheduler_ = std::make_unique<TransactionalProcessScheduler>(
      scheduler_options, log_.get());
  return Status::OK();
}

TransactionalProcessScheduler* RuntimeShard::scheduler() {
  if (group_ != nullptr) return group_->replica_scheduler(group_->primary());
  return scheduler_.get();
}

VirtualClock* RuntimeShard::clock() {
  if (group_ != nullptr) return group_->replica_clock(group_->primary());
  return &clock_;
}

RecoveryLog* RuntimeShard::log() {
  if (group_ != nullptr) return group_->replica_log(group_->primary());
  return log_.get();
}

Status RuntimeShard::RegisterSubsystem(Subsystem* subsystem) {
  if (group_ != nullptr) return group_->RegisterSubsystem(0, subsystem);
  return scheduler_->RegisterSubsystem(subsystem);
}

void RuntimeShard::AddConflict(ServiceId a, ServiceId b) {
  if (group_ != nullptr) {
    group_->AddConflict(a, b);
  } else {
    scheduler_->AddConflict(a, b);
  }
}

void RuntimeShard::AddObserver(SchedulerObserver* observer) {
  if (group_ != nullptr) {
    group_->AddDownstreamObserver(observer);
  } else {
    scheduler_->AddObserver(observer);
  }
}

void RuntimeShard::Start() {
  if (group_ != nullptr) {
    group_->SetErrorCallback(
        [this](const Status& status) { RecordError(status); });
    group_->SetNotifyCallback([this] { cv_client_.notify_all(); });
    group_->Start();
  } else {
    // Hand ownership from the setup thread (which registered subsystems
    // and observers) to the worker; the worker's first scheduler call
    // rebinds the affinity guard, and the thread construction provides
    // the happens-before edge.
    scheduler_->ReleaseThreadAffinity();
  }
  worker_ = std::thread([this] { WorkerLoop(); });
}

Status RuntimeShard::EnqueueSubmission(Submission submission) {
  return EnqueueSubmission(std::move(submission), options_.backpressure);
}

Status RuntimeShard::EnqueueSubmission(Submission submission,
                                       BackpressurePolicy policy) {
  TPM_RETURN_IF_ERROR(queue_.Push(std::move(submission), policy));
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Wake a free-running worker; in lockstep the next granted tick
    // drains the queue.
  }
  cv_worker_.notify_all();
  // Routed traffic resumes a parked shard (DPM wake-on-work).
  Unpark();
  return Status::OK();
}

Status RuntimeShard::Park() {
  if (options_.mode == TickMode::kLockstep) {
    return Status::FailedPrecondition(
        "cannot park a lockstep shard (it would stall the tick barrier)");
  }
  if (group_ != nullptr) {
    return Status::FailedPrecondition(
        "cannot park a replicated shard");
  }
  std::lock_guard<std::mutex> lock(mu_);
  parked_ = true;
  return Status::OK();
}

bool RuntimeShard::Unpark() {
  bool transitioned = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (parked_) {
      parked_ = false;
      transitioned = true;
    }
  }
  if (transitioned) {
    cv_worker_.notify_all();
    if (options_.on_unpark) options_.on_unpark(options_.index);
  }
  return transitioned;
}

bool RuntimeShard::parked() const {
  std::lock_guard<std::mutex> lock(mu_);
  return parked_;
}

void RuntimeShard::PostAgentOp(std::function<void()> op) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    agent_ops_.push_back(std::move(op));
  }
  cv_worker_.notify_all();
}

void RuntimeShard::GrantTick() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++ticks_granted_;
  }
  cv_worker_.notify_all();
}

Status RuntimeShard::WaitTickDone() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_client_.wait(lock, [&] {
    return ticks_done_ >= ticks_granted_ || !error_.ok() || stopped_;
  });
  return error_;
}

void RuntimeShard::PostCommand(std::function<Status()> fn) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    command_ = std::move(fn);
    command_done_ = false;
  }
  cv_worker_.notify_all();
}

Status RuntimeShard::WaitCommandDone() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_client_.wait(lock, [&] { return command_done_ || stopped_; });
  if (!command_done_) {
    return Status::Unavailable(
        StrCat("shard ", options_.index, " stopped before the command ran"));
  }
  return command_status_;
}

void RuntimeShard::PostSchedulerCommand(
    std::function<Status(TransactionalProcessScheduler*)> fn) {
  if (group_ != nullptr) {
    ReplicaGroup* group = group_.get();
    PostCommand([group, fn = std::move(fn)] {
      return group->ForEachReplicaScheduler(fn);
    });
    return;
  }
  TransactionalProcessScheduler* scheduler = scheduler_.get();
  PostCommand(
      [scheduler, fn = std::move(fn)] { return fn(scheduler); });
}

Status RuntimeShard::WaitIdle() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_client_.wait(lock, [&] {
    if (!error_.ok() || stopped_) return true;
    if (!(!busy_ && !has_work_ && queue_.empty() && agent_ops_.empty())) {
      return false;
    }
    // Replicated: the sequencer being idle is not enough — every live
    // replica must have consumed every published round (lock order is
    // always shard mu_ then group gmu_; the group's notify callback pokes
    // cv_client_ without taking mu_).
    return group_ == nullptr || group_->IsIdle();
  });
  return error_;
}

bool RuntimeShard::IsIdle() {
  std::lock_guard<std::mutex> lock(mu_);
  return !busy_ && !has_work_ && queue_.empty() && agent_ops_.empty() &&
         (group_ == nullptr || group_->IsIdle());
}

SchedulerStats RuntimeShard::StatsSnapshot() const {
  // Replicated: the acting primary publishes its snapshot at the end of
  // every pass — fresher than the sequencer's copy, which only updates
  // when a round is published.
  if (group_ != nullptr) return group_->PrimaryStatsSnapshot();
  std::lock_guard<std::mutex> lock(mu_);
  return stats_snapshot_;
}

Status RuntimeShard::status() const {
  std::lock_guard<std::mutex> lock(mu_);
  return error_;
}

void RuntimeShard::Stop() {
  if (!worker_.joinable()) return;
  queue_.Close();
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_requested_ = true;
  }
  cv_worker_.notify_all();
  // Group first: the worker may be parked inside PublishRound's flow
  // control (waiting on the group's condition variable, which the shard's
  // notify cannot reach) — the group's stop fails that wait and lets the
  // worker exit.
  if (group_ != nullptr) group_->Stop();
  worker_.join();
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopped_ = true;
  }
  cv_client_.notify_all();
}

void RuntimeShard::RecordError(const Status& status) {
  std::lock_guard<std::mutex> lock(mu_);
  if (error_.ok()) {
    error_ = Status(status.code(),
                    StrCat("shard ", options_.index, ": ", status.message()));
  }
}

void RuntimeShard::PublishStats() {
  // Replicated: the primary replica publishes its own (StatsSnapshot).
  if (scheduler_ == nullptr) return;
  SchedulerStats snapshot = scheduler_->stats();  // worker owns the scheduler
  std::lock_guard<std::mutex> lock(mu_);
  stats_snapshot_ = snapshot;
}

std::vector<Submission> RuntimeShard::TakeSubmissions() {
  std::vector<Submission> submissions = queue_.DrainAll();
  if (options_.probe != nullptr && !submissions.empty()) {
    // Offer every drained submission to the probe before admission. An
    // intercepted submission is moved out wholesale (its def_owner rides
    // along into the migration buffer), so the retained_defs_ transfer
    // below must only see the survivors.
    size_t kept = 0;
    for (size_t i = 0; i < submissions.size(); ++i) {
      if (options_.probe->InterceptSubmission(options_.index,
                                              submissions[i])) {
        continue;
      }
      if (kept != i) submissions[kept] = std::move(submissions[i]);
      ++kept;
    }
    submissions.resize(kept);
  }
  for (Submission& submission : submissions) {
    if (submission.def_owner != nullptr) {
      retained_defs_.emplace(submission.def_owner.get(),
                             std::move(submission.def_owner));
    }
  }
  return submissions;
}

bool RuntimeShard::RunOnePass(bool had_work) {
  const bool probed = options_.probe != nullptr;
  std::chrono::steady_clock::time_point pass_start;
  if (probed) pass_start = std::chrono::steady_clock::now();
  // Agent ops first: they may submit sub-processes or release held
  // commits, and the pass below should see their effects. Run outside
  // mu_ (they take the agent's lock; the agent may post to other shards).
  std::deque<std::function<void()>> ops;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ops.swap(agent_ops_);
  }
  for (std::function<void()>& op : ops) op();
  std::vector<Submission> submissions = TakeSubmissions();
  int64_t admitted_count = 0;
  Result<bool> more = AdmitAndStep(
      *scheduler_, submissions, had_work || !ops.empty(),
      /*to_quiescence=*/false, [&](std::vector<Result<ProcessId>> pids) {
        for (size_t i = 0; i < pids.size(); ++i) {
          if (pids[i].ok()) ++admitted_count;
          submissions[i].result.set_value(std::move(pids[i]));
        }
        return Status::OK();
      });
  if (!more.ok()) RecordError(more.status());
  const bool has_work = more.ok() && *more;
  PublishStats();
  if (probed) {
    ShardPassSample sample;
    sample.pass_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                         std::chrono::steady_clock::now() - pass_start)
                         .count();
    sample.queue_depth = queue_.size();
    sample.admitted = admitted_count;
    sample.committed_total = scheduler_->stats().processes_committed;
    options_.probe->OnPassEnd(options_.index, sample);
  }
  return has_work;
}

void RuntimeShard::PublishRound() {
  // A round is this pass's queue drain. Lockstep publishes every tick
  // (empty rounds included — a tick is a round, so the replicas' pass
  // count matches the unreplicated worker's) and blocks on the tick
  // barrier; free-running publishes only real submissions and lets the
  // replicas run ahead on their own threads.
  std::vector<Submission> submissions = TakeSubmissions();
  Status status;
  if (options_.mode == TickMode::kLockstep) {
    status = group_->PublishRoundAndWait(std::move(submissions));
  } else if (!submissions.empty()) {
    status = group_->PublishRound(std::move(submissions));
  }
  if (!status.ok()) RecordError(status);
}

void RuntimeShard::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    cv_worker_.wait(lock, [&] {
      if (stop_requested_ || command_ != nullptr) return true;
      if (!error_.ok()) return false;  // sticky error: only commands/stop
      if (parked_) return false;  // DPM sleep: only commands/stop/Unpark
      if (options_.mode == TickMode::kLockstep) {
        return ticks_granted_ > ticks_done_;
      }
      return has_work_ || !queue_.empty() || !agent_ops_.empty();
    });
    if (command_ != nullptr) {
      std::function<Status()> command = std::move(command_);
      command_ = nullptr;
      lock.unlock();
      Status status = command();
      PublishStats();
      lock.lock();
      command_status_ = status;
      command_done_ = true;
      cv_client_.notify_all();
      continue;
    }
    if (stop_requested_) break;
    // The pass body is the only fork between a plain and a replicated
    // shard. Replicated, has_work_ stays false and agent_ops_ empty: the
    // replicas track their own work, and IsIdle/WaitIdle ask the group.
    const bool had_work = has_work_;
    busy_ = true;
    lock.unlock();
    bool has_work = false;
    if (group_ != nullptr) {
      PublishRound();
    } else {
      has_work = RunOnePass(had_work);
    }
    lock.lock();
    busy_ = false;
    has_work_ = has_work;
    if (options_.mode == TickMode::kLockstep) {
      ++ticks_done_;
      cv_client_.notify_all();
    } else if (!has_work_ && queue_.empty()) {
      cv_client_.notify_all();  // idle waiters
    }
  }
  lock.unlock();
  // Fail whatever was still queued: the runtime is stopping without
  // draining (kill semantics), and a promise must never be dropped unset.
  // (Replicated, the group's own Stop fails the rounds already published
  // but not yet released.)
  for (Submission& submission : queue_.DrainAll()) {
    submission.result.set_value(Status::Unavailable(
        StrCat("shard ", options_.index, " stopped before admission")));
  }
  // Hand the quiesced scheduler back: join() gives the inspecting thread
  // its happens-before edge. (Replicas release their own.)
  if (scheduler_ != nullptr) scheduler_->ReleaseThreadAffinity();
}

}  // namespace tpm
