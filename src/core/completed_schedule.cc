#include "core/completed_schedule.h"

#include <algorithm>

#include "common/str_util.h"
#include "core/completion.h"

namespace tpm {

ScheduleCompleter::ScheduleCompleter(const ProcessSchedule& schedule) {
  for (const auto& [pid, def] : schedule.processes()) {
    Status s = expanded_.AddProcess(pid, def);
    (void)s;  // cannot fail: defs were validated on original insertion
  }
}

Status ScheduleCompleter::AppendExpanded(const ScheduleEvent& event) {
  TPM_RETURN_IF_ERROR(expanded_.Append(event, /*enforce_legal=*/false));
  // Aborts never reach expanded_: they arrive expanded, ending in C_i.
  const ProcessId pid =
      event.type == EventType::kActivity ? event.act.process : event.process;
  if (event.type == EventType::kActivity && !event.aborted_invocation &&
      !event.act.inverse) {
    commit_pos_[event.act] = expanded_.size() - 1;
  }
  contributions_.erase(pid);
  std::erase_if(tail_backward_,
                [&](const TailStep& step) { return step.pid == pid; });
  tail_forward_.erase(pid);
  if (expanded_.StateOf(pid)->IsActive()) {
    stale_.insert(pid);
  } else {
    stale_.erase(pid);
  }
  return Status::OK();
}

Result<const ScheduleCompleter::AbortContribution*>
ScheduleCompleter::ContributionOf(ProcessId pid) {
  auto it = contributions_.find(pid);
  if (it != contributions_.end()) return &it->second;
  const ProcessExecutionState* state = expanded_.StateOf(pid);
  if (state == nullptr) {
    return Status::NotFound(StrCat("unknown process P", pid));
  }
  TPM_ASSIGN_OR_RETURN(Completion completion, ComputeCompletion(*state));
  AbortContribution contribution;
  for (const CompletionStep& step : completion.steps) {
    ActivityInstance inst{pid, step.activity, step.inverse};
    if (step.inverse) {
      auto pos = commit_pos_.find(ActivityInstance{pid, step.activity, false});
      contribution.backward.emplace_back(
          pos == commit_pos_.end() ? 0 : pos->second, inst);
    } else {
      contribution.forward.push_back(inst);
    }
  }
  return &contributions_.emplace(pid, std::move(contribution)).first->second;
}

Result<std::vector<ActivityInstance>> ScheduleCompleter::AbortSteps(
    const std::vector<ProcessId>& pids) {
  std::vector<std::pair<size_t, ActivityInstance>> backward;
  std::vector<ActivityInstance> forward;
  for (ProcessId pid : pids) {
    TPM_ASSIGN_OR_RETURN(const AbortContribution* contribution,
                         ContributionOf(pid));
    backward.insert(backward.end(), contribution->backward.begin(),
                    contribution->backward.end());
    forward.insert(forward.end(), contribution->forward.begin(),
                   contribution->forward.end());
  }

  // Compensations in reverse order of the original activities (Lemma 2);
  // stable sort keeps deterministic output when positions tie.
  std::stable_sort(backward.begin(), backward.end(),
                   [](const auto& a, const auto& b) {
                     return a.first > b.first;
                   });

  // All compensations precede all forward steps (Lemma 3). Forward steps
  // keep per-process completion order; `pids` iteration order fixes the
  // inter-process order required by Def. 8 3(d).
  std::vector<ActivityInstance> steps;
  steps.reserve(backward.size() + forward.size());
  for (const auto& step : backward) steps.push_back(step.second);
  steps.insert(steps.end(), forward.begin(), forward.end());
  return steps;
}

Status ScheduleCompleter::ExpandAbort(const std::vector<ProcessId>& pids) {
  TPM_ASSIGN_OR_RETURN(std::vector<ActivityInstance> steps, AbortSteps(pids));
  for (const ActivityInstance& inst : steps) {
    TPM_RETURN_IF_ERROR(AppendExpanded(ScheduleEvent::Activity(inst)));
  }
  for (ProcessId pid : pids) {
    TPM_RETURN_IF_ERROR(AppendExpanded(ScheduleEvent::Commit(pid)));
  }
  return Status::OK();
}

Status ScheduleCompleter::Add(const ScheduleEvent& event) {
  switch (event.type) {
    case EventType::kActivity:
    case EventType::kCommit:
      return AppendExpanded(event);
    case EventType::kAbort:
      return ExpandAbort({event.process});
    case EventType::kGroupAbort:
      return ExpandAbort(event.group);
  }
  return Status::OK();
}

Result<std::vector<ActivityInstance>> ScheduleCompleter::ActiveTail() {
  // A process without an activity event has an empty completion, so the
  // processes with events (the stale ones among them) are all that count.
  while (!stale_.empty()) {
    const ProcessId pid = *stale_.begin();
    TPM_ASSIGN_OR_RETURN(const AbortContribution* contribution,
                         ContributionOf(pid));
    stale_.erase(stale_.begin());
    for (size_t i = 0; i < contribution->backward.size(); ++i) {
      const auto& [pos, inst] = contribution->backward[i];
      TailStep step{pos, pid, i, inst};
      tail_backward_.insert(
          std::upper_bound(tail_backward_.begin(), tail_backward_.end(), step),
          step);
    }
    if (!contribution->forward.empty()) {
      tail_forward_[pid] = contribution->forward;
    }
  }
  std::vector<ActivityInstance> steps;
  steps.reserve(tail_backward_.size());
  for (const TailStep& step : tail_backward_) steps.push_back(step.inst);
  for (const auto& [pid, forward] : tail_forward_) {
    steps.insert(steps.end(), forward.begin(), forward.end());
  }
  return steps;
}

Result<ProcessSchedule> ScheduleCompleter::Finish() && {
  // Def. 8 2(b): all still-active processes are aborted jointly at the end.
  std::vector<ProcessId> active = expanded_.ActiveProcesses();
  if (!active.empty()) TPM_RETURN_IF_ERROR(ExpandAbort(active));
  return std::move(expanded_);
}

Result<ProcessSchedule> CompleteSchedule(const ProcessSchedule& schedule) {
  ScheduleCompleter completer(schedule);
  for (const ScheduleEvent& event : schedule.events()) {
    TPM_RETURN_IF_ERROR(completer.Add(event));
  }
  return std::move(completer).Finish();
}

}  // namespace tpm
