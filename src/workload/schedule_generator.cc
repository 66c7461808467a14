#include "workload/schedule_generator.h"

#include "common/str_util.h"
#include "core/flex_structure.h"

namespace tpm {

namespace {

// Bookkeeping of the random interleaving, by process index (pid - 1).
struct Progress {
  std::vector<size_t> next_activity;
  std::vector<bool> done;        // runs no further activities
  std::vector<bool> terminated;  // has a commit or abort event
  int remaining = 0;             // processes not done

  void Terminate(int p) {
    terminated[p] = true;
    if (!done[p]) {
      done[p] = true;
      --remaining;
    }
  }
};

// Aborts a random started, unterminated process, or a random group of them
// (see RandomScheduleConfig::abort_probability).
Status AppendRandomAbort(const std::vector<std::unique_ptr<ProcessDef>>& defs,
                         Progress* progress, Rng* rng,
                         ProcessSchedule* schedule) {
  std::vector<int> started;
  for (size_t p = 0; p < progress->next_activity.size(); ++p) {
    if (progress->next_activity[p] > 0 && !progress->terminated[p]) {
      started.push_back(static_cast<int>(p));
    }
  }
  if (started.empty()) return Status::OK();
  const int victim = started[rng->NextIndex(started.size())];
  if (rng->NextBool(0.25)) {
    std::vector<ProcessId> group;
    for (int p : started) {
      if (p == victim || rng->NextBool(0.5)) group.push_back(ProcessId(p + 1));
    }
    TPM_RETURN_IF_ERROR(schedule->Append(ScheduleEvent::GroupAbort(group)));
    for (ProcessId pid : group) progress->Terminate(pid.value() - 1);
    return Status::OK();
  }
  const ProcessId pid(victim + 1);
  const int64_t executed =
      static_cast<int64_t>(progress->next_activity[victim]);
  // Before the pivot every executed activity is compensatable.
  if (IsCompensatableKind(defs[victim]->KindOf(ActivityId(executed)))) {
    const int64_t undo = rng->NextInRange(0, executed);
    for (int64_t a = executed; a > executed - undo; --a) {
      TPM_RETURN_IF_ERROR(schedule->Append(
          ScheduleEvent::Activity(ActivityInstance{pid, ActivityId(a), true})));
    }
  }
  TPM_RETURN_IF_ERROR(schedule->Append(ScheduleEvent::Abort(pid)));
  progress->Terminate(victim);
  return Status::OK();
}

}  // namespace

Result<GeneratedSchedule> GenerateRandomSchedule(
    const RandomScheduleConfig& config, Rng* rng) {
  GeneratedSchedule result;

  // Service ids: activity j of process p uses service 1000*p + j; its
  // compensation uses 1000*p + 500 + j.
  for (int p = 1; p <= config.num_processes; ++p) {
    auto def = std::make_unique<ProcessDef>(StrCat("R", p));
    const int n_comp = static_cast<int>(
        rng->NextInRange(config.min_compensatable, config.max_compensatable));
    const int n_ret = static_cast<int>(
        rng->NextInRange(config.min_retriable, config.max_retriable));
    ActivityId prev;
    int index = 0;
    for (int i = 0; i < n_comp; ++i) {
      ++index;
      ActivityId id = def->AddActivity(
          StrCat("c", index), ActivityKind::kCompensatable,
          ServiceId(1000 * p + index), ServiceId(1000 * p + 500 + index));
      if (prev.valid()) TPM_RETURN_IF_ERROR(def->AddEdge(prev, id));
      prev = id;
    }
    ++index;
    ActivityId pivot = def->AddActivity(StrCat("p", index),
                                        ActivityKind::kPivot,
                                        ServiceId(1000 * p + index));
    if (prev.valid()) TPM_RETURN_IF_ERROR(def->AddEdge(prev, pivot));
    prev = pivot;
    for (int i = 0; i < n_ret; ++i) {
      ++index;
      ActivityId id = def->AddActivity(StrCat("r", index),
                                       ActivityKind::kRetriable,
                                       ServiceId(1000 * p + index));
      TPM_RETURN_IF_ERROR(def->AddEdge(prev, id));
      prev = id;
    }
    TPM_RETURN_IF_ERROR(def->Validate());
    TPM_RETURN_IF_ERROR(ValidateWellFormedFlex(*def));
    result.defs.push_back(std::move(def));
  }

  // Random conflicts across processes.
  for (int p = 1; p <= config.num_processes; ++p) {
    for (int q = p + 1; q <= config.num_processes; ++q) {
      const auto& dp = *result.defs[p - 1];
      const auto& dq = *result.defs[q - 1];
      for (const ActivityDecl& a : dp.activities()) {
        for (const ActivityDecl& b : dq.activities()) {
          if (rng->NextBool(config.conflict_density)) {
            result.spec.AddConflict(a.service, b.service);
          }
        }
      }
    }
  }

  // Random interleaving of the primary paths.
  for (int p = 1; p <= config.num_processes; ++p) {
    TPM_RETURN_IF_ERROR(
        result.schedule.AddProcess(ProcessId(p), result.defs[p - 1].get()));
  }
  Progress progress{std::vector<size_t>(config.num_processes, 0),
                    std::vector<bool>(config.num_processes, false),
                    std::vector<bool>(config.num_processes, false),
                    config.num_processes};
  while (progress.remaining > 0) {
    if (rng->NextBool(config.stop_probability)) break;
    if (config.abort_probability > 0 &&
        rng->NextBool(config.abort_probability)) {
      TPM_RETURN_IF_ERROR(
          AppendRandomAbort(result.defs, &progress, rng, &result.schedule));
      continue;
    }
    // Pick a random process that still has activities to run.
    int candidate = static_cast<int>(rng->NextIndex(config.num_processes));
    while (progress.done[candidate]) {
      candidate = (candidate + 1) % config.num_processes;
    }
    const ProcessDef& def = *result.defs[candidate];
    size_t& next = progress.next_activity[candidate];
    ActivityId act(static_cast<int64_t>(next) + 1);
    TPM_RETURN_IF_ERROR(result.schedule.Append(ScheduleEvent::Activity(
        ActivityInstance{ProcessId(candidate + 1), act, false})));
    if (++next == def.num_activities()) {
      progress.done[candidate] = true;
      --progress.remaining;
      if (rng->NextBool(config.commit_probability)) {
        TPM_RETURN_IF_ERROR(result.schedule.Append(
            ScheduleEvent::Commit(ProcessId(candidate + 1))));
        progress.terminated[candidate] = true;
      }
    }
  }
  return result;
}

}  // namespace tpm
