#ifndef TPM_CORE_COMPLETED_SCHEDULE_H_
#define TPM_CORE_COMPLETED_SCHEDULE_H_

#include <map>
#include <set>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/schedule.h"

namespace tpm {

/// Builds the completed process schedule S̃ of S (Def. 8):
///
/// 1. All active processes are aborted jointly: a group abort
///    A(P_{n_1},...,P_{n_s}) is appended at the end of S (Def. 8 2b).
/// 2. Every abort activity A_i (individual or within a group abort) is
///    replaced by the activities of the completion C(P_i) followed by C_i
///    (Def. 8 2c: the abort is changed into a commit once the completion is
///    executed).
/// 3. The ordering constraints of Def. 8 3(a)-(f) are satisfied
///    constructively:
///    * original orders are preserved (3a) — completions are expanded in
///      place;
///    * intra-completion order is preserved (3b) and completions follow the
///      process's original activities, preceding C_i (3c);
///    * within a group abort, the completions are merged into one total
///      order (satisfying 3d): all compensating steps first, globally in
///      *reverse order of their original activities' schedule positions*
///      (the only order admissible by Lemma 2), then all forward
///      (retriable) steps — placing compensations before the retriable
///      steps of other completions as required by Lemma 3;
///    * completions are inserted at the abort's position in the sequence,
///      so activities ordered after the abort in S follow the completion
///      (3e) and completions of earlier aborts precede completions of later
///      aborts (3f).
///
/// Unlike the expanded schedule of the traditional unified theory, S̃ may
/// contain activities that never appeared in S (the forward recovery path
/// of processes in F-REC), which is why correctness reasoning must always
/// use S̃ (§3.5).
Result<ProcessSchedule> CompleteSchedule(const ProcessSchedule& schedule);

/// Builds S̃ incrementally, one event of S at a time. The in-place expansion
/// of the events fed so far (Def. 8 2c) only grows as S grows; only the
/// final group abort of the still-active processes (2b) depends on where S
/// ends, and ActiveTail() keeps just that part up to date. CompleteSchedule
/// is Add() over every event followed by Finish(); the PRED certifier reads
/// ActiveTail() after every event instead.
class ScheduleCompleter {
 public:
  /// Registers the processes of `schedule`; its events are not fed.
  explicit ScheduleCompleter(const ProcessSchedule& schedule);

  /// Feeds the next event of S: activities and commits are copied, an
  /// abort or group abort is replaced by the merged completions of its
  /// processes followed by their C_i.
  Status Add(const ScheduleEvent& event);

  /// S̃ without its final group abort.
  const ProcessSchedule& expanded() const { return expanded_; }

  /// The activities the final group abort of the processes still active in
  /// expanded() expands into, in S̃ order (their C_i events follow). Only
  /// the contributions of processes with new events since the last call
  /// are recomputed.
  Result<std::vector<ActivityInstance>> ActiveTail();

  /// S̃: expanded() with the final group abort expanded.
  Result<ProcessSchedule> Finish() &&;

 private:
  /// What aborting P contributes: C(P)'s compensations, each with the
  /// position of its original (the Lemma 2 sort key), and its forward
  /// steps. Depends only on P's own events, so it is cached until P's next
  /// event.
  struct AbortContribution {
    std::vector<std::pair<size_t, ActivityInstance>> backward;
    std::vector<ActivityInstance> forward;
  };
  /// A compensation of the final group abort, ordered as AbortSteps orders
  /// it for the active processes in pid order.
  struct TailStep {
    size_t original_pos;
    ProcessId pid;
    size_t index;  // within the process's compensations
    ActivityInstance inst;

    bool operator<(const TailStep& other) const {
      if (original_pos != other.original_pos) {
        return original_pos > other.original_pos;
      }
      if (pid != other.pid) return pid < other.pid;
      return index < other.index;
    }
  };

  Result<const AbortContribution*> ContributionOf(ProcessId pid);
  /// The merged completions of `pids` against the current expansion
  /// (Def. 8 3(d)).
  Result<std::vector<ActivityInstance>> AbortSteps(
      const std::vector<ProcessId>& pids);
  Status ExpandAbort(const std::vector<ProcessId>& pids);
  Status AppendExpanded(const ScheduleEvent& event);

  ProcessSchedule expanded_;
  /// Position in expanded_ of the latest effective commit of each original
  /// activity.
  std::map<ActivityInstance, size_t> commit_pos_;
  std::map<ProcessId, AbortContribution> contributions_;
  /// The final group abort, kept by ActiveTail(): the compensations in
  /// S̃ order and the forward steps by process. Processes with events
  /// since the last call are `stale_`, their steps not yet included.
  std::vector<TailStep> tail_backward_;
  std::map<ProcessId, std::vector<ActivityInstance>> tail_forward_;
  std::set<ProcessId> stale_;
};

}  // namespace tpm

#endif  // TPM_CORE_COMPLETED_SCHEDULE_H_
