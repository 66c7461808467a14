#include "core/recoverability.h"

#include <algorithm>
#include <map>
#include <vector>

#include "common/str_util.h"
#include "core/pred.h"
#include "core/service_table.h"

namespace tpm {

std::string ProcRecViolation::ToString() const {
  return StrCat("Proc-REC clause ", clause, " violated by ",
                ActivityInstanceToString(earlier), " <<_S ",
                ActivityInstanceToString(later));
}

ProcRecOutcome AnalyzeProcessRecoverability(const ProcessSchedule& schedule,
                                            const ConflictSpec& spec) {
  ProcRecOutcome outcome;
  const auto& events = schedule.events();
  const size_t n = events.size();

  // Commit event position per process.
  std::map<ProcessId, size_t> commit_pos;
  for (size_t i = 0; i < n; ++i) {
    if (events[i].type == EventType::kCommit) {
      commit_pos[events[i].process] = i;
    }
  }

  // One backward pass: for each effective activity event, the next
  // non-compensatable original activity of its process strictly after it
  // (SIZE_MAX if none), and its dense service. Events InstancesConflict
  // cannot relate (a released process, an unknown activity) get none.
  ServiceTable services(spec);
  std::vector<int> service_of(n, -1);
  std::vector<size_t> next_non_comp(n, SIZE_MAX);
  std::map<ProcessId, size_t> upcoming;
  for (size_t k = n; k-- > 0;) {
    const ScheduleEvent& e = events[k];
    if (e.type != EventType::kActivity || e.aborted_invocation) continue;
    const ProcessDef* def = schedule.DefOf(e.act.process);
    if (def == nullptr) continue;
    auto it = upcoming.find(e.act.process);
    if (it != upcoming.end()) next_non_comp[k] = it->second;
    if (!e.act.inverse && IsNonCompensatable(def->KindOf(e.act.activity))) {
      upcoming[e.act.process] = k;
    }
    const ServiceId service = schedule.ServiceOf(e.act);
    if (service.valid()) service_of[k] = services.Intern(service);
  }
  std::vector<std::vector<size_t>> positions(services.size());
  for (size_t k = 0; k < n; ++k) {
    if (service_of[k] >= 0) positions[service_of[k]].push_back(k);
  }

  std::vector<size_t> later;
  for (size_t i = 0; i < n; ++i) {
    if (service_of[i] < 0) continue;
    const ProcessId pi = events[i].act.process;
    // The conflicting events after i, in schedule order.
    later.clear();
    for (int partner : services.PartnersOf(service_of[i])) {
      const std::vector<size_t>& at = positions[partner];
      for (auto it = std::upper_bound(at.begin(), at.end(), i); it != at.end();
           ++it) {
        if (events[*it].act.process != pi) later.push_back(*it);
      }
    }
    std::sort(later.begin(), later.end());
    for (size_t j : later) {
      const ProcessId pj = events[j].act.process;

      // Clause 1: C_i <<_S C_j.
      auto ci = commit_pos.find(pi);
      auto cj = commit_pos.find(pj);
      if (cj != commit_pos.end() &&
          (ci == commit_pos.end() || ci->second > cj->second)) {
        outcome.violations.push_back(
            ProcRecViolation{events[i].act, events[j].act, 1});
      }

      // Clause 2: next non-compensatable of P_j after j must succeed the
      // next non-compensatable of P_i after i.
      const size_t a_jm = next_non_comp[j];
      const size_t a_in = next_non_comp[i];
      if (a_jm != SIZE_MAX && a_in != SIZE_MAX && a_jm < a_in) {
        outcome.violations.push_back(
            ProcRecViolation{events[i].act, events[j].act, 2});
      }
    }
  }
  outcome.process_recoverable = outcome.violations.empty();
  return outcome;
}

bool IsProcessRecoverable(const ProcessSchedule& schedule,
                          const ConflictSpec& spec) {
  return AnalyzeProcessRecoverability(schedule, spec).process_recoverable;
}

Status CertifyRecovered(const ProcessSchedule& schedule,
                        const ConflictSpec& spec) {
  TPM_ASSIGN_OR_RETURN(PredOutcome pred, AnalyzePRED(schedule, spec));
  if (!pred.prefix_reducible) {
    return Status::Internal(
        StrCat("recovered history is ", pred.ToString()));
  }
  ProcRecOutcome rec =
      AnalyzeProcessRecoverability(CommittedProjection(schedule), spec);
  if (!rec.process_recoverable) {
    return Status::Internal(
        StrCat("recovered committed projection is not Proc-REC: ",
               rec.violations.front().ToString()));
  }
  return Status::OK();
}

}  // namespace tpm
