#ifndef TPM_CORE_PRED_H_
#define TPM_CORE_PRED_H_

#include <string>

#include "common/status.h"
#include "core/conflict.h"
#include "core/reduction.h"
#include "core/schedule.h"

namespace tpm {

/// Result of a prefix-reducibility analysis.
struct PredOutcome {
  bool prefix_reducible = false;
  /// When not PRED: length (event count) of the shortest non-reducible
  /// prefix.
  size_t violating_prefix = 0;
  /// When not PRED: the irreducible process cycle of that prefix.
  std::vector<ProcessId> cycle;

  std::string ToString() const;
};

/// Checks prefix-reducibility (PRED, Def. 10): every prefix of the schedule
/// must be reducible. RED itself is not prefix closed (§3.4), so PRED is
/// the criterion usable for dynamic scheduling; by Theorem 1 every PRED
/// schedule is serializable and process-recoverable. Decided in one pass
/// over the events (DESIGN.md §4); the outcome equals completing and
/// reducing every prefix, with the cycle AnalyzeRED finds on the first
/// prefix that does not reduce.
Result<PredOutcome> AnalyzePRED(const ProcessSchedule& schedule,
                                const ConflictSpec& spec);

/// Convenience wrapper returning just the boolean.
Result<bool> IsPRED(const ProcessSchedule& schedule, const ConflictSpec& spec);

}  // namespace tpm

#endif  // TPM_CORE_PRED_H_
