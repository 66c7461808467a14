#include "testing/pred_oracle.h"

#include "core/reduction.h"

namespace tpm {
namespace testing {

Result<PredOutcome> AnalyzePREDPerPrefix(const ProcessSchedule& schedule,
                                         const ConflictSpec& spec) {
  PredOutcome outcome;
  for (size_t n = 1; n <= schedule.size(); ++n) {
    ProcessSchedule prefix = schedule.Prefix(n);
    TPM_ASSIGN_OR_RETURN(ReductionOutcome red, AnalyzeRED(prefix, spec));
    if (!red.reducible) {
      outcome.prefix_reducible = false;
      outcome.violating_prefix = n;
      outcome.cycle = red.cycle;
      return outcome;
    }
  }
  outcome.prefix_reducible = true;
  return outcome;
}

}  // namespace testing
}  // namespace tpm
