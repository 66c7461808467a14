#ifndef TPM_TESTING_PRED_ORACLE_H_
#define TPM_TESTING_PRED_ORACLE_H_

#include "common/status.h"
#include "core/conflict.h"
#include "core/pred.h"
#include "core/schedule.h"

namespace tpm {
namespace testing {

/// Def. 10 taken literally: copies every prefix of `schedule`, completes it
/// and reduces it (AnalyzeRED), and reports the first one that does not
/// reduce. About O(n^3). The reference the one-pass AnalyzePRED is checked
/// against — field for field on PredOutcome — in the equivalence suite and
/// in E14; not for production use.
Result<PredOutcome> AnalyzePREDPerPrefix(const ProcessSchedule& schedule,
                                         const ConflictSpec& spec);

}  // namespace testing
}  // namespace tpm

#endif  // TPM_TESTING_PRED_ORACLE_H_
