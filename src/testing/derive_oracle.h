#ifndef TPM_TESTING_DERIVE_ORACLE_H_
#define TPM_TESTING_DERIVE_ORACLE_H_

#include "core/conflict.h"
#include "subsystem/service.h"

namespace tpm {
namespace testing {

/// ServiceRegistry::DeriveConflicts by comparing every pair of services:
/// for each service a in ascending id order, mark it effect-free if
/// declared, then AddConflict(a, b) for every b >= a whose read/write sets
/// clash with a's; the op-kind pass follows. O(S^2). The reference the
/// key-indexed derivation is checked against — spec for spec, including
/// the dense order — in the derivation equivalence suite; not for
/// production use.
void DeriveConflictsAllPairs(const ServiceRegistry& registry,
                             ConflictSpec* spec);

}  // namespace testing
}  // namespace tpm

#endif  // TPM_TESTING_DERIVE_ORACLE_H_
