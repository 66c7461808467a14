#ifndef TPM_SUBSYSTEM_SERVICE_H_
#define TPM_SUBSYSTEM_SERVICE_H_

#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/ids.h"
#include "common/status.h"
#include "core/conflict.h"
#include "subsystem/kv_store.h"

namespace tpm {

/// Parameters of one service invocation.
struct ServiceRequest {
  ProcessId process;
  ActivityId activity;
  /// Generic scalar parameter interpreted by the service body.
  int64_t param = 0;
};

/// A transactional service offered by a subsystem. The body reads and
/// writes only the declared key sets; the registry derives the
/// commutativity relation (Def. 6) from them: two services conflict iff one
/// writes a key the other reads or writes.
struct ServiceDef {
  ServiceId id;
  std::string name;
  std::vector<std::string> read_set;
  std::vector<std::string> write_set;
  /// Executes the service against the store. `ret` receives the service's
  /// return value (used to observe commutativity in tests). Returning a
  /// non-OK status aborts the local transaction.
  std::function<Status(KvStore* store, const ServiceRequest& request,
                       int64_t* ret)>
      body;
  /// Declared effect-free (pure query): reduction rule 3 applies.
  bool effect_free = false;
  /// Operation kind of this service for ADT-level commutativity (e.g.
  /// "escrow.inc"); empty = no op binding, the derived read/write conflicts
  /// stand unrefined.
  std::string op_kind;
  /// Op kinds this service's op commutes with (include op_kind itself for
  /// self-commuting ops like escrow increments). The registry interns these
  /// into the ConflictSpec op table, which downgrades the matching
  /// service-level conflicts.
  std::vector<std::string> commutes_with;
  /// Op kind of the compensating operation (Def. 2 pairing); the op table
  /// is closed so the inverse commutes wherever the original does.
  std::string inverse_op_kind;
};

class Rng;

/// Bounded retry of transiently failing invocations inside a subsystem.
/// With max_attempts == n, an invocation that aborts is retried up to
/// n - 1 times before the abort is reported to the scheduler; between
/// attempts the subsystem waits BackoffTicks(attempt) virtual ticks on the
/// shared VirtualClock (and charges its backoff counter). This models a
/// subsystem that masks its own transient faults, shrinking the
/// retriable-activity churn the scheduler sees (Def. 3 still bounds the
/// scheduler-visible retries).
struct RetryPolicy {
  int max_attempts = 1;
  int64_t backoff_base_ticks = 0;
  /// Linear (default): base * attempt. Exponential: base * 2^(attempt-1).
  bool exponential = false;
  /// Cap applied to the computed wait; 0 = uncapped.
  int64_t max_backoff_ticks = 0;
  /// Full jitter: the wait is drawn uniformly from [0, computed] using the
  /// caller's seeded RNG (deterministic per seed). Off by default so
  /// existing schedules stay bit-identical.
  bool full_jitter = false;

  /// The wait before retry number `attempt` (1-based: the wait between the
  /// first failure and the second attempt uses attempt == 1). `rng` is
  /// consulted only when full_jitter is set; null disables jitter.
  int64_t BackoffTicks(int attempt, Rng* rng = nullptr) const;
};

/// Registry of all services of one subsystem.
class ServiceRegistry {
 public:
  Status Register(ServiceDef def);
  bool Has(ServiceId id) const { return services_.count(id) > 0; }
  Result<const ServiceDef*> Lookup(ServiceId id) const;
  std::vector<ServiceId> AllIds() const;

  /// Adds to `spec` the conflicts among this registry's services derived
  /// from their read/write sets, marks declared effect-free services, and
  /// threads the op-kind metadata (bindings, commuting pairs, inverse
  /// pairings) into the spec's operation-level commutativity table.
  ///
  /// Conflict is a per-key relation, so the derivation indexes key ->
  /// {readers, writers} and visits only services that share a key:
  /// O(S + keys + pairs) rather than O(S^2) (up to the number of keys a
  /// pair shares). It issues the same MarkEffectFree / AddConflict call
  /// sequence as comparing every pair (a, b >= a) in ascending id order —
  /// testing::DeriveConflictsAllPairs, the oracle it is tested against —
  /// so dense indices, partner-list order and the pair count are those of
  /// the all-pairs loop.
  void DeriveConflicts(ConflictSpec* spec) const;

 private:
  std::map<ServiceId, ServiceDef> services_;
};

/// Convenience constructors for common service shapes.

/// Writes `param` into `key` (previous value is the return value).
ServiceDef MakePutService(ServiceId id, std::string name, std::string key);

/// Adds `param` (default 1 when param == 0) to `key`; returns the new
/// value.
ServiceDef MakeAddService(ServiceId id, std::string name, std::string key);

/// Subtracts `param` (default 1 when param == 0) from `key`; the exact
/// inverse of MakeAddService, so <add sub> is effect-free (Def. 2).
ServiceDef MakeSubService(ServiceId id, std::string name, std::string key);

/// Reads `key` (effect-free); returns its value.
ServiceDef MakeReadService(ServiceId id, std::string name, std::string key);

/// Erases `key`; returns the previous value. The natural compensation for a
/// put.
ServiceDef MakeEraseService(ServiceId id, std::string name, std::string key);

}  // namespace tpm

#endif  // TPM_SUBSYSTEM_SERVICE_H_
