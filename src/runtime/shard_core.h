#ifndef TPM_RUNTIME_SHARD_CORE_H_
#define TPM_RUNTIME_SHARD_CORE_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/scheduler.h"
#include "log/recovery_log.h"
#include "runtime/submission_queue.h"

namespace tpm {

/// Durability of the runtime's logs (every shard's, the coordinator's and
/// the migration engine's).
enum class ShardLogMode {
  kNone,    // no log — no durability, no Recover
  kMemory,  // in-memory WAL (tests, benches)
  kFile,    // file-backed WAL under the runtime's wal_dir
};

/// Opens one of the runtime's logs under `mode`: none (null), in memory,
/// or the file <wal_dir>/<name>.wal. `Log` is RecoveryLog (shards) or Wal
/// (the cross-shard coordinator's "coordinator", the migration engine's
/// "elastic").
template <typename Log>
Result<std::unique_ptr<Log>> OpenRuntimeLog(ShardLogMode mode,
                                            const std::string& wal_dir,
                                            const std::string& name);

/// The recovery log of shard `shard` — of its replica `replica` when
/// replica >= 0. Owns the shard log naming: shard-<i>, and
/// shard-<i>-replica-<r> per replica.
Result<std::unique_ptr<RecoveryLog>> OpenShardLog(ShardLogMode mode,
                                                  const std::string& wal_dir,
                                                  int shard, int replica);

/// A shard's one admission path, run by the plain worker pass and by every
/// replica round alike: admits `submissions` (def + param; FIFO) through
/// one SubmitBatch, hands the index-aligned outcomes to `admitted` — which
/// may end the pass by returning an error — and then runs the pass's
/// steps while work remains: one, or up to quiescence when
/// `to_quiescence`. `had_work` is the caller's has-work flag before the
/// pass. Returns the new has-work flag, or the failed step's error.
Result<bool> AdmitAndStep(
    TransactionalProcessScheduler& scheduler,
    const std::vector<Submission>& submissions, bool had_work,
    bool to_quiescence,
    const std::function<Status(std::vector<Result<ProcessId>>)>& admitted);

/// A shard's one recovery step, run per shard (per live replica) by
/// ShardedRuntime::Recover and by ReplicaGroup::Respawn: replays the
/// scheduler's recovery log (TransactionalProcessScheduler::Recover, under
/// the coordinator's `directives` when given), then certifies the
/// recovered history (CertifyRecovered: PRED + Proc-REC). Errors name
/// `shard`.
Status RecoverShard(
    TransactionalProcessScheduler& scheduler,
    const std::map<std::string, const ProcessDef*>& defs_by_name,
    const TransactionalProcessScheduler::RecoverDirectives* directives,
    int shard);

}  // namespace tpm

#endif  // TPM_RUNTIME_SHARD_CORE_H_
