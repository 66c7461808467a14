#include "runtime/shard_core.h"

#include <utility>

#include "common/str_util.h"
#include "core/recoverability.h"
#include "log/file_backend.h"
#include "log/wal.h"

namespace tpm {

template <typename Log>
Result<std::unique_ptr<Log>> OpenRuntimeLog(ShardLogMode mode,
                                            const std::string& wal_dir,
                                            const std::string& name) {
  switch (mode) {
    case ShardLogMode::kNone:
      return std::unique_ptr<Log>();
    case ShardLogMode::kMemory:
      return std::make_unique<Log>(/*synchronous=*/true);
    case ShardLogMode::kFile:
      break;
  }
  TPM_ASSIGN_OR_RETURN(auto backend, FileStorageBackend::Open(StrCat(
                                         wal_dir, "/", name, ".wal")));
  return std::make_unique<Log>(std::move(backend), /*synchronous=*/true);
}

template Result<std::unique_ptr<RecoveryLog>> OpenRuntimeLog<RecoveryLog>(
    ShardLogMode, const std::string&, const std::string&);
template Result<std::unique_ptr<Wal>> OpenRuntimeLog<Wal>(
    ShardLogMode, const std::string&, const std::string&);

Result<std::unique_ptr<RecoveryLog>> OpenShardLog(ShardLogMode mode,
                                                  const std::string& wal_dir,
                                                  int shard, int replica) {
  return OpenRuntimeLog<RecoveryLog>(
      mode, wal_dir,
      replica < 0 ? StrCat("shard-", shard)
                  : StrCat("shard-", shard, "-replica-", replica));
}

Result<bool> AdmitAndStep(
    TransactionalProcessScheduler& scheduler,
    const std::vector<Submission>& submissions, bool had_work,
    bool to_quiescence,
    const std::function<Status(std::vector<Result<ProcessId>>)>& admitted) {
  // Safety valve on a run-to-quiescence pass; a free-running replica that
  // hits it continues with round-less passes.
  constexpr int64_t kMaxStepsPerRound = 1'000'000;
  bool has_work = had_work;
  std::vector<Result<ProcessId>> pids;
  // An empty drain skips SubmitBatch: even an empty batch is a reclaim
  // epoch boundary, which a pass without submissions must not add.
  if (!submissions.empty()) {
    std::vector<TransactionalProcessScheduler::BatchSubmission> batch;
    batch.reserve(submissions.size());
    for (const Submission& submission : submissions) {
      batch.push_back({submission.def, submission.param});
    }
    pids = scheduler.SubmitBatch(batch);
    for (const Result<ProcessId>& pid : pids) has_work = has_work || pid.ok();
  }
  TPM_RETURN_IF_ERROR(admitted(std::move(pids)));
  const int64_t max_steps = to_quiescence ? kMaxStepsPerRound : 1;
  for (int64_t steps = 0; has_work && steps < max_steps; ++steps) {
    TPM_ASSIGN_OR_RETURN(has_work, scheduler.Step());
  }
  return has_work;
}

Status RecoverShard(
    TransactionalProcessScheduler& scheduler,
    const std::map<std::string, const ProcessDef*>& defs_by_name,
    const TransactionalProcessScheduler::RecoverDirectives* directives,
    int shard) {
  Status status = scheduler.Recover(defs_by_name, directives);
  if (status.ok()) {
    status = CertifyRecovered(scheduler.history(), scheduler.conflict_spec());
  }
  if (status.ok()) return status;
  return Status(status.code(), StrCat("shard ", shard, ": ", status.message()));
}

}  // namespace tpm
