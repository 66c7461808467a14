#ifndef TPM_WORKLOAD_SCHEDULE_GENERATOR_H_
#define TPM_WORKLOAD_SCHEDULE_GENERATOR_H_

#include <memory>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "core/conflict.h"
#include "core/process.h"
#include "core/schedule.h"

namespace tpm {

/// Parameters for random abstract schedules used in the theory sweeps
/// (Theorem 1 validation, reduction-procedure cross-checks).
struct RandomScheduleConfig {
  int num_processes = 2;
  /// Activities on the primary path of each process: compensatable prefix,
  /// one pivot, retriable tail.
  int min_compensatable = 1;
  int max_compensatable = 2;
  int min_retriable = 0;
  int max_retriable = 2;
  /// Probability that any given cross-process service pair conflicts.
  double conflict_density = 0.2;
  /// Probability that a process that finished all its activities gets a
  /// commit event (otherwise it stays active and is group-aborted by the
  /// completion).
  double commit_probability = 0.7;
  /// Probability per scheduling step that the schedule stops early,
  /// leaving the remaining processes active mid-flight.
  double stop_probability = 0.05;
  /// Probability per scheduling step that a started, unterminated process
  /// aborts instead. Three quarters of the aborts are individual: a process
  /// still before its pivot first compensates a random number of its
  /// latest activities in the schedule (newest first), then A_i; the rest
  /// abort a random group A(...) of started processes. At 0 (the default)
  /// no extra random numbers are drawn, so a seed yields the same schedule
  /// as before the option existed.
  double abort_probability = 0.0;
};

/// A generated world: process definitions (owned), the conflict relation,
/// and one random interleaving. Movable, not copyable (the schedule holds
/// pointers into the owned definitions).
struct GeneratedSchedule {
  std::vector<std::unique_ptr<ProcessDef>> defs;
  ConflictSpec spec;
  ProcessSchedule schedule;
};

/// Generates a random legal process schedule: each process executes its
/// primary path; the interleaving, conflicts, early stops and commit events
/// are random. All processes have well-formed flex structure.
Result<GeneratedSchedule> GenerateRandomSchedule(
    const RandomScheduleConfig& config, Rng* rng);

}  // namespace tpm

#endif  // TPM_WORKLOAD_SCHEDULE_GENERATOR_H_
