#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "bench.h"

namespace perfbench {

/// Each workload runs against the public ShardedRuntime API, fills the
/// report (end-to-end metrics always, per-layer metrics when args.trace)
/// and records every failed correctness check in the gate.
void RunOrdersDurable(const Args& args, Report* report, Gate* gate);
void RunEscrowBacklog(const Args& args, Report* report, Gate* gate);
void RunRestart(const Args& args, Report* report, Gate* gate);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
