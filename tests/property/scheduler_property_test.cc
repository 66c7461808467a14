// Property tests of the online scheduler: whatever the workload and
// failure pattern, the emitted history must be PRED (for safe protocols),
// all processes must terminate, and the subsystem state must balance.

#include <gtest/gtest.h>

#include "core/baseline_schedulers.h"
#include "core/pred.h"
#include "common/str_util.h"
#include "workload/process_generator.h"

namespace tpm {
namespace {

struct WorkloadParams {
  int num_processes;
  int items;           // item pool size: smaller = more conflicts
  double failure_rate; // per-invocation abort probability
  uint64_t seed;
};

// Readable, stable test names (the default printer dumps the struct's
// bytes, padding included).
void PrintTo(const WorkloadParams& p, std::ostream* os) {
  *os << "{procs=" << p.num_processes << " items=" << p.items
      << " fail=" << p.failure_rate << " seed=" << p.seed << "}";
}

class SchedulerSweep : public ::testing::TestWithParam<WorkloadParams> {};

TEST_P(SchedulerSweep, PredSchedulerEmitsPredHistories) {
  const WorkloadParams params = GetParam();
  SyntheticUniverse universe(2, params.items);
  if (params.failure_rate > 0) {
    for (const auto& item : universe.items()) {
      for (KvSubsystem* subsystem : universe.subsystems()) {
        if (subsystem->id() == item.subsystem) {
          subsystem->SetFailureProbability(item.add, params.failure_rate);
        }
      }
    }
  }
  ProcessShape shape;
  shape.items_per_process = 2;
  shape.nested_probability = 0.4;
  ProcessGenerator generator(&universe, shape, params.seed);

  auto scheduler = MakePredScheduler();
  ASSERT_TRUE(universe.RegisterAll(scheduler.get()).ok());
  for (int i = 0; i < params.num_processes; ++i) {
    auto def = generator.Generate(StrCat("s", i));
    ASSERT_TRUE(def.ok());
    ASSERT_TRUE(scheduler->Submit(*def).ok());
  }
  ASSERT_TRUE(scheduler->Run().ok());

  // 1. Everything terminated.
  EXPECT_EQ(scheduler->stats().processes_committed +
                scheduler->stats().processes_aborted,
            params.num_processes);
  // 2. The history is PRED.
  auto pred = IsPRED(scheduler->history(), scheduler->conflict_spec());
  ASSERT_TRUE(pred.ok());
  EXPECT_TRUE(*pred) << scheduler->history().ToString();
  // 3. Effects balance: every add of an aborted path was compensated.
  EXPECT_EQ(universe.TotalValue(),
            scheduler->stats().activities_committed -
                scheduler->stats().compensations);
  // 4. A safe protocol never certifies a violation.
  EXPECT_EQ(scheduler->stats().irrecoverable_cascades, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, SchedulerSweep,
    ::testing::Values(WorkloadParams{4, 8, 0.0, 1},
                      WorkloadParams{6, 3, 0.0, 2},
                      WorkloadParams{6, 2, 0.0, 3},
                      WorkloadParams{5, 6, 0.3, 4},
                      WorkloadParams{6, 3, 0.2, 5},
                      WorkloadParams{8, 2, 0.15, 6},
                      WorkloadParams{10, 4, 0.1, 7}));

TEST(SchedulerPropertyTest, SerialAndLockingAlsoEmitPredHistories) {
  for (int variant = 0; variant < 2; ++variant) {
    SyntheticUniverse universe(2, 3);
    ProcessShape shape;
    shape.items_per_process = 2;
    ProcessGenerator generator(&universe, shape, 1234);
    auto scheduler =
        variant == 0 ? MakeSerialScheduler() : MakeLockingScheduler();
    ASSERT_TRUE(universe.RegisterAll(scheduler.get()).ok());
    for (int i = 0; i < 6; ++i) {
      auto def = generator.Generate(StrCat("x", i));
      ASSERT_TRUE(def.ok());
      ASSERT_TRUE(scheduler->Submit(*def).ok());
    }
    ASSERT_TRUE(scheduler->Run().ok());
    auto pred = IsPRED(scheduler->history(), scheduler->conflict_spec());
    ASSERT_TRUE(pred.ok());
    EXPECT_TRUE(*pred) << "variant " << variant;
  }
}

TEST(SchedulerPropertyTest, DeterministicGivenSeed) {
  auto run = []() {
    SyntheticUniverse universe(2, 4);
    ProcessShape shape;
    shape.items_per_process = 2;
    ProcessGenerator generator(&universe, shape, 42);
    auto scheduler = MakePredScheduler();
    EXPECT_TRUE(universe.RegisterAll(scheduler.get()).ok());
    for (int i = 0; i < 6; ++i) {
      auto def = generator.Generate(StrCat("d", i));
      EXPECT_TRUE(def.ok());
      EXPECT_TRUE(scheduler->Submit(*def).ok());
    }
    EXPECT_TRUE(scheduler->Run().ok());
    return scheduler->history().ToString();
  };
  EXPECT_EQ(run(), run());
}

TEST(SchedulerPropertyTest, CrashAtRandomPointsAlwaysRecovers) {
  Rng rng(2024);
  for (int trial = 0; trial < 10; ++trial) {
    SyntheticUniverse universe(2, 4);
    ProcessShape shape;
    shape.items_per_process = 2;
    ProcessGenerator generator(&universe, shape, 9000 + trial);
    RecoveryLog log;
    TransactionalProcessScheduler scheduler({}, &log);
    ASSERT_TRUE(universe.RegisterAll(&scheduler).ok());
    std::map<std::string, const ProcessDef*> defs;
    for (int i = 0; i < 5; ++i) {
      auto def = generator.Generate(StrCat("t", trial, "_", i));
      ASSERT_TRUE(def.ok());
      defs[(*def)->name()] = *def;
      ASSERT_TRUE(scheduler.Submit(*def).ok());
    }
    int64_t crash_after = static_cast<int64_t>(rng.NextInRange(1, 12));
    bool more = true;
    for (int64_t i = 0; i < crash_after && more; ++i) {
      auto result = scheduler.Step();
      ASSERT_TRUE(result.ok());
      more = *result;
    }
    scheduler.Crash();
    ASSERT_TRUE(scheduler.Recover(defs).ok()) << "trial " << trial;
    // After recovery nothing is active and the store balances against the
    // post-recovery history.
    int64_t committed_minus_compensated = 0;
    for (const auto& e : scheduler.history().events()) {
      if (e.type != EventType::kActivity || e.aborted_invocation) continue;
      committed_minus_compensated += e.act.inverse ? -1 : 1;
    }
    // Recovery's history only shows recovery actions; the durable store
    // also contains pre-crash effects. The balance invariant: total value
    // == (pre-crash commits) - (pre-crash + recovery compensations) +
    // (recovery forward commits). Equivalent check: every key >= 0 and
    // every aborted process contributes nothing — approximated by
    // verifying no key is negative.
    for (KvSubsystem* subsystem : universe.subsystems()) {
      for (const auto& [key, value] : subsystem->store().Snapshot()) {
        EXPECT_GE(value, 0) << "trial " << trial << " key " << key;
      }
    }
    (void)committed_minus_compensated;
  }
}

// Strong per-key differential invariant: after any run, the store equals
// the replay of exactly the effective committed activities (committed and
// not compensated) of every process — committed processes contribute their
// executed path, aborted ones only their quasi-committed / forward
// recovered effects.
TEST(SchedulerPropertyTest, StoreEqualsEffectiveCommittedReplay) {
  for (uint64_t seed : {11u, 22u, 33u, 44u, 55u}) {
    SyntheticUniverse universe(2, 4);
    for (const auto& item : universe.items()) {
      for (KvSubsystem* subsystem : universe.subsystems()) {
        if (subsystem->id() == item.subsystem) {
          subsystem->SetFailureProbability(item.add, 0.15);
        }
      }
    }
    ProcessShape shape;
    shape.items_per_process = 2;
    shape.nested_probability = 0.5;
    ProcessGenerator generator(&universe, shape, seed);
    auto scheduler = MakePredScheduler();
    ASSERT_TRUE(universe.RegisterAll(scheduler.get()).ok());
    std::vector<ProcessId> pids;
    for (int i = 0; i < 8; ++i) {
      auto def = generator.Generate(StrCat("q", i));
      ASSERT_TRUE(def.ok());
      auto pid = scheduler->Submit(*def);
      ASSERT_TRUE(pid.ok());
      pids.push_back(*pid);
    }
    ASSERT_TRUE(scheduler->Run().ok());

    // Service -> key map of the universe's add services.
    std::map<ServiceId, std::string> key_of;
    std::map<ServiceId, SubsystemId> subsystem_of;
    for (const auto& item : universe.items()) {
      key_of[item.add] = item.key;
      subsystem_of[item.add] = item.subsystem;
    }
    // Expected per-(subsystem,key) value: +1 per effective committed add.
    std::map<std::pair<int64_t, std::string>, int64_t> expected;
    for (ProcessId pid : pids) {
      const ProcessExecutionState* state =
          scheduler->history().StateOf(pid);
      ASSERT_NE(state, nullptr);
      const ProcessDef& def = state->def();
      for (ActivityId act : state->EffectiveCommitted()) {
        ServiceId service = def.activity(act).service;
        ASSERT_TRUE(key_of.count(service) > 0);
        expected[{subsystem_of[service].value(), key_of[service]}] += 1;
      }
    }
    for (KvSubsystem* subsystem : universe.subsystems()) {
      for (const auto& item : universe.items()) {
        if (item.subsystem != subsystem->id()) continue;
        const int64_t want =
            expected.count({subsystem->id().value(), item.key}) > 0
                ? expected[{subsystem->id().value(), item.key}]
                : 0;
        EXPECT_EQ(subsystem->store().Get(item.key), want)
            << "seed " << seed << " subsystem " << subsystem->name()
            << " key " << item.key;
      }
    }
  }
}

}  // namespace
}  // namespace tpm
