// Equivalence of the one-pass PRED certifier (AnalyzePRED) with Def. 10
// taken literally (testing::AnalyzePREDPerPrefix: complete and reduce every
// prefix): the verdict, the violating prefix and the witness cycle must
// agree on random schedules with and without aborts, on the DSL corpus and
// the example worlds, on what the scheduler emits under the safe and the
// unsafe protocol, and on histories recovered after a crash. On the same
// inputs, Proc-REC must list the same violations, in the same order, as a
// pair-by-pair rescan of Def. 11.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/str_util.h"
#include "core/dsl_corpus.h"
#include "core/pred.h"
#include "core/process_dsl.h"
#include "core/recoverability.h"
#include "core/scheduler.h"
#include "testing/mini_world.h"
#include "testing/pred_oracle.h"
#include "workload/schedule_generator.h"

namespace tpm {
namespace {

using testing::MiniWorld;

// Tallies of the compared inputs, so each source shows it reached both
// verdicts.
struct Tally {
  int compared = 0;
  int not_pred = 0;
};

// Def. 11 pair by pair, rescanning forward for every "next
// non-compensatable activity": AnalyzeProcessRecoverability before it
// precomputed those positions and visited only conflict partners.
std::vector<std::string> ProcRecByRescan(const ProcessSchedule& schedule,
                                         const ConflictSpec& spec) {
  const auto& events = schedule.events();
  std::map<ProcessId, size_t> commit_pos;
  for (size_t i = 0; i < events.size(); ++i) {
    if (events[i].type == EventType::kCommit) {
      commit_pos[events[i].process] = i;
    }
  }
  auto next_non_comp = [&](ProcessId pid, size_t from) -> size_t {
    const ProcessDef* def = schedule.DefOf(pid);
    for (size_t k = from + 1; k < events.size(); ++k) {
      const ScheduleEvent& e = events[k];
      if (e.type != EventType::kActivity || e.aborted_invocation) continue;
      if (e.act.process != pid || e.act.inverse) continue;
      if (IsNonCompensatable(def->KindOf(e.act.activity))) return k;
    }
    return SIZE_MAX;
  };
  std::vector<std::string> violations;
  for (size_t i = 0; i < events.size(); ++i) {
    if (events[i].type != EventType::kActivity ||
        events[i].aborted_invocation) {
      continue;
    }
    for (size_t j = i + 1; j < events.size(); ++j) {
      if (events[j].type != EventType::kActivity ||
          events[j].aborted_invocation ||
          !schedule.InstancesConflict(events[i].act, events[j].act, spec)) {
        continue;
      }
      const ProcessId pi = events[i].act.process;
      const ProcessId pj = events[j].act.process;
      auto ci = commit_pos.find(pi);
      auto cj = commit_pos.find(pj);
      if (cj != commit_pos.end() &&
          (ci == commit_pos.end() || ci->second > cj->second)) {
        violations.push_back(
            ProcRecViolation{events[i].act, events[j].act, 1}.ToString());
      }
      const size_t a_jm = next_non_comp(pj, j);
      const size_t a_in = next_non_comp(pi, i);
      if (a_jm != SIZE_MAX && a_in != SIZE_MAX && a_jm < a_in) {
        violations.push_back(
            ProcRecViolation{events[i].act, events[j].act, 2}.ToString());
      }
    }
  }
  return violations;
}

void ExpectSameProcRec(const ProcessSchedule& schedule,
                       const ConflictSpec& spec, const std::string& what) {
  std::vector<std::string> fast;
  for (const ProcRecViolation& v :
       AnalyzeProcessRecoverability(schedule, spec).violations) {
    fast.push_back(v.ToString());
  }
  EXPECT_EQ(fast, ProcRecByRescan(schedule, spec)) << what;
}

void ExpectSameOutcome(const ProcessSchedule& schedule,
                       const ConflictSpec& spec, const std::string& what,
                       Tally* tally) {
  ExpectSameProcRec(schedule, spec, what);
  ExpectSameProcRec(CommittedProjection(schedule), spec, what);
  Result<PredOutcome> fast = AnalyzePRED(schedule, spec);
  Result<PredOutcome> oracle = testing::AnalyzePREDPerPrefix(schedule, spec);
  ASSERT_EQ(fast.ok(), oracle.ok()) << what << ": " << schedule.ToString();
  ++tally->compared;
  if (!fast.ok()) {
    EXPECT_EQ(fast.status().ToString(), oracle.status().ToString()) << what;
    return;
  }
  EXPECT_EQ(fast->prefix_reducible, oracle->prefix_reducible)
      << what << ": " << schedule.ToString();
  EXPECT_EQ(fast->violating_prefix, oracle->violating_prefix)
      << what << ": " << schedule.ToString();
  EXPECT_EQ(fast->cycle, oracle->cycle) << what << ": " << schedule.ToString();
  if (!oracle->prefix_reducible) ++tally->not_pred;
}

struct RandomParams {
  int num_processes;
  double conflict_density;
  double abort_probability;
  int iterations;
};

void PrintTo(const RandomParams& p, std::ostream* os) {
  *os << "{procs=" << p.num_processes << " density=" << p.conflict_density
      << " aborts=" << p.abort_probability << " n=" << p.iterations << "}";
}

class PredCertifierRandomTest : public ::testing::TestWithParam<RandomParams> {
};

TEST_P(PredCertifierRandomTest, MatchesPerPrefixOracle) {
  const RandomParams params = GetParam();
  Rng rng(9100 + params.num_processes * 100 +
          static_cast<uint64_t>(params.conflict_density * 10) +
          static_cast<uint64_t>(params.abort_probability * 1000));
  RandomScheduleConfig config;
  config.num_processes = params.num_processes;
  config.conflict_density = params.conflict_density;
  config.abort_probability = params.abort_probability;
  config.stop_probability = 0.02;
  Tally tally;
  for (int i = 0; i < params.iterations; ++i) {
    auto generated = GenerateRandomSchedule(config, &rng);
    ASSERT_TRUE(generated.ok());
    ExpectSameOutcome(generated->schedule, generated->spec,
                      StrCat("schedule ", i), &tally);
  }
  EXPECT_EQ(tally.compared, params.iterations);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PredCertifierRandomTest,
    ::testing::Values(RandomParams{2, 0.3, 0.0, 150},
                      RandomParams{2, 0.9, 0.2, 150},
                      RandomParams{4, 0.1, 0.0, 120},
                      RandomParams{4, 0.5, 0.15, 120},
                      RandomParams{8, 0.1, 0.1, 80},
                      RandomParams{8, 0.3, 0.0, 80},
                      RandomParams{12, 0.05, 0.1, 40},
                      RandomParams{20, 0.02, 0.05, 20},
                      RandomParams{20, 0.1, 0.2, 20}));

TEST(PredCertifierTest, RandomSchedulesCoverAbortsAndBothVerdicts) {
  Rng rng(404);
  RandomScheduleConfig config;
  config.num_processes = 5;
  config.conflict_density = 0.3;
  config.abort_probability = 0.2;
  Tally tally;
  int aborts = 0;
  int compensations = 0;
  for (int i = 0; i < 200; ++i) {
    auto generated = GenerateRandomSchedule(config, &rng);
    ASSERT_TRUE(generated.ok());
    for (const ScheduleEvent& e : generated->schedule.events()) {
      aborts += e.type == EventType::kAbort ||
                e.type == EventType::kGroupAbort;
      compensations += e.type == EventType::kActivity && e.act.inverse;
    }
    ExpectSameOutcome(generated->schedule, generated->spec,
                      StrCat("schedule ", i), &tally);
  }
  EXPECT_GT(aborts, 0);
  EXPECT_GT(compensations, 0);
  EXPECT_GT(tally.not_pred, 0);
  EXPECT_LT(tally.not_pred, tally.compared);
}

TEST(PredCertifierTest, AbortProbabilityZeroKeepsSchedulesByteIdentical) {
  // The default draws no extra random numbers: the option is invisible.
  for (uint64_t seed : {1u, 2u, 3u}) {
    Rng plain_rng(seed);
    Rng zero_rng(seed);
    RandomScheduleConfig plain;
    plain.num_processes = 6;
    RandomScheduleConfig zero = plain;
    zero.abort_probability = 0.0;
    for (int i = 0; i < 20; ++i) {
      auto a = GenerateRandomSchedule(plain, &plain_rng);
      auto b = GenerateRandomSchedule(zero, &zero_rng);
      ASSERT_TRUE(a.ok() && b.ok());
      EXPECT_EQ(a->schedule.ToString(), b->schedule.ToString());
    }
    EXPECT_EQ(plain_rng.Next(), zero_rng.Next());
  }
}

TEST(PredCertifierTest, MatchesOracleOnDslCorpus) {
  Tally tally;
  for (const char* text : testing::DslCorpusWorlds()) {
    auto world = ParseWorld(text);
    ASSERT_TRUE(world.ok()) << world.status();
    if (!(*world)->has_schedule) continue;
    ExpectSameOutcome((*world)->schedule, (*world)->spec, text, &tally);
  }
  EXPECT_GT(tally.compared, 10);
  EXPECT_GT(tally.not_pred, 0);
}

// P terminates before X, yet a cycle through P's first activity closes only
// when X commits: X's effect-free b1 (before P's a2) counts from then on,
// and P's a1 precedes X's b2. The certifier may stop revisiting a
// terminated process's tokens only once no token of a live process lies
// among them.
TEST(PredCertifierTest, TerminatedProcessStillClosesALaterCycle) {
  auto world = ParseWorld(R"(
process P
  activity a1 c service=1 comp=101
  activity a2 c service=3 comp=103
  edge a1 a2
end
process X
  activity b1 c service=2 comp=102
  activity b2 c service=4 comp=104
  edge b1 b2
end
conflict 1 4
conflict 2 3
effectfree 2
schedule P.a1 X.b1 P.a2 CP X.b2 CX
)");
  ASSERT_TRUE(world.ok()) << world.status();
  Tally tally;
  ExpectSameOutcome((*world)->schedule, (*world)->spec, "late cycle", &tally);
  auto pred = AnalyzePRED((*world)->schedule, (*world)->spec);
  ASSERT_TRUE(pred.ok());
  EXPECT_FALSE(pred->prefix_reducible);
  EXPECT_EQ(pred->violating_prefix, 6u);
}

TEST(PredCertifierTest, MatchesOracleOnExampleWorlds) {
  Tally tally;
  for (const auto& entry :
       std::filesystem::directory_iterator(TPM_EXAMPLE_WORLDS_DIR)) {
    if (entry.path().extension() != ".tpm") continue;
    std::ifstream in(entry.path());
    std::stringstream text;
    text << in.rdbuf();
    auto world = ParseWorld(text.str());
    ASSERT_TRUE(world.ok()) << entry.path() << ": " << world.status();
    if (!(*world)->has_schedule) continue;
    ExpectSameOutcome((*world)->schedule, (*world)->spec,
                      entry.path().string(), &tally);
  }
  EXPECT_GE(tally.compared, 3);
}

// A mini world whose processes share four keys: compensatable prefixes,
// pivots and retriable tails that conflict across processes, with failing
// invocations that force aborts and compensations.
struct SchedulerRun {
  MiniWorld world;
  std::vector<const ProcessDef*> defs;

  explicit SchedulerRun(uint64_t seed) : world(seed) {
    const char* const shapes[] = {
        "c:a c:b p:c r:d", "c:b p:a r:c", "c:c c:d p:b r:a",
        "c:d p:c",         "c:a p:d r:b", "c:b c:c p:a",
    };
    for (int i = 0; i < 12; ++i) {
      defs.push_back(world.MakeChain(StrCat("p", i), shapes[i % 6]));
    }
    for (const char* key : {"a", "c"}) {
      world.subsystem()->SetFailureProbability(world.AddServiceFor(key), 0.2);
    }
  }
};

TEST(PredCertifierTest, MatchesOracleOnSchedulerHistories) {
  Tally safe;
  Tally unsafe;
  for (AdmissionProtocol protocol :
       {AdmissionProtocol::kPred, AdmissionProtocol::kUnsafe}) {
    for (uint64_t seed = 1; seed <= 12; ++seed) {
      SchedulerRun run(seed);
      SchedulerOptions options;
      options.protocol = protocol;
      TransactionalProcessScheduler scheduler(options);
      ASSERT_TRUE(scheduler.RegisterSubsystem(run.world.subsystem()).ok());
      // Odd seeds stagger the submissions, so early processes terminate
      // while later ones run.
      for (const ProcessDef* def : run.defs) {
        ASSERT_NE(def, nullptr);
        ASSERT_TRUE(scheduler.Submit(def).ok());
        for (uint64_t step = 0; step < seed % 2 * 3; ++step) {
          ASSERT_TRUE(scheduler.Step().ok());
        }
      }
      ASSERT_TRUE(scheduler.Run().ok());
      Tally* tally = protocol == AdmissionProtocol::kPred ? &safe : &unsafe;
      ExpectSameOutcome(scheduler.history(), scheduler.conflict_spec(),
                        StrCat("seed ", seed), tally);
    }
  }
  // On these worlds the safe protocol emits only PRED histories (ROADMAP
  // item 8 has one where it does not); the unsafe one supplies the
  // realistic violations.
  EXPECT_EQ(safe.not_pred, 0);
  EXPECT_GT(unsafe.not_pred, 0);
}

TEST(PredCertifierTest, MatchesOracleOnRecoveredHistories) {
  Tally tally;
  for (int64_t crash_after = 1; crash_after <= 30; ++crash_after) {
    SchedulerRun run(static_cast<uint64_t>(crash_after));
    RecoveryLog log;
    TransactionalProcessScheduler scheduler({}, &log);
    ASSERT_TRUE(scheduler.RegisterSubsystem(run.world.subsystem()).ok());
    for (const ProcessDef* def : run.defs) {
      ASSERT_TRUE(scheduler.Submit(def).ok());
    }
    bool more = true;
    for (int64_t i = 0; i < crash_after && more; ++i) {
      auto stepped = scheduler.Step();
      ASSERT_TRUE(stepped.ok());
      more = *stepped;
    }
    scheduler.Crash();
    ASSERT_TRUE(scheduler.Recover(run.world.DefsByName()).ok())
        << "crash after " << crash_after;
    ExpectSameOutcome(scheduler.history(), scheduler.conflict_spec(),
                      StrCat("crash after ", crash_after), &tally);
  }
  EXPECT_EQ(tally.compared, 30);
}

}  // namespace
}  // namespace tpm
