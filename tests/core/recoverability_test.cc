#include "core/recoverability.h"

#include <gtest/gtest.h>

#include "core/figures.h"
#include "core/pred.h"

namespace tpm {
namespace {

using figures::kP1;
using figures::kP2;

class RecoverabilityTest : public ::testing::Test {
 protected:
  figures::PaperWorld world_;
};

// The PRED execution of Figure 7 is process-recoverable (Theorem 1).
TEST_F(RecoverabilityTest, DoublePrimeIsProcessRecoverable) {
  ProcessSchedule s = figures::MakeScheduleDoublePrimeT1(world_);
  auto outcome = AnalyzeProcessRecoverability(s, world_.spec);
  EXPECT_TRUE(outcome.process_recoverable) << s.ToString();
  EXPECT_TRUE(outcome.violations.empty());
}

// Clause 1: C_j before C_i with a_ik <<_S a_jl violates Proc-REC.
TEST_F(RecoverabilityTest, CommitOrderViolationDetected) {
  ProcessSchedule s;
  ASSERT_TRUE(s.AddProcess(kP1, &world_.p1).ok());
  ASSERT_TRUE(s.AddProcess(kP2, &world_.p2).ok());
  // a11 << a21 conflict, but P2 commits first.
  ASSERT_TRUE(s.Append(ScheduleEvent::Activity(
                           ActivityInstance{kP1, ActivityId(1), false}))
                  .ok());
  ASSERT_TRUE(s.Append(ScheduleEvent::Activity(
                           ActivityInstance{kP2, ActivityId(1), false}))
                  .ok());
  ASSERT_TRUE(s.Append(ScheduleEvent::Commit(kP2)).ok());
  ASSERT_TRUE(s.Append(ScheduleEvent::Commit(kP1)).ok());
  auto outcome = AnalyzeProcessRecoverability(s, world_.spec);
  EXPECT_FALSE(outcome.process_recoverable);
  ASSERT_FALSE(outcome.violations.empty());
  EXPECT_EQ(outcome.violations[0].clause, 1);
  EXPECT_NE(outcome.violations[0].ToString().find("clause 1"),
            std::string::npos);
}

// Clause 1: C_j present while C_i absent also violates.
TEST_F(RecoverabilityTest, MissingEarlierCommitViolates) {
  ProcessSchedule s;
  ASSERT_TRUE(s.AddProcess(kP1, &world_.p1).ok());
  ASSERT_TRUE(s.AddProcess(kP2, &world_.p2).ok());
  ASSERT_TRUE(s.Append(ScheduleEvent::Activity(
                           ActivityInstance{kP1, ActivityId(1), false}))
                  .ok());
  ASSERT_TRUE(s.Append(ScheduleEvent::Activity(
                           ActivityInstance{kP2, ActivityId(1), false}))
                  .ok());
  ASSERT_TRUE(s.Append(ScheduleEvent::Commit(kP2)).ok());
  auto outcome = AnalyzeProcessRecoverability(s, world_.spec);
  EXPECT_FALSE(outcome.process_recoverable);
}

// Clause 2: the next non-compensatable of P_j (after its conflicting
// activity) must succeed the next non-compensatable of P_i. This is the
// S_t1 situation of Example 8: a11 << a21, then P2's pivot a23 commits
// while P1's pivot a12 comes later.
TEST_F(RecoverabilityTest, Example8ViolatesClause2) {
  ProcessSchedule s = figures::MakeScheduleSt2(world_);
  auto outcome = AnalyzeProcessRecoverability(s, world_.spec);
  EXPECT_FALSE(outcome.process_recoverable);
  bool clause2 = false;
  for (const auto& v : outcome.violations) {
    if (v.clause == 2) clause2 = true;
  }
  EXPECT_TRUE(clause2);
}

// Without conflicting activities there is nothing to violate.
TEST_F(RecoverabilityTest, NoConflictsIsVacuouslyRecoverable) {
  ProcessSchedule s;
  ASSERT_TRUE(s.AddProcess(kP1, &world_.p1).ok());
  ASSERT_TRUE(s.AddProcess(kP2, &world_.p2).ok());
  ASSERT_TRUE(s.Append(ScheduleEvent::Activity(
                           ActivityInstance{kP2, ActivityId(1), false}))
                  .ok());
  ASSERT_TRUE(s.Append(ScheduleEvent::Activity(
                           ActivityInstance{kP2, ActivityId(2), false}))
                  .ok());
  EXPECT_TRUE(IsProcessRecoverable(s, world_.spec));
}

// Aborted invocations are effect-free and never create conflicts.
TEST_F(RecoverabilityTest, AbortedInvocationsIgnored) {
  ProcessSchedule s;
  ASSERT_TRUE(s.AddProcess(kP1, &world_.p1).ok());
  ASSERT_TRUE(s.AddProcess(kP2, &world_.p2).ok());
  ASSERT_TRUE(s.Append(ScheduleEvent::Activity(
                           ActivityInstance{kP1, ActivityId(1), false},
                           /*aborted_invocation=*/true))
                  .ok());
  ASSERT_TRUE(s.Append(ScheduleEvent::Activity(
                           ActivityInstance{kP2, ActivityId(1), false}))
                  .ok());
  ASSERT_TRUE(s.Append(ScheduleEvent::Commit(kP2)).ok());
  EXPECT_TRUE(IsProcessRecoverable(s, world_.spec));
}

// CertifyRecovered checks PRED first. Example 8: S_t2 is RED but not PRED
// (its prefix S_t1 does not reduce), so certification fails on PRED and
// names it.
TEST_F(RecoverabilityTest, CertifyRecoveredRejectsRedButNotPred) {
  ProcessSchedule s = figures::MakeScheduleSt2(world_);
  Status certified = CertifyRecovered(s, world_.spec);
  EXPECT_EQ(certified.code(), StatusCode::kInternal) << certified;
  EXPECT_NE(certified.message().find("not PRED"), std::string::npos)
      << certified;
  EXPECT_EQ(certified.message().find("Proc-REC"), std::string::npos)
      << certified;
}

// Figure 9 run to the end with P3 committing first: the pivot a12
// quasi-commits a11, so the history is PRED (Example 10), but a11 <<_S a31
// with C3 before C1 breaks clause 1 of Def. 11 on the committed
// projection — certification fails on Proc-REC and names it.
TEST_F(RecoverabilityTest, CertifyRecoveredRejectsCommittedNotProcRec) {
  ProcessSchedule s = figures::MakeScheduleStar(world_);
  for (int activity : {2, 3}) {
    ASSERT_TRUE(s.Append(ScheduleEvent::Activity(ActivityInstance{
                             figures::kP3, ActivityId(activity), false}))
                    .ok());
  }
  ASSERT_TRUE(s.Append(ScheduleEvent::Commit(figures::kP3)).ok());
  for (int activity : {3, 4}) {
    ASSERT_TRUE(s.Append(ScheduleEvent::Activity(ActivityInstance{
                             kP1, ActivityId(activity), false}))
                    .ok());
  }
  ASSERT_TRUE(s.Append(ScheduleEvent::Commit(kP1)).ok());
  auto pred = IsPRED(s, world_.spec);
  ASSERT_TRUE(pred.ok()) << pred.status();
  ASSERT_TRUE(*pred) << s.ToString();

  Status certified = CertifyRecovered(s, world_.spec);
  EXPECT_EQ(certified.code(), StatusCode::kInternal) << certified;
  EXPECT_NE(certified.message().find("not Proc-REC"), std::string::npos)
      << certified;
  EXPECT_NE(certified.message().find("clause 1"), std::string::npos)
      << certified;
}

}  // namespace
}  // namespace tpm
