// Resource-governance tests: RunBudget/BudgetGate semantics in
// isolation, then the governed pipeline end to end — a deadline on a
// heavyweight workload terminates Paleo::Run promptly with partial
// results, an execution cap reports kExecutionBudget with near misses,
// and a tripped CancellationToken wins over every other limit.

#include "common/run_budget.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <thread>

#include "common/timer.h"
#include "datagen/traffic_gen.h"
#include "paleo/paleo.h"

namespace paleo {
namespace {

TEST(RunBudgetTest, DefaultBudgetIsUnlimited) {
  RunBudget budget;
  EXPECT_TRUE(budget.IsUnlimited());
  EXPECT_EQ(budget.Check(), TerminationReason::kCompleted);
  EXPECT_EQ(budget.Check(1 << 30), TerminationReason::kCompleted);
  EXPECT_FALSE(budget.Exhausted());
  EXPECT_GT(budget.RemainingMillis(), 1e6);
}

TEST(RunBudgetTest, DeadlineTripsAfterExpiry) {
  RunBudget budget;
  budget.SetDeadlineAfterMillis(1);
  EXPECT_FALSE(budget.IsUnlimited());
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_EQ(budget.Check(), TerminationReason::kDeadline);
  EXPECT_LE(budget.RemainingMillis(), 0.0);
  // Clearing the deadline restores the unlimited fast path.
  budget.SetDeadlineAfterMillis(0);
  EXPECT_TRUE(budget.IsUnlimited());
}

TEST(RunBudgetTest, ExecutionCapCountsInclusively) {
  RunBudget budget;
  budget.set_max_executions(10);
  EXPECT_EQ(budget.Check(9), TerminationReason::kCompleted);
  EXPECT_EQ(budget.Check(10), TerminationReason::kExecutionBudget);
  EXPECT_EQ(budget.Check(11), TerminationReason::kExecutionBudget);
}

TEST(RunBudgetTest, CancellationBeatsDeadlineAndCap) {
  CancellationToken token;
  RunBudget budget;
  budget.SetDeadlineAfterMillis(1);
  budget.set_max_executions(1);
  budget.set_cancellation_token(&token);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  // Deadline passed and cap reached, but a cancelled run must report
  // cancellation, not masquerade as a timeout.
  token.Cancel();
  EXPECT_EQ(budget.Check(100), TerminationReason::kCancelled);
  token.Reset();
  EXPECT_EQ(budget.Check(0), TerminationReason::kDeadline);
}

TEST(RunBudgetTest, TightenTakesTheIntersection) {
  RunBudget loose;
  loose.set_max_executions(1000);
  RunBudget tight;
  tight.set_max_executions(10);
  tight.SetDeadlineAfterMillis(60000);
  loose.Tighten(tight);
  EXPECT_EQ(loose.max_executions(), 10);
  EXPECT_TRUE(loose.has_deadline());
  // Tightening with an unlimited budget changes nothing.
  loose.Tighten(RunBudget::Unlimited());
  EXPECT_EQ(loose.max_executions(), 10);
}

TEST(RunBudgetTest, TerminationReasonNames) {
  EXPECT_STREQ(TerminationReasonToString(TerminationReason::kCompleted),
               "completed");
  EXPECT_STREQ(TerminationReasonToString(TerminationReason::kDeadline),
               "deadline");
  EXPECT_STREQ(
      TerminationReasonToString(TerminationReason::kExecutionBudget),
      "execution budget");
  EXPECT_STREQ(TerminationReasonToString(TerminationReason::kCancelled),
               "cancelled");
}

TEST(BudgetGateTest, NullAndUnlimitedBudgetsNeverTrip) {
  BudgetGate null_gate(nullptr, 1);
  RunBudget unlimited;
  BudgetGate unlimited_gate(&unlimited, 1);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(null_gate.Tick(), TerminationReason::kCompleted);
    EXPECT_EQ(unlimited_gate.Tick(), TerminationReason::kCompleted);
  }
  EXPECT_FALSE(null_gate.exhausted());
}

TEST(BudgetGateTest, PollsEveryStrideAndLatches) {
  RunBudget budget;
  budget.set_max_executions(5);
  BudgetGate gate(&budget, /*stride=*/4);
  // First Tick polls; executions below the cap keep the gate open.
  EXPECT_EQ(gate.Tick(0), TerminationReason::kCompleted);
  // Ticks 2..4 skip the poll even with the cap exceeded.
  EXPECT_EQ(gate.Tick(100), TerminationReason::kCompleted);
  EXPECT_EQ(gate.Tick(100), TerminationReason::kCompleted);
  EXPECT_EQ(gate.Tick(100), TerminationReason::kCompleted);
  // The 5th call is the next poll: the gate trips and latches.
  EXPECT_EQ(gate.Tick(100), TerminationReason::kExecutionBudget);
  EXPECT_TRUE(gate.exhausted());
  EXPECT_EQ(gate.reason(), TerminationReason::kExecutionBudget);
  // Latched: later Ticks report the same reason without re-polling,
  // even if the execution count would now pass.
  EXPECT_EQ(gate.Tick(0), TerminationReason::kExecutionBudget);
}

TEST(CancellationTokenTest, TripsAndRearms) {
  CancellationToken token;
  EXPECT_FALSE(token.cancelled());
  token.Cancel();
  EXPECT_TRUE(token.cancelled());
  token.Cancel();  // idempotent
  EXPECT_TRUE(token.cancelled());
  token.Reset();
  EXPECT_FALSE(token.cancelled());
}

// ---- Governed pipeline, end to end ----

TopKList PaperInput() {
  TopKList input;
  input.Append("Lara Ellis", 784);
  input.Append("Jane O'Neal", 699);
  input.Append("John Smith", 654);
  input.Append("Richard Fox", 596);
  input.Append("Jack Stiles", 586);
  return input;
}

TEST(GovernedRunTest, DefaultOptionsRunUngoverned) {
  auto table = TrafficGen::PaperExample();
  ASSERT_TRUE(table.ok());
  Paleo baseline(&*table, PaleoOptions{});
  const TopKList input = PaperInput();
  auto ungoverned = baseline.Run(RunRequest{.input = &input});
  ASSERT_TRUE(ungoverned.ok());

  // Zeroed knobs and an explicit unlimited budget take the nullptr fast
  // path: identical results, identical execution counts, no near misses.
  PaleoOptions options;
  options.deadline_ms = 0;
  options.max_validation_executions = 0;
  Paleo governed(&*table, options);
  RunBudget unlimited;
  auto report =
      governed.Run(RunRequest{.input = &input, .budget = &unlimited});
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->termination, TerminationReason::kCompleted);
  EXPECT_TRUE(report->near_misses.empty());
  ASSERT_TRUE(report->found());
  EXPECT_EQ(report->executed_queries, ungoverned->executed_queries);
  EXPECT_TRUE(report->valid[0].query == ungoverned->valid[0].query);
}

TEST(GovernedRunTest, TinyDeadlineTerminatesPromptlyWithNearMisses) {
  // A workload whose validation is heavyweight by construction: full
  // scans of a two-million-row relation (no dimension index), so a
  // single candidate execution far exceeds the deadline, while steps
  // 1-2 run over the ~100-row R' and finish well inside it.
  TrafficGenOptions gen;
  gen.num_customers = 200000;
  gen.months_per_customer = 10;
  gen.seed = 21;
  auto table = TrafficGen::Generate(gen);
  ASSERT_TRUE(table.ok());
  const Schema& schema = table->schema();

  TopKQuery hidden;
  hidden.predicate = Predicate::Atom(schema.FieldIndex("plan"),
                                     Value::String("XL"));
  hidden.expr = RankExpr::Column(schema.FieldIndex("data_mb"));
  hidden.agg = AggFn::kSum;
  hidden.k = 10;
  Executor ex;
  auto input = ex.Execute(*table, hidden, ExecContext{});
  ASSERT_TRUE(input.ok());
  ASSERT_EQ(input->size(), 10u);

  PaleoOptions options;
  options.use_dimension_index = false;  // force scan-based validation
  options.stop_at_first_valid = false;
  options.deadline_ms = 10;
  Paleo paleo(&*table, options);

  Timer timer;
  auto report = paleo.Run(RunRequest{.input = &*input});
  double elapsed_ms = timer.ElapsedMillis();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->termination, TerminationReason::kDeadline);
  // Prompt: the executor polls the budget every few thousand rows, so
  // the overshoot past the 10ms deadline is bounded (the generous bound
  // absorbs loaded CI machines; ungoverned this validation runs orders
  // of magnitude longer).
  EXPECT_LT(elapsed_ms, 2000.0);
  // Graceful: the best candidates the deadline never let us validate
  // come back as near misses instead of vanishing.
  EXPECT_FALSE(report->near_misses.empty());
  EXPECT_GT(report->candidate_queries, 0);
  for (const CandidateQuery& cq : report->near_misses) {
    EXPECT_GT(cq.suitability, 0.0);
  }
}

TEST(GovernedRunTest, ExecutionCapReportsBudgetWithNearMisses) {
  auto table = TrafficGen::PaperExample();
  ASSERT_TRUE(table.ok());

  // The ungoverned run assembles more than one candidate, so a cap of
  // one execution must leave unvalidated candidates behind.
  PaleoOptions ungoverned;
  ungoverned.stop_at_first_valid = false;
  Paleo baseline(&*table, ungoverned);
  const TopKList input = PaperInput();
  auto full =
      baseline.Run(RunRequest{.input = &input, .keep_candidates = true});
  ASSERT_TRUE(full.ok());
  ASSERT_GT(full->candidates.size(), 1u);

  PaleoOptions options;
  options.stop_at_first_valid = false;
  options.max_validation_executions = 1;
  Paleo paleo(&*table, options);
  auto report = paleo.Run(RunRequest{.input = &input});
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->termination, TerminationReason::kExecutionBudget);
  EXPECT_EQ(report->executed_queries, 1);
  EXPECT_FALSE(report->near_misses.empty());
}

TEST(GovernedRunTest, PreCancelledTokenStopsTheRun) {
  auto table = TrafficGen::PaperExample();
  ASSERT_TRUE(table.ok());
  CancellationToken token;
  token.Cancel();
  RunBudget budget;
  budget.set_cancellation_token(&token);
  Paleo paleo(&*table, PaleoOptions{});
  const TopKList input = PaperInput();
  auto report = paleo.Run(RunRequest{.input = &input, .budget = &budget});
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->termination, TerminationReason::kCancelled);
  EXPECT_TRUE(report->valid.empty());
}

}  // namespace
}  // namespace paleo
