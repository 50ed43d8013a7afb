// Tests for ranked and smart (Algorithm 3) validation through
// Validator::Validate. Every case runs in both scheduler modes — inline
// (no pool) and pooled (num_threads = 4 on a ThreadPool) — against the
// same assertions.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/run_budget.h"
#include "common/thread_pool.h"
#include "datagen/traffic_gen.h"
#include "paleo/validator.h"

namespace paleo {
namespace {

constexpr bool kPooledModes[] = {false, true};

std::string ModeName(bool pooled) { return pooled ? "pooled" : "inline"; }

struct Fixture {
  Table table;
  Schema schema;
  Executor executor;
  TopKList list;
  TopKQuery truth;

  static Fixture Make() {
    auto t = TrafficGen::PaperExample();
    EXPECT_TRUE(t.ok());
    Table table = *std::move(t);
    Schema schema = table.schema();
    TopKQuery truth;
    truth.predicate = Predicate::Atom(schema.FieldIndex("state"),
                                      Value::String("CA"));
    truth.expr = RankExpr::Column(schema.FieldIndex("minutes"));
    truth.agg = AggFn::kMax;
    truth.k = 5;
    Executor executor;
    auto list = executor.Execute(table, truth, ExecContext{});
    EXPECT_TRUE(list.ok());
    return Fixture{std::move(table), std::move(schema), Executor(),
                   *std::move(list), truth};
  }

  CandidateQuery MakeCandidate(const TopKQuery& q, double suitability) {
    CandidateQuery cq;
    cq.query = q;
    cq.suitability = suitability;
    return cq;
  }

  /// A query over the wrong column (no overlap with L's entities
  /// guaranteed not in general, but values differ).
  TopKQuery WrongRanking() const {
    TopKQuery q = truth;
    q.expr = RankExpr::Column(schema.FieldIndex("sms"));
    return q;
  }

  /// A query with an unrelated predicate selecting other states.
  TopKQuery WrongPredicate() const {
    TopKQuery q = truth;
    q.predicate = Predicate::Atom(schema.FieldIndex("state"),
                                  Value::String("NY"));
    return q;
  }

  /// The truth's predicate and column under another aggregate.
  TopKQuery WrongAggregate(AggFn agg) const {
    TopKQuery q = truth;
    q.agg = agg;
    return q;
  }

  /// Validate() with `strategy`, inline or pooled.
  StatusOr<ValidationOutcome> Validate(
      PaleoOptions options, ValidationStrategy strategy, bool pooled,
      const std::vector<CandidateQuery>& candidates, const TopKList& input,
      const RunBudget* budget = nullptr) {
    options.validation_strategy = strategy;
    std::unique_ptr<ThreadPool> pool;
    if (pooled) {
      pool = std::make_unique<ThreadPool>(4);
      options.num_threads = 4;
    }
    Validator validator(table, &executor, options, pool.get());
    return validator.Validate(candidates, input, budget);
  }
};

TEST(ValidatorTest, AcceptsExactMatchOnly) {
  Fixture f = Fixture::Make();
  PaleoOptions options;
  Validator validator(f.table, &f.executor, options);
  EXPECT_TRUE(validator.Accepts(f.list, f.list));
  TopKList shifted = f.list;
  TopKList other;
  for (const TopKEntry& e : f.list.entries()) {
    other.Append(e.entity, e.value + 1.0);
  }
  EXPECT_FALSE(validator.Accepts(other, f.list));
}

TEST(ValidatorTest, PartialMatchModeAcceptsNearMisses) {
  Fixture f = Fixture::Make();
  PaleoOptions options;
  options.match_mode = MatchMode::kPartial;
  options.partial_min_entity_jaccard = 0.6;
  options.partial_max_value_distance = 0.2;
  Validator validator(f.table, &f.executor, options);

  // Same entities, values off by 1% -> accepted.
  TopKList close;
  for (const TopKEntry& e : f.list.entries()) {
    close.Append(e.entity, e.value * 1.01);
  }
  EXPECT_TRUE(validator.Accepts(close, f.list));

  // Disjoint entities -> rejected.
  TopKList disjoint;
  for (size_t i = 0; i < f.list.size(); ++i) {
    disjoint.Append("nobody " + std::to_string(i), 100.0);
  }
  EXPECT_FALSE(validator.Accepts(disjoint, f.list));
  // Empty result -> rejected.
  EXPECT_FALSE(validator.Accepts(TopKList(), f.list));
}

TEST(ValidatorTest, RankedValidationFindsFirstValid) {
  Fixture f = Fixture::Make();
  std::vector<CandidateQuery> candidates = {
      f.MakeCandidate(f.WrongRanking(), 0.9),
      f.MakeCandidate(f.truth, 0.8),
      f.MakeCandidate(f.WrongPredicate(), 0.7),
  };
  for (bool pooled : kPooledModes) {
    SCOPED_TRACE(ModeName(pooled));
    auto outcome = f.Validate(PaleoOptions{}, ValidationStrategy::kRanked,
                              pooled, candidates, f.list);
    ASSERT_TRUE(outcome.ok());
    ASSERT_TRUE(outcome->found());
    EXPECT_EQ(outcome->executions, 2);  // wrong ranking, then truth
    EXPECT_TRUE(outcome->valid[0].query == f.truth);
    EXPECT_EQ(outcome->valid[0].executions_at_discovery, 2);
    EXPECT_EQ(outcome->passes, 1);
  }
}

TEST(ValidatorTest, RankedValidationExhaustsWithoutMatch) {
  Fixture f = Fixture::Make();
  std::vector<CandidateQuery> candidates = {
      f.MakeCandidate(f.WrongRanking(), 0.9),
      f.MakeCandidate(f.WrongPredicate(), 0.7),
  };
  for (bool pooled : kPooledModes) {
    SCOPED_TRACE(ModeName(pooled));
    auto outcome = f.Validate(PaleoOptions{}, ValidationStrategy::kRanked,
                              pooled, candidates, f.list);
    ASSERT_TRUE(outcome.ok());
    EXPECT_FALSE(outcome->found());
    EXPECT_EQ(outcome->executions, 2);
    EXPECT_EQ(outcome->termination, TerminationReason::kCompleted);
    EXPECT_TRUE(outcome->unvalidated.empty());
  }
}

TEST(ValidatorTest, RankedValidationFindsAllWhenRequested) {
  Fixture f = Fixture::Make();
  PaleoOptions options;
  options.stop_at_first_valid = false;
  TopKQuery with_plan = f.truth;
  with_plan.predicate =
      *f.truth.predicate.And({f.schema.FieldIndex("plan"),
                              Value::String("XL")});
  std::vector<CandidateQuery> candidates = {
      f.MakeCandidate(f.truth, 0.9),
      f.MakeCandidate(f.WrongRanking(), 0.8),
      f.MakeCandidate(with_plan, 0.7),
  };
  for (bool pooled : kPooledModes) {
    SCOPED_TRACE(ModeName(pooled));
    auto outcome = f.Validate(options, ValidationStrategy::kRanked, pooled,
                              candidates, f.list);
    ASSERT_TRUE(outcome.ok());
    // Both the original and the plan-augmented query are valid (the
    // paper's Section 1 observation).
    ASSERT_EQ(outcome->valid.size(), 2u);
    EXPECT_EQ(outcome->executions, 3);
    EXPECT_EQ(outcome->valid[0].executions_at_discovery, 1);
    EXPECT_EQ(outcome->valid[1].executions_at_discovery, 3);
  }
}

TEST(ValidatorTest, ExecutionBudgetIsHonored) {
  Fixture f = Fixture::Make();
  PaleoOptions options;
  options.max_query_executions = 1;
  std::vector<CandidateQuery> candidates = {
      f.MakeCandidate(f.WrongRanking(), 0.9),
      f.MakeCandidate(f.truth, 0.8),
  };
  for (bool pooled : kPooledModes) {
    SCOPED_TRACE(ModeName(pooled));
    for (ValidationStrategy strategy :
         {ValidationStrategy::kRanked, ValidationStrategy::kSmart}) {
      auto outcome =
          f.Validate(options, strategy, pooled, candidates, f.list);
      ASSERT_TRUE(outcome.ok());
      EXPECT_FALSE(outcome->found());
      EXPECT_EQ(outcome->executions, 1);
      EXPECT_EQ(outcome->passes, 1);
      // The per-pass cap stops silently: no termination reason.
      EXPECT_EQ(outcome->termination, TerminationReason::kCompleted);
      EXPECT_TRUE(outcome->unvalidated.empty());
    }
  }
}

TEST(ValidatorTest, RunBudgetWindsDownMidPass) {
  Fixture f = Fixture::Make();
  // WrongRanking becomes Qfm; WrongPredicate shares no atom with it and
  // is skipped by smart validation; the aggregate variants share Qfm's
  // atom and are executed. None of them reproduces L.
  std::vector<CandidateQuery> candidates = {
      f.MakeCandidate(f.WrongRanking(), 0.9),
      f.MakeCandidate(f.WrongPredicate(), 0.8),
      f.MakeCandidate(f.WrongAggregate(AggFn::kSum), 0.7),
      f.MakeCandidate(f.WrongAggregate(AggFn::kMin), 0.6),
  };
  struct Case {
    ValidationStrategy strategy;
    int64_t cap;
    int64_t executions;
    std::vector<size_t> unvalidated;
    int passes;
  };
  const Case cases[] = {
      // Ranked: candidates 0 and 1 run, the queue tail is left.
      {ValidationStrategy::kRanked, 2, 2, {2, 3}, 1},
      // Smart, pass 1: 0 (Qfm) and 2 run, 1 was skipped; the tail (3)
      // and this pass's skip (1) are left, ascending.
      {ValidationStrategy::kSmart, 2, 2, {1, 3}, 1},
      // Smart, pass 2: pass 1 runs 0, 2 and 3; the retried skip is left.
      {ValidationStrategy::kSmart, 3, 3, {1}, 2},
  };
  for (const Case& c : cases) {
    for (bool pooled : kPooledModes) {
      SCOPED_TRACE(ModeName(pooled) + " cap " + std::to_string(c.cap) +
                   (c.strategy == ValidationStrategy::kSmart ? " smart"
                                                             : " ranked"));
      RunBudget budget;
      budget.set_max_executions(c.cap);
      auto outcome = f.Validate(PaleoOptions{}, c.strategy, pooled,
                                candidates, f.list, &budget);
      ASSERT_TRUE(outcome.ok());
      EXPECT_FALSE(outcome->found());
      EXPECT_EQ(outcome->termination, TerminationReason::kExecutionBudget);
      EXPECT_EQ(outcome->unvalidated, c.unvalidated);
      EXPECT_EQ(outcome->executions, c.executions);
      EXPECT_EQ(outcome->passes, c.passes);
    }
  }
}

TEST(ValidatorTest, SmartValidationSkipsUnrelatedPredicates) {
  Fixture f = Fixture::Make();
  // First candidate: right predicate family, wrong ranking -> its
  // result shares all entities with L (max(sms) over CA customers
  // ranks the same five people), making it the "first match" Qfm.
  // Unrelated-predicate candidates afterwards must be skipped.
  std::vector<CandidateQuery> candidates = {
      f.MakeCandidate(f.WrongRanking(), 0.9),
      f.MakeCandidate(f.WrongPredicate(), 0.8),
      f.MakeCandidate(f.truth, 0.7),
  };
  for (bool pooled : kPooledModes) {
    SCOPED_TRACE(ModeName(pooled));
    auto outcome = f.Validate(PaleoOptions{}, ValidationStrategy::kSmart,
                              pooled, candidates, f.list);
    ASSERT_TRUE(outcome.ok());
    ASSERT_TRUE(outcome->found());
    EXPECT_TRUE(outcome->valid[0].query == f.truth);
    // Executed: WrongRanking (becomes Qfm), truth. WrongPredicate
    // skipped.
    EXPECT_EQ(outcome->executions, 2);
    EXPECT_EQ(outcome->skip_events, 1);
    EXPECT_EQ(outcome->passes, 1);
  }
}

TEST(ValidatorTest, SmartValidationRetriesSkippedCandidates) {
  Fixture f = Fixture::Make();
  // The only valid query hides behind a predicate unrelated to the
  // first match; a second pass must recover it.
  TopKQuery xl_truth = f.truth;
  xl_truth.predicate = Predicate::Atom(f.schema.FieldIndex("plan"),
                                       Value::String("XL"));
  Executor ex;
  auto xl_list = ex.Execute(f.table, xl_truth, ExecContext{});
  ASSERT_TRUE(xl_list.ok());

  std::vector<CandidateQuery> candidates = {
      f.MakeCandidate(f.WrongRanking(), 0.9),  // Qfm (same entities as L)
      f.MakeCandidate(xl_truth, 0.8),          // no atoms shared with Qfm
  };
  for (bool pooled : kPooledModes) {
    SCOPED_TRACE(ModeName(pooled));
    auto outcome = f.Validate(PaleoOptions{}, ValidationStrategy::kSmart,
                              pooled, candidates, *xl_list);
    ASSERT_TRUE(outcome.ok());
    // Whether pass 1 accepts it depends on Qfm selection; the important
    // property: the valid query is eventually found despite skipping.
    ASSERT_TRUE(outcome->found());
    EXPECT_TRUE(outcome->valid[0].query == xl_truth);
  }
}

TEST(ValidatorTest, ValidateDispatchesOnStrategy) {
  Fixture f = Fixture::Make();
  std::vector<CandidateQuery> candidates = {f.MakeCandidate(f.truth, 1.0)};
  for (bool pooled : kPooledModes) {
    SCOPED_TRACE(ModeName(pooled));
    auto outcome = f.Validate(PaleoOptions{}, ValidationStrategy::kRanked,
                              pooled, candidates, f.list);
    ASSERT_TRUE(outcome.ok());
    EXPECT_TRUE(outcome->found());
    EXPECT_EQ(outcome->passes, 1);
  }
}

TEST(ValidatorTest, EmptyCandidateListIsNotAnError) {
  Fixture f = Fixture::Make();
  for (bool pooled : kPooledModes) {
    SCOPED_TRACE(ModeName(pooled));
    auto ranked = f.Validate(PaleoOptions{}, ValidationStrategy::kRanked,
                             pooled, {}, f.list);
    ASSERT_TRUE(ranked.ok());
    EXPECT_FALSE(ranked->found());
    // Ranked validation is one pass, even over nothing.
    EXPECT_EQ(ranked->passes, 1);
    auto smart = f.Validate(PaleoOptions{}, ValidationStrategy::kSmart,
                            pooled, {}, f.list);
    ASSERT_TRUE(smart.ok());
    EXPECT_FALSE(smart->found());
    EXPECT_EQ(smart->passes, 0);
  }
}

}  // namespace
}  // namespace paleo
