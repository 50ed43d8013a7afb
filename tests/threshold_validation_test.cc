// Differential tests for threshold-pruned validation: randomized
// chunked tables x candidate queries asserting that the pruned executor
// path (ExecContext::threshold) accepts and rejects EXACTLY the same
// candidates as the unpruned full scan — across the scalar, vectorized,
// and morsel-parallel paths — plus unit tests of the ThresholdMonitor's
// deactivation rules, the pre-pass and the first-match goal on
// hand-built tables, budget-interrupt precedence over refutation,
// concurrent pruning over one shared atom cache, smart validation's
// schedule with pruning on and off (sequential and parallel), and
// full-pipeline equivalence with pruning on and off.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/fault_points.h"
#include "common/random.h"
#include "common/run_budget.h"
#include "common/thread_pool.h"
#include "datagen/tpch_gen.h"
#include "engine/atom_cache.h"
#include "engine/executor.h"
#include "engine/threshold_monitor.h"
#include "obs/trace.h"
#include "paleo/explain.h"
#include "paleo/paleo.h"
#include "paleo/validator.h"
#include "storage/rank_prefix.h"
#include "workload/workload.h"

namespace paleo {
namespace {

// ---- Randomized workload generation -------------------------------------

Schema DiffSchema() {
  auto schema = Schema::Make({
      {"e", DataType::kString, FieldRole::kEntity},
      {"s1", DataType::kString, FieldRole::kDimension},
      {"s2", DataType::kString, FieldRole::kDimension},
      {"d1", DataType::kInt64, FieldRole::kDimension},
      {"v", DataType::kInt64, FieldRole::kMeasure},
      {"w", DataType::kDouble, FieldRole::kMeasure},
  });
  EXPECT_TRUE(schema.ok());
  return *schema;
}

const char* kStates[] = {"CA", "NY", "TX", "WA"};

/// Random MULTI-CHUNK table: pruning only engages past one chunk, so
/// the layout straddles several small chunks (and bitmap words).
Table RandomChunkedTable(Rng& rng, size_t num_rows) {
  Table t(DiffSchema());
  const int num_entities = static_cast<int>(rng.UniformInt(3, 40));
  for (size_t r = 0; r < num_rows; ++r) {
    std::string e = "e" + std::to_string(rng.UniformInt(0, num_entities - 1));
    std::string s1 = kStates[rng.Uniform(4)];
    std::string s2 = "g" + std::to_string(rng.Uniform(8));
    EXPECT_TRUE(t.AppendRow({Value::String(e), Value::String(s1),
                             Value::String(s2),
                             Value::Int64(rng.UniformInt(0, 10)),
                             Value::Int64(rng.UniformInt(-100, 100)),
                             Value::Double(rng.UniformDouble(0.0, 100.0))})
                    .ok());
  }
  const size_t chunk_sizes[] = {64, 128, 256};
  t.SetChunkRows(chunk_sizes[rng.Uniform(3)]);
  return t;
}

/// Random grouped candidate: 0-3 predicate atoms (sometimes one no row
/// matches), random ranking expression, aggregate, order, and k.
TopKQuery RandomQuery(Rng& rng) {
  TopKQuery q;
  std::vector<AtomicPredicate> atoms;
  const int num_atoms = static_cast<int>(rng.Uniform(4));
  bool used[3] = {false, false, false};
  for (int i = 0; i < num_atoms; ++i) {
    const int pick = static_cast<int>(rng.Uniform(3));
    if (used[pick]) continue;
    used[pick] = true;
    switch (pick) {
      case 0:
        atoms.emplace_back(1, rng.Uniform(8) == 0
                                  ? Value::String("ZZ")
                                  : Value::String(kStates[rng.Uniform(4)]));
        break;
      case 1:
        atoms.emplace_back(
            2, Value::String("g" + std::to_string(rng.Uniform(8))));
        break;
      case 2:
        if (rng.Uniform(2) == 0) {
          atoms.emplace_back(3, Value::Int64(rng.UniformInt(0, 10)));
        } else {
          const int64_t lo = rng.UniformInt(0, 8);
          atoms.push_back(AtomicPredicate::Range(
              3, Value::Int64(lo), Value::Int64(rng.UniformInt(lo, 10))));
        }
        break;
    }
  }
  q.predicate = Predicate(std::move(atoms));
  switch (rng.Uniform(4)) {
    case 0: q.expr = RankExpr::Column(4); break;
    case 1: q.expr = RankExpr::Column(5); break;
    case 2: q.expr = RankExpr::Add(4, 5); break;
    default: q.expr = RankExpr::Mul(4, 5); break;
  }
  const AggFn aggs[] = {AggFn::kMax, AggFn::kMin, AggFn::kSum,
                        AggFn::kAvg, AggFn::kCount};
  q.agg = aggs[rng.Uniform(5)];
  q.order = rng.Uniform(2) == 0 ? SortOrder::kDesc : SortOrder::kAsc;
  q.k = static_cast<int>(rng.UniformInt(1, 15));
  return q;
}

/// A candidate "near" the truth: same k/order (so the monitor applies)
/// with a perturbed predicate, aggregate, or expression — the
/// population where an unsound refutation would actually flip an
/// accept.
TopKQuery PerturbQuery(Rng& rng, const TopKQuery& truth) {
  TopKQuery q = RandomQuery(rng);
  q.k = truth.k;
  q.order = truth.order;
  if (rng.Uniform(3) == 0) {
    q.predicate = truth.predicate;  // same rows, different criterion
  } else if (rng.Uniform(2) == 0) {
    q.expr = truth.expr;
    q.agg = truth.agg;  // same criterion, different rows
  }
  return q;
}

// ---- ThresholdMonitor unit tests ----------------------------------------

TopKList ListOf(std::vector<std::pair<std::string, double>> rows) {
  TopKList l;
  for (auto& [e, v] : rows) l.Append(std::move(e), v);
  return l;
}

TEST(ThresholdMonitorTest, DeactivatesOnUnusableInput) {
  Rng rng(1);
  Table t = RandomChunkedTable(rng, 400);
  // Empty input: nothing to refute against.
  EXPECT_FALSE(ThresholdMonitor(t, TopKList{}, SortOrder::kDesc, 1e-9)
                   .active());
  // Duplicate entities: no grouped query can produce them.
  EXPECT_FALSE(ThresholdMonitor(t, ListOf({{"e0", 5.0}, {"e0", 3.0}}),
                                SortOrder::kDesc, 1e-9)
                   .active());
  // Values sorted against the claimed order.
  EXPECT_FALSE(ThresholdMonitor(t, ListOf({{"e0", 1.0}, {"e1", 9.0}}),
                                SortOrder::kDesc, 1e-9)
                   .active());
  // An entity absent from the table's dictionary: the list can never
  // be reproduced, but refutation targets cannot be resolved either.
  EXPECT_FALSE(ThresholdMonitor(t, ListOf({{"nosuch", 5.0}, {"e0", 3.0}}),
                                SortOrder::kDesc, 1e-9)
                   .active());
}

TEST(ThresholdMonitorTest, ResolvesTargetsAndScopesApplicability) {
  Rng rng(2);
  Table t = RandomChunkedTable(rng, 400);
  const TopKList input = ListOf({{"e0", 9.0}, {"e1", 4.0}, {"e2", 1.5}});
  ThresholdMonitor m(t, input, SortOrder::kDesc, 1e-9);
  ASSERT_TRUE(m.active());
  EXPECT_EQ(m.k(), 3u);
  ASSERT_EQ(m.targets().size(), 3u);
  EXPECT_DOUBLE_EQ(m.targets().back().value, 1.5);
  for (const ThresholdMonitor::Target& target : m.targets()) {
    EXPECT_TRUE(m.IsTarget(target.code));
    for (RowId r : target.rows) {
      EXPECT_EQ(t.entity_column().CodeAt(r), target.code);
    }
  }
  EXPECT_GT(m.slack(), 1e-9) << "slack must be wider than the eps";

  TopKQuery q;
  q.agg = AggFn::kMax;
  q.expr = RankExpr::Column(4);
  q.k = 3;
  q.order = SortOrder::kDesc;
  EXPECT_TRUE(m.AppliesTo(q));
  q.k = 4;
  EXPECT_FALSE(m.AppliesTo(q)) << "k mismatch";
  q.k = 3;
  q.order = SortOrder::kAsc;
  EXPECT_FALSE(m.AppliesTo(q)) << "order mismatch";
  q.order = SortOrder::kDesc;
  q.agg = AggFn::kNone;
  EXPECT_FALSE(m.AppliesTo(q)) << "ungrouped queries have no groups";
}

// ---- Differential accept/reject equivalence -----------------------------

/// The soundness + equivalence contract for one (table, input,
/// candidate) triple on one execution path: the pruned run either
/// reproduces the unpruned result byte-identically or refutes — and it
/// refutes ONLY candidates the unpruned run rejects.
void ExpectPrunedEquivalent(Executor& ex, const Table& t,
                            const TopKQuery& candidate,
                            const TopKList& input,
                            const ThresholdMonitor& monitor,
                            const ExecContext& base_ctx, int workload) {
  auto unpruned = ex.Execute(t, candidate, base_ctx);
  ASSERT_TRUE(unpruned.ok()) << "workload " << workload;
  const bool accept_unpruned = unpruned->InstanceEquals(input);

  ExecContext pruned_ctx = base_ctx;
  pruned_ctx.threshold = &monitor;
  auto pruned = ex.Execute(t, candidate, pruned_ctx);
  if (pruned.ok()) {
    EXPECT_TRUE(*pruned == *unpruned)
        << "workload " << workload
        << ": a non-refuted pruned run must be byte-identical";
  } else {
    ASSERT_TRUE(pruned.status().IsQueryRefuted())
        << "workload " << workload << ": " << pruned.status().ToString();
    EXPECT_FALSE(accept_unpruned)
        << "workload " << workload
        << ": refuted a candidate the full execution accepts (UNSOUND)";
  }
  const bool accept_pruned = pruned.ok() && pruned->InstanceEquals(input);
  EXPECT_EQ(accept_unpruned, accept_pruned) << "workload " << workload;
}

/// The first-match goal's contract on one execution path: a non-refuted
/// run reproduces the unpruned result byte-identically; a refuted one
/// leaves a full result that is not accepted and, when the goal's own
/// rules refuted, has k rows and an entity Jaccard below tau. Returns
/// true when the goal refuted.
bool ExpectFirstMatchSound(Executor& ex, const Table& t,
                           const TopKQuery& candidate, const TopKList& input,
                           const ThresholdMonitor& monitor, double tau,
                           const ExecContext& base_ctx, int workload) {
  auto unpruned = ex.Execute(t, candidate, base_ctx);
  EXPECT_TRUE(unpruned.ok()) << "workload " << workload;
  if (!unpruned.ok()) return false;
  RefutationRule rule = RefutationRule::kNone;
  ExecContext ctx = base_ctx;
  ctx.threshold = &monitor;
  ctx.threshold_goal = ThresholdGoal::kFirstMatch;
  ctx.refuted_by = &rule;
  auto pruned = ex.Execute(t, candidate, ctx);
  if (pruned.ok()) {
    EXPECT_TRUE(*pruned == *unpruned) << "workload " << workload;
    return false;
  }
  EXPECT_TRUE(pruned.status().IsQueryRefuted())
      << "workload " << workload << ": " << pruned.status().ToString();
  EXPECT_FALSE(unpruned->InstanceEquals(input))
      << "workload " << workload << ": refuted an accepted candidate";
  if (rule != RefutationRule::kFirstMatch) return false;
  EXPECT_EQ(unpruned->size(), static_cast<size_t>(candidate.k))
      << "workload " << workload;
  EXPECT_LT(unpruned->EntityJaccard(input), tau)
      << "workload " << workload << ": refuted a first match (UNSOUND)";
  return true;
}

TEST(ThresholdValidationTest, DifferentialPrunedVsUnprunedAcceptSets) {
  Rng rng(20260809);
  ThreadPool pool(4);
  Executor scalar;
  scalar.SetVectorized(false);
  Executor vec;  // vectorized by default
  int workloads = 0;
  int refuted_somewhere = 0;
  int first_match_refuted = 0;
  const double kTaus[] = {0.2, 0.5, 0.8, 1.0};
  for (int ti = 0; ti < 70; ++ti) {
    const size_t sizes[] = {200, 500, 1000, 2048, 3000};
    Table t = RandomChunkedTable(rng, sizes[rng.Uniform(5)]);
    // The input list L to validate against: a random truth query's
    // genuine result over the table.
    const TopKQuery truth = RandomQuery(rng);
    auto input = vec.Execute(t, truth, ExecContext{});
    ASSERT_TRUE(input.ok());
    if (input->empty()) continue;
    ThresholdMonitor monitor(t, *input, truth.order, 1e-9);
    const double tau = kTaus[ti % 4];
    ThresholdMonitor first_match(t, *input, truth.order, 1e-9, tau);

    const ExecContext scalar_ctx{};
    const ExecContext vec_ctx{};
    const ExecContext par_ctx{.pool = &pool, .scan_threads = 4};
    for (int ci = 0; ci < 8; ++ci) {
      // First candidate is the truth itself: it must NEVER be refuted
      // on any path (soundness), the rest perturb around it.
      const TopKQuery cand = ci == 0 ? truth : PerturbQuery(rng, truth);
      ExpectPrunedEquivalent(scalar, t, cand, *input, monitor, scalar_ctx,
                             workloads);
      ExpectPrunedEquivalent(vec, t, cand, *input, monitor, vec_ctx,
                             workloads);
      ExpectPrunedEquivalent(vec, t, cand, *input, monitor, par_ctx,
                             workloads);
      ExpectFirstMatchSound(scalar, t, cand, *input, first_match, tau,
                            scalar_ctx, workloads);
      ExpectFirstMatchSound(vec, t, cand, *input, first_match, tau, par_ctx,
                            workloads);
      if (ExpectFirstMatchSound(vec, t, cand, *input, first_match, tau,
                                vec_ctx, workloads)) {
        ++first_match_refuted;
      }
      ExecContext probe_ctx = vec_ctx;
      probe_ctx.threshold = &monitor;
      if (!vec.Execute(t, cand, probe_ctx).ok()) ++refuted_somewhere;
      ++workloads;
    }
  }
  // The acceptance bar: at least 500 distinct randomized workloads,
  // and the pruner actually fired (the suite is vacuous otherwise).
  EXPECT_GE(workloads, 500);
  EXPECT_GT(refuted_somewhere, 0) << "no workload ever refuted";
  EXPECT_GT(first_match_refuted, 0) << "the first-match goal never refuted";
}

// ---- Budget interruption vs refutation ----------------------------------

TEST(ThresholdValidationTest, CancellationOutranksRefutation) {
  Rng rng(91);
  Table t = RandomChunkedTable(rng, 2048);
  TopKQuery truth = RandomQuery(rng);
  Executor vec;
  auto input = vec.Execute(t, truth, ExecContext{});
  ASSERT_TRUE(input.ok());
  ASSERT_FALSE(input->empty());
  // A list no candidate can reproduce: inflate the values far past any
  // zone-map bound, so every grouped execution refutes quickly.
  TopKList impossible;
  for (const TopKEntry& e : input->entries()) {
    impossible.Append(e.entity, e.value + 1e12);
  }
  ThresholdMonitor monitor(t, impossible, truth.order, 1e-9);
  ASSERT_TRUE(monitor.active());
  ASSERT_TRUE(monitor.AppliesTo(truth));
  auto refuted =
      vec.Execute(t, truth, ExecContext{.threshold = &monitor});
  ASSERT_FALSE(refuted.ok());
  EXPECT_TRUE(refuted.status().IsQueryRefuted());

  // The same execution under a tripped budget winds down as Cancelled:
  // budget interruption outranks refutation (a refuted verdict from an
  // interrupted scan could depend on which morsels happened to finish).
  CancellationToken token;
  token.Cancel();
  RunBudget budget;
  budget.set_cancellation_token(&token);
  auto cancelled = vec.Execute(
      t, truth, ExecContext{.budget = &budget, .threshold = &monitor});
  ASSERT_FALSE(cancelled.ok());
  EXPECT_TRUE(cancelled.status().IsCancelled());
  EXPECT_FALSE(cancelled.status().IsQueryRefuted());
}

TEST(ThresholdValidationTest, InjectedMidScanInterruptNeverMisaccepts) {
  FaultPoints::DisarmAll();
  Rng rng(92);
  Table t = RandomChunkedTable(rng, 2048);
  TopKQuery truth = RandomQuery(rng);
  Executor vec;
  auto input = vec.Execute(t, truth, ExecContext{});
  ASSERT_TRUE(input.ok());
  ASSERT_FALSE(input->empty());
  ThresholdMonitor monitor(t, *input, truth.order, 1e-9);
  // Inject a simulated mid-scan budget interruption into every second
  // execution: whatever the interleaving with chunk refutation, the
  // outcome is Cancelled, QueryRefuted, or a byte-identical result —
  // never a wrong accept.
  FaultSpec spec;
  spec.action = FaultAction::kStatusError;
  spec.code = StatusCode::kCancelled;
  spec.probability = 0.5;
  spec.seed = 17;
  FaultPoints::Arm("executor.execute.scan", spec);
  for (int i = 0; i < 32; ++i) {
    const TopKQuery cand = i == 0 ? truth : PerturbQuery(rng, truth);
    auto pruned =
        vec.Execute(t, cand, ExecContext{.threshold = &monitor});
    if (!pruned.ok()) {
      EXPECT_TRUE(pruned.status().IsCancelled() ||
                  pruned.status().IsQueryRefuted())
          << pruned.status().ToString();
      continue;
    }
    FaultPoints::DisarmAll();
    auto ref = vec.Execute(t, cand, ExecContext{});
    FaultPoints::Arm("executor.execute.scan", spec);
    ASSERT_TRUE(ref.ok());
    EXPECT_TRUE(*pruned == *ref);
  }
  FaultPoints::DisarmAll();
}

// ---- Concurrent shared-cache stress -------------------------------------

TEST(ThresholdValidationTest, ConcurrentPruningOverSharedAtomCacheStaysSound) {
  Rng rng(4321);
  Table t = RandomChunkedTable(rng, 3000);
  const TopKQuery truth = RandomQuery(rng);
  Executor vec;
  auto input = vec.Execute(t, truth, ExecContext{});
  ASSERT_TRUE(input.ok());
  if (input->empty()) GTEST_SKIP() << "degenerate draw";
  ThresholdMonitor monitor(t, *input, truth.order, 1e-9);

  std::vector<TopKQuery> queries{truth};
  std::vector<TopKList> refs{*input};
  for (int i = 0; i < 5; ++i) {
    queries.push_back(PerturbQuery(rng, truth));
    auto ref = vec.Execute(t, queries.back(), ExecContext{});
    ASSERT_TRUE(ref.ok());
    refs.push_back(*std::move(ref));
  }
  // Room for four chunk bitmaps: forces evictions mid-run.
  AtomSelectionCache cache(4 * SelectionBitmap(t.chunk_rows()).MemoryUsage());
  std::atomic<int> violations{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < 8; ++w) {
    threads.emplace_back([&]() {
      for (int iter = 0; iter < 40; ++iter) {
        for (size_t qi = 0; qi < queries.size(); ++qi) {
          auto r = vec.Execute(t, queries[qi],
                               ExecContext{.cache = &cache,
                                           .threshold = &monitor});
          const bool accept_ref = refs[qi].InstanceEquals(*input);
          if (r.ok()) {
            if (!(*r == refs[qi])) {
              violations.fetch_add(1, std::memory_order_relaxed);
            }
          } else if (!r.status().IsQueryRefuted() || accept_ref) {
            violations.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(violations.load(), 0);
  EXPECT_LE(cache.stats().resident_bytes, cache.byte_budget());
  EXPECT_GT(cache.stats().evictions, 0) << "the budget never forced eviction";
}

// ---- Pre-pass and first-match goal on hand-built tables -----------------

/// One hand-placed row: entity, group, int measure, double measure.
struct HandRow {
  std::string e;
  std::string g;
  int64_t v = 0;
  double w = 0.0;
};

/// A table of 64-row chunks: chunk i holds `chunks[i]`, padded with
/// rows of group "pad", which no hand-built candidate selects.
Table HandTable(const std::vector<std::vector<HandRow>>& chunks) {
  auto schema = Schema::Make({
      {"e", DataType::kString, FieldRole::kEntity},
      {"g", DataType::kString, FieldRole::kDimension},
      {"v", DataType::kInt64, FieldRole::kMeasure},
      {"w", DataType::kDouble, FieldRole::kMeasure},
  });
  EXPECT_TRUE(schema.ok());
  Table t(*schema, 64);
  for (const std::vector<HandRow>& chunk : chunks) {
    EXPECT_LE(chunk.size(), 64u);
    for (size_t i = 0; i < 64; ++i) {
      const HandRow row = i < chunk.size() ? chunk[i] : HandRow{"pad", "pad"};
      EXPECT_TRUE(t.AppendRow({Value::String(row.e), Value::String(row.g),
                               Value::Int64(row.v), Value::Double(row.w)})
                      .ok());
    }
  }
  EXPECT_EQ(t.num_chunks(), chunks.size());
  return t;
}

/// `chunks` followed by RankPrefixes::kRows pad rows ranking ahead of
/// every value under `order` and never matching HandQuery's predicate:
/// the rank prefixes of `order` hold only pads, so a MAX DESC or MIN ASC
/// execution provably falls back from the walk to the monitored scan.
std::vector<std::vector<HandRow>> WithPaddedPrefixes(
    SortOrder order, std::vector<std::vector<HandRow>> chunks) {
  const int sign = order == SortOrder::kDesc ? 1 : -1;
  const std::vector<HandRow> pads(
      64, HandRow{"pad", "pad", sign * (int64_t{1} << 40), sign * 1e12});
  for (size_t i = 0; i < RankPrefixes::kRows / 64; ++i) {
    chunks.push_back(pads);
  }
  return chunks;
}

/// agg(column) over the rows of group "x".
TopKQuery HandQuery(AggFn agg, int column, SortOrder order, int k = 3) {
  TopKQuery q;
  q.predicate = Predicate({AtomicPredicate(1, Value::String("x"))});
  q.expr = RankExpr::Column(column);
  q.agg = agg;
  q.order = order;
  q.k = k;
  return q;
}

/// Runs `q` once under a monitor with `tau` and `goal`, and once
/// unmonitored. Returns the refuting rule (kNone: the monitored run
/// produced the unmonitored result). A refutation must be sound: the
/// full result is never accepted, and a first-match refutation leaves
/// a k-row result whose Jaccard with `input` is below tau.
RefutationRule RunGoal(const Table& t, const TopKQuery& q,
                       const TopKList& input, double tau,
                       ThresholdGoal goal) {
  ThresholdMonitor monitor(t, input, q.order, 1e-9, tau);
  EXPECT_TRUE(monitor.active());
  Executor ex;
  auto full = ex.Execute(t, q, ExecContext{});
  EXPECT_TRUE(full.ok());
  RefutationRule rule = RefutationRule::kNone;
  auto run = ex.Execute(t, q,
                        ExecContext{.threshold = &monitor,
                                    .threshold_goal = goal,
                                    .refuted_by = &rule});
  // Every execution here reaches the monitored scan.
  EXPECT_EQ(ex.stats().prefix_walks.load(), 0);
  if (run.ok()) {
    EXPECT_TRUE(*run == *full);
    EXPECT_EQ(rule, RefutationRule::kNone);
    return RefutationRule::kNone;
  }
  EXPECT_TRUE(run.status().IsQueryRefuted()) << run.status().ToString();
  EXPECT_NE(rule, RefutationRule::kNone);
  EXPECT_FALSE(full->InstanceEquals(input)) << "refuted an accepted result";
  if (rule == RefutationRule::kFirstMatch) {
    EXPECT_EQ(full->size(), static_cast<size_t>(q.k));
    EXPECT_LT(full->EntityJaccard(input), tau) << "refuted a first match";
  }
  return rule;
}

const double kNaN = std::numeric_limits<double>::quiet_NaN();

/// Six foreign groups far ahead in chunk 0, L's entities a1 > a2 > a3
/// in chunk 1, padding in chunk 2.
Table ForeignAheadTable(int64_t foreign_v) {
  std::vector<HandRow> foreign;
  for (int i = 1; i <= 6; ++i) {
    foreign.push_back({"f" + std::to_string(i), "x", foreign_v, 1.0});
  }
  return HandTable(WithPaddedPrefixes(
      SortOrder::kDesc,
      {foreign,
       {{"a1", "x", 10, 10.0}, {"a2", "x", 9, 9.0}, {"a3", "x", 8, 8.0}},
       {}}));
}

TEST(ThresholdMonitorTest, FirstMatchCountFollowsEntityJaccard) {
  const Table t = ForeignAheadTable(100);
  const TopKList l = ListOf({{"a1", 10.0}, {"a2", 9.0}, {"a3", 8.0}});
  auto count = [&](double tau) {
    return ThresholdMonitor(t, l, SortOrder::kDesc, 1e-9, tau)
        .first_match_count();
  };
  // c / (2k - c) for k = 3: 0, 0.2, 0.5, 1.
  EXPECT_EQ(count(-1.0), 0);
  EXPECT_EQ(count(0.0), 0);
  EXPECT_EQ(count(0.2), 1);
  EXPECT_EQ(count(0.5), 2);
  EXPECT_EQ(count(0.51), 3);
  EXPECT_EQ(count(1.0), 3);
  EXPECT_EQ(count(1.5), -1);
  EXPECT_EQ(count(kNaN), -1);
  EXPECT_EQ(ThresholdMonitor(t, l, SortOrder::kDesc, 1e-9)
                .first_match_count(),
            -1);
}

TEST(ThresholdFirstMatchTest, TauSelectsTheRule) {
  const Table t = ForeignAheadTable(100);
  const TopKList l = ListOf({{"a1", 10.0}, {"a2", 9.0}, {"a3", 8.0}});
  const TopKQuery q = HandQuery(AggFn::kMax, 2, SortOrder::kDesc);
  // The result is f1, f2, f3: Jaccard 0.
  EXPECT_EQ(RunGoal(t, q, l, 0.5, ThresholdGoal::kFirstMatch),
            RefutationRule::kFirstMatch);
  EXPECT_EQ(RunGoal(t, q, l, 1.0, ThresholdGoal::kFirstMatch),
            RefutationRule::kFirstMatch);
  // tau <= 0: every result is a first match, so phase 1 refutes nothing.
  EXPECT_EQ(RunGoal(t, q, l, 0.0, ThresholdGoal::kFirstMatch),
            RefutationRule::kNone);
  EXPECT_EQ(RunGoal(t, q, l, -1.0, ThresholdGoal::kFirstMatch),
            RefutationRule::kNone);
  // No c_tau: no result can be the first match, so phase 1 runs under
  // the acceptance goal (L's values match, the bounds refute).
  EXPECT_EQ(RunGoal(t, q, l, 1.5, ThresholdGoal::kFirstMatch),
            RefutationRule::kBounds);
  EXPECT_EQ(RunGoal(t, q, l, kNaN, ThresholdGoal::kFirstMatch),
            RefutationRule::kBounds);
  // The acceptance goal ignores tau.
  EXPECT_EQ(RunGoal(t, q, l, 0.0, ThresholdGoal::kAccept),
            RefutationRule::kBounds);
  // A value L cannot show: the pre-pass refutes under the acceptance
  // goal, before any chunk; the first-match goal still needs the scan.
  const TopKList off = ListOf({{"a1", 11.0}, {"a2", 9.0}, {"a3", 8.0}});
  EXPECT_EQ(RunGoal(t, q, off, 0.5, ThresholdGoal::kAccept),
            RefutationRule::kPrePass);
  EXPECT_EQ(RunGoal(t, q, off, 1.5, ThresholdGoal::kFirstMatch),
            RefutationRule::kPrePass);
  EXPECT_EQ(RunGoal(t, q, off, 0.5, ThresholdGoal::kFirstMatch),
            RefutationRule::kFirstMatch);
}

TEST(ThresholdFirstMatchTest, AscendingMin) {
  const TopKList l = ListOf({{"a1", 1.0}, {"a2", 2.0}, {"a3", 3.0}});
  const TopKQuery q = HandQuery(AggFn::kMin, 2, SortOrder::kAsc);
  auto table = [](int64_t foreign_v) {
    std::vector<HandRow> foreign;
    for (int i = 1; i <= 6; ++i) {
      foreign.push_back({"f" + std::to_string(i), "x", foreign_v, 0.0});
    }
    return HandTable(WithPaddedPrefixes(
        SortOrder::kAsc,
        {foreign,
         {{"a1", "x", 1}, {"a2", "x", 2}, {"a3", "x", 3}, {"a2", "x", 7}},
         {}}));
  };
  // Foreign minima below every L value: the result shares nothing.
  const Table ahead = table(-5);
  EXPECT_EQ(RunGoal(ahead, q, l, 0.5, ThresholdGoal::kFirstMatch),
            RefutationRule::kFirstMatch);
  EXPECT_EQ(RunGoal(ahead, q, l, 0.5, ThresholdGoal::kAccept),
            RefutationRule::kBounds);
  // Foreign minima behind L: the result is L itself.
  const Table behind = table(50);
  Executor ex;
  auto full = ex.Execute(behind, q, ExecContext{});
  ASSERT_TRUE(full.ok());
  EXPECT_TRUE(full->InstanceEquals(l));
  EXPECT_EQ(RunGoal(behind, q, l, 0.5, ThresholdGoal::kFirstMatch),
            RefutationRule::kNone);
  EXPECT_EQ(RunGoal(behind, q, l, 0.5, ThresholdGoal::kAccept),
            RefutationRule::kNone);
}

TEST(ThresholdFirstMatchTest, NaNInListRowsNeverRefutes) {
  const TopKList l = ListOf({{"a1", 10.0}, {"a2", 9.0}, {"a3", 8.0}});
  std::vector<HandRow> foreign;
  for (int i = 1; i <= 6; ++i) {
    foreign.push_back({"f" + std::to_string(i), "x", 0, 100.0});
  }
  const std::vector<HandRow> list_rows = {{"a1", "x", 0, 10.0},
                                          {"a2", "x", 0, 9.0},
                                          {"a3", "x", 0, 8.0}};
  std::vector<HandRow> with_nan = list_rows;
  with_nan.push_back({"a1", "x", 0, kNaN});
  const Table clean =
      HandTable(WithPaddedPrefixes(SortOrder::kDesc, {foreign, list_rows, {}}));
  const Table poisoned =
      HandTable(WithPaddedPrefixes(SortOrder::kDesc, {foreign, with_nan, {}}));
  for (AggFn agg : {AggFn::kMax, AggFn::kSum}) {
    const TopKQuery q = HandQuery(agg, 3, SortOrder::kDesc);
    // Without the NaN row the foreign groups refute...
    EXPECT_EQ(RunGoal(clean, q, l, 0.5, ThresholdGoal::kFirstMatch),
              RefutationRule::kFirstMatch);
    // ...with it, executor order around L is undefined: no rule fires.
    EXPECT_EQ(RunGoal(poisoned, q, l, 0.5, ThresholdGoal::kFirstMatch),
              RefutationRule::kNone);
    EXPECT_EQ(RunGoal(poisoned, q, l, 0.5, ThresholdGoal::kAccept),
              RefutationRule::kNone);
  }
}

TEST(ThresholdFirstMatchTest, IntegerMaxTieAtTheCut) {
  // tau 0.5, k 3: c_tau = 2, so e* = a2 (value 9) and two foreign
  // groups ahead of it refute.
  const TopKList l = ListOf({{"a1", 10.0}, {"a2", 9.0}, {"a3", 8.0}});
  const TopKQuery q = HandQuery(AggFn::kMax, 2, SortOrder::kDesc);
  auto table = [](const std::string& f1, const std::string& f2) {
    return HandTable(WithPaddedPrefixes(
        SortOrder::kDesc,
        {{{f1, "x", 9}, {f2, "x", 9}},
         {{"a1", "x", 10}, {"a2", "x", 9}, {"a3", "x", 8}},
         {}}));
  };
  Executor ex;
  // Both ties precede "a2" by name: they rank ahead of it, so the
  // result a1, a0, a1z holds one L entity.
  const Table both = table("a0", "a1z");
  EXPECT_EQ(RunGoal(both, q, l, 0.5, ThresholdGoal::kFirstMatch),
            RefutationRule::kFirstMatch);
  // Both follow "a2": the result a1, a2, b1 has Jaccard exactly tau.
  const Table none = table("b1", "b2");
  auto exact = ex.Execute(none, q, ExecContext{});
  ASSERT_TRUE(exact.ok());
  EXPECT_EQ(exact->EntityJaccard(l), 0.5);
  EXPECT_EQ(RunGoal(none, q, l, 0.5, ThresholdGoal::kFirstMatch),
            RefutationRule::kNone);
  // The acceptance goal cuts at a3 (8): any 9 is ahead of it.
  EXPECT_EQ(RunGoal(none, q, l, 0.5, ThresholdGoal::kAccept),
            RefutationRule::kBounds);
  // One tie ahead, one behind: a1, a0, a2 is again a first match.
  const Table one = table("a0", "b1");
  EXPECT_EQ(RunGoal(one, q, l, 0.5, ThresholdGoal::kFirstMatch),
            RefutationRule::kNone);
}

TEST(ThresholdFirstMatchTest, ShortResultIsNeverRefuted) {
  const TopKList l = ListOf({{"a1", 10.0}, {"a2", 9.0}, {"a3", 8.0}});
  const TopKQuery q = HandQuery(AggFn::kMax, 2, SortOrder::kDesc);
  Executor ex;
  // Groups f1 and a1 only: a 2-row result (Jaccard 1/4) with one
  // foreign group, short of the k - c' = 2 the touched rule needs.
  const Table foreign_one =
      HandTable({{{"f1", "x", 100}}, {{"a1", "x", 10}},
                 {{"a2", "y", 9}, {"a3", "y", 8}}});
  auto r1 = ex.Execute(foreign_one, q, ExecContext{});
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(r1->size(), 2u);
  EXPECT_EQ(RunGoal(foreign_one, q, l, 0.5, ThresholdGoal::kFirstMatch),
            RefutationRule::kNone);
  // Groups a1 and a2 only: a short result with Jaccard 2/3 — a first
  // match.
  const Table list_two =
      HandTable({{{"a1", "x", 10}}, {{"a2", "x", 9}}, {{"a3", "y", 8}}});
  auto r2 = ex.Execute(list_two, q, ExecContext{});
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2->size(), 2u);
  EXPECT_GE(r2->EntityJaccard(l), 0.5);
  EXPECT_EQ(RunGoal(list_two, q, l, 0.5, ThresholdGoal::kFirstMatch),
            RefutationRule::kNone);
}

TEST(ThresholdFirstMatchTest, JaccardExactlyTauIsNeverRefuted) {
  // sum(v): a1 30, f1 25, a2 20, a3 5 — the result a1, f1, a2 shares
  // two entities with L, Jaccard 2/4 = tau.
  const TopKList l = ListOf({{"a1", 30.0}, {"a2", 20.0}, {"a3", 10.0}});
  const TopKQuery q = HandQuery(AggFn::kSum, 2, SortOrder::kDesc);
  const Table t = HandTable(
      {{{"f1", "x", 20}, {"f1", "x", 5}},
       {{"a1", "x", 30}, {"a2", "x", 12}, {"a2", "x", 8}, {"a3", "x", 5}},
       {}});
  Executor ex;
  auto full = ex.Execute(t, q, ExecContext{});
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(full->EntityJaccard(l), 0.5);
  EXPECT_EQ(RunGoal(t, q, l, 0.5, ThresholdGoal::kFirstMatch),
            RefutationRule::kNone);
  // a3 sums to 5, not 10: the acceptance goal's pre-pass refutes.
  EXPECT_EQ(RunGoal(t, q, l, 0.5, ThresholdGoal::kAccept),
            RefutationRule::kPrePass);
}

// ---- Smart validation schedule, pruning on vs off ------------------------

/// One smart validation run and the candidate indices it executed, in
/// commit order (sequential "execute" spans; parallel "commit" spans
/// that executed rather than skipped).
struct SmartRun {
  ValidationOutcome outcome;
  std::vector<int64_t> executed;
  int64_t spans_refuted = 0;
};

SmartRun RunSmart(const Table& t, const std::vector<CandidateQuery>& cands,
                  const TopKList& input, bool pruning, bool stop_first,
                  ThreadPool* pool) {
  PaleoOptions options;
  options.validation_strategy = ValidationStrategy::kSmart;
  options.threshold_pruning = pruning;
  options.stop_at_first_valid = stop_first;
  if (pool != nullptr) {
    options.num_threads = 4;
    options.scan_threads = 2;
  }
  Executor ex;
  obs::Trace trace;
  Validator validator(t, &ex, options, pool, {},
                      obs::TraceContext{&trace, obs::Trace::kNoSpan});
  auto outcome = validator.Validate(cands, input);
  EXPECT_TRUE(outcome.ok());
  SmartRun run;
  run.outcome = *std::move(outcome);
  for (const obs::Span& span : trace.spans()) {
    int64_t candidate = -1;
    bool executed = span.name == "execute";
    for (const obs::SpanAttr& attr : span.attrs) {
      if (attr.key == "candidate") candidate = attr.i;
      if (attr.key == "accepted" || attr.key == "refuted_early") {
        executed = true;
      }
      if (attr.key == "refuted_by") ++run.spans_refuted;
    }
    if (executed) run.executed.push_back(candidate);
  }
  return run;
}

TEST(ThresholdValidationTest, SmartScheduleIdenticalPruningOnOff) {
  Rng rng(20261019);
  ThreadPool pool(4);
  int64_t first_match_refuted = 0;
  int64_t prepass_refuted = 0;
  int workloads = 0;
  for (int ti = 0; ti < 60; ++ti) {
    const size_t sizes[] = {500, 1000, 2048, 3000};
    Table t = RandomChunkedTable(rng, sizes[rng.Uniform(4)]);
    const TopKQuery truth = RandomQuery(rng);
    Executor ex;
    auto input = ex.Execute(t, truth, ExecContext{});
    ASSERT_TRUE(input.ok());
    if (input->empty()) continue;
    // Perturbed candidates around the truth, which sits at a random
    // position or is absent.
    const size_t n = static_cast<size_t>(rng.UniformInt(6, 14));
    const size_t truth_pos = rng.Uniform(n + 3);
    std::vector<CandidateQuery> cands(n);
    for (size_t i = 0; i < n; ++i) {
      cands[i].query = i == truth_pos ? truth : PerturbQuery(rng, truth);
    }
    const bool stop_first = rng.Uniform(2) == 0;
    const SmartRun off = RunSmart(t, cands, *input, false, stop_first,
                                  nullptr);
    EXPECT_EQ(off.outcome.refuted_early, 0);
    for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
      for (bool pruning : {false, true}) {
        const SmartRun run = RunSmart(t, cands, *input, pruning, stop_first,
                                      p);
        const ValidationOutcome& o = run.outcome;
        const std::string where = "workload " + std::to_string(workloads) +
                                  (p != nullptr ? " parallel" : "") +
                                  (pruning ? " pruned" : "");
        ASSERT_EQ(o.valid.size(), off.outcome.valid.size()) << where;
        for (size_t i = 0; i < o.valid.size(); ++i) {
          EXPECT_EQ(o.valid[i].query.Hash(),
                    off.outcome.valid[i].query.Hash())
              << where;
          EXPECT_EQ(o.valid[i].executions_at_discovery,
                    off.outcome.valid[i].executions_at_discovery)
              << where;
        }
        EXPECT_EQ(o.executions, off.outcome.executions) << where;
        EXPECT_EQ(o.skip_events, off.outcome.skip_events) << where;
        EXPECT_EQ(o.passes, off.outcome.passes) << where;
        // The executed sequence pins Qfm: the first execution whose
        // result reaches tau decides every later skip.
        EXPECT_EQ(run.executed, off.executed) << where;
        EXPECT_EQ(o.refuted_by_prepass + o.refuted_by_first_match +
                      o.refuted_by_bounds,
                  o.refuted_early)
            << where;
        EXPECT_EQ(run.spans_refuted, o.refuted_early) << where;
        if (pruning && p == nullptr) {
          first_match_refuted += o.refuted_by_first_match;
          prepass_refuted += o.refuted_by_prepass;
        }
      }
    }
    ++workloads;
  }
  EXPECT_GE(workloads, 50);
  EXPECT_GT(first_match_refuted, 0) << "phase 1 never refuted";
  EXPECT_GT(prepass_refuted, 0) << "the pre-pass never refuted";
}

// ---- Full-pipeline equivalence ------------------------------------------

TEST(ThresholdValidationTest, PipelineValidSetIdenticalPruningOnOff) {
  TpchGenOptions gen;
  gen.scale_factor = 0.003;
  auto table = TpchGen::Generate(gen);
  ASSERT_TRUE(table.ok());
  // Small chunks so pruning actually engages.
  table->SetChunkRows(2048);

  WorkloadOptions wl;
  wl.families = {QueryFamily::kMaxA, QueryFamily::kSumA,
                 QueryFamily::kAvgA};
  wl.predicate_sizes = {1, 2};
  wl.ks = {10};
  wl.queries_per_config = 1;
  auto workload = WorkloadGen::Generate(*table, wl);
  ASSERT_TRUE(workload.ok());
  ASSERT_FALSE(workload->empty());

  auto run = [&](const WorkloadQuery& wq, bool pruning,
                 bool lattice) -> ReverseEngineerReport {
    PaleoOptions options;
    options.use_dimension_index = false;  // force scanned validation
    options.threshold_pruning = pruning;
    options.lattice_aware_order = lattice;
    options.stop_at_first_valid = false;  // compare the FULL valid set
    Paleo paleo(&*table, options);
    RunRequest request;
    request.input = &wq.list;
    auto report = paleo.Run(request);
    EXPECT_TRUE(report.ok());
    return *std::move(report);
  };
  auto hashes = [](const ReverseEngineerReport& r) {
    std::vector<uint64_t> h;
    for (const ValidQuery& vq : r.valid) h.push_back(vq.query.Hash());
    std::sort(h.begin(), h.end());
    return h;
  };

  int64_t total_refuted = 0;
  for (const WorkloadQuery& wq : *workload) {
    const ReverseEngineerReport off = run(wq, false, false);
    const ReverseEngineerReport on = run(wq, true, false);
    ASSERT_FALSE(off.valid.empty()) << wq.name;
    EXPECT_EQ(hashes(off), hashes(on)) << wq.name;
    // Refuted executions count as executions: the schedule — and with
    // it every execution and skip count — is identical pruning on/off.
    EXPECT_EQ(off.executed_queries, on.executed_queries) << wq.name;
    EXPECT_EQ(off.skip_events, on.skip_events) << wq.name;
    EXPECT_EQ(off.executions_aborted_early, 0) << wq.name;
    EXPECT_EQ(off.rows_saved, 0) << wq.name;
    EXPECT_GE(on.rows_saved, 0) << wq.name;
    EXPECT_EQ(on.refuted_by_prepass + on.refuted_by_first_match +
                  on.refuted_by_bounds,
              on.executions_aborted_early)
        << wq.name;
    if (on.executions_aborted_early > 0) {
      const std::string text = ExplainReport(on, table->schema());
      EXPECT_NE(text.find("refuted by pre-pass:"), std::string::npos);
      EXPECT_NE(text.find("refuted by first-match goal:"), std::string::npos);
      EXPECT_NE(text.find("refuted by acceptance bounds:"),
                std::string::npos);
    }
    total_refuted += on.executions_aborted_early;

    // Lattice-aware ordering permutes suitability TIES only; the full
    // valid set is order-independent.
    const ReverseEngineerReport lat = run(wq, true, true);
    EXPECT_EQ(hashes(off), hashes(lat)) << wq.name;
  }
  EXPECT_GT(total_refuted, 0)
      << "pruning never fired across the whole workload";
}

TEST(ThresholdValidationTest, PipelineParallelValidationIdentical) {
  TpchGenOptions gen;
  gen.scale_factor = 0.002;
  auto table = TpchGen::Generate(gen);
  ASSERT_TRUE(table.ok());
  table->SetChunkRows(2048);

  WorkloadOptions wl;
  wl.families = {QueryFamily::kMaxA};
  wl.predicate_sizes = {2};
  wl.ks = {10};
  wl.queries_per_config = 1;
  auto workload = WorkloadGen::Generate(*table, wl);
  ASSERT_TRUE(workload.ok());
  ASSERT_FALSE(workload->empty());
  const TopKList& input = (*workload)[0].list;

  PaleoOptions options;
  options.use_dimension_index = false;
  auto run = [&](int num_threads, ThreadPool* pool) {
    PaleoOptions o = options;
    o.num_threads = num_threads;
    Paleo paleo(&*table, o);
    RunRequest request;
    request.input = &input;
    request.pool = pool;
    auto report = paleo.Run(request);
    EXPECT_TRUE(report.ok());
    EXPECT_TRUE(report->found());
    return report->valid[0].query.Hash();
  };
  const uint64_t seq = run(1, nullptr);
  ThreadPool pool(4);
  const uint64_t par = run(4, &pool);
  EXPECT_EQ(seq, par);
}

}  // namespace
}  // namespace paleo
