// Differential tests for threshold-pruned validation: randomized
// chunked tables x candidate queries asserting that the pruned executor
// path (ExecContext::threshold) accepts and rejects EXACTLY the same
// candidates as the unpruned full scan — across the scalar, vectorized,
// and morsel-parallel paths — plus unit tests of the ThresholdMonitor's
// deactivation rules, budget-interrupt precedence over refutation,
// concurrent pruning over one shared atom cache, and full-pipeline
// equivalence with pruning on and off.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
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
#include "paleo/paleo.h"
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
  EXPECT_DOUBLE_EQ(m.worst_value(), 1.5);
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

TEST(ThresholdValidationTest, DifferentialPrunedVsUnprunedAcceptSets) {
  Rng rng(20260809);
  ThreadPool pool(4);
  Executor scalar;
  scalar.SetVectorized(false);
  Executor vec;  // vectorized by default
  int workloads = 0;
  int refuted_somewhere = 0;
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
