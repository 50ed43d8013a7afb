// Rank prefixes (storage/rank_prefix.h) and the executor's sorted-access
// walk over them.
//
// Storage side: a lazily built slot equals a brute-force sort of the
// column (name ties, -0.0 / +0.0, infinities, excluded NaN rows, int64
// and double columns, tables shorter than a slot); AppendRows,
// AppendRow and DeepCopy keep it equal to a from-scratch build;
// CheckConsistent drops it; concurrent first calls agree.
//
// Executor side: every walked execution is bit-identical to the row
// loop of ExecuteOnRows over every row, whether the walk answers or
// falls back; budget interrupts before and during a walk cancel.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "common/fault_points.h"
#include "common/random.h"
#include "common/run_budget.h"
#include "engine/executor.h"
#include "storage/rank_prefix.h"
#include "storage/table.h"

namespace paleo {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

constexpr int kEntityCol = 0;
constexpr int kDimCol = 1;
constexpr int kRangeCol = 2;
constexpr int kIntCol = 3;
constexpr int kDoubleCol = 4;

Schema PrefixSchema() {
  auto schema = Schema::Make({
      {"e", DataType::kString, FieldRole::kEntity},
      {"g", DataType::kString, FieldRole::kDimension},
      {"d", DataType::kInt64, FieldRole::kDimension},
      {"v", DataType::kInt64, FieldRole::kMeasure},
      {"w", DataType::kDouble, FieldRole::kMeasure},
  });
  EXPECT_TRUE(schema.ok());
  return *schema;
}

/// A double drawn from a few distinct values, so ties are common:
/// both zeros, both infinities, NaN, and small integers.
double TieHeavyDouble(Rng& rng) {
  switch (rng.Uniform(12)) {
    case 0:
      return 0.0;
    case 1:
      return -0.0;
    case 2:
      return kInf;
    case 3:
      return -kInf;
    case 4:
      return kNaN;
    default:
      return static_cast<double>(rng.UniformInt(-3, 3));
  }
}

/// One random row. `distinct` bounds the measures' cardinality.
std::vector<Value> RandomRow(Rng& rng, int entities, int64_t distinct) {
  const bool tie_heavy = distinct <= 8;
  return {Value::String("e" + std::to_string(rng.UniformInt(0, entities - 1))),
          Value::String("g" + std::to_string(rng.Uniform(4))),
          Value::Int64(rng.UniformInt(0, 9)),
          Value::Int64(rng.UniformInt(-distinct, distinct)),
          Value::Double(tie_heavy ? TieHeavyDouble(rng)
                                  : rng.UniformDouble(-1000.0, 1000.0))};
}

Table RandomTable(Rng& rng, size_t rows, int entities, int64_t distinct) {
  Table t(PrefixSchema(), 256);
  std::vector<std::vector<Value>> batch;
  for (size_t r = 0; r < rows; ++r) {
    batch.push_back(RandomRow(rng, entities, distinct));
  }
  EXPECT_TRUE(t.AppendRows(batch).ok());
  return t;
}

/// The oracle: every non-NaN row sorted by (value in `descending`
/// order with -0.0 == +0.0, entity name, row id), first kRows kept.
std::vector<RowId> BruteForcePrefix(const Table& t, int col,
                                    bool descending) {
  const Column& values = t.column(col);
  std::vector<RowId> rows;
  for (RowId r = 0; r < t.num_rows(); ++r) {
    if (!std::isnan(values.NumericAt(r))) rows.push_back(r);
  }
  std::sort(rows.begin(), rows.end(), [&](RowId a, RowId b) {
    const double va = values.NumericAt(a);
    const double vb = values.NumericAt(b);
    if (va < vb) return !descending;
    if (va > vb) return descending;
    const std::string& na = t.entity_column().StringAt(a);
    const std::string& nb = t.entity_column().StringAt(b);
    if (na != nb) return na < nb;
    return a < b;
  });
  if (rows.size() > RankPrefixes::kRows) rows.resize(RankPrefixes::kRows);
  return rows;
}

void ExpectSlotsMatchBruteForce(const Table& t, const std::string& what) {
  for (int col : {kIntCol, kDoubleCol}) {
    for (bool descending : {true, false}) {
      auto slot = t.RankPrefix(col, descending);
      ASSERT_NE(slot, nullptr);
      EXPECT_EQ(*slot, BruteForcePrefix(t, col, descending))
          << what << " col " << col << (descending ? " desc" : " asc");
    }
  }
}

// ---- Storage ------------------------------------------------------------

TEST(RankPrefixTest, CompareScoresIsAStrictWeakOrder) {
  for (bool desc : {true, false}) {
    EXPECT_EQ(CompareScores(0.0, -0.0, desc), 0);
    EXPECT_EQ(CompareScores(kNaN, kNaN, desc), 0);
    EXPECT_GT(CompareScores(kNaN, -kInf, desc), 0);
    EXPECT_GT(CompareScores(kNaN, kInf, desc), 0);
    EXPECT_LT(CompareScores(1.0, kNaN, desc), 0);
  }
  EXPECT_LT(CompareScores(2.0, 1.0, /*descending=*/true), 0);
  EXPECT_GT(CompareScores(2.0, 1.0, /*descending=*/false), 0);
  EXPECT_LT(CompareScores(-kInf, 0.0, /*descending=*/false), 0);
}

TEST(RankPrefixTest, LazySlotMatchesBruteForce) {
  Rng rng(4096);
  const size_t sizes[] = {0, 1, 7, 300, RankPrefixes::kRows - 1,
                          RankPrefixes::kRows, RankPrefixes::kRows + 1,
                          3 * RankPrefixes::kRows};
  for (size_t rows : sizes) {
    for (int64_t distinct : {2, 1000000}) {
      const Table t = RandomTable(rng, rows, 1 + static_cast<int>(rows % 37),
                                  distinct);
      ExpectSlotsMatchBruteForce(t, std::to_string(rows) + " rows, " +
                                        std::to_string(distinct) +
                                        " distinct");
    }
  }
}

TEST(RankPrefixTest, NonNumericColumnHasNoSlot) {
  Rng rng(1);
  const Table t = RandomTable(rng, 10, 3, 5);
  EXPECT_EQ(t.RankPrefix(kEntityCol, true), nullptr);
  EXPECT_EQ(t.RankPrefix(kDimCol, false), nullptr);
  EXPECT_EQ(t.RankPrefix(99, true), nullptr);
}

TEST(RankPrefixTest, SlotHoldsOnlyNumbersAndStopsAtTheTable) {
  Table t(PrefixSchema(), 64);
  ASSERT_TRUE(t.AppendRows(std::vector<std::vector<Value>>{
                               {Value::String("b"), Value::String("g"),
                                Value::Int64(0), Value::Int64(1),
                                Value::Double(kNaN)},
                               {Value::String("a"), Value::String("g"),
                                Value::Int64(0), Value::Int64(1),
                                Value::Double(-0.0)},
                               {Value::String("a"), Value::String("g"),
                                Value::Int64(0), Value::Int64(2),
                                Value::Double(0.0)}})
                  .ok());
  // -0.0 ties +0.0: row id decides within entity "a"; NaN row 0 is out.
  EXPECT_EQ(*t.RankPrefix(kDoubleCol, true), (std::vector<RowId>{1, 2}));
  EXPECT_EQ(*t.RankPrefix(kDoubleCol, false), (std::vector<RowId>{1, 2}));
  // Value ties are broken by entity name before row id.
  EXPECT_EQ(*t.RankPrefix(kIntCol, true), (std::vector<RowId>{2, 1, 0}));
  EXPECT_EQ(*t.RankPrefix(kIntCol, false), (std::vector<RowId>{1, 0, 2}));
}

TEST(RankPrefixTest, AppendAndDeepCopyKeepSlotsEqualToAFreshBuild) {
  Rng rng(77);
  for (int64_t distinct : {3, 1000000}) {
    Table base = RandomTable(rng, 2 * RankPrefixes::kRows, 50, distinct);
    // Build every slot, then carry them through a DeepCopy.
    ExpectSlotsMatchBruteForce(base, "base");
    const auto base_desc = base.RankPrefix(kDoubleCol, true);
    Table copy = base.DeepCopy();
    EXPECT_EQ(copy.RankPrefix(kDoubleCol, true), base_desc)
        << "DeepCopy carries the built slot over";
    // Batches with new entities, NaN rows and values that enter the
    // top of both orders.
    for (int round = 0; round < 4; ++round) {
      std::vector<std::vector<Value>> batch;
      const size_t n = round == 3 ? RankPrefixes::kRows + 10 : 1 + round * 40;
      for (size_t i = 0; i < n; ++i) {
        batch.push_back(RandomRow(rng, 80, distinct * 2));
      }
      ASSERT_TRUE(copy.AppendRows(batch).ok());
      ExpectSlotsMatchBruteForce(copy, "after batch " + std::to_string(round));
    }
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE(copy.AppendRow(RandomRow(rng, 90, distinct * 3)).ok());
    }
    ExpectSlotsMatchBruteForce(copy, "after single rows");
    // The source table's slots never see the copy's rows.
    EXPECT_EQ(base.RankPrefix(kDoubleCol, true), base_desc);
    ExpectSlotsMatchBruteForce(base, "base after the copy grew");
  }
}

TEST(RankPrefixTest, PlainCopyIsUnaffectedByTheOthersAppends) {
  Rng rng(5);
  Table a = RandomTable(rng, 100, 5, 1000000);
  Table b = a;  // shares the (still empty) set
  ASSERT_TRUE(b.AppendRow(RandomRow(rng, 5, 1000000)).ok());
  ExpectSlotsMatchBruteForce(a, "a");
  ExpectSlotsMatchBruteForce(b, "b");
}

TEST(RankPrefixTest, CheckConsistentDropsSlots) {
  Rng rng(9);
  Table t = RandomTable(rng, 500, 10, 1000000);
  const auto before = t.RankPrefix(kDoubleCol, true);
  ASSERT_FALSE(before->empty());
  // Direct column write: the old best row sinks to the bottom.
  const RowId top = before->front();
  t.mutable_column(kDoubleCol)->SetDouble(top, -1e9);
  ASSERT_TRUE(t.CheckConsistent().ok());
  const auto after = t.RankPrefix(kDoubleCol, true);
  EXPECT_NE(after->front(), top);
  EXPECT_EQ(after->back(), top);
  ExpectSlotsMatchBruteForce(t, "after CheckConsistent");
}

TEST(RankPrefixTest, ConcurrentFirstCallsShareOneCorrectSlot) {
  Rng rng(8);
  const Table t = RandomTable(rng, 3 * RankPrefixes::kRows, 40, 5);
  constexpr int kThreads = 8;
  std::vector<std::shared_ptr<const std::vector<RowId>>> got(kThreads);
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i]() {
      ready.fetch_add(1);
      while (ready.load() < kThreads) {
      }
      got[static_cast<size_t>(i)] = t.RankPrefix(kDoubleCol, i % 2 == 0);
    });
  }
  for (std::thread& th : threads) th.join();
  for (int i = 0; i < kThreads; ++i) {
    const bool desc = i % 2 == 0;
    EXPECT_EQ(got[static_cast<size_t>(i)], got[desc ? 0 : 1]);
    EXPECT_EQ(*got[static_cast<size_t>(i)],
              BruteForcePrefix(t, kDoubleCol, desc));
  }
}

// ---- Executor: the walk against the row loop ------------------------------

/// Bit-for-bit: names, order and the bytes of every score.
void ExpectBitIdentical(const TopKList& got, const TopKList& want,
                        const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < got.size(); ++i) {
    const TopKEntry& x = got.entries()[i];
    const TopKEntry& y = want.entries()[i];
    EXPECT_EQ(x.entity, y.entity) << what << " rank " << i;
    EXPECT_EQ(std::memcmp(&x.value, &y.value, sizeof(double)), 0)
        << what << " rank " << i << ": " << x.value << " vs " << y.value;
  }
}

/// 0-3 atoms: equality on the string and int dimensions, sometimes a
/// BETWEEN on the int dimension, sometimes a value no row carries.
Predicate RandomPredicate(Rng& rng) {
  std::vector<AtomicPredicate> atoms;
  const int n = static_cast<int>(rng.Uniform(4));
  bool used[2] = {false, false};
  for (int i = 0; i < n; ++i) {
    const int pick = static_cast<int>(rng.Uniform(2));
    if (used[pick]) continue;
    used[pick] = true;
    if (pick == 0) {
      atoms.emplace_back(kDimCol,
                         Value::String("g" + std::to_string(rng.Uniform(5))));
    } else if (rng.Uniform(2) == 0) {
      atoms.emplace_back(kRangeCol, Value::Int64(rng.UniformInt(0, 9)));
    } else {
      const int64_t lo = rng.UniformInt(0, 9);
      atoms.push_back(AtomicPredicate::Range(
          kRangeCol, Value::Int64(lo), Value::Int64(rng.UniformInt(lo, 9))));
    }
  }
  return Predicate(std::move(atoms));
}

TEST(PrefixWalkTest, WalkedShapesMatchTheRowLoopBitForBit) {
  Rng rng(20161017);
  Executor ex;
  int64_t cases = 0;
  for (int ti = 0; ti < 24; ++ti) {
    const size_t sizes[] = {5, 200, 3000, RankPrefixes::kRows + 500,
                            3 * RankPrefixes::kRows};
    const size_t rows = sizes[rng.Uniform(5)];
    const int64_t distinct = rng.Uniform(2) == 0 ? 3 : 1000000;
    const Table t =
        RandomTable(rng, rows, static_cast<int>(rng.UniformInt(2, 300)),
                    distinct);
    std::vector<RowId> all(t.num_rows());
    std::iota(all.begin(), all.end(), RowId{0});
    for (int qi = 0; qi < 25; ++qi) {
      TopKQuery q;
      q.predicate = RandomPredicate(rng);
      q.expr = RankExpr::Column(rng.Uniform(2) == 0 ? kIntCol : kDoubleCol);
      switch (rng.Uniform(4)) {
        case 0:
          q.agg = AggFn::kNone;
          q.order = SortOrder::kDesc;
          break;
        case 1:
          q.agg = AggFn::kNone;
          q.order = SortOrder::kAsc;
          break;
        case 2:
          q.agg = AggFn::kMax;
          q.order = SortOrder::kDesc;
          break;
        default:
          q.agg = AggFn::kMin;
          q.order = SortOrder::kAsc;
          break;
      }
      // Sometimes more than the matches (or the prefix) can supply.
      q.k = static_cast<int>(rng.Uniform(4) == 0 ? rng.UniformInt(300, 5000)
                                                 : rng.UniformInt(1, 20));
      auto walked = ex.Execute(t, q, ExecContext{});
      auto reference = ex.ExecuteOnRows(t, all, q, ExecContext{});
      ASSERT_TRUE(walked.ok());
      ASSERT_TRUE(reference.ok());
      ExpectBitIdentical(*walked, *reference, q.ToSql(t.schema()));
      ++cases;
      if (HasFailure()) return;
    }
  }
  EXPECT_EQ(cases, 600);
  // Both outcomes of the walk were exercised.
  EXPECT_GT(ex.stats().prefix_walks.load(), 100);
  EXPECT_GT(ex.stats().prefix_fallbacks.load(), 50);
}

/// Entity i holds rows valued exactly as listed; every row matches.
Table GroupTable(const std::vector<std::vector<double>>& groups) {
  Table t(PrefixSchema(), 64);
  for (size_t e = 0; e < groups.size(); ++e) {
    for (double w : groups[e]) {
      EXPECT_TRUE(t.AppendRow({Value::String("e" + std::to_string(e)),
                               Value::String("g0"), Value::Int64(0),
                               Value::Int64(0), Value::Double(w)})
                      .ok());
    }
  }
  return t;
}

TEST(PrefixWalkTest, AllNaNGroupsFallBackAtInfinity) {
  TopKQuery q;
  q.expr = RankExpr::Column(kDoubleCol);
  q.agg = AggFn::kMax;
  q.order = SortOrder::kDesc;
  q.k = 3;
  // e1's rows are all NaN: its MAX is -inf and ties e0's -inf row, and
  // "e1" < "e2" by name. The walk reaches -inf before k and falls back.
  const Table t = GroupTable({{-kInf}, {kNaN, kNaN}, {-kInf}, {5.0}});
  std::vector<RowId> all(t.num_rows());
  std::iota(all.begin(), all.end(), RowId{0});
  Executor ex;
  auto got = ex.Execute(t, q, ExecContext{});
  auto want = ex.ExecuteOnRows(t, all, q, ExecContext{});
  ASSERT_TRUE(got.ok());
  ASSERT_TRUE(want.ok());
  ExpectBitIdentical(*got, *want, "max desc");
  ASSERT_EQ(got->size(), 3u);
  EXPECT_EQ(got->entries()[1].entity, "e0");
  EXPECT_EQ(got->entries()[2].entity, "e1");
  EXPECT_EQ(ex.stats().prefix_walks.load(), 0);
  EXPECT_EQ(ex.stats().prefix_fallbacks.load(), 1);
  // MIN ASC mirrors it at +inf.
  q.agg = AggFn::kMin;
  q.order = SortOrder::kAsc;
  const Table u = GroupTable({{kInf}, {kNaN}, {kInf}, {-5.0}});
  all.resize(u.num_rows());
  got = ex.Execute(u, q, ExecContext{});
  want = ex.ExecuteOnRows(u, all, q, ExecContext{});
  ASSERT_TRUE(got.ok());
  ASSERT_TRUE(want.ok());
  ExpectBitIdentical(*got, *want, "min asc");
  EXPECT_EQ(ex.stats().prefix_fallbacks.load(), 2);
}

TEST(PrefixWalkTest, NaNRowsAndGroupsRankLast) {
  // Row ranking: NaN rows come after every number in both directions.
  const Table t = GroupTable({{kNaN, 1.0}, {kNaN}, {-kInf, 2.0}});
  std::vector<RowId> all(t.num_rows());
  std::iota(all.begin(), all.end(), RowId{0});
  Executor ex;
  TopKQuery q;
  q.expr = RankExpr::Column(kDoubleCol);
  q.agg = AggFn::kNone;
  q.k = 5;
  for (SortOrder order : {SortOrder::kDesc, SortOrder::kAsc}) {
    q.order = order;
    auto got = ex.Execute(t, q, ExecContext{});
    ASSERT_TRUE(got.ok());
    ASSERT_EQ(got->size(), 5u);
    EXPECT_FALSE(std::isnan(got->entries()[2].value));
    EXPECT_TRUE(std::isnan(got->entries()[3].value));
    EXPECT_EQ(got->entries()[3].entity, "e0");  // name breaks the NaN tie
    EXPECT_EQ(got->entries()[4].entity, "e1");
    ExpectBitIdentical(*got, *ex.ExecuteOnRows(t, all, q, ExecContext{}),
                       "none");
  }
  // SUM / AVG groups whose result is NaN rank after every number.
  const Table g = GroupTable({{kInf, -kInf}, {1.0}, {kNaN, 3.0}, {-2.0}});
  std::vector<RowId> g_all(g.num_rows());
  std::iota(g_all.begin(), g_all.end(), RowId{0});
  for (AggFn agg : {AggFn::kSum, AggFn::kAvg}) {
    for (SortOrder order : {SortOrder::kDesc, SortOrder::kAsc}) {
      q.agg = agg;
      q.order = order;
      q.k = 4;
      auto got = ex.Execute(g, q, ExecContext{});
      ASSERT_TRUE(got.ok());
      ASSERT_EQ(got->size(), 4u);
      EXPECT_FALSE(std::isnan(got->entries()[1].value));
      EXPECT_EQ(got->entries()[2].entity, "e0");
      EXPECT_EQ(got->entries()[3].entity, "e2");
      EXPECT_TRUE(std::isnan(got->entries()[3].value));
      ExpectBitIdentical(*got, *ex.ExecuteOnRows(g, g_all, q, ExecContext{}),
                         "grouped");
      q.k = 3;  // the truncating sort keeps the NaN groups out
      got = ex.Execute(g, q, ExecContext{});
      ASSERT_TRUE(got.ok());
      EXPECT_FALSE(std::isnan(got->entries()[1].value));
      EXPECT_EQ(got->entries()[2].entity, "e0");
    }
  }
}

TEST(PrefixWalkTest, PreTrippedBudgetCancels) {
  Rng rng(3);
  const Table t = RandomTable(rng, 1000, 20, 1000000);
  CancellationToken token;
  token.Cancel();
  RunBudget budget;
  budget.set_cancellation_token(&token);
  TopKQuery q;
  q.expr = RankExpr::Column(kDoubleCol);
  q.agg = AggFn::kMax;
  q.k = 3;
  Executor ex;
  auto result = ex.Execute(t, q, ExecContext{.budget = &budget});
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsCancelled());
  EXPECT_EQ(ex.stats().prefix_walks.load(), 0);
}

TEST(PrefixWalkTest, BudgetInterruptMidWalkCancels) {
  // 2000 rows valued by row id; only the 10 lowest-valued rows match,
  // so a DESC walk for k = 3 reads almost the whole prefix.
  Table t(PrefixSchema(), 256);
  std::vector<std::vector<Value>> batch;
  for (int r = 0; r < 2000; ++r) {
    batch.push_back({Value::String("e" + std::to_string(r % 50)),
                     Value::String(r < 10 ? "late" : "early"),
                     Value::Int64(0), Value::Int64(r),
                     Value::Double(static_cast<double>(r))});
  }
  ASSERT_TRUE(t.AppendRows(batch).ok());
  TopKQuery q;
  q.predicate = Predicate::Atom(kDimCol, Value::String("late"));
  q.expr = RankExpr::Column(kDoubleCol);
  q.agg = AggFn::kNone;
  q.k = 3;
  Executor ex;
  auto free_run = ex.Execute(t, q, ExecContext{});  // builds the slot
  ASSERT_TRUE(free_run.ok());
  ASSERT_EQ(ex.stats().prefix_walks.load(), 1) << "the walk answers";
  EXPECT_EQ(free_run->entries()[0].value, 9.0);

  // The walk polls the budget every few hundred rows; the armed delay
  // stalls it past the deadline right before the second poll.
  FaultSpec stall;
  stall.action = FaultAction::kDelay;
  stall.delay_micros = 300 * 1000;
  stall.at_hit = 1;
  FaultPoints::Arm("executor.prefix.walk", stall);
  RunBudget budget;
  budget.SetDeadlineAfterMillis(150);
  auto interrupted = ex.Execute(t, q, ExecContext{.budget = &budget});
  FaultPoints::Disarm("executor.prefix.walk");
  ASSERT_FALSE(interrupted.ok());
  EXPECT_TRUE(interrupted.status().IsCancelled())
      << interrupted.status().ToString();
  EXPECT_EQ(ex.stats().prefix_walks.load(), 1);
  EXPECT_EQ(ex.stats().prefix_fallbacks.load(), 0);
}

TEST(PrefixWalkTest, AnsweredWalksScanNoChunks) {
  Rng rng(11);
  const Table t = RandomTable(rng, 3000, 30, 1000000);
  TopKQuery q;
  q.expr = RankExpr::Column(kIntCol);
  q.agg = AggFn::kMax;
  q.k = 5;
  Executor ex;
  ExecAccess access = ExecAccess::kScan;
  auto result = ex.Execute(t, q, ExecContext{.access = &access});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(access, ExecAccess::kPrefix);
  EXPECT_EQ(ex.stats().prefix_walks.load(), 1);
  EXPECT_EQ(ex.stats().morsels.load(), 0);
  EXPECT_GT(ex.stats().rows_scanned.load(), 0);
  EXPECT_LT(ex.stats().rows_scanned.load(), 3000);
  // A shape the walk does not take reports the scan.
  q.order = SortOrder::kAsc;
  ASSERT_TRUE(ex.Execute(t, q, ExecContext{.access = &access}).ok());
  EXPECT_EQ(access, ExecAccess::kScan);
  EXPECT_GT(ex.stats().morsels.load(), 0);
}

}  // namespace
}  // namespace paleo
