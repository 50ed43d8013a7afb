// Tests for the secondary dimension indexes and the executor's
// posting-fed atom bitmaps. The central property: with and without the
// index, every query produces the bit-identical result and count.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <string>

#include "catalog/ingestor.h"
#include "catalog/table_catalog.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "datagen/tpch_gen.h"
#include "datagen/traffic_gen.h"
#include "engine/atom_cache.h"
#include "engine/executor.h"
#include "engine/threshold_monitor.h"
#include "index/dimension_index.h"

namespace paleo {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

Table SmallTable() {
  auto schema = Schema::Make({
      {"e", DataType::kString, FieldRole::kEntity},
      {"state", DataType::kString, FieldRole::kDimension},
      {"year", DataType::kInt64, FieldRole::kDimension},
      {"v", DataType::kInt64, FieldRole::kMeasure},
  });
  Table t(*schema);
  struct Row {
    const char* e;
    const char* state;
    int64_t year;
    int64_t v;
  };
  const Row rows[] = {
      {"a", "CA", 2020, 1}, {"b", "CA", 2021, 2}, {"c", "NY", 2020, 3},
      {"d", "CA", 2020, 4}, {"e", "TX", 2021, 5},
  };
  for (const Row& r : rows) {
    EXPECT_TRUE(t.AppendRow({Value::String(r.e), Value::String(r.state),
                             Value::Int64(r.year), Value::Int64(r.v)})
                    .ok());
  }
  return t;
}

/// Same entities, names in the same order, and memcmp-equal scores.
::testing::AssertionResult BitIdentical(const TopKList& a, const TopKList& b) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure()
           << "sizes " << a.size() << " vs " << b.size() << "\n"
           << a.ToString() << "vs\n"
           << b.ToString();
  }
  for (size_t i = 0; i < a.size(); ++i) {
    const TopKEntry& x = a.entries()[i];
    const TopKEntry& y = b.entries()[i];
    if (x.entity != y.entity ||
        std::memcmp(&x.value, &y.value, sizeof(double)) != 0) {
      return ::testing::AssertionFailure()
             << "rank " << i << ": " << a.ToString() << "vs\n"
             << b.ToString();
    }
  }
  return ::testing::AssertionSuccess();
}

TEST(DimensionIndexTest, LookupPostings) {
  Table t = SmallTable();
  DimensionIndex index = DimensionIndex::Build(t);
  EXPECT_EQ(index.Lookup(1, Value::String("CA")),
            (std::vector<RowId>{0, 1, 3}));
  EXPECT_EQ(index.Lookup(2, Value::Int64(2020)),
            (std::vector<RowId>{0, 2, 3}));
  EXPECT_TRUE(index.Lookup(1, Value::String("ZZ")).empty());
  // Type mismatch: string constant against the int column.
  EXPECT_TRUE(index.Lookup(2, Value::String("2020")).empty());
  // Measure and entity columns are not indexed.
  EXPECT_TRUE(index.Lookup(3, Value::Int64(1)).empty());
  EXPECT_TRUE(index.Lookup(0, Value::String("a")).empty());
  EXPECT_TRUE(index.Indexes(1));
  EXPECT_FALSE(index.Indexes(3));
}

TEST(DimensionIndexTest, CoversChecksColumns) {
  Table t = SmallTable();
  DimensionIndex index = DimensionIndex::Build(t);
  EXPECT_TRUE(index.Covers(Predicate::Atom(1, Value::String("CA"))));
  EXPECT_TRUE(index.Covers(Predicate(
      {{1, Value::String("CA")}, {2, Value::Int64(2020)}})));
  // Measure column in the predicate: not covered.
  EXPECT_FALSE(index.Covers(Predicate::Atom(3, Value::Int64(1))));
  // Range atoms are not answerable from equality postings.
  EXPECT_FALSE(index.Covers(Predicate(
      {AtomicPredicate::Range(2, Value::Int64(2020), Value::Int64(2021))})));
  EXPECT_TRUE(index.Covers(Predicate()));  // vacuous
}

TEST(DimensionIndexTest, MatchIntersectsPostings) {
  // A conjunction's selection is the AND of its atoms' posting-fed
  // bitmaps.
  Table t = SmallTable();
  DimensionIndex index = DimensionIndex::Build(t);
  Executor ex;
  ex.SetDimensionIndex(&index, &t);
  Predicate p({{1, Value::String("CA")}, {2, Value::Int64(2020)}});
  EXPECT_EQ(ex.CountMatching(t, p, ExecContext{}), 2u);
  Predicate none({{1, Value::String("NY")}, {2, Value::Int64(2021)}});
  EXPECT_EQ(ex.CountMatching(t, none, ExecContext{}), 0u);
  Predicate unknown_value({{1, Value::String("ZZ")}});
  EXPECT_EQ(ex.CountMatching(t, unknown_value, ExecContext{}), 0u);
  // Two bitmaps per evaluated conjunction; zone maps skip the unknown
  // string's only chunk.
  EXPECT_EQ(ex.stats().posting_bitmaps, 4);
}

TEST(DimensionIndexTest, MatchAgreesWithScan) {
  TrafficGenOptions gen;
  gen.num_customers = 100;
  gen.months_per_customer = 6;
  auto table = TrafficGen::Generate(gen);
  ASSERT_TRUE(table.ok());
  table->SetChunkRows(128);
  DimensionIndex index = DimensionIndex::Build(*table);
  Executor scan_executor;
  Executor index_executor;
  index_executor.SetDimensionIndex(&index, &*table);
  Rng rng(21);
  const Schema& schema = table->schema();
  const auto& dims = schema.dimension_indices();
  for (int trial = 0; trial < 40; ++trial) {
    RowId anchor = static_cast<RowId>(
        rng.Uniform(static_cast<uint64_t>(table->num_rows())));
    int n_atoms = 1 + static_cast<int>(rng.Uniform(3));
    std::vector<AtomicPredicate> atoms;
    std::vector<uint32_t> cols = rng.SampleWithoutReplacement(
        static_cast<uint32_t>(dims.size()),
        std::min<uint32_t>(static_cast<uint32_t>(n_atoms),
                           static_cast<uint32_t>(dims.size())));
    for (uint32_t ci : cols) {
      atoms.emplace_back(dims[ci], table->GetValue(anchor, dims[ci]));
      // Every posting row satisfies its atom.
      for (RowId r : index.Lookup(atoms.back().column, atoms.back().value)) {
        EXPECT_TRUE(Predicate({atoms.back()}).Matches(*table, r));
      }
    }
    Predicate p(std::move(atoms));
    ASSERT_TRUE(index.Covers(p));
    const ExecContext ctx;
    const size_t expected = scan_executor.CountMatching(*table, p, ctx);
    EXPECT_GT(expected, 0u);  // the anchor row matches
    EXPECT_EQ(index_executor.CountMatching(*table, p, ctx), expected);
  }
  EXPECT_GT(index_executor.stats().posting_bitmaps, 0);
  EXPECT_EQ(scan_executor.stats().posting_bitmaps, 0);
}

/// Entity, double dimension holding 0.0 / -0.0 / NaN / 1.5, measure.
Table SignedZeroTable() {
  auto schema = Schema::Make({
      {"e", DataType::kString, FieldRole::kEntity},
      {"d", DataType::kDouble, FieldRole::kDimension},
      {"v", DataType::kInt64, FieldRole::kMeasure},
  });
  Table t(*schema, 64);
  const double ds[] = {0.0, -0.0, kNaN, 1.5};
  for (int r = 0; r < 150; ++r) {
    EXPECT_TRUE(t.AppendRow({Value::String("e" + std::to_string(r % 7)),
                             Value::Double(ds[r % 4]), Value::Int64(r)})
                    .ok());
  }
  return t;
}

TEST(DimensionIndexTest, DoubleKeysFollowScanEquality) {
  Table t = SignedZeroTable();
  DimensionIndex index = DimensionIndex::Build(t);
  // `d = 0.0` and `d = -0.0` both select every zero of either sign.
  std::vector<RowId> zeros;
  for (RowId r = 0; r < t.num_rows(); ++r) {
    if (r % 4 == 0 || r % 4 == 1) zeros.push_back(r);
  }
  EXPECT_EQ(index.Lookup(1, Value::Double(0.0)), zeros);
  EXPECT_EQ(index.Lookup(1, Value::Double(-0.0)), zeros);
  EXPECT_EQ(index.Lookup(1, Value::Int64(0)), zeros);
  // NaN equals nothing, itself included.
  EXPECT_TRUE(index.Lookup(1, Value::Double(kNaN)).empty());
  EXPECT_EQ(index.Lookup(1, Value::Double(1.5)).size(), 37u);

  Executor with_index, without_index;
  with_index.SetDimensionIndex(&index, &t);
  const Value constants[] = {Value::Double(0.0), Value::Double(-0.0),
                             Value::Double(kNaN), Value::Double(1.5)};
  for (const Value& c : constants) {
    TopKQuery q;
    q.predicate = Predicate::Atom(1, c);
    q.expr = RankExpr::Column(2);
    q.agg = AggFn::kSum;
    q.k = 10;
    auto fast = with_index.Execute(t, q, ExecContext{});
    auto slow = without_index.Execute(t, q, ExecContext{});
    ASSERT_TRUE(fast.ok());
    ASSERT_TRUE(slow.ok());
    EXPECT_TRUE(BitIdentical(*fast, *slow)) << q.ToSql(t.schema());
    EXPECT_EQ(with_index.CountMatching(t, q.predicate, ExecContext{}),
              without_index.CountMatching(t, q.predicate, ExecContext{}))
        << q.ToSql(t.schema());
  }
  EXPECT_GT(with_index.stats().posting_bitmaps, 0);
}

TEST(ExecutorIndexTest, IndexAssistedResultsIdenticalToScan) {
  TpchGenOptions gen;
  gen.scale_factor = 0.002;
  auto table = TpchGen::Generate(gen);
  ASSERT_TRUE(table.ok());
  table->SetChunkRows(4096);
  DimensionIndex index = DimensionIndex::Build(*table);

  Executor with_index, without_index;
  with_index.SetDimensionIndex(&index, &*table);

  Rng rng(77);
  const Schema& schema = table->schema();
  const auto& dims = schema.dimension_indices();
  const auto& measures = schema.measure_indices();
  for (int trial = 0; trial < 30; ++trial) {
    TopKQuery q;
    RowId anchor = static_cast<RowId>(
        rng.Uniform(static_cast<uint64_t>(table->num_rows())));
    int col = dims[static_cast<size_t>(
        rng.Uniform(static_cast<uint64_t>(dims.size())))];
    q.predicate = Predicate::Atom(col, table->GetValue(anchor, col));
    q.expr = RankExpr::Column(measures[static_cast<size_t>(
        rng.Uniform(static_cast<uint64_t>(measures.size())))]);
    q.agg = static_cast<AggFn>(rng.Uniform(5));
    q.k = 1 + static_cast<int>(rng.Uniform(20));
    auto fast = with_index.Execute(*table, q, ExecContext{});
    auto slow = without_index.Execute(*table, q, ExecContext{});
    ASSERT_TRUE(fast.ok());
    ASSERT_TRUE(slow.ok());
    EXPECT_TRUE(BitIdentical(*fast, *slow)) << q.ToSql(schema);
  }
  // Every trial's conjunction is covered, but only executions that
  // reach the chunk scan count as index-assisted: the ones a rank-prefix
  // walk answers read no posting.
  EXPECT_EQ(with_index.stats().prefix_walks, 2);
  EXPECT_EQ(with_index.stats().index_assisted,
            30 - with_index.stats().prefix_walks);
  EXPECT_EQ(without_index.stats().index_assisted, 0);
  // Both sides run the same chunk scan; the index only changes where
  // cache-missing atom bitmaps come from.
  EXPECT_GT(with_index.stats().posting_bitmaps, 0);
  EXPECT_EQ(without_index.stats().posting_bitmaps, 0);
}

TEST(ExecutorIndexTest, IndexOnlyUsedForMatchingTable) {
  Table a = SmallTable();
  Table b = SmallTable();
  DimensionIndex index = DimensionIndex::Build(a);
  Executor ex;
  ex.SetDimensionIndex(&index, &a);
  TopKQuery q;
  q.predicate = Predicate::Atom(1, Value::String("CA"));
  q.expr = RankExpr::Column(3);
  q.agg = AggFn::kMax;
  // k exceeds the 3 matching entities, so the rank-prefix walk falls
  // back to the chunk scan, which is what reads the postings.
  q.k = 10;
  ASSERT_TRUE(ex.Execute(a, q, ExecContext{}).ok());
  EXPECT_EQ(ex.stats().prefix_fallbacks, 1);
  EXPECT_EQ(ex.stats().index_assisted, 1);
  EXPECT_EQ(ex.stats().posting_bitmaps, 1);
  // Executing against a different table must not consult the postings.
  ASSERT_TRUE(ex.Execute(b, q, ExecContext{}).ok());
  EXPECT_EQ(ex.stats().index_assisted, 1);
  EXPECT_EQ(ex.stats().posting_bitmaps, 1);
}

TEST(ExecutorIndexTest, CountMatchingUsesIndex) {
  Table t = SmallTable();
  DimensionIndex index = DimensionIndex::Build(t);
  Executor ex;
  ex.SetDimensionIndex(&index, &t);
  EXPECT_EQ(ex.CountMatching(t, Predicate::Atom(1, Value::String("CA")),
                             ExecContext{}),
            3u);
  EXPECT_EQ(ex.stats().posting_bitmaps, 1);
  EXPECT_EQ(ex.CountMatching(t, Predicate(), ExecContext{}), 5u);  // TRUE
  EXPECT_EQ(ex.stats().posting_bitmaps, 1);
  ex.ResetStats();
  EXPECT_EQ(ex.stats().posting_bitmaps, 0);
}

// ---- Differential: posting-fed bitmaps vs the selection kernels -------

/// Entity, string / int64 / double dimensions, two measures. The double
/// dimension holds both zeros and NaN. Three full chunks plus a partial
/// last one.
Table RandomDimTable(Rng& rng, size_t chunk_rows) {
  auto schema = Schema::Make({
      {"e", DataType::kString, FieldRole::kEntity},
      {"s", DataType::kString, FieldRole::kDimension},
      {"i", DataType::kInt64, FieldRole::kDimension},
      {"d", DataType::kDouble, FieldRole::kDimension},
      {"m1", DataType::kInt64, FieldRole::kMeasure},
      {"m2", DataType::kDouble, FieldRole::kMeasure},
  });
  Table t(*schema, chunk_rows);
  const size_t num_rows =
      3 * t.chunk_rows() + 1 + rng.Uniform(t.chunk_rows() - 1);
  const char* strings[] = {"a", "b", "c", "d", "e"};
  const double doubles[] = {0.0, -0.0, 0.5, 1.5, 2.5, kNaN};
  const int64_t num_entities = rng.UniformInt(3, 30);
  for (size_t r = 0; r < num_rows; ++r) {
    const int64_t entity = rng.UniformInt(0, num_entities - 1);
    EXPECT_TRUE(t.AppendRow({Value::String("e" + std::to_string(entity)),
                             Value::String(strings[rng.Uniform(5)]),
                             Value::Int64(rng.UniformInt(0, 7)),
                             Value::Double(doubles[rng.Uniform(6)]),
                             Value::Int64(rng.UniformInt(-50, 50)),
                             Value::Double(rng.UniformDouble(0.0, 10.0))})
                    .ok());
  }
  return t;
}

/// A constant for dimension column `col` of RandomDimTable: mostly one
/// present in the table, otherwise absent or of a mismatched type.
Value RandomConstant(Rng& rng, const Table& t, int col) {
  const uint64_t pick = rng.Uniform(10);
  if (pick < 6) {
    return t.GetValue(static_cast<RowId>(rng.Uniform(t.num_rows())), col);
  }
  const bool absent = pick < 8;
  switch (col) {
    case 1:
      return absent ? Value::String("zz") : Value::Int64(1);
    case 2:
      return absent ? Value::Int64(99) : Value::Double(3.0);
    default:
      if (pick == 9) return Value::Double(rng.Uniform(2) ? kNaN : -0.0);
      return absent ? Value::Double(7.25) : Value::String("0.5");
  }
}

/// |P| 1-3 over the three dimension columns; occasionally a range atom
/// on the int column, which the kernels evaluate beside postings.
Predicate RandomDimPredicate(Rng& rng, const Table& t) {
  std::vector<uint32_t> cols = rng.SampleWithoutReplacement(
      3, 1 + static_cast<uint32_t>(rng.Uniform(3)));
  std::vector<AtomicPredicate> atoms;
  for (uint32_t ci : cols) {
    const int col = 1 + static_cast<int>(ci);
    if (col == 2 && rng.Uniform(6) == 0) {
      const int64_t lo = rng.UniformInt(0, 5);
      atoms.push_back(AtomicPredicate::Range(col, Value::Int64(lo),
                                             Value::Int64(lo + 2)));
    } else {
      atoms.emplace_back(col, RandomConstant(rng, t, col));
    }
  }
  return Predicate(std::move(atoms));
}

TopKQuery RandomDimQuery(Rng& rng, const Table& t) {
  TopKQuery q;
  q.predicate = RandomDimPredicate(rng, t);
  switch (rng.Uniform(3)) {
    case 0:
      q.expr = RankExpr::Column(4);
      break;
    case 1:
      q.expr = RankExpr::Column(5);
      break;
    default:
      q.expr = RankExpr::Add(4, 5);
      break;
  }
  q.agg = static_cast<AggFn>(rng.Uniform(6));  // kNone included
  q.order = rng.Uniform(2) ? SortOrder::kDesc : SortOrder::kAsc;
  q.k = 1 + static_cast<int>(rng.Uniform(15));
  return q;
}

TEST(ExecutorIndexTest, PostingBitmapsMatchKernelsDifferential) {
  Rng rng(20261017);
  ThreadPool pool(4);
  Executor with_index, without_index;
  int64_t index_refutations = 0;
  for (size_t chunk_rows : {64, 128, 1000}) {
    for (int ti = 0; ti < 2; ++ti) {
      Table t = RandomDimTable(rng, chunk_rows);
      ASSERT_NE(t.num_rows() % t.chunk_rows(), 0u);
      DimensionIndex index = DimensionIndex::Build(t);
      with_index.SetDimensionIndex(&index, &t);

      // Threshold targets: a grouped truth query's genuine result.
      TopKQuery truth = RandomDimQuery(rng, t);
      truth.agg = AggFn::kSum;
      auto input = without_index.Execute(t, truth, ExecContext{});
      ASSERT_TRUE(input.ok());
      ThresholdMonitor monitor(t, *input, truth.order, 1e-9);

      const size_t budget = static_cast<size_t>(8) << 20;
      AtomSelectionCache cache_a(budget), cache_b(budget), shared(budget);
      for (int qi = 0; qi < 25; ++qi) {
        TopKQuery q = RandomDimQuery(rng, t);
        if (qi % 3 == 0) {
          // Same shape as the truth, so the monitor applies.
          q.expr = truth.expr;
          q.agg = truth.agg;
          q.order = truth.order;
          q.k = truth.k;
        }
        const std::string sql = q.ToSql(t.schema());
        for (int cache_mode = 0; cache_mode < 3; ++cache_mode) {
          for (int threads : {1, 4}) {
            for (bool pruned : {false, true}) {
              ExecContext ctx_a{.pool = threads > 1 ? &pool : nullptr,
                                .scan_threads = threads,
                                .threshold = pruned ? &monitor : nullptr};
              ExecContext ctx_b = ctx_a;
              if (cache_mode == 1) {
                ctx_a.cache = &cache_a;
                ctx_b.cache = &cache_b;
              } else if (cache_mode == 2) {
                ctx_a.cache = ctx_b.cache = &shared;
              }
              const std::string where =
                  sql + " [chunk_rows " + std::to_string(chunk_rows) +
                  ", cache " + std::to_string(cache_mode) + ", threads " +
                  std::to_string(threads) + (pruned ? ", pruned]" : "]");
              // Alternate which side fills the shared cache first.
              const bool index_first = (qi + cache_mode) % 2 == 0;
              Executor& ex_first = index_first ? with_index : without_index;
              Executor& ex_second = index_first ? without_index : with_index;
              StatusOr<TopKList> first =
                  ex_first.Execute(t, q, index_first ? ctx_a : ctx_b);
              StatusOr<TopKList> second =
                  ex_second.Execute(t, q, index_first ? ctx_b : ctx_a);
              const StatusOr<TopKList>& fast = index_first ? first : second;
              const StatusOr<TopKList>& slow = index_first ? second : first;
              ASSERT_TRUE(fast.ok() || fast.status().IsQueryRefuted())
                  << where << ": " << fast.status().ToString();
              ASSERT_TRUE(slow.ok() || slow.status().IsQueryRefuted())
                  << where << ": " << slow.status().ToString();
              if (!fast.ok()) ++index_refutations;
              if (fast.ok() && slow.ok()) {
                EXPECT_TRUE(BitIdentical(*fast, *slow)) << where;
              } else if (threads == 1) {
                // Sequential refutation is deterministic: both refute.
                EXPECT_EQ(fast.ok(), slow.ok()) << where;
              } else if (fast.ok() || slow.ok()) {
                // Parallel refutation depends on claim interleaving; a
                // side that finished must hold a result the monitor's
                // list rejects.
                const TopKList& done = fast.ok() ? *fast : *slow;
                EXPECT_FALSE(done.InstanceEquals(*input)) << where;
              }
              if (!pruned) {
                EXPECT_EQ(with_index.CountMatching(t, q.predicate, ctx_a),
                          without_index.CountMatching(t, q.predicate, ctx_b))
                    << where;
              }
            }
          }
        }
      }
      with_index.SetDimensionIndex(nullptr, nullptr);
    }
  }
  EXPECT_GT(with_index.stats().posting_bitmaps, 0);
  EXPECT_EQ(without_index.stats().posting_bitmaps, 0);
  // Threshold refutation engages on index-fed scans.
  EXPECT_GT(index_refutations, 0);
}

TEST(ExecutorIndexTest, IngestedRowsReachPostingsOfTheNewSnapshot) {
  auto schema = Schema::Make({
      {"e", DataType::kString, FieldRole::kEntity},
      {"state", DataType::kString, FieldRole::kDimension},
      {"year", DataType::kInt64, FieldRole::kDimension},
      {"v", DataType::kInt64, FieldRole::kMeasure},
  });
  Table base(*schema, 64);
  const char* states[] = {"CA", "NY", "TX"};
  for (int r = 0; r < 150; ++r) {
    ASSERT_TRUE(base.AppendRow({Value::String("e" + std::to_string(r % 11)),
                                Value::String(states[r % 3]),
                                Value::Int64(2020 + r % 2), Value::Int64(r)})
                    .ok());
  }
  auto catalog =
      std::make_shared<TableCatalog>(std::move(base), PaleoOptions{});
  auto before = catalog->Current();
  ASSERT_NE(before->engine().dimension_index(), nullptr);

  TopKQuery q;
  q.predicate = Predicate({{1, Value::String("CA")}, {2, Value::Int64(2020)}});
  q.expr = RankExpr::Column(3);
  // SUM: the rank-prefix walk would answer MAX DESC without postings.
  q.agg = AggFn::kSum;
  q.k = 5;
  // One cache across both versions: epochs keep their bitmaps apart.
  AtomSelectionCache cache(static_cast<size_t>(1) << 20);
  const ExecContext ctx{.cache = &cache};
  Executor old_ex;
  old_ex.SetDimensionIndex(before->engine().dimension_index(),
                           &before->table());
  auto old_result = old_ex.Execute(before->table(), q, ctx);
  ASSERT_TRUE(old_result.ok());

  Ingestor ingestor(catalog.get());
  std::vector<std::vector<Value>> batch;
  for (int r = 0; r < 6; ++r) {
    batch.push_back({Value::String("new" + std::to_string(r % 2)),
                     Value::String("CA"), Value::Int64(2020),
                     Value::Int64(1000 + r)});
  }
  ASSERT_TRUE(ingestor.Append(batch).ok());
  auto after = catalog->Current();
  ASSERT_EQ(after->num_rows(), 156u);
  // The appended rows land in the table's partial last chunk.
  ASSERT_EQ(after->table().num_chunks(), 3u);

  Executor new_ex, scan_ex;
  new_ex.SetDimensionIndex(after->engine().dimension_index(), &after->table());
  auto fed = new_ex.Execute(after->table(), q, ctx);
  auto scanned = scan_ex.Execute(after->table(), q, ExecContext{});
  ASSERT_TRUE(fed.ok());
  ASSERT_TRUE(scanned.ok());
  EXPECT_TRUE(BitIdentical(*fed, *scanned));
  ASSERT_GE(fed->size(), 2u);
  EXPECT_EQ(fed->entries()[0].entity, "new1");
  EXPECT_EQ(fed->entries()[0].value, 1001.0 + 1003.0 + 1005.0);
  EXPECT_EQ(fed->entries()[1].entity, "new0");
  EXPECT_GT(new_ex.stats().posting_bitmaps, 0);
  EXPECT_EQ(new_ex.CountMatching(after->table(), q.predicate, ctx),
            scan_ex.CountMatching(after->table(), q.predicate, ExecContext{}));
  // The pinned old version still answers from its own postings.
  auto old_again = old_ex.Execute(before->table(), q, ctx);
  ASSERT_TRUE(old_again.ok());
  EXPECT_TRUE(BitIdentical(*old_again, *old_result));
}

TEST(DimensionIndexTest, MemoryUsageIsPositive) {
  Table t = SmallTable();
  DimensionIndex index = DimensionIndex::Build(t);
  EXPECT_GT(index.MemoryUsage(), 0u);
}

}  // namespace
}  // namespace paleo
