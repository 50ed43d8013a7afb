// Tests for Algorithm 1 (candidate predicate mining): correctness,
// completeness, downward closure, grouping, and relaxed coverage.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <set>

#include "common/random.h"
#include "datagen/traffic_gen.h"
#include "paleo/predicate_miner.h"
#include "tuple_set_reference.h"

namespace paleo {
namespace {

struct Fixture {
  Table table;
  EntityIndex index;
  TopKList list;
  RPrime rprime;

  static Fixture Make(const TopKList& list) {
    auto t = TrafficGen::PaperExample();
    EXPECT_TRUE(t.ok());
    Table table = *std::move(t);
    EntityIndex index = EntityIndex::Build(table);
    auto rp = RPrime::Build(table, index, list);
    EXPECT_TRUE(rp.ok());
    return Fixture{std::move(table), std::move(index), list,
                   *std::move(rp)};
  }
};

TopKList PaperList() {
  TopKList l;
  l.Append("Lara Ellis", 784);
  l.Append("Jane O'Neal", 699);
  l.Append("John Smith", 654);
  l.Append("Richard Fox", 596);
  l.Append("Jack Stiles", 586);
  return l;
}

/// Reference check of Definition 1 directly over the slice.
bool IsCandidate(const RPrime& rp, const Predicate& predicate) {
  std::set<uint32_t> covered;
  for (size_t r = 0; r < rp.num_rows(); ++r) {
    if (predicate.Matches(rp.table(), static_cast<RowId>(r))) {
      covered.insert(rp.row_entity()[r]);
    }
  }
  return static_cast<int>(covered.size()) == rp.num_entities();
}

TEST(PredicateMinerTest, FindsThePaperPredicates) {
  Fixture f = Fixture::Make(PaperList());
  PaleoOptions options;
  PredicateMiner miner(f.rprime, options);
  auto result = miner.Mine();
  ASSERT_TRUE(result.ok());

  // All five customers are CA/XL, so state='CA', plan='XL', and their
  // conjunction must all be candidates.
  const Schema& schema = f.table.schema();
  Predicate ca = Predicate::Atom(schema.FieldIndex("state"),
                                 Value::String("CA"));
  Predicate xl = Predicate::Atom(schema.FieldIndex("plan"),
                                 Value::String("XL"));
  auto ca_xl = ca.And(xl.atoms().front());
  ASSERT_TRUE(ca_xl.ok());

  std::set<std::string> mined;
  for (const MinedPredicate& p : result->predicates) {
    mined.insert(p.predicate.ToSql(schema));
  }
  EXPECT_TRUE(mined.count(ca.ToSql(schema))) << "missing state='CA'";
  EXPECT_TRUE(mined.count(xl.ToSql(schema))) << "missing plan='XL'";
  EXPECT_TRUE(mined.count(ca_xl->ToSql(schema)));
  // City predicates cannot cover five customers in five cities.
  for (const MinedPredicate& p : result->predicates) {
    for (const AtomicPredicate& atom : p.predicate.atoms()) {
      EXPECT_NE(atom.column, schema.FieldIndex("city"));
    }
  }
}

TEST(PredicateMinerTest, AllMinedPredicatesSatisfyDefinition1) {
  Fixture f = Fixture::Make(PaperList());
  PaleoOptions options;
  PredicateMiner miner(f.rprime, options);
  auto result = miner.Mine();
  ASSERT_TRUE(result.ok());
  ASSERT_FALSE(result->predicates.empty());
  for (const MinedPredicate& p : result->predicates) {
    EXPECT_TRUE(IsCandidate(f.rprime, p.predicate))
        << p.predicate.ToSql(f.table.schema());
    EXPECT_EQ(p.covered_entities, f.rprime.num_entities());
  }
}

TEST(PredicateMinerTest, CompleteForAtomicAndPairs) {
  // Exhaustively enumerate atomic and 2-atom predicates over the slice
  // and verify the miner found every candidate.
  Fixture f = Fixture::Make(PaperList());
  PaleoOptions options;
  options.max_predicate_size = 2;
  PredicateMiner miner(f.rprime, options);
  auto result = miner.Mine();
  ASSERT_TRUE(result.ok());

  std::set<uint64_t> mined_hashes;
  for (const MinedPredicate& p : result->predicates) {
    mined_hashes.insert(p.predicate.Hash());
  }

  const Schema& schema = f.table.schema();
  const Table& slice = f.rprime.table();
  const auto& dims = schema.dimension_indices();
  // Collect the distinct values of each dimension column in the slice.
  std::vector<std::vector<Value>> values(dims.size());
  for (size_t d = 0; d < dims.size(); ++d) {
    std::set<std::string> seen;
    for (size_t r = 0; r < slice.num_rows(); ++r) {
      Value v = slice.GetValue(static_cast<RowId>(r), dims[d]);
      if (seen.insert(v.ToString()).second) values[d].push_back(v);
    }
  }
  int checked = 0;
  for (size_t d1 = 0; d1 < dims.size(); ++d1) {
    for (const Value& v1 : values[d1]) {
      Predicate atom = Predicate::Atom(dims[d1], v1);
      EXPECT_EQ(mined_hashes.count(atom.Hash()) > 0,
                IsCandidate(f.rprime, atom))
          << atom.ToSql(schema);
      for (size_t d2 = d1 + 1; d2 < dims.size(); ++d2) {
        for (const Value& v2 : values[d2]) {
          auto pair = atom.And({dims[d2], v2});
          ASSERT_TRUE(pair.ok());
          EXPECT_EQ(mined_hashes.count(pair->Hash()) > 0,
                    IsCandidate(f.rprime, *pair))
              << pair->ToSql(schema);
          ++checked;
        }
      }
    }
  }
  EXPECT_GT(checked, 20);
}

TEST(PredicateMinerTest, DownwardClosureHolds) {
  Fixture f = Fixture::Make(PaperList());
  PaleoOptions options;
  PredicateMiner miner(f.rprime, options);
  auto result = miner.Mine();
  ASSERT_TRUE(result.ok());
  std::set<uint64_t> mined_hashes;
  for (const MinedPredicate& p : result->predicates) {
    mined_hashes.insert(p.predicate.Hash());
  }
  // Every sub-predicate of a mined predicate must itself be mined.
  for (const MinedPredicate& p : result->predicates) {
    if (p.predicate.size() < 2) continue;
    for (const AtomicPredicate& drop : p.predicate.atoms()) {
      std::vector<AtomicPredicate> rest;
      for (const AtomicPredicate& a : p.predicate.atoms()) {
        if (!(a == drop)) rest.push_back(a);
      }
      EXPECT_TRUE(mined_hashes.count(Predicate(rest).Hash()))
          << "missing sub-predicate of "
          << p.predicate.ToSql(f.table.schema());
    }
  }
}

TEST(PredicateMinerTest, NoDuplicatePredicates) {
  Fixture f = Fixture::Make(PaperList());
  PaleoOptions options;
  PredicateMiner miner(f.rprime, options);
  auto result = miner.Mine();
  ASSERT_TRUE(result.ok());
  std::set<uint64_t> hashes;
  for (const MinedPredicate& p : result->predicates) {
    EXPECT_TRUE(hashes.insert(p.predicate.Hash()).second)
        << "duplicate: " << p.predicate.ToSql(f.table.schema());
  }
}

TEST(PredicateMinerTest, GroupsShareIdenticalTupleSets) {
  Fixture f = Fixture::Make(PaperList());
  PaleoOptions options;
  PredicateMiner miner(f.rprime, options);
  auto result = miner.Mine();
  ASSERT_TRUE(result.ok());
  // state='CA', plan='XL', and their conjunction select all 8 slice
  // rows, so they must share one group (Figure 3's scenario).
  const Schema& schema = f.table.schema();
  int group_ca = -1, group_xl = -1, group_both = -1;
  for (const MinedPredicate& p : result->predicates) {
    std::string sql = p.predicate.ToSql(schema);
    if (sql == "state = 'CA'") group_ca = p.group_id;
    if (sql == "plan = 'XL'") group_xl = p.group_id;
    if (sql == "state = 'CA' AND plan = 'XL'") group_both = p.group_id;
  }
  ASSERT_GE(group_ca, 0);
  ASSERT_GE(group_xl, 0);
  ASSERT_GE(group_both, 0);
  EXPECT_EQ(group_ca, group_xl);
  EXPECT_EQ(group_ca, group_both);
  EXPECT_LT(static_cast<size_t>(result->groups.size()),
            result->predicates.size() + 1);
  // Group bookkeeping is consistent.
  for (size_t g = 0; g < result->groups.size(); ++g) {
    for (int pid : result->groups[g].predicate_ids) {
      EXPECT_EQ(result->predicates[static_cast<size_t>(pid)].group_id,
                static_cast<int>(g));
    }
    EXPECT_EQ(result->groups[g].covered_entities,
              f.rprime.num_entities());
  }
}

TEST(PredicateMinerTest, MaxSizeCapsSearch) {
  Fixture f = Fixture::Make(PaperList());
  PaleoOptions options;
  options.max_predicate_size = 1;
  PredicateMiner miner(f.rprime, options);
  auto result = miner.Mine();
  ASSERT_TRUE(result.ok());
  for (const MinedPredicate& p : result->predicates) {
    // Atoms only, plus the optional empty conjunction.
    EXPECT_LE(p.predicate.size(), 1);
  }
}

TEST(PredicateMinerTest, EmptyPredicateCandidateIsOptional) {
  Fixture f = Fixture::Make(PaperList());
  PaleoOptions with;
  with.include_empty_predicate = true;
  auto with_result = PredicateMiner(f.rprime, with).Mine();
  ASSERT_TRUE(with_result.ok());
  bool has_true = false;
  for (const MinedPredicate& p : with_result->predicates) {
    if (p.predicate.IsTrue()) {
      has_true = true;
      // It selects every slice row and covers every entity.
      const PredicateGroup& g =
          with_result->groups[static_cast<size_t>(p.group_id)];
      EXPECT_EQ(g.rows.size(), f.rprime.num_rows());
      EXPECT_EQ(p.covered_entities, f.rprime.num_entities());
    }
  }
  EXPECT_TRUE(has_true);

  PaleoOptions without;
  without.include_empty_predicate = false;
  auto without_result = PredicateMiner(f.rprime, without).Mine();
  ASSERT_TRUE(without_result.ok());
  for (const MinedPredicate& p : without_result->predicates) {
    EXPECT_FALSE(p.predicate.IsTrue());
  }
}

TEST(PredicateMinerTest, PredicatesBySizeCountsMatch) {
  Fixture f = Fixture::Make(PaperList());
  PaleoOptions options;
  PredicateMiner miner(f.rprime, options);
  auto result = miner.Mine();
  ASSERT_TRUE(result.ok());
  std::vector<int> recount(result->predicates_by_size.size(), 0);
  for (const MinedPredicate& p : result->predicates) {
    ASSERT_LT(static_cast<size_t>(p.predicate.size()), recount.size());
    ++recount[static_cast<size_t>(p.predicate.size())];
  }
  EXPECT_EQ(recount, result->predicates_by_size);
}

TEST(PredicateMinerTest, RelaxedCoverageAdmitsPartialPredicates) {
  // Lara Ellis is the only San Diego customer; with coverage 1.0 the
  // city='San Diego' predicate is not a candidate, but with a relaxed
  // ratio such partial predicates qualify.
  Fixture f = Fixture::Make(PaperList());
  const Schema& schema = f.table.schema();

  PaleoOptions strict;
  PredicateMiner strict_miner(f.rprime, strict);
  auto strict_result = strict_miner.Mine();
  ASSERT_TRUE(strict_result.ok());

  PaleoOptions relaxed;
  relaxed.coverage_ratio = 0.2;  // 1 of 5 entities suffices
  PredicateMiner relaxed_miner(f.rprime, relaxed);
  auto relaxed_result = relaxed_miner.Mine();
  ASSERT_TRUE(relaxed_result.ok());

  EXPECT_GT(relaxed_result->predicates.size(),
            strict_result->predicates.size());
  bool found_san_diego = false;
  for (const MinedPredicate& p : relaxed_result->predicates) {
    if (p.predicate.ToSql(schema) == "city = 'San Diego'") {
      found_san_diego = true;
      EXPECT_EQ(p.covered_entities, 1);
    }
  }
  EXPECT_TRUE(found_san_diego);
  // Every strict candidate is also a relaxed candidate (monotonicity).
  std::set<uint64_t> relaxed_hashes;
  for (const MinedPredicate& p : relaxed_result->predicates) {
    relaxed_hashes.insert(p.predicate.Hash());
  }
  for (const MinedPredicate& p : strict_result->predicates) {
    EXPECT_TRUE(relaxed_hashes.count(p.predicate.Hash()));
  }
}

TEST(PredicateMinerTest, InvalidOptionsRejected) {
  Fixture f = Fixture::Make(PaperList());
  PaleoOptions options;
  options.coverage_ratio = 0.0;
  EXPECT_TRUE(
      PredicateMiner(f.rprime, options).Mine().status().IsInvalidArgument());
  options.coverage_ratio = 1.0;
  options.max_predicate_size = 0;
  EXPECT_TRUE(
      PredicateMiner(f.rprime, options).Mine().status().IsInvalidArgument());
}


// ---- Differential test against sorted-list level extension ----
//
// The reference rebuilds levels 2..max from sorted tuple sets instead
// of the miner's row bitmaps: IntersectSorted, then the size and
// coverage checks. It starts from the miner's own
// level 1 (the atoms and range atoms) and groups identical tuple sets
// in first-appearance order.
MiningResult ReferenceMine(const RPrime& rp, const PaleoOptions& options,
                           const MiningResult& mined) {
  struct Entry {
    Predicate predicate;
    TupleSet rows;
    int max_column;
    int covered;
  };
  const int m = rp.num_entities();
  const int required = std::max(
      1, static_cast<int>(std::ceil(options.coverage_ratio * m)));
  std::vector<uint64_t> scratch;
  std::vector<std::vector<Entry>> levels(1);
  for (const MinedPredicate& p : mined.predicates) {
    if (p.predicate.size() != 1) continue;
    const TupleSet& rows =
        mined.groups[static_cast<size_t>(p.group_id)].rows;
    levels[0].push_back(Entry{p.predicate, rows,
                              p.predicate.atoms().front().column,
                              p.covered_entities});
  }
  for (int size = 2; size <= options.max_predicate_size; ++size) {
    std::vector<Entry> next;
    for (const Entry& base : levels.back()) {
      for (const Entry& atom : levels[0]) {
        if (atom.max_column <= base.max_column) continue;
        TupleSet rows = IntersectSorted(base.rows, atom.rows);
        if (static_cast<int>(rows.size()) < required) continue;
        int covered = CountCoveredEntities(rows, rp.row_entity(), m,
                                           &scratch);
        if (covered < required) continue;
        auto extended = base.predicate.And(atom.predicate.atoms().front());
        EXPECT_TRUE(extended.ok());
        next.push_back(Entry{*std::move(extended), std::move(rows),
                             atom.max_column, covered});
      }
    }
    if (next.empty()) break;
    levels.push_back(std::move(next));
  }
  if (options.include_empty_predicate) {
    TupleSet all(rp.num_rows());
    for (size_t r = 0; r < all.size(); ++r) all[r] = static_cast<RowId>(r);
    int covered = CountCoveredEntities(all, rp.row_entity(), m, &scratch);
    if (covered >= required) {
      levels.push_back({Entry{Predicate(), std::move(all), -1, covered}});
    }
  }

  MiningResult out;
  out.predicates_by_size.assign(
      static_cast<size_t>(options.max_predicate_size) + 1, 0);
  std::map<TupleSet, int> group_of;
  for (const std::vector<Entry>& level : levels) {
    for (const Entry& entry : level) {
      int pred_id = static_cast<int>(out.predicates.size());
      size_t size = static_cast<size_t>(entry.predicate.size());
      if (size < out.predicates_by_size.size()) {
        ++out.predicates_by_size[size];
      }
      auto [it, inserted] = group_of.emplace(
          entry.rows, static_cast<int>(out.groups.size()));
      if (inserted) {
        PredicateGroup group;
        group.rows = entry.rows;
        group.coverage.assign((static_cast<size_t>(m) + 63) / 64, 0);
        for (RowId r : entry.rows) {
          uint32_t e = rp.row_entity()[r];
          group.coverage[e >> 6] |= uint64_t{1} << (e & 63);
        }
        group.covered_entities =
            CountCoveredEntities(entry.rows, rp.row_entity(), m, &scratch);
        out.groups.push_back(std::move(group));
      }
      out.groups[static_cast<size_t>(it->second)].predicate_ids.push_back(
          pred_id);
      MinedPredicate p;
      p.predicate = entry.predicate;
      p.group_id = it->second;
      p.covered_entities = entry.covered;
      out.predicates.push_back(std::move(p));
    }
  }
  return out;
}

void ExpectSameMining(const MiningResult& got, const MiningResult& want,
                      const Schema& schema) {
  ASSERT_EQ(got.predicates.size(), want.predicates.size());
  for (size_t i = 0; i < got.predicates.size(); ++i) {
    const MinedPredicate& x = got.predicates[i];
    const MinedPredicate& y = want.predicates[i];
    EXPECT_TRUE(x.predicate == y.predicate)
        << i << ": " << x.predicate.ToSql(schema) << " vs "
        << y.predicate.ToSql(schema);
    EXPECT_EQ(x.group_id, y.group_id) << x.predicate.ToSql(schema);
    EXPECT_EQ(x.covered_entities, y.covered_entities)
        << x.predicate.ToSql(schema);
  }
  ASSERT_EQ(got.groups.size(), want.groups.size());
  for (size_t g = 0; g < got.groups.size(); ++g) {
    EXPECT_EQ(got.groups[g].rows, want.groups[g].rows) << "group " << g;
    EXPECT_EQ(got.groups[g].predicate_ids, want.groups[g].predicate_ids)
        << "group " << g;
    EXPECT_EQ(got.groups[g].covered_entities,
              want.groups[g].covered_entities)
        << "group " << g;
    EXPECT_EQ(got.groups[g].coverage, want.groups[g].coverage)
        << "group " << g;
  }
  EXPECT_EQ(got.predicates_by_size, want.predicates_by_size);
  EXPECT_EQ(got.termination, TerminationReason::kCompleted);
}

// A relation whose R' has exactly `rows` rows: entities round-robin,
// a dense and a sparse string dimension, and int and double dimensions
// that range atoms can use.
Table MinerTable(Rng& rng, size_t rows, int entities) {
  auto schema = Schema::Make({
      {"e", DataType::kString, FieldRole::kEntity},
      {"dense", DataType::kString, FieldRole::kDimension},
      {"sparse", DataType::kString, FieldRole::kDimension},
      {"year", DataType::kInt64, FieldRole::kDimension},
      {"rate", DataType::kDouble, FieldRole::kDimension},
      {"v", DataType::kDouble, FieldRole::kMeasure},
  });
  EXPECT_TRUE(schema.ok());
  Table table(*schema);
  const uint64_t sparse_values = std::max<uint64_t>(1, rows / 3);
  for (size_t r = 0; r < rows; ++r) {
    EXPECT_TRUE(
        table
            .AppendRow(
                {Value::String("e" + std::to_string(
                                         r % static_cast<size_t>(entities))),
                 Value::String(rng.Uniform(4) == 0 ? "x" : "y"),
                 Value::String("s" +
                               std::to_string(rng.Uniform(sparse_values))),
                 Value::Int64(rng.UniformInt(1990, 1996)),
                 Value::Double(static_cast<double>(rng.Uniform(20)) / 4.0),
                 Value::Double(rng.UniformDouble(0.0, 10.0))})
            .ok());
  }
  return table;
}

TEST(PredicateMinerDifferentialTest, MatchesSortedListExtension) {
  Rng rng(4207);
  int multi_atom = 0;
  for (size_t rows : {0u, 1u, 63u, 64u, 65u, 130u, 3000u}) {
    for (int entities : {1, 3, 17}) {
      Table table = MinerTable(rng, rows, entities);
      EntityIndex index = EntityIndex::Build(table);
      TopKList list;
      for (int e = 0; e < entities; ++e) {
        list.Append("e" + std::to_string(e), 1.0);
      }
      // An entity R lacks keeps R' non-empty-listed at 0 rows.
      if (rows == 0) list.Append("ghost", 1.0);
      auto rp = RPrime::Build(table, index, list);
      ASSERT_TRUE(rp.ok());
      ASSERT_EQ(rp->num_rows(), rows);
      for (int max_size : {1, 2, 3}) {
        for (double ratio : {1.0, 0.5, 0.2}) {
          for (bool ranges : {false, true}) {
            PaleoOptions options;
            options.max_predicate_size = max_size;
            options.coverage_ratio = ratio;
            options.mine_range_predicates = ranges;
            options.include_empty_predicate = rows % 2 == 0;
            SCOPED_TRACE("rows " + std::to_string(rows) + " entities " +
                         std::to_string(entities) + " max_size " +
                         std::to_string(max_size) + " ratio " +
                         std::to_string(ratio) +
                         (ranges ? " ranges" : ""));
            auto got = PredicateMiner(*rp, options).Mine();
            ASSERT_TRUE(got.ok());
            ExpectSameMining(*got, ReferenceMine(*rp, options, *got),
                             table.schema());
            if (got->predicates_by_size.size() > 2) {
              multi_atom += got->predicates_by_size[2];
            }
            if (HasFailure()) return;
          }
        }
      }
    }
  }
  EXPECT_GT(multi_atom, 1000);
}

}  // namespace
}  // namespace paleo
