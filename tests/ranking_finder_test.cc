// Tests for ranking criteria identification (Section 5 / Figure 4).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <set>

#include "common/random.h"
#include "datagen/traffic_gen.h"
#include "engine/executor.h"
#include "paleo/predicate_miner.h"
#include "paleo/ranking_finder.h"
#include "stats/catalog.h"
#include "stats/distance.h"
#include "storage/rank_prefix.h"
#include "tuple_set_reference.h"

namespace paleo {
namespace {

struct Fixture {
  Table table;
  EntityIndex index;
  StatsCatalog catalog;
  RPrime rprime;
  MiningResult mining;
  PaleoOptions options;

  static Fixture Make(const TopKList& list, PaleoOptions options = {}) {
    auto t = TrafficGen::PaperExample();
    EXPECT_TRUE(t.ok());
    Table table = *std::move(t);
    EntityIndex index = EntityIndex::Build(table);
    StatsCatalog catalog = StatsCatalog::Build(table);
    auto rp = RPrime::Build(table, index, list);
    EXPECT_TRUE(rp.ok());
    RPrime rprime = *std::move(rp);
    PredicateMiner miner(rprime, options);
    auto mining = miner.Mine();
    EXPECT_TRUE(mining.ok());
    return Fixture{std::move(table), std::move(index), std::move(catalog),
                   std::move(rprime), *std::move(mining), options};
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

TEST(RankingFinderTest, IdentifiesMaxMinutesExactly) {
  Fixture f = Fixture::Make(PaperList());
  RankingFinder finder(f.rprime, &f.catalog, f.options);
  RankingSearchInfo info;
  auto rankings = finder.Find(f.mining.groups, PaperList(),
                              /*assume_complete=*/true, &info);
  ASSERT_TRUE(rankings.ok());

  int minutes = f.table.schema().FieldIndex("minutes");
  bool found = false;
  for (const GroupRanking& gr : *rankings) {
    for (const RankingCandidate& c : gr.candidates) {
      EXPECT_TRUE(c.exact);
      EXPECT_EQ(c.distance, 0.0);
      if (c.agg == AggFn::kMax && c.expr == RankExpr::Column(minutes)) {
        found = true;
      }
    }
  }
  EXPECT_TRUE(found) << "max(minutes) not identified";
  // The paper-list values come straight from the minutes column's top
  // entities, so the cheap technique should have carried the day.
  EXPECT_TRUE(info.used_top_entities);
}

TEST(RankingFinderTest, NoCandidatesForUnrelatedValues) {
  // A list whose values match no column aggregation.
  TopKList bogus;
  bogus.Append("Lara Ellis", 123456.0);
  bogus.Append("Jane O'Neal", 123455.0);
  bogus.Append("John Smith", 123454.0);
  bogus.Append("Richard Fox", 123453.0);
  bogus.Append("Jack Stiles", 123452.0);
  Fixture f = Fixture::Make(bogus);
  RankingFinder finder(f.rprime, &f.catalog, f.options);
  auto rankings = finder.Find(f.mining.groups, bogus,
                              /*assume_complete=*/true);
  ASSERT_TRUE(rankings.ok());
  for (const GroupRanking& gr : *rankings) {
    EXPECT_TRUE(gr.candidates.empty());
  }
}

TEST(RankingFinderTest, SumCriterionIdentified) {
  // Build an input list from a sum(minutes) query.
  auto t = TrafficGen::PaperExample();
  ASSERT_TRUE(t.ok());
  const Schema& schema = t->schema();
  Executor ex;
  TopKQuery q;
  q.predicate = Predicate::Atom(schema.FieldIndex("state"),
                                Value::String("CA"));
  q.expr = RankExpr::Column(schema.FieldIndex("minutes"));
  q.agg = AggFn::kSum;
  q.k = 5;
  auto list = ex.Execute(*t, q, ExecContext{});
  ASSERT_TRUE(list.ok());
  ASSERT_EQ(list->size(), 5u);

  Fixture f = Fixture::Make(*list);
  RankingFinder finder(f.rprime, &f.catalog, f.options);
  auto rankings = finder.Find(f.mining.groups, *list,
                              /*assume_complete=*/true);
  ASSERT_TRUE(rankings.ok());
  bool found = false;
  for (const GroupRanking& gr : *rankings) {
    for (const RankingCandidate& c : gr.candidates) {
      if (c.agg == AggFn::kSum &&
          c.expr == RankExpr::Column(schema.FieldIndex("minutes"))) {
        found = c.exact;
      }
    }
  }
  EXPECT_TRUE(found);
}

TEST(RankingFinderTest, TwoColumnSumIdentified) {
  auto t = TrafficGen::PaperExample();
  ASSERT_TRUE(t.ok());
  const Schema& schema = t->schema();
  Executor ex;
  TopKQuery q;
  q.predicate = Predicate::Atom(schema.FieldIndex("state"),
                                Value::String("CA"));
  q.expr = RankExpr::Add(schema.FieldIndex("minutes"),
                         schema.FieldIndex("sms"));
  q.agg = AggFn::kSum;
  q.k = 5;
  auto list = ex.Execute(*t, q, ExecContext{});
  ASSERT_TRUE(list.ok());

  Fixture f = Fixture::Make(*list);
  RankingFinder finder(f.rprime, &f.catalog, f.options);
  auto rankings = finder.Find(f.mining.groups, *list,
                              /*assume_complete=*/true);
  ASSERT_TRUE(rankings.ok());
  bool found = false;
  for (const GroupRanking& gr : *rankings) {
    for (const RankingCandidate& c : gr.candidates) {
      if (c.agg == AggFn::kSum && c.expr == q.expr) found = c.exact;
    }
  }
  EXPECT_TRUE(found);
}

TEST(RankingFinderTest, NoAggregationIdentified) {
  auto t = TrafficGen::PaperExample();
  ASSERT_TRUE(t.ok());
  const Schema& schema = t->schema();
  Executor ex;
  TopKQuery q;
  q.predicate = Predicate::Atom(schema.FieldIndex("state"),
                                Value::String("CA"));
  q.expr = RankExpr::Column(schema.FieldIndex("data_mb"));
  q.agg = AggFn::kNone;
  q.k = 6;
  auto list = ex.Execute(*t, q, ExecContext{});
  ASSERT_TRUE(list.ok());
  ASSERT_EQ(list->size(), 6u);

  Fixture f = Fixture::Make(*list);
  RankingFinder finder(f.rprime, &f.catalog, f.options);
  auto rankings = finder.Find(f.mining.groups, *list,
                              /*assume_complete=*/true);
  ASSERT_TRUE(rankings.ok());
  bool found = false;
  for (const GroupRanking& gr : *rankings) {
    for (const RankingCandidate& c : gr.candidates) {
      if (c.agg == AggFn::kNone && c.expr == q.expr) found = c.exact;
    }
  }
  EXPECT_TRUE(found);
}

TEST(RankingFinderTest, SampledModeScoresAllCriteria) {
  Fixture f = Fixture::Make(PaperList());
  RankingFinder finder(f.rprime, &f.catalog, f.options);
  auto rankings = finder.Find(f.mining.groups, PaperList(),
                              /*assume_complete=*/false);
  ASSERT_TRUE(rankings.ok());
  // In sampled mode nothing is filtered: each group carries scored
  // candidates for single columns and pairs.
  for (const GroupRanking& gr : *rankings) {
    EXPECT_GT(gr.candidates.size(), 3u);
    bool some_exact = false;
    for (const RankingCandidate& c : gr.candidates) {
      EXPECT_GE(c.distance, 0.0);
      EXPECT_LE(c.distance, 1.0);
      some_exact |= c.exact;
    }
    // The true criterion (max(minutes)) is present and exact, since
    // this "sample" is actually complete.
    EXPECT_TRUE(some_exact);
  }
}

TEST(RankingFinderTest, ExactCriterionHasSmallestDistance) {
  Fixture f = Fixture::Make(PaperList());
  RankingFinder finder(f.rprime, &f.catalog, f.options);
  auto rankings = finder.Find(f.mining.groups, PaperList(),
                              /*assume_complete=*/false);
  ASSERT_TRUE(rankings.ok());
  for (const GroupRanking& gr : *rankings) {
    double exact_distance = 1e9, best_distance = 1e9;
    for (const RankingCandidate& c : gr.candidates) {
      best_distance = std::min(best_distance, c.distance);
      if (c.exact) exact_distance = std::min(exact_distance, c.distance);
    }
    EXPECT_EQ(exact_distance, best_distance);
    EXPECT_NEAR(exact_distance, 0.0, 1e-12);
  }
}

TEST(RankingFinderTest, WorksWithoutCatalog) {
  Fixture f = Fixture::Make(PaperList());
  RankingFinder finder(f.rprime, nullptr, f.options);
  RankingSearchInfo info;
  auto rankings = finder.Find(f.mining.groups, PaperList(),
                              /*assume_complete=*/true, &info);
  ASSERT_TRUE(rankings.ok());
  EXPECT_FALSE(info.used_top_entities);
  EXPECT_FALSE(info.used_histograms);
  EXPECT_TRUE(info.used_fallback);
  int minutes = f.table.schema().FieldIndex("minutes");
  bool found = false;
  for (const GroupRanking& gr : *rankings) {
    for (const RankingCandidate& c : gr.candidates) {
      found |= (c.agg == AggFn::kMax &&
                c.expr == RankExpr::Column(minutes));
    }
  }
  EXPECT_TRUE(found);
}

TEST(RankingFinderTest, EmptyGroupsYieldEmptyRankings) {
  Fixture f = Fixture::Make(PaperList());
  RankingFinder finder(f.rprime, &f.catalog, f.options);
  auto rankings = finder.Find({}, PaperList(), true);
  ASSERT_TRUE(rankings.ok());
  EXPECT_TRUE(rankings->empty());
}

// ---- Differential test against full scoring ----
//
// The reference below scores every criterion in full, with no early
// rejection: a row-order aggregation loop, a full sort with the
// entity-name tie-break, TopKList::InstanceEquals and NormalizedL1. It
// walks Figure 4 without a catalog (R' fallback only), so its plan
// needs no statistics.

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// `RP` is RPrime, or the row-order R' of the layout test below.
template <typename RP>
struct Reference {
  const RP& rp;
  const PaleoOptions& options;
  const TopKList& input;
  bool complete;
  bool ascending = false;
  std::vector<double> sum_scale;
  /// Exact grouped criteria seen (each one checked for soundness).
  int exact_seen = 0;

  Reference(const RP& rp_in, const PaleoOptions& options_in,
            const TopKList& input_in, bool complete_in)
      : rp(rp_in), options(options_in), input(input_in),
        complete(complete_in) {
    std::vector<double> v = input.Values();
    ascending = std::is_sorted(v.begin(), v.end()) &&
                !std::is_sorted(v.rbegin(), v.rend());
    sum_scale.assign(static_cast<size_t>(rp.num_entities()), 1.0);
    if (!complete) {
      for (size_t e = 0; e < sum_scale.size(); ++e) {
        int64_t seen = rp.entity_row_counts()[e];
        int64_t total = rp.entity_total_counts()[e];
        if (seen > 0 && total > seen) {
          sum_scale[e] = static_cast<double>(total) / static_cast<double>(seen);
        }
      }
    }
  }

  const std::string& Name(size_t e) const { return rp.entity_names()[e]; }

  bool Grouped(const std::vector<double>& per_entity,
               const std::vector<int64_t>& counts, const RankExpr& expr,
               AggFn agg, RankingCandidate* cand) {
    cand->expr = expr;
    cand->agg = agg;
    std::vector<std::pair<double, size_t>> ranked_entities;
    for (size_t e = 0; e < per_entity.size(); ++e) {
      if (counts[e] > 0) ranked_entities.emplace_back(per_entity[e], e);
    }
    std::sort(ranked_entities.begin(), ranked_entities.end(),
              [&](const auto& a, const auto& b) {
                if (a.first != b.first)
                  return ascending ? a.first < b.first : a.first > b.first;
                return Name(a.second) < Name(b.second);
              });
    TopKList ranked;
    for (const auto& [v, e] : ranked_entities) ranked.Append(Name(e), v);
    cand->exact = ranked.InstanceEquals(input, options.rel_eps);
    cand->distance = NormalizedL1(per_entity, rp.entity_values());
    if (cand->exact) {
      // Soundness of the necessary condition: it admits every exact
      // criterion, with and without the finite-aggregate bound.
      ++exact_seen;
      ExactnessCheck check(rp.entity_values(), input.size(), options.rel_eps);
      EXPECT_TRUE(check.list_fits());
      bool finite = true;
      for (const auto& [v, e] : ranked_entities) finite &= std::isfinite(v);
      for (const auto& [v, e] : ranked_entities) {
        EXPECT_TRUE(check.Admits(e, v, /*finite_aggregates=*/false));
        if (finite) {
          EXPECT_TRUE(check.Admits(e, v, /*finite_aggregates=*/true))
              << "value " << v << " target " << rp.entity_values()[e];
        }
      }
    }
    return complete ? cand->exact : true;
  }

  bool Rows(const TupleSet& rows, const RankExpr& expr,
            RankingCandidate* cand) const {
    const Table& slice = rp.table();
    const auto& row_entity = rp.row_entity();
    cand->expr = expr;
    cand->agg = AggFn::kNone;
    std::vector<std::pair<double, RowId>> scored;
    for (RowId r : rows) scored.emplace_back(expr.Eval(slice, r), r);
    // The executor's row order: NaN ranks after every number.
    std::sort(scored.begin(), scored.end(), [&](const auto& a,
                                                const auto& b) {
      const int c = CompareScores(a.first, b.first, !ascending);
      if (c != 0) return c < 0;
      const std::string& na = Name(row_entity[a.second]);
      const std::string& nb = Name(row_entity[b.second]);
      if (na != nb) return na < nb;
      return a.second < b.second;
    });
    if (scored.size() > input.size()) scored.resize(input.size());
    TopKList ranked;
    for (const auto& [v, r] : scored) ranked.Append(Name(row_entity[r]), v);
    cand->exact = ranked.InstanceEquals(input, options.rel_eps);
    double value_distance = NormalizedL1(ranked.Values(), input.Values());
    double rank_distance =
        NormalizedFootrule(ranked.Entities(), input.Entities());
    cand->distance = (value_distance + rank_distance) / 2.0;
    return complete ? cand->exact : true;
  }

  /// One Figure 4 stage over one group; returns whether it produced an
  /// exact criterion.
  bool Stage(const TupleSet& rows, AggFn agg, bool two_column,
             GroupRanking* out) {
    const Table& slice = rp.table();
    const auto& row_entity = rp.row_entity();
    const std::vector<int>& measures = slice.schema().measure_indices();
    const size_t m = static_cast<size_t>(rp.num_entities());
    bool any_exact = false;
    auto emit = [&](bool keep, RankingCandidate cand) {
      if (!keep) return;
      any_exact |= cand.exact;
      out->candidates.push_back(std::move(cand));
    };
    auto already_have = [&](const RankExpr& expr) {
      for (const RankingCandidate& c : out->candidates) {
        if (c.expr == expr && c.agg == agg) return true;
      }
      return false;
    };
    if (two_column) {
      std::vector<int64_t> counts(m, 0);
      for (RowId r : rows) ++counts[row_entity[r]];
      std::vector<std::vector<double>> col_sums(measures.size(),
                                                std::vector<double>(m));
      for (size_t ci = 0; ci < measures.size(); ++ci) {
        for (RowId r : rows) {
          col_sums[ci][row_entity[r]] +=
              slice.column(measures[ci]).NumericAt(r);
        }
      }
      for (size_t i = 0; i < measures.size(); ++i) {
        for (size_t j = i + 1; j < measures.size(); ++j) {
          if (options.enable_sum_of_two) {
            RankExpr expr = RankExpr::Add(measures[i], measures[j]);
            if (!already_have(expr)) {
              std::vector<double> per_entity(m);
              for (size_t e = 0; e < m; ++e) {
                per_entity[e] =
                    (col_sums[i][e] + col_sums[j][e]) * sum_scale[e];
              }
              RankingCandidate cand;
              bool keep = Grouped(per_entity, counts, expr, AggFn::kSum,
                                  &cand);
              emit(keep, std::move(cand));
            }
          }
          if (options.enable_product_of_two) {
            RankExpr expr = RankExpr::Mul(measures[i], measures[j]);
            if (!already_have(expr)) {
              std::vector<double> per_entity(m, 0.0);
              for (RowId r : rows) {
                per_entity[row_entity[r]] +=
                    slice.column(measures[i]).NumericAt(r) *
                    slice.column(measures[j]).NumericAt(r);
              }
              for (size_t e = 0; e < m; ++e) per_entity[e] *= sum_scale[e];
              RankingCandidate cand;
              bool keep = Grouped(per_entity, counts, expr, AggFn::kSum,
                                  &cand);
              emit(keep, std::move(cand));
            }
          }
        }
      }
      return any_exact;
    }
    for (int c : measures) {
      RankExpr expr = RankExpr::Column(c);
      if (already_have(expr)) continue;
      RankingCandidate cand;
      if (agg == AggFn::kNone) {
        bool keep = Rows(rows, expr, &cand);
        emit(keep, std::move(cand));
        continue;
      }
      std::vector<AggState> states(m);
      for (RowId r : rows) states[row_entity[r]].Add(expr.Eval(slice, r));
      std::vector<double> per_entity(m, 0.0);
      std::vector<int64_t> counts(m, 0);
      for (size_t e = 0; e < m; ++e) {
        counts[e] = states[e].count;
        if (states[e].count == 0) continue;
        double v = states[e].Finish(agg);
        if (agg == AggFn::kSum) v *= sum_scale[e];
        per_entity[e] = v;
      }
      bool keep = Grouped(per_entity, counts, expr, agg, &cand);
      emit(keep, std::move(cand));
    }
    return any_exact;
  }

  std::vector<GroupRanking> Find(const std::vector<PredicateGroup>& groups,
                                 bool exhaustive) {
    std::vector<GroupRanking> out(groups.size());
    for (size_t g = 0; g < groups.size(); ++g) {
      out[g].group_id = static_cast<int>(g);
    }
    std::vector<AggFn> aggs = options.single_column_aggs;
    if (options.enable_min_count) {
      aggs.push_back(AggFn::kMin);
      aggs.push_back(AggFn::kCount);
    }
    bool two_pending =
        options.enable_sum_of_two || options.enable_product_of_two;
    std::vector<std::pair<AggFn, bool>> plan;
    for (AggFn agg : aggs) {
      if (agg == AggFn::kNone && two_pending) {
        plan.emplace_back(AggFn::kSum, true);
        two_pending = false;
      }
      plan.emplace_back(agg, false);
    }
    if (two_pending) plan.emplace_back(AggFn::kSum, true);
    for (const auto& [agg, two_column] : plan) {
      bool any_exact = false;
      for (size_t g = 0; g < groups.size(); ++g) {
        any_exact |= Stage(groups[g].rows, agg, two_column, &out[g]);
      }
      if (complete && !exhaustive && any_exact) break;
    }
    if (!complete && options.max_criteria_per_group > 0) {
      size_t cap = static_cast<size_t>(options.max_criteria_per_group);
      for (GroupRanking& gr : out) {
        if (gr.candidates.size() <= cap) continue;
        std::stable_sort(gr.candidates.begin(), gr.candidates.end(),
                         [](const RankingCandidate& a,
                            const RankingCandidate& b) {
                           return a.distance < b.distance;
                         });
        gr.candidates.resize(cap);
      }
    }
    return out;
  }
};

// Tiny random relations: a handful of entities with 0-6 rows each, one
// dimension, three double measures and one int measure. Values come
// from a few magnitudes, each nudged by 0-3 rel_eps so that entity
// aggregates form tie runs whose members sit 1-3 rel_eps apart.
Schema DiffSchema() {
  auto schema = Schema::Make({
      {"e", DataType::kString, FieldRole::kEntity},
      {"d", DataType::kString, FieldRole::kDimension},
      {"x", DataType::kDouble, FieldRole::kMeasure},
      {"y", DataType::kDouble, FieldRole::kMeasure},
      {"z", DataType::kDouble, FieldRole::kMeasure},
      {"n", DataType::kInt64, FieldRole::kMeasure},
  });
  EXPECT_TRUE(schema.ok());
  return *schema;
}

double RandomMeasure(Rng& rng, double rel_eps, bool specials,
                     size_t palette) {
  if (specials && rng.Uniform(12) == 0) {
    switch (rng.Uniform(3)) {
      case 0:
        return std::numeric_limits<double>::quiet_NaN();
      case 1:
        return std::numeric_limits<double>::infinity();
      default:
        return -std::numeric_limits<double>::infinity();
    }
  }
  static const double kBases[] = {1e6, 7.0, 0.5, -4.0, 250.0, 0.0, 1.0,
                                  3.0};
  double base = kBases[rng.Uniform(palette)];
  double nudge = static_cast<double>(rng.Uniform(4)) * rel_eps;
  return base + nudge * std::max(std::abs(base), 1.0);
}

struct DiffCase {
  Table table;
  EntityIndex index;
  std::vector<RowId> sample;
  TopKList list;
  /// Groups as sorted global row ids: R''s local numbering depends on
  /// L's entity order, which is only known once L is built.
  std::vector<TupleSet> global_groups;
};

/// `global_groups` as groups of R' rows.
std::vector<PredicateGroup> LocalGroups(
    const RPrime& rp, const std::vector<TupleSet>& global_groups) {
  std::map<RowId, RowId> local_of;
  for (size_t r = 0; r < rp.num_rows(); ++r) {
    local_of[rp.GlobalRow(static_cast<RowId>(r))] = static_cast<RowId>(r);
  }
  std::vector<PredicateGroup> groups;
  for (const TupleSet& global : global_groups) {
    PredicateGroup group;
    for (RowId g : global) group.rows.push_back(local_of.at(g));
    std::sort(group.rows.begin(), group.rows.end());
    groups.push_back(std::move(group));
  }
  return groups;
}

// Builds one case. L comes from a real criterion over a random group,
// ranked DESC or ASC, then possibly perturbed: one value nudged to just
// inside, exactly at or beyond the padded tolerance, two entities
// swapped, an entity duplicated, or an entity added that R lacks.
DiffCase MakeCase(Rng& rng, double rel_eps) {
  Table table(DiffSchema());
  const bool specials = rng.Uniform(3) == 0;
  // Few distinct magnitudes make entity aggregates tie more often.
  const size_t palette = rng.Uniform(2) ? 2 : 8;
  const int num_entities = static_cast<int>(rng.UniformInt(1, 7));
  for (int e = 0; e < num_entities; ++e) {
    int rows =
        rng.Uniform(10) == 0 ? 0 : static_cast<int>(rng.UniformInt(1, 6));
    for (int r = 0; r < rows; ++r) {
      std::vector<Value> row = {Value::String("e" + std::to_string(e)),
                                Value::String(rng.Uniform(2) ? "p" : "q")};
      for (int c = 0; c < 3; ++c) {
        row.push_back(
            Value::Double(RandomMeasure(rng, rel_eps, specials, palette)));
      }
      row.push_back(Value::Int64(rng.UniformInt(-3, 3)));
      EXPECT_TRUE(table.AppendRow(row).ok());
    }
  }
  EntityIndex index = EntityIndex::Build(table);
  DiffCase dc{std::move(table), std::move(index), {}, {}, {}};
  const bool sampled = rng.Uniform(3) == 0;
  for (size_t r = 0; r < dc.table.num_rows(); ++r) {
    if (!sampled || rng.Uniform(3) != 0) {
      dc.sample.push_back(static_cast<RowId>(r));
    }
  }

  // The entity set of L: every entity, plus sometimes one R lacks.
  std::vector<std::string> names;
  for (int e = 0; e < num_entities; ++e) {
    names.push_back("e" + std::to_string(e));
  }
  if (rng.Uniform(6) == 0) names.push_back("ghost");
  TopKList provisional;
  for (const std::string& n : names) provisional.Append(n, 0.0);
  auto rp0 = RPrime::Build(dc.table, dc.index, provisional, &dc.sample);
  EXPECT_TRUE(rp0.ok());

  // Groups: the whole slice plus random subsets (some leave entities
  // uncovered).
  const size_t n = rp0->num_rows();
  int num_groups = static_cast<int>(rng.UniformInt(1, 4));
  std::vector<TupleSet> groups;
  for (int g = 0; g < num_groups; ++g) {
    TupleSet rows;
    uint64_t keep_of_4 = g == 0 ? 4 : rng.UniformInt(1, 3);
    for (size_t r = 0; r < n; ++r) {
      if (rng.Uniform(4) < keep_of_4) rows.push_back(static_cast<RowId>(r));
    }
    TupleSet global;
    for (RowId r : rows) global.push_back(rp0->GlobalRow(r));
    std::sort(global.begin(), global.end());
    dc.global_groups.push_back(std::move(global));
    groups.push_back(std::move(rows));
  }

  // L's values from a real criterion over one group.
  const Table& slice = rp0->table();
  const std::vector<int>& measures = slice.schema().measure_indices();
  const TupleSet& rows =
      groups[rng.Uniform(2) ? 0 : rng.Uniform(groups.size())];
  static const AggFn kAggs[] = {AggFn::kMax, AggFn::kMin, AggFn::kSum,
                                AggFn::kAvg, AggFn::kCount};
  AggFn agg = kAggs[rng.Uniform(5)];
  int a = measures[rng.Uniform(measures.size())];
  int b = measures[rng.Uniform(measures.size())];
  RankExpr expr = a == b ? RankExpr::Column(a)
                  : rng.Uniform(2) ? RankExpr::Add(a, b)
                                   : RankExpr::Mul(a, b);
  if (!expr.is_single_column()) agg = AggFn::kSum;
  std::vector<AggState> states(names.size());
  for (RowId r : rows) {
    states[rp0->row_entity()[r]].Add(expr.Eval(slice, r));
  }
  std::vector<std::pair<double, std::string>> entries;
  for (size_t e = 0; e < names.size(); ++e) {
    double v = states[e].count > 0
                   ? states[e].Finish(agg)
                   : RandomMeasure(rng, rel_eps, false, palette);
    entries.emplace_back(v, names[e]);
  }
  const bool ascending = rng.Uniform(4) == 0;
  std::sort(entries.begin(), entries.end(), [&](const auto& x,
                                                const auto& y) {
    if (x.first != y.first) {
      return ascending ? x.first < y.first : x.first > y.first;
    }
    return x.second < y.second;
  });

  switch (rng.Uniform(8)) {
    case 0: {  // nudge one value around the padded tolerance
      static const double kSteps[] = {1.0, 3.0, 3.99, 4.0, 4.01, 5.0, 40.0};
      double& v = entries[rng.Uniform(entries.size())].first;
      double step = kSteps[rng.Uniform(7)] * rel_eps;
      v += (rng.Uniform(2) ? step : -step) * std::max(std::abs(v), 1.0);
      break;
    }
    case 1:  // swap two entities
      if (entries.size() >= 2) {
        std::swap(entries[0].second, entries[1 + rng.Uniform(
                                                      entries.size() - 1)]
                                         .second);
      }
      break;
    case 2:  // duplicate an entity
      entries.push_back(entries[rng.Uniform(entries.size())]);
      break;
    case 3: {  // move each tie run: its head by up to 0.9 rel_eps, each
               // member by up to 0.9 rel_eps from the new head. The list
               // stays exact while entities land up to ~2.8 rel_eps
               // from their aggregates (three hops).
      size_t i = 0;
      while (i < entries.size()) {
        size_t j = i + 1;
        while (j < entries.size() &&
               ValuesClose(entries[j].first, entries[i].first, rel_eps)) {
          ++j;
        }
        const double head = entries[i].first;
        if (std::isfinite(head)) {
          const double unit = rel_eps * std::max(std::abs(head), 1.0);
          const double moved = head + rng.UniformDouble(-0.9, 0.9) * unit;
          for (size_t p = i; p < j; ++p) {
            entries[p].first =
                moved + (p == i ? 0.0 : rng.UniformDouble(-0.9, 0.9) * unit);
          }
        }
        i = j;
      }
      break;
    }
    case 4: {  // collapse L onto one finite value: every criterion with
               // an infinite head ties all its entities with it
      double c = std::isfinite(entries[0].first) ? entries[0].first : 1.0;
      for (auto& [v, name] : entries) v = c;
      break;
    }
    default:
      break;
  }
  for (const auto& [v, name] : entries) dc.list.Append(name, v);
  return dc;
}

void ExpectSameRankings(const std::vector<GroupRanking>& got,
                        const std::vector<GroupRanking>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t g = 0; g < got.size(); ++g) {
    EXPECT_EQ(got[g].group_id, want[g].group_id);
    ASSERT_EQ(got[g].candidates.size(), want[g].candidates.size())
        << "group " << g;
    for (size_t c = 0; c < got[g].candidates.size(); ++c) {
      const RankingCandidate& x = got[g].candidates[c];
      const RankingCandidate& y = want[g].candidates[c];
      EXPECT_TRUE(x.expr == y.expr) << "group " << g << " candidate " << c;
      EXPECT_EQ(x.agg, y.agg) << "group " << g << " candidate " << c;
      EXPECT_EQ(x.exact, y.exact) << "group " << g << " candidate " << c;
      EXPECT_TRUE(SameBits(x.distance, y.distance))
          << "group " << g << " candidate " << c << ": " << x.distance
          << " vs " << y.distance;
    }
  }
}

TEST(RankingFinderDifferentialTest, MatchesFullScoringOnRandomRelations) {
  Rng rng(20161);
  int exact_seen = 0;
  int64_t early_rejects = 0;
  for (int iter = 0; iter < 2000; ++iter) {
    const double rel_eps = iter % 2 == 0 ? 1e-9 : 1e-6;
    DiffCase dc = MakeCase(rng, rel_eps);
    auto rp = RPrime::Build(dc.table, dc.index, dc.list, &dc.sample);
    ASSERT_TRUE(rp.ok());
    const std::vector<PredicateGroup> groups =
        LocalGroups(*rp, dc.global_groups);
    PaleoOptions options;
    options.rel_eps = rel_eps;
    options.enable_min_count = true;
    options.max_criteria_per_group = iter % 3 == 0 ? 0 : 16;
    for (bool complete : {true, false}) {
      for (bool exhaustive : {false, true}) {
        SCOPED_TRACE("iter " + std::to_string(iter) +
                     (complete ? " complete" : " scored") +
                     (exhaustive ? " exhaustive" : "") + "\n" +
                     dc.list.ToString());
        RankingFinder finder(*rp, nullptr, options);
        RankingSearchInfo info;
        auto got = finder.Find(groups, dc.list, complete, &info, exhaustive);
        ASSERT_TRUE(got.ok());
        Reference ref(*rp, options, dc.list, complete);
        ExpectSameRankings(*got, ref.Find(groups, exhaustive));
        EXPECT_LE(info.early_rejects, info.tuple_set_evaluations);
        exact_seen += ref.exact_seen;
        early_rejects += info.early_rejects;
      }
    }
    if (HasFailure()) break;
  }
  // The generator must reach both sides of the condition.
  EXPECT_GT(exact_seen, 100);
  EXPECT_GT(early_rejects, 1000);
}

TEST(ExactnessCheckTest, PaddedToleranceEdges) {
  const double eps = 1e-6;
  ExactnessCheck check({1000.0, 0.25}, 2, eps);
  ASSERT_TRUE(check.list_fits());
  EXPECT_TRUE(check.Admits(0, 1000.0, true));
  EXPECT_TRUE(check.Admits(0, 1000.0 * (1 + 3.9 * eps), true));
  EXPECT_TRUE(check.Admits(0, 1000.0 * (1 - 3.9 * eps), true));
  EXPECT_FALSE(check.Admits(0, 1000.0 * (1 + 4.1 * eps), true));
  // Near zero the tolerance is absolute: 4 * eps.
  EXPECT_TRUE(check.Admits(1, 0.25 + 3.9 * eps, true));
  EXPECT_FALSE(check.Admits(1, 0.25 + 4.1 * eps, true));
  // Without the finite-aggregate guarantee only NaN is rejected.
  EXPECT_TRUE(check.Admits(0, 5.0, false));
  EXPECT_FALSE(check.Admits(0, std::nan(""), false));
  // A repeated entity in L: no grouped criterion can match.
  EXPECT_FALSE(ExactnessCheck({1.0, 2.0}, 3, eps).list_fits());
}

TEST(ExactnessCheckTest, ThreeHopTieRunIsAdmitted) {
  // Entity b sits 2.85 rel_eps from its L value, reached through the
  // tie runs of both lists: b -> a (ranked head) -> a (L head) -> b.
  const double eps = 1e-6;
  TopKList ranked, input;
  ranked.Append("a", 100.0);
  ranked.Append("b", 100.0 * (1 - 0.95 * eps));
  input.Append("a", 100.0 * (1 + 0.95 * eps));
  input.Append("b", 100.0 * (1 + 1.9 * eps));
  ASSERT_TRUE(ranked.InstanceEquals(input, eps));
  ASSERT_FALSE(ValuesClose(ranked.entry(1).value, input.entry(1).value, eps));
  ExactnessCheck check(input.Values(), 2, eps);
  EXPECT_TRUE(check.Admits(0, ranked.entry(0).value, true));
  EXPECT_TRUE(check.Admits(1, ranked.entry(1).value, true));
}

TEST(ExactnessCheckTest, InfiniteAggregateVoidsTheValueBound) {
  // An infinite ranked head ties with anything, so b's finite aggregate
  // far from its L value still matches. The bound must not be used.
  TopKList ranked, input;
  ranked.Append("a", std::numeric_limits<double>::infinity());
  ranked.Append("b", 5.0);
  input.Append("b", 1000.0);
  input.Append("a", 1000.0);
  ASSERT_TRUE(ranked.InstanceEquals(input, 1e-9));
  ExactnessCheck check({1000.0, 1000.0}, 2, 1e-9);
  EXPECT_TRUE(check.Admits(0, 5.0, /*finite_aggregates=*/false));
  EXPECT_FALSE(check.Admits(0, 5.0, /*finite_aggregates=*/true));
}

TEST(RankingFinderTest, ExactModeRejectsEarlyOnWideRelations) {
  // Twelve measure columns: most criteria miss on their first entity.
  std::vector<Field> fields = {{"e", DataType::kString, FieldRole::kEntity},
                               {"d", DataType::kString, FieldRole::kDimension}};
  for (int c = 0; c < 12; ++c) {
    fields.push_back({"m" + std::to_string(c), DataType::kDouble,
                      FieldRole::kMeasure});
  }
  auto schema = Schema::Make(fields);
  ASSERT_TRUE(schema.ok());
  Table table(*schema);
  Rng rng(7);
  for (int e = 0; e < 8; ++e) {
    for (int r = 0; r < 20; ++r) {
      std::vector<Value> row = {Value::String("e" + std::to_string(e)),
                                Value::String(r % 2 ? "p" : "q")};
      for (int c = 0; c < 12; ++c) {
        row.push_back(Value::Double(rng.UniformDouble(0.0, 1000.0)));
      }
      ASSERT_TRUE(table.AppendRow(row).ok());
    }
  }
  Executor ex;
  TopKQuery q;
  q.predicate = Predicate::Atom(schema->FieldIndex("d"), Value::String("p"));
  q.expr = RankExpr::Add(schema->FieldIndex("m3"), schema->FieldIndex("m7"));
  q.agg = AggFn::kSum;
  q.k = 8;
  auto list = ex.Execute(table, q, ExecContext{});
  ASSERT_TRUE(list.ok());
  EntityIndex index = EntityIndex::Build(table);
  auto rp = RPrime::Build(table, index, *list);
  ASSERT_TRUE(rp.ok());
  PaleoOptions options;
  PredicateMiner miner(*rp, options);
  auto mining = miner.Mine();
  ASSERT_TRUE(mining.ok());
  RankingFinder finder(*rp, nullptr, options);
  RankingSearchInfo info;
  auto rankings = finder.Find(mining->groups, *list, /*assume_complete=*/true,
                              &info);
  ASSERT_TRUE(rankings.ok());
  bool found = false;
  for (const GroupRanking& gr : *rankings) {
    for (const RankingCandidate& c : gr.candidates) {
      found |= c.exact && c.agg == AggFn::kSum && c.expr == q.expr;
    }
  }
  EXPECT_TRUE(found);
  EXPECT_GT(info.early_rejects, 0);
  EXPECT_LE(info.early_rejects, info.tuple_set_evaluations);
  // All but the true criterion and the row rankings are rejected early.
  EXPECT_GT(info.early_rejects, info.tuple_set_evaluations / 2);
}

// ---- Layout differential: entity-major R' against a row-order R' ----
//
// RowOrderRPrime numbers R' in global row order: (global row, entity)
// pairs sorted by row, so an entity's rows interleave with the others'.
// Over it, ReferenceMineRowOrder runs Algorithm 1 with sorted
// tuple sets (level 1 bucketing, IntersectSorted extension, coverage
// by distinct entities), and Reference scores the groups. The miner and
// the ranking finder on the entity-major R' must produce the same
// predicates, groups (as global rows), order and rankings, with
// bit-identical distances.
class RowOrderRPrime {
 public:
  RowOrderRPrime(const Table& base, const EntityIndex& index,
                 const TopKList& input, const std::vector<RowId>* sample) {
    std::map<std::string, uint32_t> entity_idx;
    for (const TopKEntry& e : input.entries()) {
      if (entity_idx.emplace(e.entity, names_.size()).second) {
        names_.push_back(e.entity);
        values_.push_back(e.value);
      }
    }
    std::vector<std::pair<RowId, uint32_t>> rows;
    seen_.assign(names_.size(), 0);
    total_.assign(names_.size(), 0);
    for (uint32_t e = 0; e < names_.size(); ++e) {
      const std::vector<RowId>& posting = index.Lookup(names_[e]);
      total_[e] = static_cast<int64_t>(posting.size());
      for (RowId global : posting) {
        if (sample != nullptr &&
            !std::binary_search(sample->begin(), sample->end(), global)) {
          continue;
        }
        rows.emplace_back(global, e);
        ++seen_[e];
      }
    }
    std::sort(rows.begin(), rows.end());
    for (const auto& [global, e] : rows) {
      global_rows_.push_back(global);
      row_entity_.push_back(e);
    }
    table_ = base.Gather(global_rows_);
  }

  const Table& table() const { return table_; }
  size_t num_rows() const { return table_.num_rows(); }
  int num_entities() const { return static_cast<int>(names_.size()); }
  const std::vector<std::string>& entity_names() const { return names_; }
  const std::vector<double>& entity_values() const { return values_; }
  const std::vector<uint32_t>& row_entity() const { return row_entity_; }
  const std::vector<int64_t>& entity_row_counts() const { return seen_; }
  const std::vector<int64_t>& entity_total_counts() const { return total_; }
  RowId GlobalRow(RowId local) const { return global_rows_[local]; }

 private:
  Table table_{Schema()};
  std::vector<uint32_t> row_entity_;
  std::vector<RowId> global_rows_;
  std::vector<std::string> names_;
  std::vector<double> values_;
  std::vector<int64_t> seen_, total_;
};

/// Algorithm 1 over the row-order R'. Range atoms are not re-derived:
/// their bounds come from `mined` (they depend on values only) and
/// their rows are re-selected here.
MiningResult ReferenceMineRowOrder(const RowOrderRPrime& rp,
                                   const PaleoOptions& options,
                                   const MiningResult& mined) {
  struct Entry {
    Predicate predicate;
    TupleSet rows;
    int max_column;
    int covered;
  };
  const Table& slice = rp.table();
  const int m = rp.num_entities();
  const int required = std::max(
      1, static_cast<int>(std::ceil(options.coverage_ratio * m)));
  auto covered_by = [&](const TupleSet& rows) {
    std::set<uint32_t> entities;
    for (RowId r : rows) entities.insert(rp.row_entity()[r]);
    return static_cast<int>(entities.size());
  };
  std::vector<std::vector<Entry>> levels(1);
  for (int c : slice.schema().dimension_indices()) {
    const Column& col = slice.column(c);
    std::map<uint64_t, TupleSet> buckets;  // the miner's key order
    for (size_t r = 0; r < slice.num_rows(); ++r) {
      const RowId row = static_cast<RowId>(r);
      uint64_t key = 0;
      switch (col.type()) {
        case DataType::kString:
          key = col.CodeAt(row);
          break;
        case DataType::kInt64:
          key = static_cast<uint64_t>(col.Int64At(row));
          break;
        case DataType::kDouble: {
          double v = col.DoubleAt(row);
          std::memcpy(&key, &v, sizeof(key));
          break;
        }
      }
      buckets[key].push_back(row);
    }
    for (const auto& [key, rows] : buckets) {
      int covered = covered_by(rows);
      if (covered < required) continue;
      levels[0].push_back(Entry{Predicate::Atom(c, col.GetValue(rows[0])),
                                rows, c, covered});
    }
  }
  for (const MinedPredicate& p : mined.predicates) {
    if (p.predicate.size() != 1 ||
        p.predicate.atoms().front().kind != AtomicPredicate::Kind::kRange) {
      continue;
    }
    TupleSet rows;
    for (size_t r = 0; r < slice.num_rows(); ++r) {
      if (p.predicate.Matches(slice, static_cast<RowId>(r))) {
        rows.push_back(static_cast<RowId>(r));
      }
    }
    levels[0].push_back(Entry{p.predicate, rows,
                              p.predicate.atoms().front().column,
                              covered_by(rows)});
  }
  for (int size = 2; size <= options.max_predicate_size; ++size) {
    std::vector<Entry> next;
    for (const Entry& base : levels.back()) {
      for (const Entry& atom : levels[0]) {
        if (atom.max_column <= base.max_column) continue;
        TupleSet rows = IntersectSorted(base.rows, atom.rows);
        int covered = covered_by(rows);
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
    int covered = covered_by(all);
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
        group.covered_entities = covered_by(entry.rows);
        out.groups.push_back(std::move(group));
      }
      out.groups[static_cast<size_t>(it->second)].predicate_ids.push_back(
          static_cast<int>(out.predicates.size()));
      MinedPredicate p;
      p.predicate = entry.predicate;
      p.group_id = it->second;
      p.covered_entities = entry.covered;
      out.predicates.push_back(std::move(p));
    }
  }
  return out;
}

/// A group's rows as sorted global row ids.
template <typename RP>
TupleSet GlobalRows(const RP& rp, const TupleSet& rows) {
  TupleSet global;
  for (RowId r : rows) global.push_back(rp.GlobalRow(r));
  std::sort(global.begin(), global.end());
  return global;
}

// Tiny relations whose entities interleave in R, so the two layouts
// number R' differently. Entities have 0-8 rows, or 63-65 so that
// segments straddle word boundaries.
Table LayoutTable(Rng& rng, int entities) {
  auto schema = Schema::Make({
      {"e", DataType::kString, FieldRole::kEntity},
      {"s", DataType::kString, FieldRole::kDimension},
      {"t", DataType::kString, FieldRole::kDimension},
      {"i", DataType::kInt64, FieldRole::kDimension},
      {"d", DataType::kDouble, FieldRole::kDimension},
      {"x", DataType::kDouble, FieldRole::kMeasure},
      {"y", DataType::kDouble, FieldRole::kMeasure},
      {"n", DataType::kInt64, FieldRole::kMeasure},
  });
  EXPECT_TRUE(schema.ok());
  std::vector<int> owners;
  for (int e = 0; e < entities; ++e) {
    int rows = rng.Uniform(4) == 0
                   ? static_cast<int>(rng.UniformInt(63, 65))
                   : static_cast<int>(rng.UniformInt(0, 8));
    owners.insert(owners.end(), static_cast<size_t>(rows), e);
  }
  for (size_t i = owners.size(); i > 1; --i) {
    std::swap(owners[i - 1], owners[rng.Uniform(i)]);
  }
  Table table(*schema);
  for (int e : owners) {
    EXPECT_TRUE(
        table
            .AppendRow({Value::String("e" + std::to_string(e)),
                        Value::String(rng.Uniform(4) == 0 ? "u" : "v"),
                        Value::String("t" + std::to_string(rng.Uniform(3))),
                        Value::Int64(rng.UniformInt(-2, 2)),
                        Value::Double(static_cast<double>(rng.Uniform(3)) /
                                      2.0),
                        Value::Double(static_cast<double>(rng.Uniform(40))),
                        Value::Double(rng.UniformDouble(-5.0, 5.0)),
                        Value::Int64(rng.UniformInt(0, 9))})
            .ok());
  }
  return table;
}

TEST(LayoutDifferentialTest, EntityMajorMatchesRowOrder) {
  Rng rng(1507);
  int64_t multi_atom = 0, exact = 0, early_rejects = 0;
  for (int iter = 0; iter < 400; ++iter) {
    const int entities = static_cast<int>(rng.UniformInt(1, 6));
    Table table = LayoutTable(rng, entities);
    EntityIndex index = EntityIndex::Build(table);
    const Schema& schema = table.schema();

    // L from a real query: a random filter and criterion, DESC or ASC,
    // k up to two past the entity count.
    TopKQuery q;
    if (rng.Uniform(3) != 0) {
      q.predicate = Predicate::Atom(schema.FieldIndex("s"),
                                    Value::String("v"));
    }
    static const AggFn kAggs[] = {AggFn::kMax, AggFn::kSum, AggFn::kAvg,
                                  AggFn::kMin, AggFn::kCount, AggFn::kNone};
    q.agg = kAggs[rng.Uniform(6)];
    const int x = schema.FieldIndex("x"), y = schema.FieldIndex("y");
    q.expr = q.agg == AggFn::kSum && rng.Uniform(2) ? RankExpr::Add(x, y)
                                                     : RankExpr::Column(x);
    q.order = rng.Uniform(4) == 0 ? SortOrder::kAsc : SortOrder::kDesc;
    q.k = static_cast<int>(rng.UniformInt(1, entities + 2));
    Executor ex;
    auto executed = ex.Execute(table, q, ExecContext{});
    ASSERT_TRUE(executed.ok());
    TopKList list = *std::move(executed);
    if (list.empty()) list.Append("e0", 1.0);
    switch (rng.Uniform(6)) {
      case 0:  // an entity R lacks
        list.Append("ghost", list.entries().back().value);
        break;
      case 1:  // a duplicate entity
        list.Append(list.entries().front().entity,
                    list.entries().back().value);
        break;
      default:
        break;
    }

    const bool sampled = rng.Uniform(2) == 0;
    std::vector<RowId> sample;
    for (size_t r = 0; r < table.num_rows(); ++r) {
      if (rng.Uniform(3) != 0) sample.push_back(static_cast<RowId>(r));
    }
    const std::vector<RowId>* sample_rows = sampled ? &sample : nullptr;
    auto rp = RPrime::Build(table, index, list, sample_rows);
    ASSERT_TRUE(rp.ok());
    RowOrderRPrime row_order(table, index, list, sample_rows);
    ASSERT_EQ(rp->num_rows(), row_order.num_rows());

    static const double kRatios[] = {0.2, 0.5, 0.8, 1.0};
    PaleoOptions options;
    options.coverage_ratio = sampled ? kRatios[rng.Uniform(4)] : 1.0;
    options.max_predicate_size = static_cast<int>(rng.UniformInt(1, 3));
    options.mine_range_predicates = rng.Uniform(2) == 0;
    options.include_empty_predicate = rng.Uniform(2) == 0;
    options.enable_min_count = true;
    SCOPED_TRACE("iter " + std::to_string(iter) +
                 (sampled ? " sampled" : " complete") + " ratio " +
                 std::to_string(options.coverage_ratio) + "\n" +
                 list.ToString());

    auto got = PredicateMiner(*rp, options).Mine();
    ASSERT_TRUE(got.ok());
    MiningResult want = ReferenceMineRowOrder(row_order, options, *got);
    ASSERT_EQ(got->predicates.size(), want.predicates.size());
    for (size_t i = 0; i < got->predicates.size(); ++i) {
      const MinedPredicate& a = got->predicates[i];
      const MinedPredicate& b = want.predicates[i];
      EXPECT_TRUE(a.predicate == b.predicate)
          << i << ": " << a.predicate.ToSql(schema) << " vs "
          << b.predicate.ToSql(schema);
      EXPECT_EQ(a.group_id, b.group_id) << i;
      EXPECT_EQ(a.covered_entities, b.covered_entities) << i;
    }
    ASSERT_EQ(got->groups.size(), want.groups.size());
    for (size_t g = 0; g < got->groups.size(); ++g) {
      EXPECT_EQ(GlobalRows(*rp, got->groups[g].rows),
                GlobalRows(row_order, want.groups[g].rows))
          << "group " << g;
      EXPECT_EQ(got->groups[g].predicate_ids, want.groups[g].predicate_ids);
      EXPECT_EQ(got->groups[g].covered_entities,
                want.groups[g].covered_entities);
      EXPECT_EQ(got->groups[g].coverage, want.groups[g].coverage);
    }
    EXPECT_EQ(got->predicates_by_size, want.predicates_by_size);
    EXPECT_LE(got->early_rejects, got->extensions);
    early_rejects += got->early_rejects;
    if (got->predicates_by_size.size() > 2) {
      multi_atom += got->predicates_by_size[2];
    }

    for (bool exhaustive : {false, true}) {
      RankingFinder finder(*rp, nullptr, options);
      auto rankings =
          finder.Find(got->groups, list, !sampled, nullptr, exhaustive);
      ASSERT_TRUE(rankings.ok());
      Reference ref(row_order, options, list, !sampled);
      ExpectSameRankings(*rankings, ref.Find(want.groups, exhaustive));
      exact += ref.exact_seen;
    }
    if (HasFailure()) break;
  }
  // The generator must reach multi-atom conjunctions, exact criteria
  // and rejected extensions.
  EXPECT_GT(multi_atom, 200);
  EXPECT_GT(exact, 50);
  EXPECT_GT(early_rejects, 200);
}

}  // namespace
}  // namespace paleo
