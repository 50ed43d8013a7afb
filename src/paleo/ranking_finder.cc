#include "paleo/ranking_finder.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_set>

#include "common/random.h"
#include "stats/distance.h"
#include "storage/rank_prefix.h"

namespace paleo {

namespace {

/// One stage of the Figure 4 walk: an aggregate plus the technique
/// used to pre-select candidate columns.
enum class Technique { kTopEntities, kHistogram, kRPrimeFallback };

struct Stage {
  AggFn agg;
  Technique technique;
  bool two_column = false;  // sum(A+B) / sum(A*B) stage
};

}  // namespace

ExactnessCheck::ExactnessCheck(const std::vector<double>& targets,
                               size_t list_size, double rel_eps)
    : targets_(targets),
      list_fits_(list_size == targets.size()),
      bounds_values_(!(rel_eps > 0.125) &&
                     std::all_of(targets.begin(), targets.end(),
                                 [](double t) { return std::isfinite(t); })),
      pad_(4.0 * rel_eps) {}

bool ExactnessCheck::Admits(size_t e, double v,
                            bool finite_aggregates) const {
  if (std::isnan(v)) return false;
  if (!finite_aggregates || !bounds_values_) return true;
  double t = targets_[e];
  return v == t || std::abs(v - t) <=
                       pad_ * std::max({std::abs(v), std::abs(t), 1.0});
}

StatusOr<std::vector<GroupRanking>> RankingFinder::Find(
    const std::vector<PredicateGroup>& groups, const TopKList& input,
    bool assume_complete, RankingSearchInfo* info, bool exhaustive,
    const RunBudget* budget) const {
  RankingSearchInfo local_info;
  if (info == nullptr) info = &local_info;
  *info = RankingSearchInfo();
  // Polled between criterion evaluations (each evaluation scans a
  // whole tuple set, so a small stride keeps the reaction prompt).
  BudgetGate gate(budget, /*stride=*/8);

  const Table& slice = rprime_.table();
  const Schema& schema = slice.schema();
  const std::vector<int>& measures = schema.measure_indices();
  const int m = rprime_.num_entities();
  const size_t k = input.size();

  std::vector<GroupRanking> rankings(groups.size());
  for (size_t g = 0; g < groups.size(); ++g) {
    rankings[g].group_id = static_cast<int>(g);
  }
  if (measures.empty() || input.empty()) return rankings;

  // The input's sort direction: DESC unless the values are strictly
  // non-decreasing with at least one increase (an ORDER BY ... ASC
  // list). Criteria are ranked in the detected direction.
  std::vector<double> raw_values = input.Values();
  const bool ascending =
      std::is_sorted(raw_values.begin(), raw_values.end()) &&
      !std::is_sorted(raw_values.rbegin(), raw_values.rend());

  // Input values in list order (for rank-aligned distances) and sorted
  // (for the histogram heuristic and min/max checks).
  const std::vector<double> input_values_in_order = input.Values();
  std::vector<double> input_values_sorted = std::move(raw_values);
  std::sort(input_values_sorted.begin(), input_values_sorted.end(),
            std::greater<double>());
  double input_max = input_values_sorted.front();
  double input_min = input_values_sorted.back();
  std::unordered_set<double> distinct_input(input_values_sorted.begin(),
                                            input_values_sorted.end());

  // Base-dictionary codes of the input entities (for top-entity
  // intersection); kInvalidCode for entities absent from R.
  const StringDictionary& entity_dict = *slice.entity_column().dict();
  std::vector<uint32_t> input_entity_codes;
  input_entity_codes.reserve(rprime_.entity_names().size());
  for (const std::string& name : rprime_.entity_names()) {
    input_entity_codes.push_back(entity_dict.Lookup(name));
  }

  // ---- Candidate column pre-selection (catalog-based) ----

  // Algorithm 2: min/max/distinct checks, then top-entity intersection.
  auto top_entity_columns = [&]() {
    std::vector<int> out;
    if (catalog_ == nullptr) return out;
    for (int c : measures) {
      const ColumnStats& stats = catalog_->column_stats(c);
      if (stats.max < input_max) continue;
      if (stats.min > input_min) continue;
      if (stats.distinct_count <
          static_cast<int64_t>(distinct_input.size()))
        continue;
      if (catalog_->top_entities(c).CountIntersection(input_entity_codes) >
          0) {
        out.push_back(c);
      }
    }
    return out;
  };

  // Section 5.2: rank columns by the L1 distance between values sampled
  // from their histograms and the input values; keep the best fraction.
  auto histogram_columns = [&]() {
    std::vector<int> out;
    if (catalog_ == nullptr) return out;
    Rng rng(options_.seed);
    int sample_n = options_.histogram_sample_size > 0
                       ? options_.histogram_sample_size
                       : static_cast<int>(k);
    std::vector<std::pair<double, int>> scored;
    for (int c : measures) {
      const Histogram& hist = catalog_->histogram(c);
      if (hist.total_count() == 0) continue;
      std::vector<double> sample = hist.Sample(&rng, sample_n);
      std::sort(sample.begin(), sample.end(), std::greater<double>());
      scored.emplace_back(L1Distance(sample, input_values_sorted), c);
    }
    std::sort(scored.begin(), scored.end());
    size_t keep = static_cast<size_t>(
        std::ceil(options_.histogram_keep_fraction *
                  static_cast<double>(measures.size())));
    keep = std::min(keep, scored.size());
    for (size_t i = 0; i < keep; ++i) out.push_back(scored[i].second);
    std::sort(out.begin(), out.end());
    return out;
  };

  // Fallback column set: all measures passing the simple checks. The
  // min/max/distinct filters are sound for max/avg/none criteria but
  // not for sums (aggregated values exceed single-tuple ranges), so
  // sums skip them.
  auto fallback_columns = [&](AggFn agg) {
    std::vector<int> out;
    bool filter = agg == AggFn::kMax || agg == AggFn::kAvg ||
                  agg == AggFn::kMin || agg == AggFn::kNone;
    for (int c : measures) {
      if (filter && catalog_ != nullptr) {
        const ColumnStats& stats = catalog_->column_stats(c);
        if (agg != AggFn::kMin && stats.max < input_max) continue;
        if (agg != AggFn::kMin && stats.min > input_min) continue;
        if (stats.distinct_count <
            static_cast<int64_t>(distinct_input.size()))
          continue;
      }
      out.push_back(c);
    }
    return out;
  };

  // ---- Criterion evaluation over one tuple set ----

  // Scaling for sum criteria under sampling (Section 6.2): per entity,
  // scale the sampled sum by total/seen tuples of the entity.
  std::vector<double> sum_scale(static_cast<size_t>(m), 1.0);
  if (!assume_complete) {
    for (int e = 0; e < m; ++e) {
      int64_t seen = rprime_.entity_row_counts()[static_cast<size_t>(e)];
      int64_t total = rprime_.entity_total_counts()[static_cast<size_t>(e)];
      if (seen > 0 && total > seen) {
        sum_scale[static_cast<size_t>(e)] =
            static_cast<double>(total) / static_cast<double>(seen);
      }
    }
  }
  const double max_scale =
      *std::max_element(sum_scale.begin(), sum_scale.end());

  const std::vector<uint32_t>& row_entity = rprime_.row_entity();
  const std::vector<double>& targets = rprime_.entity_values();

  // Necessary condition for exactness, shared by every grouped
  // criterion.
  const ExactnessCheck exactness(targets, k, options_.rel_eps);
  const bool list_fits = exactness.list_fits();

  // Largest |value| of each measure over R', +inf once a value is NaN
  // or infinite. It bounds every aggregate, so the value check runs
  // only for criteria whose aggregates are all provably finite.
  std::vector<double> max_abs(static_cast<size_t>(schema.num_fields()), 0.0);
  for (int c : measures) {
    const Column& col = slice.column(c);
    double a = 0.0;
    for (size_t r = 0; r < slice.num_rows(); ++r) {
      double x = std::abs(col.NumericAt(static_cast<RowId>(r)));
      if (!(x <= std::numeric_limits<double>::max())) {
        a = std::numeric_limits<double>::infinity();
        break;
      }
      a = std::max(a, x);
    }
    max_abs[static_cast<size_t>(c)] = a;
  }
  auto finite_aggregates = [&](const RankExpr& expr, AggFn agg,
                               size_t rows) {
    const double n = static_cast<double>(rows);
    const double a = max_abs[static_cast<size_t>(expr.column_a())];
    double bound = 0.0;
    switch (expr.kind()) {
      case RankExpr::Kind::kColumn:
        if (agg == AggFn::kCount) {
          bound = n;
        } else if (agg == AggFn::kMax || agg == AggFn::kMin) {
          bound = a;
        } else {
          bound = a * n * (agg == AggFn::kSum ? max_scale : 1.0);
        }
        break;
      case RankExpr::Kind::kAdd:
        bound = (a + max_abs[static_cast<size_t>(expr.column_b())]) * n *
                max_scale;
        break;
      case RankExpr::Kind::kMul:
        bound = a * max_abs[static_cast<size_t>(expr.column_b())] * n *
                max_scale;
        break;
    }
    return bound <= std::numeric_limits<double>::max() / 4;
  };

  // Each group's entity segments, built on first use and kept for the
  // whole walk. R' is entity-major, so a group's sorted rows already
  // list each entity's rows together, in row order: an entity's
  // aggregate is bit-identical to a row-order loop. `begin` bounds the
  // segments inside the group's rows; `order` lists the covered
  // entities by ascending row count, so the value check tries the
  // cheapest entities first.
  struct EntityRows {
    const TupleSet* rows = nullptr;
    std::vector<uint32_t> begin;  // m + 1 offsets into `*rows`
    std::vector<uint32_t> order;
  };
  const std::vector<RowId>& segment = rprime_.entity_begin();
  std::vector<EntityRows> by_entity(groups.size());
  // Null when no grouped criterion of group g can be exact in complete
  // mode, which rejects them all without touching a row.
  auto entity_rows = [&](size_t g) -> const EntityRows* {
    if (assume_complete && !list_fits) return nullptr;
    EntityRows& b = by_entity[g];
    if (b.rows == nullptr) {
      const TupleSet& rows = groups[g].rows;
      b.rows = &rows;
      b.begin.resize(static_cast<size_t>(m) + 1);
      for (size_t e = 0; e <= static_cast<size_t>(m); ++e) {
        b.begin[e] = static_cast<uint32_t>(
            std::lower_bound(rows.begin(), rows.end(), segment[e]) -
            rows.begin());
      }
      for (uint32_t e = 0; e < static_cast<uint32_t>(m); ++e) {
        if (b.begin[e + 1] > b.begin[e]) b.order.push_back(e);
      }
      std::stable_sort(b.order.begin(), b.order.end(),
                       [&](uint32_t x, uint32_t y) {
                         return b.begin[x + 1] - b.begin[x] <
                                b.begin[y + 1] - b.begin[y];
                       });
    }
    if (assume_complete && b.order.size() != static_cast<size_t>(m)) {
      return nullptr;
    }
    return &b;
  };

  // Ranks individual tuples (no aggregation).
  auto score_rows = [&](const TupleSet& rows, const RankExpr& expr)
      -> std::pair<bool, RankingCandidate> {
    ++info->tuple_set_evaluations;
    RankingCandidate cand;
    cand.expr = expr;
    cand.agg = AggFn::kNone;
    std::vector<std::pair<double, RowId>> scored;
    scored.reserve(rows.size());
    for (RowId r : rows) scored.emplace_back(expr.Eval(slice, r), r);
    // The executor's row order: CompareScores (NaN after every
    // number), then entity name, then row id.
    std::sort(scored.begin(), scored.end(), [&](const auto& a,
                                                const auto& b) {
      const int c = CompareScores(a.first, b.first, !ascending);
      if (c != 0) return c < 0;
      const std::string& na = rprime_.entity_names()[row_entity[a.second]];
      const std::string& nb = rprime_.entity_names()[row_entity[b.second]];
      if (na != nb) return na < nb;
      return a.second < b.second;
    });
    if (scored.size() > k) scored.resize(k);
    TopKList ranked;
    for (const auto& [v, r] : scored) {
      ranked.Append(rprime_.entity_names()[row_entity[r]], v);
    }
    cand.exact = ranked.InstanceEquals(input, options_.rel_eps);
    // Unlike grouped criteria (whose values are entity-aligned), row
    // ranking has no entity alignment built in: a wrong tuple set can
    // produce L-like VALUES from the wrong entities. Blend the value
    // distance with Fagin's footrule over the entity sequences so
    // such impostors score poorly.
    std::vector<double> top_values = ranked.Values();
    double value_distance = NormalizedL1(top_values, input_values_in_order);
    double rank_distance =
        NormalizedFootrule(ranked.Entities(), input.Entities());
    cand.distance = (value_distance + rank_distance) / 2.0;
    bool keep = assume_complete ? cand.exact : true;
    return {keep, cand};
  };

  // Scores one grouped criterion; `entity_value(e)` aggregates covered
  // entity e's rows of `b`. Only a criterion passing the necessary
  // condition builds its ranked list. In complete mode a failing one is
  // dropped at the first entity that misses; in scored mode the
  // condition only settles `exact`, and the distance still comes from
  // every entity's value.
  std::vector<double> per_entity(static_cast<size_t>(m));
  auto score_grouped = [&](const EntityRows* b, const RankExpr& expr,
                           AggFn agg, const auto& entity_value)
      -> std::pair<bool, RankingCandidate> {
    ++info->tuple_set_evaluations;
    RankingCandidate cand;
    cand.expr = expr;
    cand.agg = agg;
    if (b == nullptr) {
      ++info->early_rejects;
      return {false, cand};
    }
    bool fits = list_fits && b->order.size() == static_cast<size_t>(m);
    const bool finite = finite_aggregates(expr, agg, b->rows->size());
    std::fill(per_entity.begin(), per_entity.end(), 0.0);
    for (uint32_t e : b->order) {
      per_entity[e] = entity_value(e);
      if (fits && !exactness.Admits(e, per_entity[e], finite)) {
        fits = false;
        if (assume_complete) break;
      }
    }
    if (!fits) {
      ++info->early_rejects;
      if (assume_complete) return {false, cand};
    } else {
      // No NaN got here, so the sort order is total and independent of
      // the order entities are listed in.
      std::vector<std::pair<double, uint32_t>> ranked_entities;
      ranked_entities.reserve(b->order.size());
      for (uint32_t e : b->order) {
        ranked_entities.emplace_back(per_entity[e], e);
      }
      std::sort(ranked_entities.begin(), ranked_entities.end(),
                [&](const auto& x, const auto& y) {
                  if (x.first != y.first)
                    return ascending ? x.first < y.first : x.first > y.first;
                  return rprime_.entity_names()[x.second] <
                         rprime_.entity_names()[y.second];
                });
      TopKList ranked;
      for (const auto& [v, e] : ranked_entities) {
        ranked.Append(rprime_.entity_names()[e], v);
      }
      cand.exact = ranked.InstanceEquals(input, options_.rel_eps);
      if (assume_complete && !cand.exact) return {false, cand};
    }
    // Entity-aligned distance: uncovered entities keep value 0 and pay
    // their full input value.
    cand.distance = NormalizedL1(per_entity, targets);
    return {true, cand};
  };

  // Runs one stage over all groups; returns true if any exact
  // candidate was produced (early-stop signal in complete mode).
  auto run_stage = [&](const Stage& stage, const std::vector<int>& columns)
      -> bool {
    bool any_exact = false;
    for (size_t g = 0; g < groups.size(); ++g) {
      if (gate.exhausted()) break;
      const TupleSet& rows = groups[g].rows;
      auto already_have = [&](const RankExpr& expr) {
        for (const RankingCandidate& existing : rankings[g].candidates) {
          if (existing.expr == expr && existing.agg == stage.agg)
            return true;
        }
        return false;
      };
      auto emit = [&](std::pair<bool, RankingCandidate> scored) {
        if (scored.first) {
          any_exact |= scored.second.exact;
          rankings[g].candidates.push_back(std::move(scored.second));
        }
      };
      if (stage.agg == AggFn::kNone) {
        for (int c : columns) {
          if (gate.Tick() != TerminationReason::kCompleted) break;
          RankExpr expr = RankExpr::Column(c);
          if (!already_have(expr)) emit(score_rows(rows, expr));
        }
        continue;
      }
      const EntityRows* b = entity_rows(g);
      if (stage.two_column) {
        // Materialize the tuple set column-wise once, entity by entity:
        // each entity's values are contiguous, per-entity sums come out
        // of the same pass, and sum(A+B) pairs then combine sums in O(1)
        // per entity without touching the rows. sum(A*B) pairs scan an
        // entity's materialized values (products do not decompose).
        std::vector<std::vector<double>> vals;
        std::vector<std::vector<double>> col_sums;
        if (b != nullptr) {
          vals.assign(measures.size(), std::vector<double>(b->rows->size()));
          col_sums.assign(measures.size(),
                          std::vector<double>(static_cast<size_t>(m)));
          for (size_t ci = 0; ci < measures.size(); ++ci) {
            const Column& col = slice.column(measures[ci]);
            std::vector<double>& v = vals[ci];
            for (size_t e = 0; e < static_cast<size_t>(m); ++e) {
              double s = 0.0;
              for (uint32_t p = b->begin[e]; p < b->begin[e + 1]; ++p) {
                v[p] = col.NumericAt((*b->rows)[p]);
                s += v[p];
              }
              col_sums[ci][e] = s;
            }
          }
        }
        for (size_t i = 0; i < measures.size() && !gate.exhausted(); ++i) {
          for (size_t j = i + 1; j < measures.size(); ++j) {
            if (gate.Tick() != TerminationReason::kCompleted) break;
            if (options_.enable_sum_of_two) {
              RankExpr expr = RankExpr::Add(measures[i], measures[j]);
              if (!already_have(expr)) {
                emit(score_grouped(b, expr, AggFn::kSum, [&](uint32_t e) {
                  return (col_sums[i][e] + col_sums[j][e]) * sum_scale[e];
                }));
              }
            }
            if (options_.enable_product_of_two) {
              RankExpr expr = RankExpr::Mul(measures[i], measures[j]);
              if (!already_have(expr)) {
                emit(score_grouped(b, expr, AggFn::kSum, [&](uint32_t e) {
                  const std::vector<double>& va = vals[i];
                  const std::vector<double>& vb = vals[j];
                  double s = 0.0;
                  for (uint32_t p = b->begin[e]; p < b->begin[e + 1]; ++p) {
                    s += va[p] * vb[p];
                  }
                  return s * sum_scale[e];
                }));
              }
            }
          }
        }
      } else {
        for (int c : columns) {
          if (gate.Tick() != TerminationReason::kCompleted) break;
          RankExpr expr = RankExpr::Column(c);
          if (already_have(expr)) continue;
          const Column& col = slice.column(c);
          emit(score_grouped(b, expr, stage.agg, [&](uint32_t e) {
            AggState st;
            for (uint32_t p = b->begin[e]; p < b->begin[e + 1]; ++p) {
              st.Add(col.NumericAt((*b->rows)[p]));
            }
            double v = st.Finish(stage.agg);
            if (stage.agg == AggFn::kSum) v *= sum_scale[e];
            return v;
          }));
        }
      }
    }
    return any_exact;
  };

  // ---- Figure 4 pre-order walk ----
  std::vector<AggFn> single_aggs = options_.single_column_aggs;
  if (options_.enable_min_count) {
    single_aggs.push_back(AggFn::kMin);
    single_aggs.push_back(AggFn::kCount);
  }
  bool two_column_pending =
      options_.enable_sum_of_two || options_.enable_product_of_two;

  std::vector<Stage> plan;
  for (AggFn agg : single_aggs) {
    if (agg == AggFn::kNone && two_column_pending) {
      plan.push_back({AggFn::kSum, Technique::kRPrimeFallback, true});
      two_column_pending = false;
    }
    if (agg == AggFn::kMax || agg == AggFn::kAvg) {
      plan.push_back({agg, Technique::kTopEntities, false});
      plan.push_back({agg, Technique::kHistogram, false});
    }
    plan.push_back({agg, Technique::kRPrimeFallback, false});
  }
  if (two_column_pending) {
    plan.push_back({AggFn::kSum, Technique::kRPrimeFallback, true});
  }

  // Lazily computed candidate column sets.
  std::vector<int> top_cols, hist_cols;
  bool top_cols_ready = false, hist_cols_ready = false;

  for (const Stage& stage : plan) {
    if (gate.exhausted()) break;
    std::vector<int> columns;
    switch (stage.technique) {
      case Technique::kTopEntities:
        if (!top_cols_ready) {
          top_cols = top_entity_columns();
          top_cols_ready = true;
        }
        if (top_cols.empty()) continue;
        info->used_top_entities = true;
        info->top_entity_candidate_columns =
            static_cast<int>(top_cols.size());
        columns = top_cols;
        break;
      case Technique::kHistogram:
        if (!hist_cols_ready) {
          hist_cols = histogram_columns();
          hist_cols_ready = true;
        }
        if (hist_cols.empty()) continue;
        info->used_histograms = true;
        info->histogram_candidate_columns =
            static_cast<int>(hist_cols.size());
        columns = hist_cols;
        break;
      case Technique::kRPrimeFallback:
        info->used_fallback = true;
        if (!stage.two_column) columns = fallback_columns(stage.agg);
        break;
    }
    bool any_exact = run_stage(stage, columns);
    // Early exit only in complete mode: the first technique producing a
    // valid criterion terminates the walk (Figure 4's shaded subtree).
    if (assume_complete && !exhaustive && any_exact) break;
  }

  // Scored mode keeps only the most plausible criteria per tuple set;
  // otherwise every group carries every criterion and the candidate
  // list explodes with near-duplicates (see PaleoOptions).
  if (!assume_complete && options_.max_criteria_per_group > 0) {
    size_t cap = static_cast<size_t>(options_.max_criteria_per_group);
    for (GroupRanking& gr : rankings) {
      if (gr.candidates.size() <= cap) continue;
      std::stable_sort(gr.candidates.begin(), gr.candidates.end(),
                       [](const RankingCandidate& a,
                          const RankingCandidate& b) {
                         return a.distance < b.distance;
                       });
      gr.candidates.resize(cap);
    }
  }
  info->termination = gate.reason();
  return rankings;
}

}  // namespace paleo
