#include "paleo/paleo.h"

#include <algorithm>
#include <memory>
#include <unordered_set>
#include <utility>

#include "common/timer.h"
#include "engine/atom_cache.h"
#include "paleo/rprime.h"

namespace paleo {

namespace {

/// Near misses surfaced on budget exhaustion are capped: they are best
/// guesses for a human (or a retry with a larger budget), not an
/// exhaustive dump of the candidate space.
constexpr size_t kMaxNearMisses = 16;

/// Copies the unvalidated candidates (ascending index = suitability
/// order) into the report's near-miss list, up to the cap.
void AppendNearMisses(const std::vector<CandidateQuery>& candidates,
                      const std::vector<size_t>& unvalidated,
                      ReverseEngineerReport* report) {
  for (size_t idx : unvalidated) {
    if (report->near_misses.size() >= kMaxNearMisses) break;
    report->near_misses.push_back(candidates[idx]);
  }
}

}  // namespace

Paleo::Paleo(const Table* base, PaleoOptions options)
    : base_(base),
      options_(std::move(options)),
      index_(EntityIndex::Build(*base)),
      catalog_(StatsCatalog::Build(*base)) {
  executor_.SetVectorized(options_.vectorized_execution);
  if (options_.use_dimension_index) {
    dimension_index_ =
        std::make_unique<DimensionIndex>(DimensionIndex::Build(*base));
    executor_.SetDimensionIndex(dimension_index_.get(), base_);
  }
}

Paleo::Paleo(const Table* base, PaleoOptions options, EntityIndex index,
             StatsCatalog catalog,
             std::unique_ptr<DimensionIndex> dimension_index)
    : base_(base),
      options_(std::move(options)),
      index_(std::move(index)),
      catalog_(std::move(catalog)),
      dimension_index_(std::move(dimension_index)) {
  executor_.SetVectorized(options_.vectorized_execution);
  if (options_.use_dimension_index && dimension_index_ != nullptr) {
    executor_.SetDimensionIndex(dimension_index_.get(), base_);
  }
}

StatusOr<ReverseEngineerReport> Paleo::Run(const RunRequest& request) const {
  if (request.input == nullptr) {
    return Status::InvalidArgument("RunRequest.input must be set");
  }
  const PaleoOptions& options = request.options_override != nullptr
                                    ? *request.options_override
                                    : options_;

  // A request-private executor is what makes this call thread-safe;
  // callers that pass their own (tooling that wants cumulative Stats)
  // opt out of that.
  Executor local_executor;
  Executor* executor = request.executor;
  if (executor == nullptr) {
    executor = &local_executor;
    local_executor.SetVectorized(options.vectorized_execution);
    if (dimension_index_ != nullptr && options.use_dimension_index) {
      local_executor.SetDimensionIndex(dimension_index_.get(), base_);
    }
  }

  PipelineMetrics metrics = PipelineMetrics::Bind(request.metrics);
  if (request.executor == nullptr) {
    // Mirror the executor's counters into the registry. A
    // caller-provided executor keeps whatever binding its owner chose
    // (it may be shared across runs with a different registry).
    executor->SetMetrics({metrics.executor_queries,
                          metrics.executor_rows_scanned,
                          metrics.executor_index_assisted,
                          metrics.chunks_skipped, metrics.morsels,
                          metrics.rows_saved_by_threshold,
                          metrics.scan_parallelism});
  }

  std::shared_ptr<obs::Trace> trace;
  if (request.collect_trace) trace = std::make_shared<obs::Trace>();

  obs::Inc(metrics.runs_total);
  Timer run_timer;
  auto result = RunImpl(request, options, executor, metrics, trace.get());
  obs::Observe(metrics.run_ms, run_timer.ElapsedMillis());
  if (result.ok()) {
    if (result->found()) obs::Inc(metrics.runs_found);
    result->trace = std::move(trace);
  }
  return result;
}

StatusOr<ReverseEngineerReport> Paleo::RunImpl(
    const RunRequest& request, const PaleoOptions& options,
    Executor* executor, const PipelineMetrics& metrics,
    obs::Trace* trace) const {
  const TopKList& input = *request.input;
  const std::vector<RowId>* sample_rows = request.sample_rows;
  const bool assume_complete = sample_rows == nullptr;
  const double coverage_ratio =
      assume_complete ? options.coverage_ratio
      : request.coverage_ratio_override > 0.0
          ? request.coverage_ratio_override
          : CoverageRatioForSample(request.sample_fraction);
  const bool keep_candidates = request.keep_candidates;

  ReverseEngineerReport report;

  // Degradation accounting is a delta over the run: the executor may
  // be caller-provided and shared across runs, so its cumulative
  // counter cannot be read directly. relaxed: sampling a pure tally.
  const int64_t scalar_fallbacks_before =
      executor->stats().scalar_fallbacks.load(std::memory_order_relaxed);
  const int64_t rows_saved_before =
      executor->stats().rows_saved.load(std::memory_order_relaxed);

  obs::ScopedSpan run_span(trace, "run");
  run_span.AddAttr("k", static_cast<int64_t>(input.size()));
  run_span.AddAttr("sampled", static_cast<int64_t>(!assume_complete));

  // ---- Resource governance ----
  // The effective budget is the intersection of the options' knobs
  // (deadline_ms anchored at this call, max_validation_executions) and
  // the caller's external budget (deadline, cap, cancellation token).
  // With neither configured, `governed` stays nullptr and every stage
  // runs exactly as the ungoverned paper pipeline.
  RunBudget budget;
  budget.SetDeadlineAfterMillis(options.deadline_ms);
  budget.set_max_executions(options.max_validation_executions);
  if (request.budget != nullptr) budget.Tighten(*request.budget);
  const RunBudget* governed = budget.IsUnlimited() ? nullptr : &budget;
  // The first stage to exhaust the budget names the reason; later
  // stages are skipped or wound down and cannot overwrite it.
  auto note_termination = [&report](TerminationReason reason) {
    if (report.termination == TerminationReason::kCompleted) {
      report.termination = reason;
    }
  };

  // ---- Step 1: retrieve R' and mine candidate predicates ----
  Timer step_timer;
  obs::ScopedSpan mine_span(trace, "find_predicates", run_span.id());
  PALEO_ASSIGN_OR_RETURN(RPrime rprime,
                         RPrime::Build(*base_, index_, input, sample_rows));
  report.rprime_rows = static_cast<int64_t>(rprime.num_rows());
  report.rprime_bytes = rprime.table().MemoryUsage();

  PaleoOptions step_options = options;
  step_options.coverage_ratio = coverage_ratio;
  PredicateMiner miner(rprime, step_options);
  PALEO_ASSIGN_OR_RETURN(MiningResult mining, miner.Mine(governed));
  note_termination(mining.termination);
  report.candidate_predicates =
      static_cast<int64_t>(mining.predicates.size());
  report.predicates_by_size = mining.predicates_by_size;
  report.tuple_sets = static_cast<int64_t>(mining.groups.size());
  report.timings.find_predicates_ms = step_timer.ElapsedMillis();
  obs::Inc(metrics.candidate_predicates, report.candidate_predicates);
  obs::Observe(metrics.step_find_predicates_ms,
               report.timings.find_predicates_ms);
  mine_span.AddAttr("rprime_rows", report.rprime_rows);
  mine_span.AddAttr("candidate_predicates", report.candidate_predicates);
  mine_span.AddAttr("tuple_sets", report.tuple_sets);
  mine_span.End();

  // ---- Step 2: identify ranking criteria ----
  step_timer.Reset();
  obs::ScopedSpan rank_span(trace, "find_ranking", run_span.id());
  RankingFinder finder(rprime, &catalog_, step_options);
  PALEO_ASSIGN_OR_RETURN(
      std::vector<GroupRanking> rankings,
      finder.Find(mining.groups, input, assume_complete,
                  &report.ranking_info, /*exhaustive=*/false, governed));
  note_termination(report.ranking_info.termination);

  // ORDER BY direction: ascending only when the input values are
  // non-decreasing with at least one increase (matching the ranking
  // finder's detection).
  std::vector<double> input_values = input.Values();
  const SortOrder order =
      std::is_sorted(input_values.begin(), input_values.end()) &&
              !std::is_sorted(input_values.rbegin(), input_values.rend())
          ? SortOrder::kAsc
          : SortOrder::kDesc;

  ProbModel model(catalog_, rprime);
  model.set_use_observed_match_rate(options.use_observed_match_rate);
  std::vector<CandidateQuery> candidates = BuildCandidateQueries(
      mining, rankings, model, static_cast<int>(input.size()), order,
      options.lattice_aware_order);
  report.candidate_queries = static_cast<int64_t>(candidates.size());
  report.timings.find_ranking_ms = step_timer.ElapsedMillis();
  obs::Inc(metrics.candidate_queries, report.candidate_queries);
  obs::Observe(metrics.step_find_ranking_ms,
               report.timings.find_ranking_ms);
  rank_span.AddAttr("tuple_set_evaluations",
                    report.ranking_info.tuple_set_evaluations);
  rank_span.AddAttr("candidate_queries", report.candidate_queries);
  rank_span.End();

  // ---- Step 3: validate candidate queries against R ----
  // One atom-selection cache per run, shared by the main validation and
  // the progressive-deepening retry below (and across all pool workers
  // within them): the candidates share almost all of their predicate
  // atoms, so each distinct atom is scanned once per run instead of
  // once per candidate. Scoped to the run because the cache pins bitmap
  // memory and the candidate sets of different runs rarely overlap.
  std::unique_ptr<AtomSelectionCache> atom_cache;
  if (executor->vectorized() && options.atom_cache_bytes > 0) {
    atom_cache = std::make_unique<AtomSelectionCache>(
        options.atom_cache_bytes,
        AtomSelectionCache::MetricHandles{
            metrics.cache_hits, metrics.cache_misses,
            metrics.cache_evictions, metrics.cache_resident_bytes});
  }
  step_timer.Reset();
  obs::ScopedSpan validate_span(trace, "validate", run_span.id());
  Validator validator(*base_, executor, options, request.pool, metrics,
                      obs::TraceContext{trace, validate_span.id()},
                      atom_cache.get());
  ValidationOutcome outcome;
  if (report.termination == TerminationReason::kCompleted) {
    PALEO_ASSIGN_OR_RETURN(
        outcome, validator.Validate(candidates, input, governed,
                                    /*prior_executions=*/0));
    note_termination(outcome.termination);
    AppendNearMisses(candidates, outcome.unvalidated, &report);
  } else {
    // The budget ran out before validation started: nothing was
    // executed, so every assembled candidate is a near miss.
    for (size_t i = 0;
         i < candidates.size() && i < kMaxNearMisses; ++i) {
      report.near_misses.push_back(candidates[i]);
    }
  }
  report.valid = std::move(outcome.valid);
  report.executed_queries = outcome.executions;
  report.speculative_executions = outcome.speculative_executions;
  report.skip_events = outcome.skip_events;
  report.executions_aborted_early = outcome.refuted_early;
  report.timings.validation_ms = step_timer.ElapsedMillis();
  obs::Observe(metrics.step_validation_ms, report.timings.validation_ms);
  validate_span.AddAttr("executed", outcome.executions);
  validate_span.AddAttr("skipped", outcome.skip_events);
  validate_span.AddAttr("valid",
                        static_cast<int64_t>(report.valid.size()));
  validate_span.End();

  // ---- Progressive deepening (complete R' only) ----
  // The Figure 4 walk stops at the first technique with exact criteria,
  // which is usually right but can be shadowed by a coincidental exact
  // match (e.g. max == avg == sum over one-row tuple sets). If nothing
  // validated against R, redo the ranking search exhaustively and
  // validate only the criteria the first pass did not try. Skipped
  // when the budget is already exhausted — the near misses above are
  // the best answer the budget affords.
  if (assume_complete && report.valid.empty() &&
      report.termination == TerminationReason::kCompleted) {
    obs::ScopedSpan deepen_span(trace, "deepen", run_span.id());
    step_timer.Reset();
    obs::ScopedSpan deep_rank_span(trace, "find_ranking",
                                   deepen_span.id());
    RankingSearchInfo deep_info;
    PALEO_ASSIGN_OR_RETURN(
        std::vector<GroupRanking> all_rankings,
        finder.Find(mining.groups, input, /*assume_complete=*/true,
                    &deep_info, /*exhaustive=*/true, governed));
    note_termination(deep_info.termination);
    std::vector<CandidateQuery> all_candidates = BuildCandidateQueries(
        mining, all_rankings, model, static_cast<int>(input.size()), order,
        options.lattice_aware_order);
    std::unordered_set<uint64_t> already_tried;
    for (const CandidateQuery& cq : candidates) {
      already_tried.insert(cq.query.Hash());
    }
    std::vector<CandidateQuery> fresh;
    for (CandidateQuery& cq : all_candidates) {
      if (already_tried.count(cq.query.Hash()) == 0) {
        fresh.push_back(std::move(cq));
      }
    }
    report.candidate_queries =
        static_cast<int64_t>(candidates.size() + fresh.size());
    report.timings.find_ranking_ms += step_timer.ElapsedMillis();
    obs::Inc(metrics.candidate_queries,
             static_cast<int64_t>(fresh.size()));
    deep_rank_span.AddAttr("fresh_candidates",
                           static_cast<int64_t>(fresh.size()));
    deep_rank_span.End();

    step_timer.Reset();
    obs::ScopedSpan deep_validate_span(trace, "validate",
                                       deepen_span.id());
    Validator deep_validator(
        *base_, executor, options, request.pool, metrics,
        obs::TraceContext{trace, deep_validate_span.id()},
        atom_cache.get());
    ValidationOutcome retry;
    if (report.termination == TerminationReason::kCompleted) {
      PALEO_ASSIGN_OR_RETURN(
          retry, deep_validator.Validate(fresh, input, governed,
                                         report.executed_queries));
      note_termination(retry.termination);
      AppendNearMisses(fresh, retry.unvalidated, &report);
    } else {
      for (size_t i = 0;
           i < fresh.size() && report.near_misses.size() < kMaxNearMisses;
           ++i) {
        report.near_misses.push_back(fresh[i]);
      }
    }
    for (ValidQuery& vq : retry.valid) {
      vq.executions_at_discovery += report.executed_queries;
      report.valid.push_back(std::move(vq));
    }
    report.executed_queries += retry.executions;
    report.speculative_executions += retry.speculative_executions;
    report.skip_events += retry.skip_events;
    report.executions_aborted_early += retry.refuted_early;
    report.timings.validation_ms += step_timer.ElapsedMillis();
    obs::Observe(metrics.step_validation_ms, step_timer.ElapsedMillis());
    deep_validate_span.AddAttr("executed", retry.executions);
    deep_validate_span.AddAttr(
        "valid", static_cast<int64_t>(retry.valid.size()));
    deep_validate_span.End();
    if (keep_candidates) {
      for (CandidateQuery& cq : fresh) candidates.push_back(std::move(cq));
    }
  }

  obs::Inc(metrics.near_misses,
           static_cast<int64_t>(report.near_misses.size()));
  // relaxed: delta of a pure tally (see the matching load above).
  report.degraded_events =
      executor->stats().scalar_fallbacks.load(std::memory_order_relaxed) -
      scalar_fallbacks_before;
  // relaxed: same delta pattern — threshold aborts tally rows skipped.
  report.rows_saved =
      executor->stats().rows_saved.load(std::memory_order_relaxed) -
      rows_saved_before;
  if (atom_cache != nullptr) {
    report.degraded_events += atom_cache->stats().pressure_events;
  }
  if (report.degraded_events > 0) obs::Inc(metrics.degraded_runs);
  run_span.AddAttr("termination",
                   TerminationReasonToString(report.termination));
  run_span.AddAttr("valid", static_cast<int64_t>(report.valid.size()));

  if (keep_candidates) report.candidates = std::move(candidates);
  return report;
}

}  // namespace paleo
