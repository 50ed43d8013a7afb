// PALEO: reverse engineering top-k database queries.
//
// This is the library's main entry point. Given a base relation R and
// a top-k input list L, PALEO finds SQL queries of the form
//
//   SELECT e, agg(expr) FROM R WHERE P1 AND P2 AND ...
//   GROUP BY e ORDER BY agg(expr) DESC LIMIT k
//
// whose result over R is (exactly or approximately) L.
//
// Typical use:
//
//   Paleo paleo(&table, PaleoOptions{});
//   RunRequest request;
//   request.input = &input_list;
//   auto report = paleo.Run(request);
//   if (report.ok() && report->found()) {
//     std::cout << report->valid[0].query.ToSql(table.schema());
//   }
//
// Construction builds the B+ tree entity index and the statistics
// catalog once; Run(const RunRequest&) executes the three-step
// pipeline of Figure 2 (find predicates -> find ranking criteria ->
// validate candidate queries) for one input list. The RunRequest
// carries everything that varies per request — the input, an optional
// sample spec (Section 6.4), budget, thread pool, per-request options
// override, and observability sinks (a MetricsRegistry and a trace
// switch) — so one canonical entry point serves sequential, sampled,
// and concurrent callers alike.

#ifndef PALEO_PALEO_PALEO_H_
#define PALEO_PALEO_PALEO_H_

#include <memory>
#include <vector>

#include "common/run_budget.h"
#include "common/status.h"
#include "engine/executor.h"
#include "engine/topk_list.h"
#include "index/dimension_index.h"
#include "index/entity_index.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "paleo/candidate_query.h"
#include "paleo/pipeline_metrics.h"
#include "paleo/options.h"
#include "paleo/predicate_miner.h"
#include "paleo/ranking_finder.h"
#include "paleo/sampler.h"
#include "paleo/validator.h"
#include "stats/catalog.h"
#include "storage/table.h"

namespace paleo {

class ThreadPool;

/// \brief Wall-clock cost of the three pipeline steps (Figure 7).
struct StepTimings {
  double find_predicates_ms = 0.0;
  double find_ranking_ms = 0.0;
  double validation_ms = 0.0;
  double total_ms() const {
    return find_predicates_ms + find_ranking_ms + validation_ms;
  }
};

/// \brief Full account of one reverse-engineering run.
struct ReverseEngineerReport {
  /// Valid queries in discovery order (first entry is the paper's
  /// "first valid query").
  std::vector<ValidQuery> valid;
  bool found() const { return !valid.empty(); }

  /// Candidate counts per pipeline stage.
  int64_t candidate_predicates = 0;
  std::vector<int> predicates_by_size;  // index = |P|
  int64_t tuple_sets = 0;
  int64_t candidate_queries = 0;

  /// Validation effort. executed_queries counts committed executions
  /// and is identical under sequential and parallel validation;
  /// speculative_executions counts parallel-only discarded look-ahead
  /// work (always 0 sequentially).
  int64_t executed_queries = 0;
  int64_t speculative_executions = 0;
  int64_t skip_events = 0;
  /// Executions the threshold monitor refuted mid-scan (a subset of
  /// executed_queries) and the base-table rows those aborts left
  /// unscanned; both 0 with options.threshold_pruning off. Side
  /// observations only: the valid set is identical with pruning on or
  /// off.
  int64_t executions_aborted_early = 0;
  int64_t rows_saved = 0;

  /// R' shape.
  int64_t rprime_rows = 0;
  size_t rprime_bytes = 0;

  StepTimings timings;
  RankingSearchInfo ranking_info;

  /// Why the run stopped. kCompleted means the pipeline ran to
  /// exhaustion (the only possible value without a RunBudget); any
  /// other value means the budget ran out and `valid` holds only what
  /// was confirmed before that.
  TerminationReason termination = TerminationReason::kCompleted;

  /// When the budget ran out mid-validation: the best candidates (in
  /// suitability order, capped) that never got executed against R.
  /// They are PALEO's ranked best guesses at the answer — unvalidated,
  /// but actionable.
  std::vector<CandidateQuery> near_misses;

  /// Graceful-degradation events observed during the run: executor
  /// scalar fallbacks (selection-allocation failure or cache memory
  /// pressure) plus atom-cache shrinks. 0 for a fully healthy run.
  /// Degraded runs produce byte-identical results — only reuse and
  /// wall-clock suffer. Mirrored into paleo_degraded_runs_total.
  int64_t degraded_events = 0;

  /// The scored candidate list (retained when
  /// PaleoOptions-independent `keep_candidates` argument is set).
  std::vector<CandidateQuery> candidates;

  /// The run's span tree (set when RunRequest::collect_trace; shared
  /// so the report stays copyable). Root span "run" with children
  /// "find_predicates" / "find_ranking" / "validate" (and "deepen"
  /// when the progressive-deepening pass ran); per-candidate
  /// "execute" / "commit" spans hang under the validation spans.
  std::shared_ptr<obs::Trace> trace;
};

/// \brief Everything that varies per reverse-engineering request.
///
/// All pointers are non-owning and must outlive the Run() call. Only
/// `input` is required; the zero-initialised remainder reproduces the
/// classic Run(input) behaviour with a private per-call executor.
struct RunRequest {
  /// The top-k list L to reverse engineer. Required.
  const TopKList* input = nullptr;

  /// Sample spec (Section 6.4): when `sample_rows` is set the pipeline
  /// runs on that sample of R's rows (sorted global row ids, e.g. from
  /// Sampler) with relaxed coverage — CoverageRatioForSample(
  /// sample_fraction) unless `coverage_ratio_override` > 0 — and the
  /// probabilistic suitability model (assume_complete = false).
  const std::vector<RowId>* sample_rows = nullptr;
  double sample_fraction = 1.0;
  double coverage_ratio_override = -1.0;

  /// Retain the scored candidate list in the report.
  bool keep_candidates = false;

  /// Caller-side resource limits layered on top of the options'
  /// deadline_ms / max_validation_executions knobs; the tighter limit
  /// wins. Budget exhaustion is not an error (see the report's
  /// `termination` / `near_misses`).
  const RunBudget* budget = nullptr;

  /// Enables parallel candidate validation when the effective options'
  /// num_threads > 1.
  ThreadPool* pool = nullptr;

  /// Replaces the instance options for this request — e.g. a
  /// per-request deadline_ms — while still using the indexes built at
  /// construction (a request cannot enable use_dimension_index if the
  /// instance was built without it). This is the only supported way to
  /// vary options per request; the instance options are immutable.
  const PaleoOptions* options_override = nullptr;

  /// Executor to run candidate queries through. nullptr (the default)
  /// gives the request a private stack-local executor, which is what
  /// makes Run() safe to call concurrently; passing one (e.g.
  /// Paleo::executor()) accumulates its Stats across runs at the cost
  /// of that thread safety.
  Executor* executor = nullptr;

  /// Observability sinks. `metrics` (not owned) receives the
  /// paleo_* counters and histograms (see paleo/pipeline_metrics.h);
  /// `collect_trace` builds the report's span tree. Both default off,
  /// costing one branch per would-be event.
  obs::MetricsRegistry* metrics = nullptr;
  bool collect_trace = false;
};

/// \brief The PALEO system bound to one base relation.
///
/// Thread safety: once built, everything the pipeline reads (table,
/// entity index, catalog, dimension index, the instance options) is
/// immutable, so any number of threads may call Run(const RunRequest&)
/// on one instance simultaneously as long as each request leaves
/// RunRequest::executor null (the default) — each call then gets its
/// own Executor and leaves the instance untouched. This is the entry
/// point the DiscoveryService serves requests through. Requests that
/// pass executor() share the member executor and are single-threaded.
class Paleo {
 public:
  /// `base` must outlive this object. Builds the entity index and the
  /// statistics catalog (the "computed upfront" structures).
  Paleo(const Table* base, PaleoOptions options);

  /// Binds to PREBUILT upfront structures instead of building them —
  /// the table catalog's ingestion path, where index and catalog are
  /// extended incrementally from the previous snapshot. Behaves
  /// exactly like the building constructor given equal structures.
  /// `base` must outlive this object; `dimension_index` may be null
  /// only when options.use_dimension_index is off.
  Paleo(const Table* base, PaleoOptions options, EntityIndex index,
        StatsCatalog catalog,
        std::unique_ptr<DimensionIndex> dimension_index);

  const Table& base() const { return *base_; }
  const PaleoOptions& options() const { return options_; }
  const EntityIndex& index() const { return index_; }
  const StatsCatalog& catalog() const { return catalog_; }
  /// Null unless options().use_dimension_index.
  const DimensionIndex* dimension_index() const {
    return dimension_index_.get();
  }
  Executor* executor() { return &executor_; }

  /// The canonical entry point: reverse engineers `*request.input`
  /// against the full R' (Sections 3-5, 7) or the request's sample
  /// (Section 6.4), under the request's budget/options/observability.
  /// Thread-safe when request.executor is null (the default).
  StatusOr<ReverseEngineerReport> Run(const RunRequest& request) const;

 private:
  StatusOr<ReverseEngineerReport> RunImpl(const RunRequest& request,
                                          const PaleoOptions& options,
                                          Executor* executor,
                                          const PipelineMetrics& metrics,
                                          obs::Trace* trace) const;

  const Table* base_;
  const PaleoOptions options_;
  EntityIndex index_;
  StatsCatalog catalog_;
  // Built only when options_.use_dimension_index.
  std::unique_ptr<DimensionIndex> dimension_index_;
  Executor executor_;
};

}  // namespace paleo

#endif  // PALEO_PALEO_PALEO_H_
