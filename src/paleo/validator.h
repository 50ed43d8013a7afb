// Candidate query validation against the base relation (Sections 3.2
// and 7).
//
// Two strategies (options.validation_strategy). Ranked validation
// executes candidates in suitability order until a valid query
// appears. Smart validation is the paper's Algorithm 3: it
// additionally learns from the first execution whose entity overlap
// with L crosses the Jaccard threshold ("first match query" Qfm) and
// skips candidates that share no predicate atoms with Qfm — and, once
// the ranking criterion is confirmed by value overlap, candidates with
// a different criterion. Skipped candidates are retried in later
// passes, so no valid query is ever lost.
//
// One scheduler runs both: a rank-order-commit loop that decides
// every candidate — budget, skip rule, acceptance, Qfm — at its commit
// turn, strictly in suitability order. It has two modes:
//
//  * Inline (no pool, options.num_threads <= 1, or fewer than two
//    candidates): each candidate executes on the calling thread at its
//    commit turn, under the request's own RunBudget. Traced as one
//    "execute" span per executed candidate.
//  * Pooled (a ThreadPool and options.num_threads > 1): up to
//    max(2, num_threads) candidates execute ahead on the pool while
//    results still commit in rank order. A look-ahead execution the
//    commit turn skips is discarded (speculative_executions) and
//    retried next pass; the first validated query, an exhausted
//    budget or a hard error cancels the outstanding siblings through a
//    CancellationToken wired into their executions. Traced as one
//    "commit" span per committed candidate.
//
// The outcome — valid set, executions, skip events, passes,
// termination, unvalidated candidates and the refutation split — is
// the same in both modes; only wall clock and the
// speculative_executions side counter differ.
//
// With a RunBudget the loop polls the deadline/cancellation before
// every commit (and the executor polls mid-scan), counts executions
// against the budget's cap, and on exhaustion winds down gracefully —
// the outcome keeps every query validated so far, records the
// termination reason, and lists the candidates that never got
// executed so the caller can surface them as near misses.

#ifndef PALEO_PALEO_VALIDATOR_H_
#define PALEO_PALEO_VALIDATOR_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/run_budget.h"
#include "common/status.h"
#include "engine/executor.h"
#include "obs/trace.h"
#include "paleo/candidate_query.h"
#include "paleo/options.h"
#include "paleo/pipeline_metrics.h"

namespace paleo {

class AtomSelectionCache;
class EntityIndex;
class ThreadPool;
class ThresholdMonitor;

/// \brief One validated (accepted) query.
struct ValidQuery {
  TopKQuery query;
  /// Executions performed up to and including this query's validation.
  int64_t executions_at_discovery = 0;
};

/// \brief Outcome of a validation run.
struct ValidationOutcome {
  std::vector<ValidQuery> valid;
  int64_t executions = 0;
  /// Candidates skipped at least once by the smart strategy.
  int64_t skip_events = 0;
  /// Passes over the candidate list (smart strategy; 1 for ranked, even
  /// over an empty list).
  int passes = 0;
  /// kCompleted when every candidate was considered; otherwise the
  /// RunBudget ran out and `unvalidated` lists the indices (into the
  /// input candidate vector, ascending = suitability order) that were
  /// never executed.
  TerminationReason termination = TerminationReason::kCompleted;
  std::vector<size_t> unvalidated;
  /// Pooled mode only: look-ahead executions whose results were
  /// discarded because the commit turn skipped (or never reached) them.
  /// Not counted in `executions`.
  int64_t speculative_executions = 0;
  /// Executions the threshold monitor aborted mid-scan (counted in
  /// `executions` too: a refuted candidate is an executed-and-rejected
  /// candidate that happened to stop early).
  int64_t refuted_early = 0;
  /// `refuted_early` split by the rule that refuted (RefutationRule):
  /// the exact pre-pass over L's rows, the first-match goal of smart
  /// validation's first phase, and the acceptance goal's bounds.
  int64_t refuted_by_prepass = 0;
  int64_t refuted_by_first_match = 0;
  int64_t refuted_by_bounds = 0;
  bool found() const { return !valid.empty(); }
};

/// \brief Executes candidate queries against R and accepts matches.
class Validator {
 public:
  /// `pool` (optional, not owned) enables pooled mode when
  /// options.num_threads > 1; nullptr keeps every run inline.
  ///
  /// `metrics` (nullable handles) and `trace` (null trace = off) report
  /// per-candidate outcomes: one "execute" span per inline execution,
  /// one "commit" span per pooled commit, both recorded from the commit
  /// loop only (a Trace is not thread-safe, so pool workers never touch
  /// it).
  /// `cache` (optional, not owned, internally synchronized) is the
  /// run's shared AtomSelectionCache: every candidate execution —
  /// inline or across pool workers — passes it to the executor so
  /// candidates sharing predicate atoms reuse each other's selection
  /// bitmaps instead of rescanning R.
  /// `entity_index` (optional, not owned) must index `base`; the
  /// threshold monitor reads L's rows from it instead of passing over
  /// the entity column once per validation run.
  Validator(const Table& base, Executor* executor,
            const PaleoOptions& options, ThreadPool* pool = nullptr,
            PipelineMetrics metrics = {}, obs::TraceContext trace = {},
            AtomSelectionCache* cache = nullptr,
            const EntityIndex* entity_index = nullptr)
      : base_(base),
        executor_(executor),
        options_(options),
        pool_(pool),
        metrics_(metrics),
        trace_(trace),
        cache_(cache),
        entity_index_(entity_index) {}

  /// Exact instance-equivalence or partial-match acceptance, per
  /// options.match_mode.
  bool Accepts(const TopKList& result, const TopKList& input) const;

  /// Validates `candidates` (in suitability order) against `input`
  /// with options.validation_strategy, inline or pooled (see the file
  /// comment). `prior_executions` is the pipeline-wide execution count
  /// before this call, charged against the budget's execution cap.
  StatusOr<ValidationOutcome> Validate(
      const std::vector<CandidateQuery>& candidates, const TopKList& input,
      const RunBudget* budget = nullptr,
      int64_t prior_executions = 0) const;

 private:
  /// The run's ThresholdMonitor (engine/threshold_monitor.h), or
  /// nullptr when pruning is off, the match mode is not exact (a
  /// refuted scan has no result list to partial-score), there are no
  /// candidates, or the monitor deactivated itself (unsorted /
  /// unresolvable input). All candidates of one run share one sort
  /// order (BuildCandidateQueries stamps it), so one monitor serves
  /// every execution; the executor re-checks applicability per query.
  /// Executions choose the monitor's goal: kFirstMatch while smart
  /// validation still looks for Qfm, kAccept otherwise.
  std::unique_ptr<ThresholdMonitor> MakeMonitor(
      const std::vector<CandidateQuery>& candidates,
      const TopKList& input) const;

  const Table& base_;
  Executor* executor_;
  const PaleoOptions& options_;
  ThreadPool* pool_ = nullptr;
  PipelineMetrics metrics_;
  obs::TraceContext trace_;
  AtomSelectionCache* cache_ = nullptr;
  const EntityIndex* entity_index_ = nullptr;
};

}  // namespace paleo

#endif  // PALEO_PALEO_VALIDATOR_H_
