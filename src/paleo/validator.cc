#include "paleo/validator.h"

#include <algorithm>
#include <future>
#include <memory>
#include <numeric>
#include <string_view>
#include <utility>

#include "common/fault_points.h"
#include "common/thread_pool.h"
#include "engine/threshold_monitor.h"
#include "stats/distance.h"

namespace paleo {

namespace {

/// Maps an exhausted budget to its reason; used after the budget check
/// or the executor reported interruption. Falls back to kCancelled
/// when the budget itself no longer reports exhaustion (only possible
/// with an externally reset token).
TerminationReason ExhaustionReason(const RunBudget* budget,
                                   int64_t executions_used) {
  if (budget == nullptr) return TerminationReason::kCancelled;
  TerminationReason reason = budget->Check(executions_used);
  return reason == TerminationReason::kCompleted
             ? TerminationReason::kCancelled
             : reason;
}

/// Tallies one refuted execution under the rule that refuted it, and
/// names the rule on the execution's span.
void CountRefutation(RefutationRule rule, ValidationOutcome* outcome,
                     obs::ScopedSpan* span) {
  ++outcome->refuted_early;
  switch (rule) {
    case RefutationRule::kPrePass:
      ++outcome->refuted_by_prepass;
      break;
    case RefutationRule::kFirstMatch:
      ++outcome->refuted_by_first_match;
      break;
    case RefutationRule::kBounds:
      ++outcome->refuted_by_bounds;
      break;
    case RefutationRule::kNone:
      break;  // the executor names the rule of every refutation
  }
  span->AddAttr("refuted_early", int64_t{1});
  span->AddAttr("refuted_by", std::string_view(RefutationRuleName(rule)));
}

/// One candidate execution's outcome. Pooled mode carries it through a
/// future, default-constructed (ran == false) when the pool skipped the
/// task because the sibling-cancellation token had already tripped.
struct ExecResult {
  Status status = Status::OK();
  TopKList list;
  bool ran = false;
  RefutationRule refuted_by = RefutationRule::kNone;
  ExecAccess access = ExecAccess::kScan;
};

}  // namespace

std::unique_ptr<ThresholdMonitor> Validator::MakeMonitor(
    const std::vector<CandidateQuery>& candidates,
    const TopKList& input) const {
  if (!options_.threshold_pruning ||
      options_.match_mode != MatchMode::kExact || candidates.empty()) {
    return nullptr;
  }
  auto monitor = std::make_unique<ThresholdMonitor>(
      base_, input, candidates.front().query.order, options_.rel_eps,
      options_.smart_jaccard_threshold, entity_index_);
  if (!monitor->active()) return nullptr;
  return monitor;
}

bool Validator::Accepts(const TopKList& result, const TopKList& input) const {
  if (options_.match_mode == MatchMode::kExact) {
    return result.InstanceEquals(input, options_.rel_eps);
  }
  // Partial match (Section 3.3): entity-set similarity plus bounded
  // value distance.
  if (result.empty()) return false;
  double entity_sim = result.EntityJaccard(input);
  if (entity_sim < options_.partial_min_entity_jaccard) return false;
  std::vector<double> rv = result.Values();
  std::vector<double> iv = input.Values();
  double value_dist = NormalizedL1(rv, iv);
  return value_dist <= options_.partial_max_value_distance;
}

StatusOr<ValidationOutcome> Validator::Validate(
    const std::vector<CandidateQuery>& candidates, const TopKList& input,
    const RunBudget* budget, int64_t prior_executions) const {
  // Chaos hook: an injected Cancelled here exercises the wind-down
  // path from the validation boundary; any other code fails the run.
  FaultResult fault = PALEO_FAULT_POINT("validator.validate.begin");
  if (fault.error()) return fault.status;
  const bool smart =
      options_.validation_strategy == ValidationStrategy::kSmart;
  const bool pooled =
      pool_ != nullptr && options_.num_threads > 1 && candidates.size() > 1;
  // Look-ahead depth: pooled mode keeps one execution in flight per
  // configured validation thread. It is also the speculation depth —
  // results past the commit point may be discarded, so oversizing it
  // wastes executions without adding concurrency. Inline mode launches
  // nothing ahead: each candidate runs on this thread at its commit.
  const size_t window =
      pooled ? static_cast<size_t>(std::max(2, options_.num_threads)) : 0;
  const double tau = options_.smart_jaccard_threshold;
  ValidationOutcome outcome;

  // Pooled mode trips `stop` when validation stops needing its
  // outstanding executions: first valid query found
  // (stop_at_first_valid), budget exhausted, or a hard execution error.
  // Queued siblings are then skipped by the pool; in-flight ones abort
  // at their next mid-scan budget poll. Pool tasks run under the
  // request's deadline plus `stop`; the request's own cancellation
  // token is polled by this loop (which then trips `stop`), so a
  // request cancel reaches in-flight scans with at most one commit of
  // latency. Inline executions run under the request's budget itself.
  CancellationToken stop;
  RunBudget task_budget;
  if (pooled) {
    if (budget != nullptr) task_budget = *budget;
    task_budget.set_max_executions(0);  // cap is enforced at commit
    task_budget.set_cancellation_token(&stop);
  }
  // Every execution carries the threshold monitor, under the goal the
  // schedule needs when the execution starts: the first-match goal
  // while smart validation still looks for Qfm, the acceptance goal
  // otherwise. A first-match refutation proves "not accepted" too, so
  // a look-ahead execution that commits after Qfm is rejected exactly
  // as an acceptance-goal one would be; only the refuted_* side
  // counters may differ.
  const std::unique_ptr<ThresholdMonitor> monitor =
      MakeMonitor(candidates, input);
  const ExecContext exec_ctx{.budget = pooled ? &task_budget : budget,
                             .cache = cache_,
                             .pool = pool_,
                             .scan_threads = options_.scan_threads,
                             .threshold = monitor.get()};
  auto execute = [this, &exec_ctx](const CandidateQuery& cq,
                                   ThresholdGoal goal) {
    ExecResult r;
    r.ran = true;
    ExecContext ctx = exec_ctx;
    ctx.threshold_goal = goal;
    ctx.refuted_by = &r.refuted_by;
    ctx.access = &r.access;
    auto executed = executor_->Execute(base_, cq.query, ctx);
    if (executed.ok()) {
      r.list = std::move(executed).value();
    } else {
      r.status = executed.status();
    }
    return r;
  };

  auto budget_left = [&]() {
    return options_.max_query_executions <= 0 ||
           outcome.executions < options_.max_query_executions;
  };

  // Work queue of candidate indices; skipped candidates form the queue
  // of the next pass (Algorithm 3's tail recursion, made iterative).
  // Ranked validation makes exactly one pass, even over an empty list.
  std::vector<size_t> queue(candidates.size());
  std::iota(queue.begin(), queue.end(), size_t{0});
  while (!queue.empty() || (!smart && outcome.passes == 0)) {
    ++outcome.passes;
    obs::Inc(metrics_.validation_passes);
    std::vector<std::future<ExecResult>> launched(queue.size());
    std::vector<size_t> skipped;
    const CandidateQuery* qfm = nullptr;
    bool ranking_confirmed = false;
    size_t commit_pos = 0;
    size_t launch_pos = 0;
    size_t inflight = 0;

    // Algorithm 3's skip rule, decidable only once Qfm is known.
    auto should_skip = [&](const CandidateQuery& cq) {
      if (!smart || qfm == nullptr) return false;
      bool no_predicate_overlap =
          cq.query.predicate.OverlapWith(qfm->query.predicate) == 0;
      bool wrong_ranking =
          ranking_confirmed && !cq.query.SameRanking(qfm->query);
      return no_predicate_overlap || wrong_ranking;
    };
    auto goal = [&]() {
      return smart && qfm == nullptr ? ThresholdGoal::kFirstMatch
                                     : ThresholdGoal::kAccept;
    };

    // Joins a launched execution whose result never commits. One that
    // ran did real (if early-stopped) work: a speculative execution.
    auto discard = [&](std::future<ExecResult>& future) {
      pool_->WaitHelping(future);
      const ExecResult r = future.get();
      if (r.ran && (r.status.ok() || r.status.IsQueryRefuted())) {
        ++outcome.speculative_executions;
        obs::Inc(metrics_.candidates_speculative);
      }
    };
    // Cancels and joins every outstanding execution (they finish
    // promptly: queued ones are skipped via `stop`, running ones abort
    // at the next budget poll). Required before returning — tasks
    // reference stack-local state.
    auto drain = [&]() {
      stop.Cancel();
      for (size_t i = commit_pos; i < launched.size(); ++i) {
        if (launched[i].valid()) discard(launched[i]);
      }
    };
    // Budget exhausted: everything uncommitted — the queue tail plus
    // this pass's skips — was never validated. Ascending order restores
    // suitability order.
    auto wind_down = [&]() {
      drain();
      outcome.unvalidated.assign(
          queue.begin() + static_cast<ptrdiff_t>(commit_pos), queue.end());
      outcome.unvalidated.insert(outcome.unvalidated.end(), skipped.begin(),
                                 skipped.end());
      std::sort(outcome.unvalidated.begin(), outcome.unvalidated.end());
    };

    while (commit_pos < queue.size()) {
      // The paper's silent per-pass cap stops execution without a
      // termination reason; the RunBudget winds down with one.
      if (!budget_left()) {
        drain();
        return outcome;
      }
      if (budget != nullptr &&
          budget->Exhausted(prior_executions + outcome.executions)) {
        outcome.termination = ExhaustionReason(
            budget, prior_executions + outcome.executions);
        wind_down();
        return outcome;
      }

      // Launch ahead in rank order, up to the window. A candidate the
      // skip rule already rejects (Qfm known) is not launched; every
      // launched one is judged again at its commit.
      while (inflight < window && launch_pos < queue.size()) {
        if (options_.max_query_executions > 0 &&
            outcome.executions + static_cast<int64_t>(inflight) >=
                options_.max_query_executions) {
          break;  // speculating past the cap is pure waste
        }
        const CandidateQuery& next = candidates[queue[launch_pos]];
        if (!should_skip(next)) {
          launched[launch_pos] = pool_->Submit(
              [&execute, &next, g = goal()]() { return execute(next, g); },
              /*priority=*/1, &stop);
          ++inflight;
        }
        ++launch_pos;
      }

      const size_t idx = queue[commit_pos];
      const CandidateQuery& cq = candidates[idx];
      std::future<ExecResult>& slot = launched[commit_pos];
      // The skip rule, judged with every earlier result committed: a
      // look-ahead execution the rule rejects is discarded and retried
      // next pass.
      if (should_skip(cq)) {
        if (slot.valid()) {
          discard(slot);
          --inflight;
        }
        skipped.push_back(idx);
        ++outcome.skip_events;
        obs::Inc(metrics_.candidates_skipped);
        ++commit_pos;
        continue;
      }
      // Recorded from this (single) commit thread only: a Trace is not
      // thread-safe. A "commit" span times the wait for the look-ahead
      // result plus the commit decision.
      obs::ScopedSpan span(trace_.trace, pooled ? "commit" : "execute",
                           trace_.parent);
      span.AddAttr("candidate", static_cast<int64_t>(idx));
      ExecResult result;
      if (slot.valid()) {
        pool_->WaitHelping(slot);
        result = slot.get();
        --inflight;
      } else {
        result = execute(cq, goal());
      }
      if (result.ran) {
        span.AddAttr("access", std::string_view(ExecAccessName(result.access)));
      }
      if (result.status.IsQueryRefuted()) {
        // The threshold monitor proved mid-scan that this candidate
        // cannot reproduce L (or, under the first-match goal, become
        // Qfm): an executed-and-rejected candidate that stopped early.
        // Counted as an execution so budgets, Qfm discovery and the
        // paper's execution metric are identical with pruning off.
        ++outcome.executions;
        obs::Inc(metrics_.candidates_executed);
        obs::Inc(metrics_.validations_refuted_early);
        CountRefutation(result.refuted_by, &outcome, &span);
        ++commit_pos;
        continue;
      }
      if (!result.ran || result.status.IsCancelled()) {
        // The deadline passed (or a token tripped) mid-scan; the
        // partial execution does not count.
        outcome.termination = ExhaustionReason(
            budget, prior_executions + outcome.executions);
        span.AddAttr("interrupted", int64_t{1});
        wind_down();
        return outcome;
      }
      if (!result.status.ok()) {
        drain();
        return result.status;
      }
      ++outcome.executions;
      obs::Inc(metrics_.candidates_executed);
      const bool accepted = Accepts(result.list, input);
      span.AddAttr("accepted", static_cast<int64_t>(accepted));
      if (accepted) {
        outcome.valid.push_back(ValidQuery{cq.query, outcome.executions});
        if (options_.stop_at_first_valid) {
          // The paper's early termination: the first validated query
          // cancels its outstanding lower-rank siblings.
          drain();
          return outcome;
        }
      }
      if (smart && qfm == nullptr &&
          result.list.EntityJaccard(input) >= tau) {
        qfm = &cq;
        ranking_confirmed = result.list.ValueJaccard(input, 1e-6) > tau;
      }
      ++commit_pos;
    }

    if (!budget_left()) break;
    // Retry the skipped candidates; terminates because every pass
    // commits at least its first queued candidate unskipped.
    queue = std::move(skipped);
  }
  return outcome;
}

}  // namespace paleo
