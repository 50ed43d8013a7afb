// Candidate predicate mining (paper Section 4, Algorithm 1).
//
// Apriori-style level-wise search over R': level 1 enumerates atomic
// equality predicates (one per dimension-column value that covers
// enough input entities), level k extends level k-1 conjunctions with
// atoms on strictly greater column indices (each conjunction is built
// exactly once), intersecting tuple-id sets and pruning by the
// anti-monotone coverage criterion. Unlike classic apriori, a predicate
// is dropped the moment it misses the coverage bar — there is no
// support counting pass. The intersection runs over R''s entity
// segments, fewest rows first, and stops at the segment that settles
// the miss.
//
// Coverage: with a complete R' a candidate must cover every input
// entity (Definition 1); under sampling the bar is relaxed to
// options.coverage_ratio (Section 6.4).
//
// Thread-safety: pure functions over a const R'; concurrent calls with
// distinct output vectors are safe.

#ifndef PALEO_PALEO_PREDICATE_MINER_H_
#define PALEO_PALEO_PREDICATE_MINER_H_

#include <cstdint>
#include <vector>

#include "common/run_budget.h"
#include "common/status.h"
#include "engine/predicate.h"
#include "paleo/options.h"
#include "paleo/rprime.h"
#include "paleo/tuple_set.h"

namespace paleo {

/// \brief One mined candidate predicate with its tuple set handle.
struct MinedPredicate {
  Predicate predicate;
  /// Index into MiningResult::groups (predicates with identical tuple
  /// sets share a group).
  int group_id = -1;
  /// Distinct input entities covered by the predicate's tuple set.
  int covered_entities = 0;
};

/// \brief Distinct tuple set shared by one or more candidate
/// predicates (paper Section 4.1).
struct PredicateGroup {
  /// Sorted local row ids into R'; with R' entity-major, grouped by
  /// entity in entity order.
  TupleSet rows;
  std::vector<int> predicate_ids;
  int covered_entities = 0;
  /// Coverage bitmap: bit e set iff input entity e has a row in
  /// `rows`. ceil(m / 64) words.
  std::vector<uint64_t> coverage;
};

/// \brief Output of the mining phase.
struct MiningResult {
  std::vector<MinedPredicate> predicates;
  std::vector<PredicateGroup> groups;
  /// predicates_by_size[s] = number of candidate predicates with s
  /// atoms (index 0 unused).
  std::vector<int> predicates_by_size;
  /// Conjunctions the level-wise extension tried (after the
  /// column-order filter), and those of them dismissed before their
  /// last entity segment was intersected.
  int64_t extensions = 0;
  int64_t early_rejects = 0;
  /// kCompleted when the level-wise search ran to exhaustion;
  /// otherwise the search stopped early and `predicates` holds only
  /// what was mined before the budget ran out.
  TerminationReason termination = TerminationReason::kCompleted;
};

/// \brief Algorithm 1 implementation.
class PredicateMiner {
 public:
  PredicateMiner(const RPrime& rprime, const PaleoOptions& options)
      : rprime_(rprime), options_(options) {}

  /// Runs the level-wise search. Correct and complete with respect to
  /// R' (property (i) of the paper): every returned predicate is a
  /// candidate, and every candidate up to max_predicate_size is
  /// returned. When `budget` is set, the search polls it at bounded
  /// intervals and degrades gracefully: on exhaustion the result
  /// carries the predicates mined so far and a non-kCompleted
  /// termination reason instead of an error.
  StatusOr<MiningResult> Mine(const RunBudget* budget = nullptr) const;

 private:
  const RPrime& rprime_;
  const PaleoOptions& options_;
};

}  // namespace paleo

#endif  // PALEO_PALEO_PREDICATE_MINER_H_
