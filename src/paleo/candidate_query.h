// Candidate query assembly and suitability ordering (Sections 3.2 and
// 6.3): the cross product of each predicate group's predicates with the
// group's candidate ranking criteria, scored by
// s(Qc) = (1 - P[false positive]) * (1 - d) and sorted best-first.
//
// Thread-safety: plain value types and pure functions over their
// arguments; concurrent calls are safe as long as each call uses its
// own output vector.

#ifndef PALEO_PALEO_CANDIDATE_QUERY_H_
#define PALEO_PALEO_CANDIDATE_QUERY_H_

#include <vector>

#include "engine/query.h"
#include "paleo/prob_model.h"
#include "paleo/ranking_finder.h"

namespace paleo {

/// \brief One fully assembled candidate query with its score
/// components.
struct CandidateQuery {
  TopKQuery query;
  int group_id = -1;
  int predicate_id = -1;
  double p_false_positive = 0.0;
  double ranking_distance = 0.0;
  double suitability = 1.0;
  /// Estimated selectivity of the predicate over R (catalog value
  /// frequencies under independence), used to break suitability ties:
  /// a predicate that covers every input entity despite rare values is
  /// unlikely to be a coincidence, and it lets fewer foreign entities
  /// through when executed over R.
  double selectivity_proxy = 1.0;
};

/// Builds the scored, ordered candidate list. `k` is the LIMIT of the
/// assembled queries (the input list's length). Ordering is
/// deterministic: suitability descending, then — among ties, which is
/// the common case over a complete R' where every candidate scores
/// 1.0 — most selective predicate first (largest size, smallest
/// selectivity proxy), then predicate/criterion identity.
///
/// `lattice_order` (PaleoOptions::lattice_aware_order) flips the
/// within-tie size preference to SMALLEST conjunction first: apriori
/// parents validate before the children derived from them. It only
/// reorders suitability ties; suitability order itself is untouched.
std::vector<CandidateQuery> BuildCandidateQueries(
    const MiningResult& mining, const std::vector<GroupRanking>& rankings,
    const ProbModel& model, int k, SortOrder order = SortOrder::kDesc,
    bool lattice_order = false);

}  // namespace paleo

#endif  // PALEO_PALEO_CANDIDATE_QUERY_H_
