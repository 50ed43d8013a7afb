#include "paleo/candidate_query.h"

#include <algorithm>

namespace paleo {

std::vector<CandidateQuery> BuildCandidateQueries(
    const MiningResult& mining, const std::vector<GroupRanking>& rankings,
    const ProbModel& model, int k, SortOrder order, bool lattice_order) {
  std::vector<CandidateQuery> out;
  for (const GroupRanking& ranking : rankings) {
    if (ranking.candidates.empty()) continue;
    const PredicateGroup& group =
        mining.groups[static_cast<size_t>(ranking.group_id)];
    for (int pred_id : group.predicate_ids) {
      const MinedPredicate& mined =
          mining.predicates[static_cast<size_t>(pred_id)];
      double p_fp =
          model.FalsePositiveProbability(mined.predicate, group);
      double proxy = model.PredicateSelectivity(mined.predicate);
      for (const RankingCandidate& criterion : ranking.candidates) {
        CandidateQuery cq;
        cq.query.predicate = mined.predicate;
        cq.query.expr = criterion.expr;
        cq.query.agg = criterion.agg;
        cq.query.order = order;
        cq.query.k = k;
        cq.group_id = ranking.group_id;
        cq.predicate_id = pred_id;
        cq.p_false_positive = p_fp;
        cq.ranking_distance = criterion.distance;
        cq.suitability = ProbModel::Suitability(p_fp, criterion.distance);
        cq.selectivity_proxy = proxy;
        out.push_back(std::move(cq));
      }
    }
  }
  std::sort(out.begin(), out.end(),
            [lattice_order](const CandidateQuery& a, const CandidateQuery& b) {
              if (a.suitability != b.suitability)
                return a.suitability > b.suitability;
              // Lattice-aware ties: apriori parents (smaller
              // conjunctions) before their children.
              if (lattice_order &&
                  a.query.predicate.size() != b.query.predicate.size())
                return a.query.predicate.size() < b.query.predicate.size();
              // Ties: most selective predicate first — covering all
              // input entities with rare values is strong evidence.
              if (a.selectivity_proxy != b.selectivity_proxy)
                return a.selectivity_proxy < b.selectivity_proxy;
              if (a.query.predicate.size() != b.query.predicate.size())
                return a.query.predicate.size() > b.query.predicate.size();
              if (!(a.query.predicate == b.query.predicate))
                return a.query.predicate < b.query.predicate;
              if (a.query.agg != b.query.agg) return a.query.agg < b.query.agg;
              return a.query.expr.Hash() < b.query.expr.Hash();
            });
  return out;
}

}  // namespace paleo
