#include "paleo/rprime.h"

#include <algorithm>
#include <unordered_map>

namespace paleo {

StatusOr<RPrime> RPrime::Build(const Table& base, const EntityIndex& index,
                               const TopKList& input,
                               const std::vector<RowId>* base_row_ids) {
  if (input.empty()) {
    return Status::InvalidArgument("input list is empty");
  }
  // The sample is probed by binary search: an unsorted one would drop
  // rows of R' silently.
  const std::vector<RowId>* sample = base_row_ids;
  if (sample != nullptr && !std::is_sorted(sample->begin(), sample->end())) {
    return Status::InvalidArgument(
        "sample row ids must be sorted in non-decreasing order");
  }
  RPrime rp;

  // Distinct entities in input order, with their (first) values.
  std::unordered_map<std::string, uint32_t> entity_idx;
  for (const TopKEntry& e : input.entries()) {
    if (entity_idx.emplace(e.entity, rp.entity_names_.size()).second) {
      rp.entity_names_.push_back(e.entity);
      rp.entity_values_.push_back(e.value);
    }
  }
  auto in_sample = [&](RowId global) {
    if (sample == nullptr) return true;
    return std::binary_search(sample->begin(), sample->end(), global);
  };

  // Entity-major: each entity's rows form one segment, in list order.
  // Postings ascend, so rows ascend by global row within a segment.
  const size_t m = rp.entity_names_.size();
  rp.entity_row_counts_.assign(m, 0);
  rp.entity_total_counts_.assign(m, 0);
  rp.entity_begin_.assign(m + 1, 0);
  for (uint32_t e = 0; e < m; ++e) {
    const std::vector<RowId>& posting = index.Lookup(rp.entity_names_[e]);
    if (posting.empty()) rp.missing_entities_.push_back(rp.entity_names_[e]);
    rp.entity_total_counts_[e] = static_cast<int64_t>(posting.size());
    for (RowId global : posting) {
      if (!in_sample(global)) continue;
      rp.global_rows_.push_back(global);
      rp.row_entity_.push_back(e);
    }
    rp.entity_begin_[e + 1] = static_cast<RowId>(rp.global_rows_.size());
    rp.entity_row_counts_[e] =
        static_cast<int64_t>(rp.entity_begin_[e + 1] - rp.entity_begin_[e]);
  }
  rp.table_ = base.Gather(rp.global_rows_);
  return rp;
}

}  // namespace paleo
