// R': the in-memory, column-oriented slice of R holding all (sampled)
// tuples of the input list's entities (paper Section 3.1).
//
// Thread-safety: built single-threaded, then treated as immutable; the
// validator's worker threads share one const R' without locking.

#ifndef PALEO_PALEO_RPRIME_H_
#define PALEO_PALEO_RPRIME_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "engine/topk_list.h"
#include "index/entity_index.h"
#include "storage/table.h"

namespace paleo {

/// \brief The working slice R' (or its sample R'').
///
/// Rows are re-numbered 0..n-1 (local RowIds) entity-major: entity e
/// of the input list (0..m-1, list order) owns the contiguous segment
/// [entity_begin()[e], entity_begin()[e + 1]), and within a segment
/// local rows ascend with global rows. A sorted tuple set is therefore
/// grouped by entity, in entity order, which lets the miner test
/// coverage and the ranking finder aggregate one segment at a time.
class RPrime {
 public:
  /// Materializes R' via the entity index: all rows of all distinct
  /// entities of L. `base_row_ids` can restrict to a sample (global row
  /// ids into `base`, sorted non-decreasing, else InvalidArgument);
  /// pass nullptr for the full slice.
  ///
  /// Entities of L absent from R are recorded in missing_entities()
  /// (possible under the changed-data scenario of Section 6).
  static StatusOr<RPrime> Build(const Table& base, const EntityIndex& index,
                                const TopKList& input,
                                const std::vector<RowId>* base_row_ids =
                                    nullptr);

  /// The columnar slice; its schema equals the base relation's and its
  /// string columns share the base dictionaries.
  const Table& table() const { return table_; }
  size_t num_rows() const { return table_.num_rows(); }

  /// Number of distinct entities in the input list.
  int num_entities() const { return static_cast<int>(entity_names_.size()); }
  /// Input-list entity names, in list order (distinct).
  const std::vector<std::string>& entity_names() const {
    return entity_names_;
  }
  /// Input-list values aligned with entity_names() (first occurrence
  /// for duplicated entities in no-aggregation lists).
  const std::vector<double>& entity_values() const { return entity_values_; }

  /// Local entity index (0..m-1) of each local row; non-decreasing.
  const std::vector<uint32_t>& row_entity() const { return row_entity_; }

  /// m + 1 local-row offsets: entity e owns rows
  /// [entity_begin()[e], entity_begin()[e + 1]).
  const std::vector<RowId>& entity_begin() const { return entity_begin_; }

  /// Tuples present in this slice per entity (aligned with
  /// entity_names()).
  const std::vector<int64_t>& entity_row_counts() const {
    return entity_row_counts_;
  }
  /// Tuples of each entity in the FULL base relation (from the entity
  /// index). entity_total_counts()[i] - entity_row_counts()[i] is the
  /// paper's unseen(e_i).
  const std::vector<int64_t>& entity_total_counts() const {
    return entity_total_counts_;
  }

  /// Entities of L with no tuple in the base relation.
  const std::vector<std::string>& missing_entities() const {
    return missing_entities_;
  }

  /// Global (base-relation) row id of a local row.
  RowId GlobalRow(RowId local) const { return global_rows_[local]; }

 private:
  Table table_{Schema()};
  std::vector<uint32_t> row_entity_;
  std::vector<RowId> global_rows_;
  std::vector<RowId> entity_begin_;
  std::vector<std::string> entity_names_;
  std::vector<double> entity_values_;
  std::vector<int64_t> entity_row_counts_;
  std::vector<int64_t> entity_total_counts_;
  std::vector<std::string> missing_entities_;
};

}  // namespace paleo

#endif  // PALEO_PALEO_RPRIME_H_
