// Rank prefixes: sorted access for first-k top-k queries.
//
// For some query shapes the answer is simply "the first k matching rows
// (or the first k distinct entities) in one column's rank order":
//
//   ORDER BY A [DESC|ASC] LIMIT k        (no aggregation)
//   max(A) ... ORDER BY max(A) DESC       (an entity's best row)
//   min(A) ... ORDER BY min(A) ASC        (an entity's best row)
//
// A rank prefix holds the first RankPrefixes::kRows rows of one numeric
// column in the executor's own result order — value (CompareScores
// below), then entity name, then row id — so such queries can walk it
// and stop at k instead of scanning every chunk (engine/executor.cc,
// DESIGN.md §18). NaN rows rank after every number and are left out of
// the prefix; a walk that needs them runs out of prefix and falls back
// to the scan.
//
// A Table owns one RankPrefixes set (storage/table.h): slots are built
// lazily on first use, merged with appended rows by AppendRows, copied
// by DeepCopy, and dropped by CheckConsistent.

#ifndef PALEO_STORAGE_RANK_PREFIX_H_
#define PALEO_STORAGE_RANK_PREFIX_H_

#include <cmath>
#include <cstddef>
#include <memory>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "storage/column.h"

namespace paleo {

/// The one score order of ranked results, shared by the executor, the
/// ranking finder and the rank prefixes: under `descending` larger
/// scores first, else smaller first; -0.0 ties +0.0; NaN ranks after
/// every number in both directions, and two NaNs tie. Returns < 0 when
/// `a` ranks before `b`, 0 on a tie, > 0 when after. This is a strict
/// weak order, so sorts over it are well defined.
inline int CompareScores(double a, double b, bool descending) {
  if (a == b) return 0;
  const bool a_nan = std::isnan(a);
  const bool b_nan = std::isnan(b);
  if (a_nan || b_nan) return static_cast<int>(a_nan) - static_cast<int>(b_nan);
  return (descending ? a > b : a < b) ? -1 : 1;
}

/// \brief The rank prefixes of one table: one slot per numeric column
/// and direction, each the first kRows non-NaN rows in result order.
///
/// Thread-safety: Get may be called concurrently; the first call for a
/// slot builds it under the set's mutex, later calls share it. Built
/// slots are immutable, so a caller keeps reading its shared_ptr after
/// the owning table has moved on to another set.
class RankPrefixes {
 public:
  /// Rows per slot (16 KB of row ids). A constant: the walk is only
  /// meant to answer queries whose first k lie near the top.
  static constexpr size_t kRows = 4096;
  using Slot = std::vector<RowId>;

  RankPrefixes() = default;
  RankPrefixes(const RankPrefixes&) = delete;
  RankPrefixes& operator=(const RankPrefixes&) = delete;

  /// Slot `col` / `descending` over `values` (column `col` of a table
  /// whose entity column is `entities`), built on first use.
  std::shared_ptr<const Slot> Get(int col, bool descending,
                                  const Column& values,
                                  const Column& entities) const;

  /// True when some slot has been built.
  bool HasBuilt() const;

  /// A new set holding this set's built slots (shared, not copied).
  std::shared_ptr<RankPrefixes> Copy() const;

  /// A new set holding this set's built slots, each merged with rows
  /// [first_new, size) of `columns` (the rows just appended): O(kRows +
  /// batch log batch) per built slot. Unbuilt slots stay unbuilt.
  std::shared_ptr<RankPrefixes> Extended(const std::vector<Column>& columns,
                                         int entity_col,
                                         RowId first_new) const;

  /// Heap bytes of the built slots.
  size_t MemoryUsage() const;

 private:
  /// Snapshot of the slot pointers (null where unbuilt).
  std::vector<std::shared_ptr<const Slot>> Built() const;

  static size_t Index(int col, bool descending) {
    return static_cast<size_t>(col) * 2 + (descending ? 0 : 1);
  }

  mutable Mutex mutex_;
  /// Indexed by Index(col, descending); null until built.
  mutable std::vector<std::shared_ptr<const Slot>> slots_ GUARDED_BY(mutex_);
};

/// The first RankPrefixes::kRows non-NaN rows of `values` in result
/// order (CompareScores on the value, then entity name, then row id),
/// from scratch: one pass for the kRows-th best value, then a sort of
/// the rows at or ahead of it.
RankPrefixes::Slot BuildRankPrefix(const Column& values,
                                   const Column& entities, bool descending);

}  // namespace paleo

#endif  // PALEO_STORAGE_RANK_PREFIX_H_
