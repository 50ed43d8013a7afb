// Secondary indexes on dimension columns.
//
// Candidate-query validation executes many conjunctive-equality
// queries against R. A posting list per (dimension column, value) lets
// the executor's chunk scan build an equality atom's per-chunk
// selection bitmap from the posting rows inside the chunk instead of
// evaluating the atom over every row of the chunk (see
// engine/executor.h). The paper validates against PostgreSQL with only
// the entity B+ tree (full scans); this index is an optional substrate
// improvement that changes none of the measured quantities
// (executions, candidates) — only wall-clock.
//
// Immutable after Build(): Lookup/Indexes/Covers are const and may run
// concurrently from any number of threads over one shared instance.

#ifndef PALEO_INDEX_DIMENSION_INDEX_H_
#define PALEO_INDEX_DIMENSION_INDEX_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "engine/predicate.h"
#include "storage/table.h"

namespace paleo {

/// \brief Posting lists for every (dimension column, value) pair of a
/// table.
class DimensionIndex {
 public:
  /// One pass per dimension column.
  static DimensionIndex Build(const Table& table) {
    return BuildIncremental(DimensionIndex(), table, 0);
  }

  /// Builds the index for `table` off `prev`, which must index exactly
  /// the first `old_rows` rows of `table`. Copies the posting maps and
  /// appends only the delta rows (ascending row ids keep postings
  /// sorted); dictionary references are re-pointed at `table`'s own
  /// columns so the result never dangles into the previous snapshot.
  /// Identical lookup behavior to Build(table).
  static DimensionIndex BuildIncremental(const DimensionIndex& prev,
                                         const Table& table,
                                         size_t old_rows);

  /// Rows matching `column = value` under the scan's `==` (so -0.0
  /// finds +0.0 and NaN finds nothing), ascending; empty if the value
  /// is absent, of a mismatched type, or the column is not indexed.
  const std::vector<RowId>& Lookup(int column, const Value& value) const;

  /// True if `column` has postings.
  bool Indexes(int column) const { return columns_.count(column) != 0; }

  /// True if every atom of the predicate is an equality on an indexed
  /// column (so every atom's selection can come from postings).
  bool Covers(const Predicate& predicate) const;

  /// Approximate heap footprint in bytes.
  size_t MemoryUsage() const;

 private:
  // Per indexed column: value-key -> posting. Keys normalize values to
  // 64 bits (dictionary code / int64 / double bits with -0.0 folded
  // into +0.0), consistent with the column's physical type.
  struct ColumnPostings {
    DataType type = DataType::kString;
    std::unordered_map<uint64_t, std::vector<RowId>> by_value;
  };

  /// Posts rows [from, table.num_rows()) of column `c` into `postings`.
  static void AppendRows(const Table& table, int c, size_t from,
                         ColumnPostings* postings);

  /// Normalizes `value` to the column's key space; false if the value
  /// cannot match the column (type mismatch / unknown dictionary
  /// string / NaN).
  bool KeyFor(int column, const Value& value, uint64_t* key) const;

  std::unordered_map<int, ColumnPostings> columns_;
  // Dictionaries of indexed string columns, for constant resolution.
  std::unordered_map<int, std::shared_ptr<StringDictionary>> dicts_;
};

}  // namespace paleo

#endif  // PALEO_INDEX_DIMENSION_INDEX_H_
