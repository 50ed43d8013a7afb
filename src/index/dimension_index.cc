#include "index/dimension_index.h"

#include <cmath>
#include <cstring>

namespace paleo {

namespace {

/// Key of a double under `==` semantics: -0.0 shares +0.0's key, and
/// NaN (equal to nothing) has none.
bool DoubleKey(double v, uint64_t* key) {
  if (std::isnan(v)) return false;
  if (v == 0.0) v = 0.0;
  std::memcpy(key, &v, sizeof(*key));
  return true;
}

}  // namespace

void DimensionIndex::AppendRows(const Table& table, int c, size_t from,
                                ColumnPostings* postings) {
  const Column& col = table.column(c);
  postings->type = col.type();
  for (size_t r = from; r < table.num_rows(); ++r) {
    const RowId row = static_cast<RowId>(r);
    uint64_t key = 0;
    switch (col.type()) {
      case DataType::kString:
        key = col.CodeAt(row);
        break;
      case DataType::kInt64:
        key = static_cast<uint64_t>(col.Int64At(row));
        break;
      case DataType::kDouble:
        if (!DoubleKey(col.DoubleAt(row), &key)) continue;
        break;
    }
    postings->by_value[key].push_back(row);
  }
}

DimensionIndex DimensionIndex::BuildIncremental(const DimensionIndex& prev,
                                                const Table& table,
                                                size_t old_rows) {
  DimensionIndex index;
  index.columns_ = prev.columns_;  // copied posting maps
  for (int c : table.schema().dimension_indices()) {
    AppendRows(table, c, old_rows, &index.columns_[c]);
    if (table.column(c).type() == DataType::kString) {
      // The NEW table's dictionary: the snapshot must not dangle into
      // the previous version's (deep-copied) dictionaries.
      index.dicts_.emplace(c, table.column(c).dict());
    }
  }
  return index;
}

bool DimensionIndex::KeyFor(int column, const Value& value,
                            uint64_t* key) const {
  auto it = columns_.find(column);
  if (it == columns_.end()) return false;
  switch (it->second.type) {
    case DataType::kString: {
      if (!value.is_string()) return false;
      uint32_t code = dicts_.at(column)->Lookup(value.str());
      if (code == StringDictionary::kInvalidCode) return false;
      *key = code;
      return true;
    }
    case DataType::kInt64:
      if (!value.is_int64()) return false;
      *key = static_cast<uint64_t>(value.int64());
      return true;
    case DataType::kDouble:
      return value.is_numeric() && DoubleKey(value.AsDouble(), key);
  }
  return false;
}

const std::vector<RowId>& DimensionIndex::Lookup(int column,
                                                 const Value& value) const {
  static const std::vector<RowId> kEmpty;
  uint64_t key;
  if (!KeyFor(column, value, &key)) return kEmpty;
  const ColumnPostings& postings = columns_.at(column);
  auto it = postings.by_value.find(key);
  return it == postings.by_value.end() ? kEmpty : it->second;
}

bool DimensionIndex::Covers(const Predicate& predicate) const {
  for (const AtomicPredicate& atom : predicate.atoms()) {
    // Range atoms are not answerable from equality postings.
    if (atom.is_range() || !Indexes(atom.column)) return false;
  }
  return true;
}

size_t DimensionIndex::MemoryUsage() const {
  size_t bytes = 0;
  for (const auto& [col, postings] : columns_) {
    for (const auto& [key, rows] : postings.by_value) {
      bytes += sizeof(key) + rows.capacity() * sizeof(RowId) + 32;
    }
  }
  return bytes;
}

}  // namespace paleo
