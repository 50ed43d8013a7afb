#include "storage/table.h"

#include <algorithm>
#include <atomic>

#include "common/string_util.h"

namespace paleo {

uint64_t Table::NextEpoch() {
  // Starts at 1 so 0 can serve as "no table" in cache keys.
  // relaxed: a ticket counter — concurrent constructors only need
  // distinct values, not any ordering between them.
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

size_t Table::ClampChunkRows(size_t chunk_rows) {
  if (chunk_rows < 64) return 64;
  return chunk_rows - chunk_rows % 64;
}

Table::Table(Schema schema, size_t chunk_rows)
    : schema_(std::move(schema)),
      epoch_(NextEpoch()),
      chunk_rows_(ClampChunkRows(chunk_rows)) {
  columns_.reserve(static_cast<size_t>(schema_.num_fields()));
  for (const Field& f : schema_.fields()) {
    columns_.emplace_back(f.type);
  }
}

void Table::FoldRowIntoChunks(RowId row) {
  if (chunks_.empty() || chunks_.back().num_rows() == chunk_rows_) {
    Chunk c;
    c.begin_row = row;
    c.end_row = row;
    c.zones.resize(columns_.size());
    chunks_.push_back(std::move(c));
  }
  Chunk& open = chunks_.back();
  open.end_row = row + 1;
  for (size_t i = 0; i < columns_.size(); ++i) {
    open.zones[i].UpdateFrom(columns_[i], row);
  }
}

void Table::RebuildChunks() {
  chunks_.clear();
  RowId n = static_cast<RowId>(num_rows_);
  for (RowId begin = 0; begin < n; begin += static_cast<RowId>(chunk_rows_)) {
    Chunk c;
    c.begin_row = begin;
    c.end_row = std::min<RowId>(n, begin + static_cast<RowId>(chunk_rows_));
    c.zones.reserve(columns_.size());
    for (const Column& col : columns_) {
      c.zones.push_back(ComputeZone(col, c.begin_row, c.end_row));
    }
    chunks_.push_back(std::move(c));
  }
}

void Table::SetChunkRows(size_t chunk_rows) {
  const size_t clamped = ClampChunkRows(chunk_rows);
  if (clamped == chunk_rows_) return;  // layout unchanged: keep epoch
  chunk_rows_ = clamped;
  RebuildChunks();
  // Chunk indices now name different row ranges: re-stamp so
  // (epoch, chunk, atom)-keyed cache entries cannot be served.
  epoch_ = NextEpoch();
}

Status Table::AppendRow(const std::vector<Value>& row) {
  return AppendRows(std::span<const std::vector<Value>>(&row, 1));
}

Status Table::AppendRows(std::span<const std::vector<Value>> rows) {
  // Validate every cell of every row before mutating any column so a
  // failed batch leaves the table unchanged.
  for (const std::vector<Value>& row : rows) {
    if (static_cast<int>(row.size()) != schema_.num_fields()) {
      return Status::InvalidArgument(
          "row has " + std::to_string(row.size()) + " values, schema has " +
          std::to_string(schema_.num_fields()) + " fields");
    }
    for (int i = 0; i < schema_.num_fields(); ++i) {
      const Value& v = row[static_cast<size_t>(i)];
      DataType t = schema_.field(i).type;
      bool ok = (t == DataType::kInt64 && v.is_int64()) ||
                (t == DataType::kDouble && v.is_numeric()) ||
                (t == DataType::kString && v.is_string());
      if (!ok) {
        return Status::TypeError("value " + v.ToString() + " does not fit " +
                                 schema_.field(i).name + " (" +
                                 DataTypeToString(t) + ")");
      }
    }
  }
  const RowId first_new = static_cast<RowId>(num_rows_);
  for (const std::vector<Value>& row : rows) {
    for (int i = 0; i < schema_.num_fields(); ++i) {
      PALEO_RETURN_NOT_OK(columns_[static_cast<size_t>(i)].Append(
          row[static_cast<size_t>(i)]));
    }
    // Zone maps fold in the PHYSICAL value just appended (read back
    // from the column, so int64->double widening is already applied),
    // sealing/opening chunks at chunk_rows_ boundaries.
    FoldRowIntoChunks(static_cast<RowId>(num_rows_));
    ++num_rows_;
  }
  // One epoch bump per batch: the whole point of the batched entry
  // point (AppendRow via the single-row span bumps once as before).
  if (!rows.empty()) {
    epoch_ = NextEpoch();
    // Merge the batch into the built slots. The set is never written
    // through: a plain copy of this table may share it.
    if (prefixes_->HasBuilt()) {
      prefixes_ = prefixes_->Extended(columns_, schema_.entity_index(),
                                      first_new);
    } else if (prefixes_.use_count() > 1) {
      prefixes_ = std::make_shared<RankPrefixes>();
    }
  }
  return Status::OK();
}

Table Table::DeepCopy() const {
  Table out(schema_, chunk_rows_);
  out.columns_.clear();
  out.columns_.reserve(columns_.size());
  for (const Column& c : columns_) {
    out.columns_.push_back(c.DeepCopy());
  }
  out.num_rows_ = num_rows_;
  out.chunks_ = chunks_;
  out.prefixes_ = prefixes_->Copy();
  // Identical contents: keep the epoch so epoch-keyed caches stay warm
  // across the copy; the first mutation re-stamps it.
  out.epoch_ = epoch_;
  return out;
}

Status Table::CheckConsistent() {
  if (columns_.empty()) {
    num_rows_ = 0;
    return Status::OK();
  }
  size_t n = columns_[0].size();
  for (size_t i = 1; i < columns_.size(); ++i) {
    if (columns_[i].size() != n) {
      return Status::Internal(
          "column " + schema_.field(static_cast<int>(i)).name + " has " +
          std::to_string(columns_[i].size()) + " rows, expected " +
          std::to_string(n));
    }
  }
  num_rows_ = n;
  // Direct column writes happened before this call; re-stamp so caches
  // keyed on the previous epoch cannot serve the old contents, and
  // rebuild zone maps so they reflect whatever was written.
  RebuildChunks();
  epoch_ = NextEpoch();
  prefixes_ = std::make_shared<RankPrefixes>();
  return Status::OK();
}

Table Table::Gather(const std::vector<RowId>& rows) const {
  Table out(schema_, chunk_rows_);
  out.columns_.clear();
  out.columns_.reserve(columns_.size());
  for (const Column& c : columns_) {
    out.columns_.push_back(c.Gather(rows));
  }
  out.num_rows_ = rows.size();
  out.RebuildChunks();
  return out;
}

std::shared_ptr<const std::vector<RowId>> Table::RankPrefix(
    int col, bool descending) const {
  if (col < 0 || col >= num_columns() || !IsNumeric(schema_.field(col).type)) {
    return nullptr;
  }
  return prefixes_->Get(col, descending, column(col), entity_column());
}

size_t Table::MemoryUsage() const {
  size_t bytes = 0;
  for (const Column& c : columns_) {
    bytes += c.MemoryUsage();
    if (c.dict() != nullptr) bytes += c.dict()->MemoryUsage();
  }
  for (const Chunk& c : chunks_) {
    bytes += sizeof(Chunk) + c.zones.size() * sizeof(ZoneMap);
  }
  return bytes + prefixes_->MemoryUsage();
}

std::string Table::ToString(size_t max_rows) const {
  size_t n = std::min(max_rows, num_rows_);
  std::vector<std::vector<std::string>> cells;
  std::vector<std::string> header;
  for (const Field& f : schema_.fields()) header.push_back(f.name);
  cells.push_back(header);
  for (size_t r = 0; r < n; ++r) {
    std::vector<std::string> row;
    for (int c = 0; c < num_columns(); ++c) {
      row.push_back(GetValue(static_cast<RowId>(r), c).ToString());
    }
    cells.push_back(std::move(row));
  }
  std::vector<size_t> widths(header.size(), 0);
  for (const auto& row : cells) {
    for (size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  std::string out;
  for (size_t r = 0; r < cells.size(); ++r) {
    for (size_t c = 0; c < cells[r].size(); ++c) {
      if (c > 0) out += "  ";
      out += cells[r][c];
      out.append(widths[c] - cells[r][c].size(), ' ');
    }
    out += '\n';
    if (r == 0) {
      for (size_t c = 0; c < widths.size(); ++c) {
        if (c > 0) out += "  ";
        out.append(widths[c], '-');
      }
      out += '\n';
    }
  }
  if (n < num_rows_) {
    out += "... (" + WithThousands(static_cast<int64_t>(num_rows_ - n)) +
           " more rows)\n";
  }
  return out;
}

}  // namespace paleo
