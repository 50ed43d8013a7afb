#include "paleo/predicate_miner.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_map>

namespace paleo {

namespace {

/// Dense bitmap over R' rows: bit r set iff local row r is selected.
using RowBits = std::vector<uint64_t>;

/// Working representation during the level-wise search.
struct LevelEntry {
  Predicate predicate;
  TupleSet rows;
  /// `rows` as a bitmap; present only on entries that a further level
  /// extends (level 1 and the level being extended).
  RowBits bits;
  int max_column;  // largest column index among the atoms
  int covered;
};

RowBits ToBits(const TupleSet& rows, size_t words) {
  RowBits bits(words, 0);
  for (RowId r : rows) bits[r >> 6] |= uint64_t{1} << (r & 63);
  return bits;
}

/// The set rows of `bits` as a sorted tuple set of `count` rows.
TupleSet ToTupleSet(const RowBits& bits, int count) {
  TupleSet rows;
  rows.reserve(static_cast<size_t>(count));
  for (size_t w = 0; w < bits.size(); ++w) {
    for (uint64_t word = bits[w]; word != 0; word &= word - 1) {
      rows.push_back(static_cast<RowId>(w * 64 + static_cast<size_t>(
                                                     __builtin_ctzll(word))));
    }
  }
  return rows;
}

/// Distinct entities among sorted local rows. R' is entity-major, so
/// the rows of one entity form one run.
int CountEntityRuns(const TupleSet& rows,
                    const std::vector<uint32_t>& row_entity) {
  int runs = 0;
  for (size_t i = 0; i < rows.size(); ++i) {
    if (i == 0 || row_entity[rows[i]] != row_entity[rows[i - 1]]) ++runs;
  }
  return runs;
}

/// True iff `a` and `b` share a row in [begin, end): the AND of the
/// words the segment spans, with the bits outside it masked off.
bool SegmentIntersects(const RowBits& a, const RowBits& b, RowId begin,
                       RowId end) {
  if (begin == end) return false;
  const size_t first = begin >> 6;
  const size_t last = (end - 1) >> 6;
  const uint64_t first_mask = ~uint64_t{0} << (begin & 63);
  const uint64_t last_mask = ~uint64_t{0} >> (63 - ((end - 1) & 63));
  if (first == last) return (a[first] & b[first] & first_mask & last_mask) != 0;
  if ((a[first] & b[first] & first_mask) != 0) return true;
  for (size_t w = first + 1; w < last; ++w) {
    if ((a[w] & b[w]) != 0) return true;
  }
  return (a[last] & b[last] & last_mask) != 0;
}

/// Coverage bitmap of a tuple set.
std::vector<uint64_t> CoverageBitmap(const TupleSet& rows,
                                     const std::vector<uint32_t>& row_entity,
                                     int num_entities) {
  std::vector<uint64_t> bits((static_cast<size_t>(num_entities) + 63) / 64,
                             0);
  for (RowId r : rows) {
    uint32_t e = row_entity[r];
    bits[e >> 6] |= (uint64_t{1} << (e & 63));
  }
  return bits;
}

int Popcount(const std::vector<uint64_t>& bits) {
  int n = 0;
  for (uint64_t w : bits) n += __builtin_popcountll(w);
  return n;
}

}  // namespace

StatusOr<MiningResult> PredicateMiner::Mine(const RunBudget* budget) const {
  if (options_.coverage_ratio <= 0.0 || options_.coverage_ratio > 1.0) {
    return Status::InvalidArgument("coverage_ratio must be in (0, 1]");
  }
  if (options_.max_predicate_size < 1) {
    return Status::InvalidArgument("max_predicate_size must be >= 1");
  }
  // Budget poll for the mining loops. Once the gate trips, every loop
  // below unwinds and the partial result is assembled as usual with a
  // non-kCompleted termination reason.
  BudgetGate gate(budget, /*stride=*/1024);
  const Table& slice = rprime_.table();
  const Schema& schema = slice.schema();
  const std::vector<uint32_t>& row_entity = rprime_.row_entity();
  const int m = rprime_.num_entities();
  const int required =
      std::max(1, static_cast<int>(std::ceil(options_.coverage_ratio *
                                             static_cast<double>(m))));

  MiningResult result;
  result.predicates_by_size.assign(
      static_cast<size_t>(options_.max_predicate_size) + 1, 0);

  // ---- Level 1: atomic predicates ----
  std::vector<LevelEntry> level1;
  for (int col_idx : schema.dimension_indices()) {
    if (gate.exhausted()) break;
    const Column& col = slice.column(col_idx);
    // Bucket local rows by value. Keys are normalized to uint64 (dict
    // code, int64 bits, or double bits).
    std::unordered_map<uint64_t, TupleSet> buckets;
    const size_t n = slice.num_rows();
    for (size_t r = 0; r < n; ++r) {
      if (gate.Tick() != TerminationReason::kCompleted) break;
      uint64_t key = 0;
      switch (col.type()) {
        case DataType::kString:
          key = col.CodeAt(static_cast<RowId>(r));
          break;
        case DataType::kInt64:
          key = static_cast<uint64_t>(col.Int64At(static_cast<RowId>(r)));
          break;
        case DataType::kDouble: {
          double v = col.DoubleAt(static_cast<RowId>(r));
          __builtin_memcpy(&key, &v, sizeof(key));
          break;
        }
      }
      buckets[key].push_back(static_cast<RowId>(r));
    }
    // A column interrupted mid-bucketing would yield predicates with
    // incomplete tuple sets — wrong, not merely partial — so its work
    // is discarded wholesale.
    if (gate.exhausted()) break;
    // Deterministic order: sort bucket keys.
    std::vector<uint64_t> keys;
    keys.reserve(buckets.size());
    for (const auto& [key, rows] : buckets) keys.push_back(key);
    std::sort(keys.begin(), keys.end());
    for (uint64_t key : keys) {
      if (gate.Tick() != TerminationReason::kCompleted) break;
      TupleSet& rows = buckets[key];
      int covered = CountEntityRuns(rows, row_entity);
      if (covered < required) continue;
      Value v;
      switch (col.type()) {
        case DataType::kString:
          v = Value::String(col.dict()->Get(static_cast<uint32_t>(key)));
          break;
        case DataType::kInt64:
          v = Value::Int64(static_cast<int64_t>(key));
          break;
        case DataType::kDouble: {
          double d;
          __builtin_memcpy(&d, &key, sizeof(d));
          v = Value::Double(d);
          break;
        }
      }
      LevelEntry entry;
      entry.predicate = Predicate::Atom(col_idx, std::move(v));
      entry.rows = std::move(rows);
      entry.max_column = col_idx;
      entry.covered = covered;
      level1.push_back(std::move(entry));
    }
  }

  // ---- Range atoms (extension; see PaleoOptions) ----
  // For each numeric dimension column, the tightest interval whose rows
  // cover the required number of entities, found with the classic
  // smallest-covering-range sweep: sort (value, entity) points, advance
  // the right end until covered, then shrink the left end.
  if (options_.mine_range_predicates) {
    for (int col_idx : schema.dimension_indices()) {
      if (gate.exhausted()) break;
      const Column& col = slice.column(col_idx);
      if (!IsNumeric(col.type())) continue;
      const size_t n = slice.num_rows();
      if (n == 0) continue;
      struct Point {
        double v;
        uint32_t entity;
        RowId row;
      };
      std::vector<Point> points;
      points.reserve(n);
      for (size_t r = 0; r < n; ++r) {
        points.push_back(Point{col.NumericAt(static_cast<RowId>(r)),
                               row_entity[r], static_cast<RowId>(r)});
      }
      std::sort(points.begin(), points.end(),
                [](const Point& a, const Point& b) { return a.v < b.v; });

      std::vector<int> per_entity(static_cast<size_t>(m), 0);
      int covered = 0;
      size_t left = 0;
      double best_width = std::numeric_limits<double>::infinity();
      double best_lo = 0, best_hi = 0;
      bool found = false;
      for (size_t right = 0; right < points.size(); ++right) {
        if (gate.Tick() != TerminationReason::kCompleted) break;
        if (per_entity[points[right].entity]++ == 0) ++covered;
        while (covered >= required) {
          double width = points[right].v - points[left].v;
          if (width < best_width) {
            best_width = width;
            best_lo = points[left].v;
            best_hi = points[right].v;
            found = true;
          }
          if (--per_entity[points[left].entity] == 0) --covered;
          ++left;
        }
      }
      // An interrupted sweep may have missed a tighter interval;
      // discard rather than emit a possibly-suboptimal range.
      if (gate.exhausted() || !found) continue;

      TupleSet rows;
      for (const Point& p : points) {
        if (p.v >= best_lo && p.v <= best_hi) rows.push_back(p.row);
      }
      std::sort(rows.begin(), rows.end());
      int covered_final = CountEntityRuns(rows, row_entity);
      if (covered_final < required) continue;  // defensive

      Value lo = col.type() == DataType::kInt64
                     ? Value::Int64(static_cast<int64_t>(best_lo))
                     : Value::Double(best_lo);
      Value hi = col.type() == DataType::kInt64
                     ? Value::Int64(static_cast<int64_t>(best_hi))
                     : Value::Double(best_hi);
      LevelEntry entry;
      entry.predicate = Predicate(
          {AtomicPredicate::Range(col_idx, std::move(lo), std::move(hi))});
      entry.rows = std::move(rows);
      entry.max_column = col_idx;
      entry.covered = covered_final;
      level1.push_back(std::move(entry));
    }
  }

  // ---- Levels 2..max: column-increasing extension ----
  // Extensions intersect dense row bitmaps one entity segment at a
  // time, fewest rows first, and stop once more segments came out empty
  // than the coverage bar allows (at the first one with a complete R').
  // The covered entities are the non-empty segments. Only survivors are
  // ANDed in full and turned back into sorted tuple sets, so groups and
  // predicate order match a sorted-list merge.
  const size_t words = (slice.num_rows() + 63) / 64;
  if (options_.max_predicate_size >= 2) {
    for (LevelEntry& entry : level1) entry.bits = ToBits(entry.rows, words);
  }
  const std::vector<RowId>& segment = rprime_.entity_begin();
  std::vector<uint32_t> segment_order(static_cast<size_t>(m));
  for (uint32_t e = 0; e < segment_order.size(); ++e) segment_order[e] = e;
  std::stable_sort(segment_order.begin(), segment_order.end(),
                   [&](uint32_t x, uint32_t y) {
                     return segment[x + 1] - segment[x] <
                            segment[y + 1] - segment[y];
                   });
  const int allowed_misses = m - required;
  std::vector<std::vector<LevelEntry>> levels;
  levels.push_back(std::move(level1));
  RowBits both(words);
  for (int size = 2;
       size <= options_.max_predicate_size && !gate.exhausted(); ++size) {
    const bool extended_again = size < options_.max_predicate_size;
    std::vector<LevelEntry>& prev = levels.back();
    std::vector<LevelEntry> next;
    for (const LevelEntry& base : prev) {
      if (gate.exhausted()) break;
      for (const LevelEntry& atom : levels[0]) {
        // Each extension is an intersection of two complete tuple
        // sets, so stopping between extensions loses candidates but
        // never emits a wrong one.
        if (gate.Tick() != TerminationReason::kCompleted) break;
        // Strictly increasing column order: every conjunction is
        // generated exactly once and same-column conflicts are
        // impossible.
        if (atom.max_column <= base.max_column) continue;
        ++result.extensions;
        int misses = 0;
        size_t visited = 0;
        while (visited < segment_order.size() && misses <= allowed_misses) {
          const uint32_t e = segment_order[visited++];
          if (!SegmentIntersects(base.bits, atom.bits, segment[e],
                                 segment[e + 1])) {
            ++misses;
          }
        }
        if (misses > allowed_misses) {
          if (visited < segment_order.size()) ++result.early_rejects;
          continue;
        }
        int count = 0;
        for (size_t w = 0; w < words; ++w) {
          both[w] = base.bits[w] & atom.bits[w];
          count += __builtin_popcountll(both[w]);
        }
        auto extended =
            base.predicate.And(atom.predicate.atoms().front());
        if (!extended.ok()) continue;  // unreachable by construction
        LevelEntry entry;
        entry.predicate = std::move(extended).value();
        entry.rows = ToTupleSet(both, count);
        if (extended_again) entry.bits = both;
        entry.max_column = atom.max_column;
        entry.covered = m - misses;
        next.push_back(std::move(entry));
      }
    }
    // The extended level's bitmaps are spent; level 1's are still
    // needed as the atoms of the next extension.
    if (levels.size() > 1) {
      for (LevelEntry& entry : prev) RowBits().swap(entry.bits);
    }
    if (next.empty()) break;
    levels.push_back(std::move(next));
  }
  for (std::vector<LevelEntry>& level : levels) {
    for (LevelEntry& entry : level) RowBits().swap(entry.bits);
  }

  // The empty conjunction (all rows) as an explicit candidate, so
  // filterless queries are recoverable. It never participates in the
  // level-wise extension (that would just duplicate the atomic level).
  std::vector<LevelEntry> extra_entries;
  if (options_.include_empty_predicate) {
    LevelEntry everything;
    everything.rows.resize(slice.num_rows());
    for (size_t r = 0; r < slice.num_rows(); ++r) {
      everything.rows[r] = static_cast<RowId>(r);
    }
    everything.covered = CountEntityRuns(everything.rows, row_entity);
    everything.max_column = -1;
    if (everything.covered >= required) {
      extra_entries.push_back(std::move(everything));
    }
  }
  levels.push_back(std::move(extra_entries));

  // ---- Assemble: group predicates by identical tuple sets ----
  std::unordered_map<uint64_t, std::vector<int>> groups_by_hash;
  for (auto& level : levels) {
    for (LevelEntry& entry : level) {
      int pred_id = static_cast<int>(result.predicates.size());
      int size = entry.predicate.size();
      if (size < static_cast<int>(result.predicates_by_size.size())) {
        ++result.predicates_by_size[static_cast<size_t>(size)];
      }
      uint64_t hash = HashTupleSet(entry.rows);
      int group_id = -1;
      for (int candidate_group : groups_by_hash[hash]) {
        if (result.groups[static_cast<size_t>(candidate_group)].rows ==
            entry.rows) {
          group_id = candidate_group;
          break;
        }
      }
      if (group_id < 0) {
        group_id = static_cast<int>(result.groups.size());
        PredicateGroup group;
        group.coverage = CoverageBitmap(entry.rows, row_entity, m);
        group.covered_entities = Popcount(group.coverage);
        group.rows = std::move(entry.rows);
        result.groups.push_back(std::move(group));
        groups_by_hash[hash].push_back(group_id);
      }
      result.groups[static_cast<size_t>(group_id)].predicate_ids.push_back(
          pred_id);
      MinedPredicate mined;
      mined.predicate = std::move(entry.predicate);
      mined.group_id = group_id;
      mined.covered_entities = entry.covered;
      result.predicates.push_back(std::move(mined));
    }
  }
  result.termination = gate.reason();
  return result;
}

}  // namespace paleo
