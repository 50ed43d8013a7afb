#include "storage/rank_prefix.h"

#include <algorithm>

namespace paleo {

namespace {

/// Rows of a numeric column ranked in result order: CompareScores on
/// the value, then entity name ascending, then row id.
struct RankOrder {
  const Column& values;
  const Column& entities;
  bool descending;

  bool operator()(RowId a, RowId b) const {
    const int c =
        CompareScores(values.NumericAt(a), values.NumericAt(b), descending);
    if (c != 0) return c < 0;
    const uint32_t ca = entities.CodeAt(a);
    const uint32_t cb = entities.CodeAt(b);
    if (ca != cb) return entities.dict()->Get(ca) < entities.dict()->Get(cb);
    return a < b;
  }
};

/// `slot` (the prefix of rows [0, first_new)) merged with the non-NaN
/// rows [first_new, values.size()), truncated to kRows. Equal to a
/// from-scratch build: a row left out of a full slot is beaten by all
/// kRows rows in it, and those stay in the table.
RankPrefixes::Slot MergeRankPrefix(const RankPrefixes::Slot& slot,
                                   const Column& values,
                                   const Column& entities, bool descending,
                                   RowId first_new) {
  const RowId n = static_cast<RowId>(values.size());
  const RankOrder order{values, entities, descending};
  RankPrefixes::Slot fresh;
  for (RowId r = first_new; r < n; ++r) {
    if (!std::isnan(values.NumericAt(r))) fresh.push_back(r);
  }
  const size_t limit = RankPrefixes::kRows;
  if (fresh.size() > limit) {
    std::partial_sort(fresh.begin(),
                      fresh.begin() + static_cast<ptrdiff_t>(limit),
                      fresh.end(), order);
    fresh.resize(limit);
  } else {
    std::sort(fresh.begin(), fresh.end(), order);
  }
  RankPrefixes::Slot out;
  out.reserve(std::min(limit, slot.size() + fresh.size()));
  auto a = slot.begin();
  auto b = fresh.begin();
  while (out.size() < limit && (a != slot.end() || b != fresh.end())) {
    if (b == fresh.end() || (a != slot.end() && !order(*b, *a))) {
      out.push_back(*a++);
    } else {
      out.push_back(*b++);
    }
  }
  return out;
}

}  // namespace

RankPrefixes::Slot BuildRankPrefix(const Column& values,
                                   const Column& entities, bool descending) {
  const RowId n = static_cast<RowId>(values.size());
  auto before = [descending](double a, double b) {
    return CompareScores(a, b, descending) < 0;
  };
  // The kRows-th best value is the cut: every row of the prefix ranks
  // at or ahead of it, so only those rows need the full-key sort.
  std::vector<double> numbers;
  numbers.reserve(n);
  for (RowId r = 0; r < n; ++r) {
    const double v = values.NumericAt(r);
    if (!std::isnan(v)) numbers.push_back(v);
  }
  const size_t limit = RankPrefixes::kRows;
  const bool cut = numbers.size() > limit;
  double cut_value = 0.0;
  if (cut) {
    const auto nth = numbers.begin() + static_cast<ptrdiff_t>(limit - 1);
    std::nth_element(numbers.begin(), nth, numbers.end(), before);
    cut_value = *nth;
  }
  numbers = {};
  RankPrefixes::Slot rows;
  for (RowId r = 0; r < n; ++r) {
    const double v = values.NumericAt(r);
    if (std::isnan(v)) continue;
    if (cut && CompareScores(v, cut_value, descending) > 0) continue;
    rows.push_back(r);
  }
  const RankOrder order{values, entities, descending};
  if (rows.size() > limit) {
    // Ties at the cut value: keep the best kRows by the full key.
    std::nth_element(rows.begin(),
                     rows.begin() + static_cast<ptrdiff_t>(limit - 1),
                     rows.end(), order);
    rows.resize(limit);
  }
  std::sort(rows.begin(), rows.end(), order);
  return rows;
}

std::shared_ptr<const RankPrefixes::Slot> RankPrefixes::Get(
    int col, bool descending, const Column& values,
    const Column& entities) const {
  const size_t i = Index(col, descending);
  MutexLock lock(mutex_);
  if (slots_.size() <= i) slots_.resize(i + 1);
  if (slots_[i] == nullptr) {
    slots_[i] = std::make_shared<const Slot>(
        BuildRankPrefix(values, entities, descending));
  }
  return slots_[i];
}

std::vector<std::shared_ptr<const RankPrefixes::Slot>> RankPrefixes::Built()
    const {
  MutexLock lock(mutex_);
  return slots_;
}

bool RankPrefixes::HasBuilt() const {
  MutexLock lock(mutex_);
  for (const auto& slot : slots_) {
    if (slot != nullptr) return true;
  }
  return false;
}

std::shared_ptr<RankPrefixes> RankPrefixes::Copy() const {
  std::vector<std::shared_ptr<const Slot>> built = Built();
  auto out = std::make_shared<RankPrefixes>();
  MutexLock lock(out->mutex_);
  out->slots_ = std::move(built);
  return out;
}

std::shared_ptr<RankPrefixes> RankPrefixes::Extended(
    const std::vector<Column>& columns, int entity_col,
    RowId first_new) const {
  std::vector<std::shared_ptr<const Slot>> built = Built();
  const Column& entities = columns[static_cast<size_t>(entity_col)];
  for (size_t i = 0; i < built.size(); ++i) {
    if (built[i] == nullptr) continue;
    built[i] = std::make_shared<const Slot>(
        MergeRankPrefix(*built[i], columns[i / 2], entities,
                        /*descending=*/i % 2 == 0, first_new));
  }
  auto out = std::make_shared<RankPrefixes>();
  MutexLock lock(out->mutex_);
  out->slots_ = std::move(built);
  return out;
}

size_t RankPrefixes::MemoryUsage() const {
  MutexLock lock(mutex_);
  size_t bytes = slots_.capacity() * sizeof(slots_[0]);
  for (const auto& slot : slots_) {
    if (slot != nullptr) bytes += slot->capacity() * sizeof(RowId);
  }
  return bytes;
}

}  // namespace paleo
