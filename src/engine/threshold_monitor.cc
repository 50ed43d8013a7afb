#include "engine/threshold_monitor.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "engine/predicate.h"
#include "index/entity_index.h"
#include "storage/zone_map.h"

namespace paleo {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Refutation slack: wide enough to absorb float wobble between the
/// completion-order running bounds and the canonical-order final
/// values, narrow enough to catch any macroscopic mismatch. Never
/// tighter than the acceptance eps.
double SlackFor(double rel_eps) { return std::max(rel_eps * 16.0, 1e-7); }

/// True when x exceeds v by more than the relative slack (the same
/// scale convention as ValuesClose in engine/topk_list.h).
bool Above(double x, double v, double slack) {
  const double scale = std::max(std::abs(x), std::abs(v));
  return x - v > slack * std::max(scale, 1.0);
}

/// Per-row [lo, hi] of one column over one chunk, from its zone map.
/// Empty zones (all-NaN or legacy layouts) are unbounded.
void ColumnBounds(const Column& col, const ZoneMap& zone, double* lo,
                  double* hi) {
  if (zone.empty) {
    *lo = -kInf;
    *hi = kInf;
    return;
  }
  switch (col.type()) {
    case DataType::kInt64:
      *lo = static_cast<double>(zone.int_min);
      *hi = static_cast<double>(zone.int_max);
      return;
    case DataType::kDouble:
      *lo = zone.double_min;
      *hi = zone.double_max;
      return;
    case DataType::kString:
      // A string column cannot be a ranking operand (the executor
      // validates numeric columns); unbounded keeps this conservative.
      *lo = -kInf;
      *hi = kInf;
      return;
  }
  *lo = -kInf;
  *hi = kInf;
}

/// Per-row [lo, hi] of the ranking expression over one chunk.
void ExprBounds(const RankExpr& expr, const Table& table, const Chunk& chunk,
                double* lo, double* hi) {
  double la;
  double ha;
  const size_t col_a = static_cast<size_t>(expr.column_a());
  ColumnBounds(table.column(static_cast<int>(col_a)), chunk.zones[col_a], &la,
               &ha);
  if (expr.is_single_column()) {
    *lo = la;
    *hi = ha;
    return;
  }
  double lb;
  double hb;
  const size_t col_b = static_cast<size_t>(expr.column_b());
  ColumnBounds(table.column(static_cast<int>(col_b)), chunk.zones[col_b], &lb,
               &hb);
  if (expr.kind() == RankExpr::Kind::kAdd) {
    *lo = la + lb;
    *hi = ha + hb;
    return;
  }
  // kMul: the product range is spanned by the interval corners. Any
  // non-finite operand bound makes corner arithmetic ill-defined
  // (inf * 0 = NaN): stay conservative with unbounded.
  if (!std::isfinite(la) || !std::isfinite(ha) || !std::isfinite(lb) ||
      !std::isfinite(hb)) {
    *lo = -kInf;
    *hi = kInf;
    return;
  }
  const double c1 = la * lb;
  const double c2 = la * hb;
  const double c3 = ha * lb;
  const double c4 = ha * hb;
  *lo = std::min(std::min(c1, c2), std::min(c3, c4));
  *hi = std::max(std::max(c1, c2), std::max(c3, c4));
}

}  // namespace

const char* RefutationRuleName(RefutationRule rule) {
  switch (rule) {
    case RefutationRule::kPrePass:
      return "pre_pass";
    case RefutationRule::kFirstMatch:
      return "first_match";
    case RefutationRule::kBounds:
      return "bounds";
    case RefutationRule::kNone:
      break;
  }
  return "";
}

ThresholdMonitor::ThresholdMonitor(const Table& table, const TopKList& input,
                                   SortOrder order, double rel_eps,
                                   double first_match_tau,
                                   const EntityIndex* index)
    : order_(order), slack_(SlackFor(rel_eps)) {
  if (input.empty()) return;
  // Values must be sorted consistently with the candidate order; an
  // unsorted L can never be produced by a grouped top-k query, so
  // pruning would save nothing the ordinary rejection does not.
  const std::vector<TopKEntry>& entries = input.entries();
  for (size_t i = 1; i < entries.size(); ++i) {
    const bool ok = order == SortOrder::kDesc
                        ? entries[i - 1].value >= entries[i].value
                        : entries[i - 1].value <= entries[i].value;
    if (!ok) return;
  }
  const StringDictionary& dict = *table.entity_column().dict();
  is_target_.assign(dict.size(), 0);
  std::vector<uint32_t> slot_of(dict.size(), 0);
  targets_.reserve(entries.size());
  for (const TopKEntry& e : entries) {
    const uint32_t code = dict.Lookup(e.entity);
    // An entity absent from R's dictionary (possible on mutated or
    // foreign inputs) or duplicated in L (kNone-style lists) means no
    // grouped candidate can ever be accepted; deactivate rather than
    // special-case.
    if (code == StringDictionary::kInvalidCode || is_target_[code] != 0) {
      targets_.clear();
      is_target_.clear();
      return;
    }
    is_target_[code] = 1;
    slot_of[code] = static_cast<uint32_t>(targets_.size());
    targets_.push_back(Target{code, e.value, {}});
  }
  // L's provenance rows, ascending per entity.
  if (index != nullptr) {
    for (Target& t : targets_) t.rows = index->Lookup(dict.Get(t.code));
  } else {
    const std::vector<uint32_t>& codes = table.entity_column().codes();
    for (size_t r = 0; r < codes.size(); ++r) {
      if (is_target_[codes[r]] != 0) {
        targets_[slot_of[codes[r]]].rows.push_back(static_cast<RowId>(r));
      }
    }
  }
  // c_tau with EntityJaccard's arithmetic: a k-row result sharing c
  // entities with L (k distinct entities) has intersection c and union
  // 2k - c.
  const size_t k = targets_.size();
  for (size_t c = 0; c <= k; ++c) {
    if (static_cast<double>(c) / static_cast<double>(2 * k - c) >=
        first_match_tau) {
      first_match_count_ = static_cast<int>(c);
      break;
    }
  }
  active_ = true;
}

std::unique_ptr<ThresholdMonitor::GroupScratch>
ThresholdMonitor::AcquireScratch(size_t dict_size) const {
  std::unique_ptr<GroupScratch> scratch;
  {
    MutexLock lock(pool_mutex_);
    if (!pool_.empty()) {
      scratch = std::move(pool_.back());
      pool_.pop_back();
    }
  }
  if (scratch == nullptr) scratch = std::make_unique<GroupScratch>();
  if (scratch->groups.size() < dict_size) {
    scratch->groups.resize(dict_size);
    scratch->stamps.resize(dict_size, 0);
  }
  // Advancing the generation invalidates every stale slot at once. On
  // the (unreachable in practice) wraparound the stamps are rewound
  // explicitly so no slot can alias the fresh generation.
  if (++scratch->gen == 0) {
    std::fill(scratch->stamps.begin(), scratch->stamps.end(), 0);
    scratch->gen = 1;
  }
  scratch->touched.clear();
  return scratch;
}

void ThresholdMonitor::ReleaseScratch(
    std::unique_ptr<GroupScratch> scratch) const {
  if (scratch == nullptr) return;
  MutexLock lock(pool_mutex_);
  pool_.push_back(std::move(scratch));
}

ThresholdState::ThresholdState(const ThresholdMonitor* monitor,
                               const Table& table, const TableView& view,
                               const TopKQuery& query,
                               const BoundPredicate& bound,
                               ThresholdGoal goal)
    : monitor_(monitor),
      dict_(table.entity_column().dict().get()),
      agg_(query.agg),
      desc_(query.order == SortOrder::kDesc) {
  MutexLock lock(mutex_);
  InitGoalLocked(table, view, query, bound, goal);
  if (armed_) {
    scratch_ = monitor->AcquireScratch(dict_->size());
    foreign_stat_ = desc_ ? -kInf : kInf;
  }
}

void ThresholdState::InitChunkBoundsLocked(const Table& table,
                                           const TableView& view,
                                           const RankExpr& expr) {
  const size_t num_chunks = view.num_chunks();
  chunk_lo_.resize(num_chunks);
  chunk_hi_.resize(num_chunks);
  chunk_rows_.resize(num_chunks);
  chunk_done_.assign(num_chunks, false);
  for (size_t i = 0; i < num_chunks; ++i) {
    const Chunk& ch = view.chunk(i);
    ExprBounds(expr, table, ch, &chunk_lo_[i], &chunk_hi_[i]);
    chunk_rows_[i] = ch.num_rows();
    rem_rows_ += chunk_rows_[i];
    const double n = static_cast<double>(chunk_rows_[i]);
    rem_pos_ += n * std::max(0.0, chunk_hi_[i]);
    rem_neg_ += n * std::min(0.0, chunk_lo_[i]);
  }
}

void ThresholdState::InitGoalLocked(const Table& table,
                                    const TableView& view,
                                    const TopKQuery& query,
                                    const BoundPredicate& bound,
                                    ThresholdGoal goal) {
  const std::vector<ThresholdMonitor::Target>& targets = monitor_->targets();
  const size_t k = targets.size();
  const int c_tau = monitor_->first_match_count();
  if (goal == ThresholdGoal::kFirstMatch) {
    if (c_tau == 0) return;  // every result reaches tau
    if (c_tau < 0) goal = ThresholdGoal::kAccept;  // none can
  }

  // Exact pre-pass: each L entity's value under the candidate, folded
  // in the executor's canonical order (row order within a chunk, chunk
  // partials merged in chunk order), so it equals the full execution's.
  const size_t chunk_rows = table.chunk_rows();
  std::vector<AggState> exact(k);
  std::vector<size_t> with_rows;
  for (size_t i = 0; i < k; ++i) {
    AggState part;
    size_t part_chunk = 0;
    auto fold = [&]() {
      if (part.count == 0) return;
      if (exact[i].count == 0) {
        exact[i] = part;
      } else {
        exact[i].Merge(part);
      }
      part = AggState{};
    };
    for (RowId r : targets[i].rows) {
      if (!bound.Matches(r)) continue;
      const double v = query.expr.Eval(table, r);
      // NaN leaves executor order undefined around L's entities.
      if (std::isnan(v)) return;
      if (r / chunk_rows != part_chunk) {
        fold();
        part_chunk = r / chunk_rows;
      }
      part.Add(v);
    }
    fold();
    if (exact[i].count > 0) with_rows.push_back(i);
  }

  size_t cut_rank = k;  // e* is the cut_rank-th L entity with rows
  if (goal == ThresholdGoal::kAccept) {
    // An accepted result holds every L entity at its target value.
    for (size_t i = 0; i < k; ++i) {
      const double target = targets[i].value;
      if (exact[i].count == 0) {
        RefuteLocked(RefutationRule::kPrePass);
        return;
      }
      const double v = exact[i].Finish(agg_);
      if (Above(v, target, monitor_->slack()) ||
          Above(target, v, monitor_->slack())) {
        RefuteLocked(RefutationRule::kPrePass);
        return;
      }
    }
    scan_rule_ = RefutationRule::kBounds;
  } else {
    scan_rule_ = RefutationRule::kFirstMatch;
    cut_rank = static_cast<size_t>(c_tau);
    if (with_rows.size() < cut_rank) {
      // Fewer than c_tau L entities can appear at all: k - c' touched
      // foreign groups fill a k-row result short of tau.
      need_touched_ = k - with_rows.size();
      armed_ = true;
      return;
    }
  }

  // e*: the cut_rank-th L entity with rows in executor order (value,
  // then name); k - cut_rank + 1 foreign groups ahead of it refute.
  auto before = [&](size_t a, size_t b) {
    const double va = exact[a].Finish(agg_);
    const double vb = exact[b].Finish(agg_);
    if (va != vb) return desc_ ? va > vb : va < vb;
    return dict_->Get(targets[a].code) < dict_->Get(targets[b].code);
  };
  auto nth = with_rows.begin() + static_cast<ptrdiff_t>(cut_rank - 1);
  std::nth_element(with_rows.begin(), nth, with_rows.end(), before);
  cut_value_ = exact[*nth].Finish(agg_);
  cut_code_ = targets[*nth].code;
  need_ahead_ = k - cut_rank + 1;

  const bool exact_side = desc_ ? (agg_ == AggFn::kMax || agg_ == AggFn::kCount)
                                : agg_ == AggFn::kMin;
  if (exact_side) {
    mode_ = CutMode::kExact;
    armed_ = true;
    return;
  }
  const bool tracker_side = need_ahead_ == 1 && agg_ != AggFn::kAvg;
  if (agg_ != AggFn::kSum && !tracker_side) {
    return;  // no foreign bound usable for this goal
  }
  // Only SUM's sign test and the tracker read the chunks' zone bounds.
  InitChunkBoundsLocked(table, view, query.expr);
  // SUM's beat-side bound is the running sum exactly when no remaining
  // chunk can pull it the other way.
  const bool sum_side = agg_ == AggFn::kSum &&
                        (desc_ ? rem_neg_ == 0.0 : rem_pos_ == 0.0);
  if (sum_side) {
    mode_ = CutMode::kSum;
  } else if (tracker_side) {
    mode_ = CutMode::kTracker;
    for (size_t i = 0; i < chunk_hi_.size(); ++i) {
      rem_his_.insert(chunk_hi_[i]);
      rem_los_.insert(chunk_lo_[i]);
    }
  } else {
    return;  // no foreign bound usable for this goal
  }
  armed_ = true;
}

ThresholdState::~ThresholdState() {
  std::unique_ptr<ThresholdMonitor::GroupScratch> scratch;
  {
    MutexLock lock(mutex_);
    scratch = std::move(scratch_);
  }
  monitor_->ReleaseScratch(std::move(scratch));
}

RefutationRule ThresholdState::refuted_by() const {
  MutexLock lock(mutex_);
  return refuted_by_;
}

void ThresholdState::RefuteLocked(RefutationRule rule) {
  if (refuted_by_ == RefutationRule::kNone) refuted_by_ = rule;
  // relaxed: see refuted(); the flag is advisory and sticky.
  refuted_.store(true, std::memory_order_relaxed);
}

void ThresholdState::RetireChunkLocked(size_t chunk_index) {
  // Only the tracker's bounds move as chunks retire.
  if (mode_ != CutMode::kTracker || chunk_done_[chunk_index]) return;
  chunk_done_[chunk_index] = true;
  rem_rows_ -= chunk_rows_[chunk_index];
  const double n = static_cast<double>(chunk_rows_[chunk_index]);
  rem_pos_ -= n * std::max(0.0, chunk_hi_[chunk_index]);
  rem_neg_ -= n * std::min(0.0, chunk_lo_[chunk_index]);
  rem_his_.erase(rem_his_.find(chunk_hi_[chunk_index]));
  rem_los_.erase(rem_los_.find(chunk_lo_[chunk_index]));
}

void ThresholdState::NoteChunkSkipped(size_t chunk_index) {
  MutexLock lock(mutex_);
  RetireChunkLocked(chunk_index);
  // Dropping a chunk only tightens bounds: seen groups may now be
  // refutable even though no new rows arrived.
  if (mode_ == CutMode::kTracker) CheckLocked();
}

double ThresholdState::Stat(const AggState& s) const {
  switch (agg_) {
    case AggFn::kMax:
      return s.max;
    case AggFn::kMin:
      return s.min;
    case AggFn::kSum:
      return s.sum;
    case AggFn::kCount:
      return static_cast<double>(s.count);
    case AggFn::kAvg:
    case AggFn::kNone:
      break;
  }
  return std::numeric_limits<double>::quiet_NaN();
}

bool ThresholdState::AheadOfCut(double stat, uint32_t code) const {
  if (mode_ == CutMode::kSum) {
    return desc_ ? Above(stat, cut_value_, monitor_->slack())
                 : Above(cut_value_, stat, monitor_->slack());
  }
  // kExact: the group's final value is at least (desc) / at most (asc)
  // `stat`, exactly; an exact tie is broken by name, as the executor
  // does.
  if (stat != cut_value_) return desc_ ? stat > cut_value_ : stat < cut_value_;
  return dict_->Get(code) < dict_->Get(cut_code_);
}

void ThresholdState::NoteChunk(size_t chunk_index,
                               const std::vector<uint32_t>& touched,
                               const std::vector<AggState>& partials) {
  MutexLock lock(mutex_);
  RetireChunkLocked(chunk_index);
  // relaxed: see refuted(); a refuted state needs no more merging.
  if (refuted_.load(std::memory_order_relaxed)) return;
  const uint32_t gen = scratch_->gen;
  const bool incremental =
      mode_ == CutMode::kExact || mode_ == CutMode::kSum;
  for (size_t i = 0; i < touched.size(); ++i) {
    const uint32_t code = touched[i];
    // L's groups are settled by the pre-pass; only foreign ones count.
    if (monitor_->IsTarget(code)) continue;
    AggState& g = scratch_->groups[code];
    const bool fresh = scratch_->stamps[code] != gen;
    if (fresh) {
      scratch_->stamps[code] = gen;
      g = AggState{};
      scratch_->touched.push_back(code);
      if (need_touched_ > 0 && ++touched_ >= need_touched_) {
        RefuteLocked(scan_rule_);
        return;
      }
    }
    if (mode_ == CutMode::kNone) continue;  // counting touches only
    const double before = Stat(g);
    // Merge order is morsel completion order, NOT the canonical chunk
    // order — fine for bounds (set semantics), absorbed by the slack
    // for float wobble.
    g.Merge(partials[i]);
    const double stat = Stat(g);
    if (incremental) {
      // The statistic only moves toward the cut's beat side, so a
      // group is counted once: when it first crosses.
      if (AheadOfCut(stat, code) && (fresh || !AheadOfCut(before, code)) &&
          ++ahead_ >= need_ahead_) {
        RefuteLocked(scan_rule_);
        return;
      }
    } else if (mode_ == CutMode::kTracker) {
      foreign_stat_ = desc_ ? std::max(foreign_stat_, stat)
                            : std::min(foreign_stat_, stat);
    }
  }
  if (mode_ == CutMode::kTracker) CheckLocked();
}

void ThresholdState::BoundsLocked(const AggState& s, double rem_hi,
                                  double rem_lo, double* lb,
                                  double* ub) const {
  switch (agg_) {
    case AggFn::kMax:
      *lb = s.max;
      *ub = std::max(s.max, rem_hi);
      return;
    case AggFn::kMin:
      *lb = std::min(s.min, rem_lo);
      *ub = s.min;
      return;
    case AggFn::kSum:
      *lb = s.sum + rem_neg_;
      *ub = s.sum + rem_pos_;
      return;
    case AggFn::kCount:
      *lb = static_cast<double>(s.count);
      *ub = static_cast<double>(s.count + static_cast<int64_t>(rem_rows_));
      return;
    case AggFn::kAvg: {
      const double cur = s.sum / static_cast<double>(s.count);
      if (rem_rows_ == 0) {
        *lb = *ub = cur;
      } else {
        *lb = std::min(cur, rem_lo);
        *ub = std::max(cur, rem_hi);
      }
      return;
    }
    case AggFn::kNone:
      break;  // never constructed for ungrouped queries
  }
  *lb = -kInf;
  *ub = kInf;
}

void ThresholdState::CheckLocked() {
  // relaxed: see refuted().
  if (refuted_.load(std::memory_order_relaxed)) return;
  const double rem_hi = rem_his_.empty() ? -kInf : *rem_his_.rbegin();
  const double rem_lo = rem_los_.empty() ? kInf : *rem_los_.begin();
  const double slack = monitor_->slack();
  // O(1) on the extremum tracker. Only when the tracker's (possibly
  // stale) bound says some foreign group might provably beat the cut
  // do we pay the exact per-group pass; a no-refute pass tightens the
  // tracker, so repeated triggers need the bound to move again.
  // NaN-poisoned statistics fail the comparison and trigger nothing
  // (conservative). Only the shapes whose bound moves on retirement
  // reach here: MIN / SUM under desc, MAX / COUNT / SUM under asc.
  const double cut = cut_value_;
  bool trigger = false;
  switch (agg_) {
    case AggFn::kMax:
      trigger = Above(cut, std::max(foreign_stat_, rem_hi), slack);
      break;
    case AggFn::kMin:
      trigger = Above(std::min(foreign_stat_, rem_lo), cut, slack);
      break;
    case AggFn::kSum:
      trigger = desc_ ? Above(foreign_stat_ + rem_neg_, cut, slack)
                      : Above(cut, foreign_stat_ + rem_pos_, slack);
      break;
    case AggFn::kCount:
      trigger = Above(cut, foreign_stat_ + static_cast<double>(rem_rows_),
                      slack);
      break;
    case AggFn::kAvg:
    case AggFn::kNone:
      break;
  }
  if (trigger) VerifyForeignLocked(rem_hi, rem_lo);
}

void ThresholdState::VerifyForeignLocked(double rem_hi, double rem_lo) {
  const double slack = monitor_->slack();
  double tight = desc_ ? -kInf : kInf;
  for (uint32_t code : scratch_->touched) {
    const AggState& s = scratch_->groups[code];
    double lb;
    double ub;
    BoundsLocked(s, rem_hi, rem_lo, &lb, &ub);
    // NaN-poisoned bounds fail both comparisons and refute nothing
    // (conservative).
    if (desc_ ? Above(lb, cut_value_, slack) : Above(cut_value_, ub, slack)) {
      RefuteLocked(scan_rule_);
      return;
    }
    const double stat = Stat(s);
    tight = desc_ ? std::max(tight, stat) : std::min(tight, stat);
  }
  foreign_stat_ = tight;
}

}  // namespace paleo
