// Threshold-style early termination for candidate-query validation.
//
// Validation executes a candidate query only to compare its result
// against the KNOWN top-k list L — so the full grouped aggregate is
// wasted work the moment the outcome that matters is settled. In the
// spirit of threshold / any-k ranked enumeration (Tziavelis et al.)
// and provenance-based data skipping, each monitored execution first
// reads L's own rows, then bounds every foreign group from the chunks
// scanned so far, and aborts the scan with Status::QueryRefuted once
// the result provably misses its goal.
//
// Exact pre-pass. ThresholdMonitor gathers the rows of L's k entities
// once per validation run. Per execution, ThresholdState evaluates the
// candidate's predicate and ranking expression over those rows, in the
// executor's canonical order (row order within a chunk, partials merged
// in chunk order), so it knows every L entity's exact value under the
// candidate before any chunk is scanned. L's groups therefore need no
// running bounds; only foreign groups are tracked during the scan.
//
// Two goals (ThresholdGoal, chosen per execution by the caller):
//
//   kAccept     the result must equal L (ranked validation, phase 2 of
//               smart validation). The pre-pass refutes when an L
//               entity has no matching row or its value misses its
//               target beyond the slack. The scan refutes once ONE
//               foreign group provably ranks ahead of e*, the last L
//               entity in executor order: e* would leave the top k.
//   kFirstMatch the result must be neither accepted nor the first-match
//               query (phase 1 of smart validation: EntityJaccard >=
//               tau). Let c_tau be the least c with c/(2k - c) >= tau
//               (EntityJaccard's arithmetic for a k-row result sharing
//               c entities with L), and e* the c_tau-th L entity with
//               matching rows in executor order (value, then name).
//               The scan refutes once k - c_tau + 1 foreign groups
//               provably rank ahead of e*; when only c' < c_tau L
//               entities have matching rows, once k - c' foreign groups
//               have been touched at all. Either way the result has
//               exactly k rows with fewer than c_tau L entities, so its
//               Jaccard is below tau and it cannot equal L. tau <= 0
//               (c_tau = 0) refutes nothing; when no c_tau exists
//               (tau > 1 or NaN) no result can be the first match and
//               the execution runs under kAccept.
//
// Soundness of "k - c + 1 foreign groups ahead of the c-th L entity":
// the L entities in a top-k result are a prefix, in executor order, of
// those with matching rows. If c or more were in it, the c-th (e*)
// would be, and with it everything ranking ahead of it — c - 1 L
// entities plus k - c + 1 foreign groups, k + 1 rows in all. kAccept
// is the case c = k.
//
// "Provably ahead" uses the group's beat-side bound on its final value
// (lower bound under descending order, upper under ascending), with
// s = the group's running AggState over the processed chunks and, for
// the remaining chunks, per-row expression bounds [lo_c, hi_c] from
// their zone maps and row counts n_c:
//
//   SUM    lb = s.sum + sum_c n_c*min(0, lo_c)
//          ub = s.sum + sum_c n_c*max(0, hi_c)
//   COUNT  lb = s.count            ub = s.count + sum_c n_c
//   MAX    lb = s.max              ub = max(s.max, max_c hi_c)
//   MIN    lb = min(s.min, min_c lo_c)           ub = s.min
//   AVG    lb = min(s.sum/s.count, min_c lo_c)
//          ub = max(s.sum/s.count, max_c hi_c)
//
// Where that bound is the running statistic itself and changes only
// when the group is touched (MAX and COUNT descending, MIN ascending,
// SUM when no chunk's zone crosses zero on the losing side), groups
// are counted incrementally as they cross the cut. MAX, MIN and COUNT
// are exact, so a foreign group that exactly TIES e*'s value is ahead
// when its name precedes e*'s — the executor breaks value ties by
// name — and names are compared only on such exact ties. SUM compares
// beyond the slack instead. For the other shapes (MIN descending, MAX
// and COUNT ascending, SUM over chunks straddling zero) the bound also
// moves as chunks retire, so a single foreign group is sought through
// an extremum tracker plus an exact pass; they refute only when one
// group suffices (kAccept, or c_tau = k). AVG has no usable foreign
// bound before the last chunk and refutes only through the pre-pass or
// the touched-group count.
//
// A NaN ranking value among L's matching rows leaves executor order
// undefined around e*: that execution refutes nothing. The tolerance
// slack is wider than the acceptance rel_eps, so completion-order
// float wobble in running sums never refutes a candidate the canonical
// result would accept; values closer than the slack are settled by the
// ordinary full comparison.
//
// Thread-safety: ThresholdMonitor is immutable after construction and
// shared by every execution of one validation run. ThresholdState is
// per-execution: NoteChunk / NoteChunkSkipped are internally
// synchronized (morsel workers call them concurrently in completion
// order — the bounds above are set-of-chunks semantics, so completion
// order does not matter); refuted() is a lock-free flag cheap enough
// to poll between chunks.

#ifndef PALEO_ENGINE_THRESHOLD_MONITOR_H_
#define PALEO_ENGINE_THRESHOLD_MONITOR_H_

#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <set>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "engine/aggregate.h"
#include "engine/exec_context.h"
#include "engine/query.h"
#include "engine/topk_list.h"
#include "storage/table.h"
#include "storage/table_view.h"

namespace paleo {

class BoundPredicate;
class EntityIndex;

/// "pre_pass", "first_match", "bounds", or "" for kNone.
const char* RefutationRuleName(RefutationRule rule);

/// \brief Immutable per-validation-run refutation targets: L resolved
/// against the table's entity dictionary, with its entities' rows.
class ThresholdMonitor {
 public:
  /// Builds the monitor for reverse engineering `input` over `table`
  /// with candidate queries ordered by `order`. `rel_eps` is the
  /// acceptance tolerance; the monitor widens it into its refutation
  /// slack. `first_match_tau` is smart validation's Jaccard threshold
  /// (the first-match goal; NaN: no result can be the first match).
  /// L's rows come from `index` when given (it must index `table`) and
  /// from one pass over the entity column otherwise. The monitor
  /// deactivates itself (active() == false, prunes nothing) whenever
  /// refutation would be unsound or useless: an empty input, duplicate
  /// entities (no grouped query can produce them), an entity absent
  /// from the table's dictionary, or values not sorted consistently
  /// with `order`.
  ThresholdMonitor(
      const Table& table, const TopKList& input, SortOrder order,
      double rel_eps,
      double first_match_tau = std::numeric_limits<double>::quiet_NaN(),
      const EntityIndex* index = nullptr);

  ThresholdMonitor(const ThresholdMonitor&) = delete;
  ThresholdMonitor& operator=(const ThresholdMonitor&) = delete;

  bool active() const { return active_; }

  /// True when `query`'s shape matches what the targets were built
  /// for: grouped aggregate, same k, same sort order. The executor
  /// prunes only when this holds (and the monitor is active).
  bool AppliesTo(const TopKQuery& query) const {
    return active_ && query.agg != AggFn::kNone &&
           static_cast<size_t>(query.k) == targets_.size() &&
           query.order == order_;
  }

  SortOrder order() const { return order_; }
  size_t k() const { return targets_.size(); }
  /// The refutation slack (relative), wider than the acceptance eps.
  double slack() const { return slack_; }
  /// c_tau: the least number of L entities a k-row result must contain
  /// for its EntityJaccard with L to reach the first-match tau, or -1
  /// when no result can reach it.
  int first_match_count() const { return first_match_count_; }

  /// One entry of L resolved against the table.
  struct Target {
    uint32_t code;
    /// L's value for the entity: what an accepted result must show.
    double value;
    /// The entity's rows in the table, ascending.
    std::vector<RowId> rows;
  };
  /// L's entries in list order.
  const std::vector<Target>& targets() const { return targets_; }

  /// Dense is-an-entity-of-L test (valid codes only; built once for
  /// the whole run — the merge loop probes it per touched group, where
  /// a hash lookup would dominate the merge).
  bool IsTarget(uint32_t code) const {
    return code < is_target_.size() && is_target_[code] != 0;
  }

  /// \brief Reusable dense per-group accumulation buffers.
  ///
  /// A ThresholdState needs a dict-sized dense AggState array; zeroing
  /// one per execution costs more than the whole incremental check, so
  /// states borrow generation-stamped buffers from this pool (slots
  /// whose stamp is stale read as untouched) and return them on
  /// destruction. Buffers are handed to one state at a time; the pool
  /// itself is internally synchronized.
  struct GroupScratch {
    std::vector<AggState> groups;
    std::vector<uint32_t> stamps;
    uint32_t gen = 0;
    std::vector<uint32_t> touched;
  };
  std::unique_ptr<GroupScratch> AcquireScratch(size_t dict_size) const;
  void ReleaseScratch(std::unique_ptr<GroupScratch> scratch) const;

 private:
  bool active_ = false;
  SortOrder order_ = SortOrder::kDesc;
  double slack_ = 0.0;
  int first_match_count_ = -1;
  std::vector<Target> targets_;
  std::vector<uint8_t> is_target_;

  mutable Mutex pool_mutex_;
  mutable std::vector<std::unique_ptr<GroupScratch>> pool_
      GUARDED_BY(pool_mutex_);
};

/// \brief Per-execution pre-pass, running aggregates and bounds.
///
/// Created by the executor for one full grouped scan; morsel workers
/// feed completed chunks through NoteChunk / NoteChunkSkipped and poll
/// refuted() before claiming the next chunk.
class ThresholdState {
 public:
  /// Runs the exact pre-pass over L's rows (`bound` is the candidate's
  /// predicate bound to `table`; the pre-pass alone may refute). Only
  /// when it settles nothing and the shape needs them are per-chunk
  /// expression bounds read from `view`'s zone maps (SUM's sign test,
  /// the tracker's multisets).
  ThresholdState(const ThresholdMonitor* monitor, const Table& table,
                 const TableView& view, const TopKQuery& query,
                 const BoundPredicate& bound, ThresholdGoal goal);
  /// Returns the borrowed group scratch to the monitor's pool.
  ~ThresholdState();

  ThresholdState(const ThresholdState&) = delete;
  ThresholdState& operator=(const ThresholdState&) = delete;

  /// True once the result provably misses the goal. Sticky.
  /// relaxed: advisory abort flag; workers that miss it by one chunk
  /// just scan one extra chunk. No data is published through it.
  bool refuted() const { return refuted_.load(std::memory_order_relaxed); }

  /// True when some rule can still refute during the scan (false after
  /// the pre-pass settles nothing for this candidate: the executor then
  /// drops the state and scans unmonitored).
  bool armed() const { return armed_; }

  /// The rule that refuted; kNone while refuted() is false. Read after
  /// the scan's workers joined.
  RefutationRule refuted_by() const;

  /// A zone-map-skipped chunk contributes no matching rows: drop it
  /// from the remaining potentials (which can only tighten bounds).
  void NoteChunkSkipped(size_t chunk_index);

  /// Folds one completed chunk's compact per-group partials into the
  /// running aggregates of its foreign groups, drops the chunk from the
  /// remaining potentials, and re-checks the goal (O(touched groups)).
  void NoteChunk(size_t chunk_index, const std::vector<uint32_t>& touched,
                 const std::vector<AggState>& partials);

 private:
  /// How foreign groups are tested against the cut (set once in the
  /// ctor; see the header comment).
  enum class CutMode {
    kNone,
    /// Beat-side bound is the exact running MAX / MIN / COUNT.
    kExact,
    /// Beat-side bound is the running SUM (no zone crosses zero).
    kSum,
    /// Bound also moves on chunk retirement: extremum tracker plus an
    /// exact pass, one group suffices.
    kTracker,
  };

  /// The pre-pass and goal setup; called once from the ctor.
  void InitGoalLocked(const Table& table, const TableView& view,
                      const TopKQuery& query, const BoundPredicate& bound,
                      ThresholdGoal goal) REQUIRES(mutex_);
  /// Per-chunk expression bounds and the remaining potentials, for the
  /// modes that read them (SUM's sign test, kTracker); called once,
  /// after the pre-pass has not refuted.
  void InitChunkBoundsLocked(const Table& table, const TableView& view,
                             const RankExpr& expr) REQUIRES(mutex_);
  void RefuteLocked(RefutationRule rule) REQUIRES(mutex_);
  /// Removes chunk `chunk_index` from the remaining-potential
  /// accounting (kTracker only: no other mode reads it after the ctor).
  /// Idempotence guard: each chunk is noted at most once (the scan
  /// claims each chunk exactly once).
  void RetireChunkLocked(size_t chunk_index) REQUIRES(mutex_);
  /// [lb, ub] on group `s`'s final value given the current remaining
  /// potentials (the header formulas).
  void BoundsLocked(const AggState& s, double rem_hi, double rem_lo,
                    double* lb, double* ub) const REQUIRES(mutex_);
  /// The running statistic the cut is tested on: s.max / s.min / s.sum
  /// / s.count by aggregate kind (AVG: none, returns NaN).
  double Stat(const AggState& s) const;
  /// kExact / kSum: true when a foreign group whose beat-side bound is
  /// `stat` provably ranks ahead of e*. Names are compared only on an
  /// exact tie with the cut value.
  bool AheadOfCut(double stat, uint32_t code) const;
  /// kTracker: the O(1) extremum test, escalating to
  /// VerifyForeignLocked only when a foreign group might newly beat the
  /// cut.
  void CheckLocked() REQUIRES(mutex_);
  /// kTracker: the exact pass over every seen foreign group. Refutes,
  /// or tightens `foreign_stat_` to the true current extremum so the
  /// O(1) trigger stays quiet until something changes.
  void VerifyForeignLocked(double rem_hi, double rem_lo) REQUIRES(mutex_);

  const ThresholdMonitor* monitor_;
  const StringDictionary* dict_;
  AggFn agg_;
  bool desc_;
  bool armed_ = false;
  CutMode mode_ = CutMode::kNone;
  /// The rule a scan-time refutation reports (kFirstMatch or kBounds).
  RefutationRule scan_rule_ = RefutationRule::kNone;
  /// e*: its exact value under the candidate and its entity code.
  double cut_value_ = 0.0;
  uint32_t cut_code_ = 0;
  /// Foreign groups provably ahead of e* needed to refute (0: off).
  size_t need_ahead_ = 0;
  /// Touched foreign groups needed to refute (0: off).
  size_t need_touched_ = 0;

  /// Per-chunk per-row expression bounds and row counts (index =
  /// chunk; empty unless InitChunkBoundsLocked ran). Infinite bounds
  /// for unsummarizable (empty) zones.
  std::vector<double> chunk_lo_;
  std::vector<double> chunk_hi_;
  std::vector<size_t> chunk_rows_;

  mutable Mutex mutex_;
  RefutationRule refuted_by_ GUARDED_BY(mutex_) = RefutationRule::kNone;
  std::vector<bool> chunk_done_ GUARDED_BY(mutex_);
  /// Remaining matchable rows across unretired chunks.
  size_t rem_rows_ GUARDED_BY(mutex_) = 0;
  /// sum_c n_c * max(0, hi_c) / sum_c n_c * min(0, lo_c) over
  /// unretired chunks (SUM bounds).
  double rem_pos_ GUARDED_BY(mutex_) = 0.0;
  double rem_neg_ GUARDED_BY(mutex_) = 0.0;
  /// Multisets of per-chunk hi / lo over unretired chunks, for O(log n)
  /// max/min maintenance under chunk retirement (kTracker only).
  std::multiset<double> rem_his_ GUARDED_BY(mutex_);
  std::multiset<double> rem_los_ GUARDED_BY(mutex_);
  /// Dense running aggregates of the foreign groups + their touched-
  /// code list, borrowed from the monitor's pool (generation-stamped,
  /// so no per-execution zeroing). Null while the state is unarmed.
  std::unique_ptr<ThresholdMonitor::GroupScratch> scratch_
      GUARDED_BY(mutex_);
  /// Foreign groups touched so far / counted ahead of e* so far.
  size_t touched_ GUARDED_BY(mutex_) = 0;
  size_t ahead_ GUARDED_BY(mutex_) = 0;
  /// kTracker: foreign-group extremum of Stat() (max under desc, min
  /// under asc) — a stale-but-conservative bound that only ever
  /// over-triggers VerifyForeignLocked, never under.
  double foreign_stat_ GUARDED_BY(mutex_);

  // relaxed: see refuted().
  std::atomic<bool> refuted_{false};
};

}  // namespace paleo

#endif  // PALEO_ENGINE_THRESHOLD_MONITOR_H_
