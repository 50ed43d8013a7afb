// ExecContext: the one-stop parameter block for Executor scans.
//
// Execute / ExecuteOnRows / CountMatching used to accumulate positional
// parameters (budget pointer, atom-cache pointer, and with chunked
// storage a thread pool and morsel knobs would have made it worse).
// All per-call execution state now travels in this struct, passed by
// const reference; the old positional overloads were deleted in PR 9
// and the paleo_lint exec-context rule bans the call shape tree-wide.
//
// An ExecContext is cheap to construct (a handful of pointers and
// flags) and carries NO ownership: every pointer is optional, borrowed,
// and must outlive the call. A default-constructed context means
// "sequential, unbudgeted, uncached" and is always valid.

#ifndef PALEO_ENGINE_EXEC_CONTEXT_H_
#define PALEO_ENGINE_EXEC_CONTEXT_H_

#include <cstddef>

namespace paleo {

class AtomSelectionCache;
class RunBudget;
class ThreadPool;
class ThresholdMonitor;

/// \brief Per-call execution parameters for Executor scans.
struct ExecContext {
  /// Cooperative budget polled every few thousand rows; nullptr (or an
  /// unlimited budget) never interrupts. On exhaustion the scan is
  /// abandoned with Status::Cancelled — a partially scanned result
  /// would be wrong.
  const RunBudget* budget = nullptr;

  /// Cross-candidate selection cache (internally synchronized, shared
  /// across threads), keyed by (table epoch, chunk, atom). nullptr
  /// disables reuse; results are identical either way.
  AtomSelectionCache* cache = nullptr;

  /// Thread pool for morsel-parallel full scans. nullptr keeps the scan
  /// on the calling thread. The pool is shared infrastructure (the
  /// validator's workers fan scan morsels into the same pool and join
  /// with WaitHelping, so nesting cannot deadlock).
  ThreadPool* pool = nullptr;

  /// Upper bound on morsel workers for one scan. Values <= 1, a null
  /// `pool`, or a single-chunk table keep the scan sequential. The
  /// result is byte-identical at any setting (rank-order merge of
  /// per-chunk partials).
  int scan_threads = 1;

  /// Consult per-chunk zone maps to skip chunks no row of which can
  /// match the predicate (default on). Skipped chunks are excluded from
  /// rows_scanned and reported in ExecStats::chunks_skipped.
  bool zone_map_skipping = true;

  /// Threshold-refutation targets for validation executions
  /// (engine/threshold_monitor.h). When set (and applicable to the
  /// query: grouped aggregate, matching k and order, multi-chunk full
  /// scan), the scan maintains per-group bounds between chunks and is
  /// aborted with Status::QueryRefuted the instant the result provably
  /// cannot equal the monitor's input list. nullptr (the default)
  /// always computes the full result. Soundness contract: a refuted
  /// execution's full result would NOT have been accepted, so callers
  /// treat refutation as an ordinary rejection.
  const ThresholdMonitor* threshold = nullptr;
};

}  // namespace paleo

#endif  // PALEO_ENGINE_EXEC_CONTEXT_H_
