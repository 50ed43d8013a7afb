// Query executor: evaluates the template query over a table with a
// filter -> hash group-by -> bounded top-k heap pipeline.
//
// This is the "database" of the reproduction: PALEO's validation step
// issues candidate queries here, exactly as the paper issues them to
// PostgreSQL.
//
// Sorted access comes first: a full-table query whose answer is the
// first k matching rows (ORDER BY A LIMIT k) or the first k distinct
// entities (max(A) DESC, min(A) ASC) in one column's rank order walks
// that column's rank prefix (storage/rank_prefix.h) and stops at k. A
// walk that runs out of prefix, or that reaches the infinity an all-NaN
// group would score, falls through to the scan below (DESIGN.md §18).
//
// Full-table scans are CHUNK-CANONICAL: the table's fixed-size chunks
// (storage/table_view.h) are the scan granules. Per chunk, predicate
// atoms first consult the chunk's zone maps — a refuted chunk is
// skipped without touching row data — then the surviving chunk is
// evaluated either by the vectorized selection kernels
// (engine/selection_kernels.h, default) or the scalar row-at-a-time
// loop, producing per-chunk partial results. Partials are merged in
// ascending chunk order (rank-order merge), which defines the one
// canonical aggregation order shared by every path: scalar,
// vectorized, and morsel-parallel results are byte-identical by
// construction. With an ExecContext carrying a ThreadPool and
// scan_threads > 1, chunks are dispatched as morsels claimed by pool
// workers (the caller donates itself via WaitHelping, so scans
// launched from inside pool tasks cannot deadlock).
//
// With an AtomSelectionCache attached to the call, per-atom per-chunk
// bitmaps are reused across the candidate queries of a validation run,
// which share almost all of their atoms by construction. With a
// DimensionIndex attached, a cache-missing equality atom on an indexed
// column builds its chunk bitmap from the posting rows inside the chunk
// and caches it like any other: the index feeds the one chunk scan.
// SetVectorized(false) forces the scalar path for differential testing
// and ablation.

#ifndef PALEO_ENGINE_EXECUTOR_H_
#define PALEO_ENGINE_EXECUTOR_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "common/run_budget.h"
#include "common/status.h"
#include "engine/exec_context.h"
#include "engine/query.h"
#include "engine/topk_list.h"
#include "obs/metrics.h"
#include "storage/table.h"

namespace paleo {

class AtomSelectionCache;
class DimensionIndex;
class SelectionBitmap;

/// \brief Stateless query evaluation over columnar tables.
///
/// Determinism: score ties are broken by entity name ascending (and by
/// row id for no-aggregation queries), so repeated executions and
/// executions through different-but-equivalent predicates produce
/// identical lists — whether evaluated through the scalar path, the
/// vectorized kernels, the morsel-parallel scan, posting-fed bitmaps,
/// or cached selections.
///
/// Thread safety: Execute / ExecuteOnRows / CountMatching may be
/// called concurrently from any number of threads — the tables they
/// read are immutable, the stats counters are atomic (relaxed; totals
/// over completed executions are exact, cross-counter snapshots and
/// interrupted executions are not), and a shared AtomSelectionCache is
/// internally synchronized. Configuration (SetDimensionIndex,
/// SetVectorized, ResetStats) is not synchronized: call it before
/// sharing the executor, never mid-flight.
class Executor {
 public:
  /// Counters accumulated across Execute calls.
  ///
  /// relaxed: all counters are relaxed-atomic because the morsel-parallel scan
  /// accumulates them from multiple pool workers concurrently (and one
  /// shared executor serves the parallel validator / discovery
  /// service). Calling ResetStats() while any Execute / CountMatching
  /// is in flight is a CONTRACT VIOLATION: in-flight executions would
  /// add their counts to the zeroed counters, splitting one execution's
  /// accounting across the reset. Reset only at quiescence (asserted by
  /// tests/chunked_scan_test.cc).
  struct Stats {
    std::atomic<int64_t> queries_executed{0};
    std::atomic<int64_t> rows_scanned{0};
    /// Executions that reached the chunk scan (a rank-prefix walk did
    /// not answer them) with a conjunction the attached dimension index
    /// covers.
    std::atomic<int64_t> index_assisted{0};
    /// Atom-chunk bitmaps built from postings on an atom-cache miss.
    std::atomic<int64_t> posting_bitmaps{0};
    /// Executions that degraded from the vectorized to the scalar path
    /// because selection-bitmap memory could not be allocated (real or
    /// injected) or the attached cache is under memory pressure.
    /// Results are byte-identical either way.
    std::atomic<int64_t> scalar_fallbacks{0};
    /// Chunks skipped by zone-map refutation: no row of the chunk can
    /// match the predicate, so its rows never enter rows_scanned.
    std::atomic<int64_t> chunks_skipped{0};
    /// Chunk-granular scan morsels actually processed (skipped chunks
    /// excluded); equals chunks-per-table on unselective scans.
    std::atomic<int64_t> morsels{0};
    /// Executions aborted by threshold refutation
    /// (ExecContext::threshold): the monitor's pre-pass or running
    /// per-group bounds proved the result misses the call's goal.
    /// relaxed: independent event counter, no ordering with other
    /// memory needed (same contract as every counter above).
    std::atomic<int64_t> executions_aborted_early{0};
    /// Rows NOT scanned thanks to threshold refutation: the unscanned
    /// remainder of chunks never claimed (or abandoned) when an
    /// execution aborted early. Zone-map-skipped chunks do not count —
    /// they are attributed to chunks_skipped.
    /// relaxed: independent event counter, accumulated once per aborted
    /// execution after the morsel join; no cross-counter ordering.
    std::atomic<int64_t> rows_saved{0};
    /// Executions answered by a rank-prefix walk (no chunk scanned; the
    /// walked rows count in rows_scanned, no morsels) / walks that ran
    /// out of prefix and fell back to the chunk scan.
    /// relaxed: independent event counters (same contract as above).
    std::atomic<int64_t> prefix_walks{0};
    std::atomic<int64_t> prefix_fallbacks{0};
  };

  /// Optional registry-backed instruments mirrored alongside Stats, so
  /// a serving process can export executor activity without polling
  /// every executor instance. All-null (one branch per event) by
  /// default. See paleo/pipeline_metrics.h for the series they back.
  struct MetricHandles {
    obs::Counter* queries_executed = nullptr;
    obs::Counter* rows_scanned = nullptr;
    obs::Counter* index_assisted = nullptr;
    obs::Counter* chunks_skipped = nullptr;
    obs::Counter* morsels = nullptr;
    /// Rows saved by threshold refutation (paired with
    /// Stats::rows_saved; backs paleo_rows_saved_by_threshold_total).
    obs::Counter* rows_saved = nullptr;
    /// One observation per full scan: the number of morsel workers the
    /// scan ran with (1 for sequential).
    obs::Histogram* scan_parallelism = nullptr;
    /// Executions answered by a rank-prefix walk (paired with
    /// Stats::prefix_walks; backs paleo_prefix_walks_total).
    obs::Counter* prefix_walks = nullptr;
  };

  Executor() = default;

  /// Binds registry instruments; same configuration contract as
  /// SetDimensionIndex (set before sharing, never mid-flight).
  void SetMetrics(MetricHandles handles) { metrics_ = handles; }

  /// Attaches secondary dimension indexes built over `indexed_table`:
  /// full scans of that exact table build equality-atom bitmaps from
  /// postings. Results are bit-identical either way; only wall-clock
  /// changes. Pass nullptrs to detach.
  void SetDimensionIndex(const DimensionIndex* index,
                         const Table* indexed_table) {
    dimension_index_ = index;
    indexed_table_ = indexed_table;
  }

  /// Toggles the vectorized full-scan path (default on). Off forces the
  /// scalar row-at-a-time scan everywhere; results are identical either
  /// way. Same configuration contract as SetDimensionIndex.
  void SetVectorized(bool on) { vectorized_ = on; }
  bool vectorized() const { return vectorized_; }

  /// Runs `query` over `table` under `ctx` (engine/exec_context.h):
  /// budget, atom cache, morsel-parallelism, and per-call path toggles
  /// all travel in the context. Errors on non-numeric ranking columns
  /// or invalid column indices; returns Status::Cancelled when the
  /// context's budget interrupts the scan (a partially scanned result
  /// would be wrong, so interruption cannot return a list).
  StatusOr<TopKList> Execute(const Table& table, const TopKQuery& query,
                             const ExecContext& ctx);

  /// Runs `query` restricted to the given rows of `table` (used to
  /// evaluate ranking criteria over tuple sets of R'). Rows must be
  /// valid ids into `table`. Row-restricted executions scan the row
  /// list itself (scalar, sequential, in list order); only `ctx.budget`
  /// applies.
  StatusOr<TopKList> ExecuteOnRows(const Table& table,
                                   const std::vector<RowId>& rows,
                                   const TopKQuery& query,
                                   const ExecContext& ctx);

  /// Number of rows of `table` matching `predicate` (selectivity
  /// numerator; Table 6). Routed through the chunked selection kernels
  /// (and `ctx.cache`, when given) so miner-side support counting
  /// shares the bitmaps of the validation path; zone-map skipping and
  /// morsel parallelism apply as in Execute.
  size_t CountMatching(const Table& table, const Predicate& predicate,
                       const ExecContext& ctx);

  // The pre-ExecContext positional overloads (budget/cache as trailing
  // parameters) were deprecated in PR 8 and deleted in PR 9; the
  // paleo_lint exec-context rule hard-bans the positional call shape
  // tree-wide so they cannot creep back.

  const Stats& stats() const { return stats_; }

  /// Zeroes every counter. See Stats: calling this while any execution
  /// is in flight on this executor is a contract violation.
  /// relaxed: stores happen at quiescence (no concurrent accumulators),
  /// so no ordering with other memory is needed.
  void ResetStats() {
    stats_.queries_executed.store(0, std::memory_order_relaxed);
    stats_.rows_scanned.store(0, std::memory_order_relaxed);
    stats_.index_assisted.store(0, std::memory_order_relaxed);
    stats_.posting_bitmaps.store(0, std::memory_order_relaxed);
    stats_.scalar_fallbacks.store(0, std::memory_order_relaxed);
    stats_.chunks_skipped.store(0, std::memory_order_relaxed);
    stats_.morsels.store(0, std::memory_order_relaxed);
    stats_.executions_aborted_early.store(0, std::memory_order_relaxed);
    stats_.rows_saved.store(0, std::memory_order_relaxed);
    stats_.prefix_walks.store(0, std::memory_order_relaxed);
    stats_.prefix_fallbacks.store(0, std::memory_order_relaxed);
  }

 private:
  StatusOr<TopKList> ExecuteImpl(const Table& table,
                                 const std::vector<RowId>* rows,
                                 const TopKQuery& query,
                                 const ExecContext& ctx);

  /// The attached index if it was built over `table`, else null.
  const DimensionIndex* IndexFor(const Table& table) const {
    return indexed_table_ == &table ? dimension_index_ : nullptr;
  }

  Stats stats_;
  MetricHandles metrics_;
  const DimensionIndex* dimension_index_ = nullptr;
  const Table* indexed_table_ = nullptr;
  bool vectorized_ = true;
};

}  // namespace paleo

#endif  // PALEO_ENGINE_EXECUTOR_H_
