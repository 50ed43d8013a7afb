#include "paleo/pipeline_metrics.h"

namespace paleo {

PipelineMetrics PipelineMetrics::Bind(obs::MetricsRegistry* registry) {
  PipelineMetrics m;
  if (registry == nullptr) return m;
  m.runs_total = registry->FindOrCreateCounter(
      "paleo_runs_total", "Reverse-engineering runs started.");
  m.runs_found = registry->FindOrCreateCounter(
      "paleo_runs_found_total", "Runs that validated at least one query.");
  m.run_ms = registry->FindOrCreateHistogram(
      "paleo_run_ms", "End-to-end run latency in milliseconds.");
  m.step_find_predicates_ms = registry->FindOrCreateHistogram(
      "paleo_step_ms", "Per-step pipeline latency in milliseconds.",
      "step=\"find_predicates\"");
  m.step_find_ranking_ms = registry->FindOrCreateHistogram(
      "paleo_step_ms", "Per-step pipeline latency in milliseconds.",
      "step=\"find_ranking\"");
  m.step_validation_ms = registry->FindOrCreateHistogram(
      "paleo_step_ms", "Per-step pipeline latency in milliseconds.",
      "step=\"validation\"");
  m.candidate_predicates = registry->FindOrCreateCounter(
      "paleo_candidate_predicates_total",
      "Candidate predicates mined (Algorithm 1).");
  m.candidate_queries = registry->FindOrCreateCounter(
      "paleo_candidate_queries_total", "Candidate queries assembled.");
  m.candidates_executed = registry->FindOrCreateCounter(
      "paleo_validation_candidates_total",
      "Validation candidates, by outcome.", "outcome=\"executed\"");
  m.candidates_speculative = registry->FindOrCreateCounter(
      "paleo_validation_candidates_total",
      "Validation candidates, by outcome.", "outcome=\"speculative\"");
  m.candidates_skipped = registry->FindOrCreateCounter(
      "paleo_validation_candidates_total",
      "Validation candidates, by outcome.", "outcome=\"skipped\"");
  m.validation_passes = registry->FindOrCreateCounter(
      "paleo_validation_passes_total",
      "Passes over the candidate list (Algorithm 3 rounds).");
  m.near_misses = registry->FindOrCreateCounter(
      "paleo_near_misses_total",
      "Unvalidated best-guess candidates surfaced on budget exhaustion.");
  m.executor_queries = registry->FindOrCreateCounter(
      "paleo_executor_queries_total", "Queries executed by the engine.");
  m.executor_rows_scanned = registry->FindOrCreateCounter(
      "paleo_executor_rows_scanned_total",
      "Rows visited by the executor's scan and group-by loops.");
  m.executor_index_assisted = registry->FindOrCreateCounter(
      "paleo_executor_index_assisted_total",
      "Executions answered from dimension-index postings.");
  m.chunks_skipped = registry->FindOrCreateCounter(
      "paleo_chunks_skipped_total",
      "Chunks skipped by zone-map refutation (no row can match).");
  m.morsels = registry->FindOrCreateCounter(
      "paleo_morsels_total",
      "Chunk-granular scan morsels processed (skipped chunks excluded).");
  m.scan_parallelism = registry->FindOrCreateHistogram(
      "paleo_scan_parallelism",
      "Morsel workers per full scan (1 = sequential).");
  m.cache_hits = registry->FindOrCreateCounter(
      "paleo_cache_hits_total", "Atom-selection cache hits.");
  m.cache_misses = registry->FindOrCreateCounter(
      "paleo_cache_misses_total", "Atom-selection cache misses.");
  m.cache_evictions = registry->FindOrCreateCounter(
      "paleo_cache_evictions_total",
      "Atom-selection cache LRU evictions (byte budget exceeded).");
  m.cache_resident_bytes = registry->FindOrCreateGauge(
      "paleo_cache_resident_bytes",
      "Selection-bitmap bytes currently retained by the atom cache.");
  m.validations_refuted_early = registry->FindOrCreateCounter(
      "paleo_validations_refuted_early_total",
      "Candidate executions aborted mid-scan because threshold bounds "
      "proved the result cannot equal the target list.");
  m.rows_saved_by_threshold = registry->FindOrCreateCounter(
      "paleo_rows_saved_by_threshold_total",
      "Rows never scanned thanks to threshold-refuted executions.");
  m.degraded_runs = registry->FindOrCreateCounter(
      "paleo_degraded_runs_total",
      "Runs that degraded gracefully (scalar fallback or atom-cache "
      "shrink under memory pressure) instead of failing.");
  return m;
}

}  // namespace paleo
