// Experiment harness utilities shared by the figure benches: evaluate
// one input list under the different validation regimes and aggregate
// per-cell statistics.

#ifndef PALEO_BENCH_HARNESS_H_
#define PALEO_BENCH_HARNESS_H_

#include <optional>
#include <vector>

#include "bench_env.h"
#include "paleo/paleo.h"
#include "workload/workload.h"

namespace paleo {
namespace bench {

/// \brief Everything the figure benches need from one reverse-
/// engineering run of one input list.
struct QueryEval {
  bool found = false;
  int64_t executions_to_first_valid = 0;
  int64_t candidate_queries = 0;
  int64_t candidate_predicates = 0;
  int64_t tuple_sets = 0;
  /// Number of valid queries among the candidates (only measured when
  /// `count_all_valid` was requested — the paper reports it only for
  /// complete R').
  int64_t valid_queries = -1;
  StepTimings timings;
};

/// Runs PALEO over the full R' for `input`.
///
/// `max_predicate_size` caps the apriori search at the experiment
/// cell's |P|, the paper's protocol (its per-|P| candidate counts are
/// only consistent with size-capped mining).
///
/// With `count_all_valid`, validation enumerates all candidates with
/// ranked order, yielding both the #valid denominator of the paper's
/// "expected" baseline and the ranked executions-to-first-valid (the
/// position of the first valid query is the same whether or not we
/// stop there).
inline QueryEval EvaluateFull(Paleo* paleo, const TopKList& input,
                              ValidationStrategy strategy,
                              bool count_all_valid,
                              int64_t max_executions,
                              int max_predicate_size = 3) {
  PaleoOptions options = paleo->options();
  options.max_predicate_size = max_predicate_size;
  options.include_empty_predicate = false;  // match the paper's counts
  options.validation_strategy = strategy;
  options.stop_at_first_valid = !count_all_valid;
  options.max_query_executions = count_all_valid ? 0 : max_executions;
  RunRequest request;
  request.input = &input;
  request.options_override = &options;
  request.executor = paleo->executor();
  auto report = paleo->Run(request);
  PALEO_CHECK(report.ok()) << report.status().ToString();

  QueryEval eval;
  eval.found = report->found();
  eval.executions_to_first_valid =
      report->found() ? report->valid.front().executions_at_discovery : 0;
  eval.candidate_queries = report->candidate_queries;
  eval.candidate_predicates = report->candidate_predicates;
  eval.tuple_sets = report->tuple_sets;
  if (count_all_valid) {
    eval.valid_queries = static_cast<int64_t>(report->valid.size());
  }
  eval.timings = report->timings;
  return eval;
}

/// Runs PALEO on a uniform-per-entity sample of R'.
inline QueryEval EvaluateSampled(Paleo* paleo, const TopKList& input,
                                 double sample_fraction, uint64_t seed,
                                 ValidationStrategy strategy,
                                 int64_t max_executions,
                                 int max_predicate_size = 3) {
  PaleoOptions options = paleo->options();
  options.max_predicate_size = max_predicate_size;
  options.include_empty_predicate = false;  // match the paper's counts
  options.validation_strategy = strategy;
  options.stop_at_first_valid = true;
  options.max_query_executions = max_executions;

  auto sample = Sampler::UniformPerEntity(
      paleo->index(), input.DistinctEntities(), sample_fraction, seed);
  PALEO_CHECK(sample.ok()) << sample.status().ToString();
  RunRequest request;
  request.input = &input;
  request.sample_rows = &*sample;
  request.sample_fraction = sample_fraction;
  request.options_override = &options;
  request.executor = paleo->executor();
  auto report = paleo->Run(request);
  PALEO_CHECK(report.ok()) << report.status().ToString();

  QueryEval eval;
  eval.found = report->found();
  eval.executions_to_first_valid =
      report->found() ? report->valid.front().executions_at_discovery : 0;
  eval.candidate_queries = report->candidate_queries;
  eval.candidate_predicates = report->candidate_predicates;
  eval.tuple_sets = report->tuple_sets;
  eval.timings = report->timings;
  return eval;
}

/// Generates the per-cell workload used throughout the figures.
inline std::vector<WorkloadQuery> MakeCellWorkload(
    const Table& table, QueryFamily family, int predicate_size, int k,
    int count, uint64_t seed) {
  WorkloadOptions options;
  options.families = {family};
  options.predicate_sizes = {predicate_size};
  options.ks = {k};
  options.queries_per_config = count;
  options.seed = seed;
  auto workload = WorkloadGen::Generate(table, options);
  PALEO_CHECK(workload.ok()) << workload.status().ToString();
  return *std::move(workload);
}

// ---- Threshold-pruning ablation ------------------------------------------

/// \brief One (family, |P|) cell of the ablation: validation wall-clock
/// with threshold pruning off vs on, plus the pruner's side counters.
/// Both configurations validate the identical candidate schedule
/// (refuted executions count as executions), so the wall-clock ratio
/// isolates the optimization.
struct AblationCell {
  std::string dataset;
  std::string family;
  int predicate_size = 0;
  int k = 0;
  int64_t valid = 0;
  double validation_ms_off = 0.0;
  double validation_ms_prune = 0.0;
  int64_t executions = 0;
  int64_t refuted_early = 0;
  int64_t rows_saved = 0;
  double speedup() const {
    return validation_ms_prune > 0.0
               ? validation_ms_off / validation_ms_prune
               : 0.0;
  }
};

/// Runs one executions-dominated validation: ranked strategy, every
/// candidate enumerated (stop_at_first_valid off), scan-based (the
/// ablation Paleo instance is built without the dimension index), with
/// threshold pruning on or off.
inline ReverseEngineerReport RunScanValidation(const Paleo& paleo,
                                               const TopKList& input,
                                               bool pruning,
                                               int max_predicate_size) {
  PaleoOptions options = paleo.options();
  options.max_predicate_size = max_predicate_size;
  options.include_empty_predicate = false;
  options.validation_strategy = ValidationStrategy::kRanked;
  options.stop_at_first_valid = false;
  options.threshold_pruning = pruning;
  RunRequest request;
  request.input = &input;
  request.options_override = &options;
  // Private per-request executor: honors the instance's index-off
  // configuration and keeps the two configurations' stats separate.
  auto report = paleo.Run(request);
  PALEO_CHECK(report.ok()) << report.status().ToString();
  return *std::move(report);
}

/// The executions-dominated ablation over one relation: scan-based
/// validation on a finely chunked copy (2048-row chunks, so the
/// chunk-granular abort engages), full candidate enumeration, pruning
/// off vs on. Asserts the two configurations validate the identical
/// candidate set.
inline void RunThresholdAblation(const Table& base, const char* dataset,
                                 const Env& env,
                                 std::vector<AblationCell>* cells) {
  Table chunked = base.DeepCopy();
  chunked.SetChunkRows(2048);
  PaleoOptions options;
  options.use_dimension_index = false;
  // The extended criteria search (min/count) widens each group's
  // candidate set — the population where pruning refutes the wrong
  // criteria cheaply.
  options.enable_min_count = true;
  Paleo paleo(&chunked, options);

  std::printf("\n[%s] threshold pruning ablation "
              "(scan-based, all candidates)\n", dataset);
  std::printf("%8s %4s %4s %10s %10s %8s %6s %6s %8s %12s\n", "family",
              "|P|", "k", "off-ms", "prune-ms", "speedup", "execs",
              "valid", "refuted", "rows-saved");
  for (QueryFamily family : {QueryFamily::kMaxA, QueryFamily::kSumAB}) {
    for (int p = 1; p <= 2; ++p) {
      for (int k : {10, 50}) {
        auto workload = MakeCellWorkload(chunked, family, p, k,
                                         env.queries_per_cell,
                                         env.seed + 500 +
                                             static_cast<uint64_t>(p));
        AblationCell cell;
        cell.dataset = dataset;
        cell.family = QueryFamilyToString(family);
        cell.predicate_size = p;
        cell.k = k;
        for (const WorkloadQuery& wq : workload) {
          ReverseEngineerReport off =
              RunScanValidation(paleo, wq.list, false, p);
          ReverseEngineerReport prune =
              RunScanValidation(paleo, wq.list, true, p);
          // The soundness contract, asserted where the numbers are
          // made: identical valid sets and identical execution
          // schedules.
          PALEO_CHECK(off.valid.size() == prune.valid.size());
          PALEO_CHECK(off.executed_queries == prune.executed_queries);
          cell.validation_ms_off += off.timings.validation_ms;
          cell.validation_ms_prune += prune.timings.validation_ms;
          cell.executions += prune.executed_queries;
          cell.valid += static_cast<int64_t>(prune.valid.size());
          cell.refuted_early += prune.executions_aborted_early;
          cell.rows_saved += prune.rows_saved;
        }
        std::printf("%8s %4d %4d %10.1f %10.1f %7.1fx "
                    "%6lld %6lld %8lld %12lld\n",
                    cell.family.c_str(), p, k, cell.validation_ms_off,
                    cell.validation_ms_prune, cell.speedup(),
                    static_cast<long long>(cell.executions),
                    static_cast<long long>(cell.valid),
                    static_cast<long long>(cell.refuted_early),
                    static_cast<long long>(cell.rows_saved));
        cells->push_back(std::move(cell));
      }
    }
  }
}

/// Writes the ablation cells as JSON to $PALEO_JSON_OUT (no-op when the
/// variable is unset) for bench/run_benchmarks.sh and the BENCH_*.json
/// artifacts.
inline void WriteAblationJson(const char* experiment,
                              const std::vector<AblationCell>& cells) {
  const char* path = std::getenv("PALEO_JSON_OUT");
  if (path == nullptr) return;
  FILE* f = std::fopen(path, "w");
  PALEO_CHECK(f != nullptr) << "cannot open " << path;
  std::fprintf(f, "{\n  \"experiment\": \"%s\",\n  \"cells\": [\n",
               experiment);
  for (size_t i = 0; i < cells.size(); ++i) {
    const AblationCell& c = cells[i];
    std::fprintf(
        f,
        "    {\"dataset\": \"%s\", \"family\": \"%s\", "
        "\"predicate_size\": %d, \"k\": %d, "
        "\"validation_ms_off\": %.3f, "
        "\"validation_ms_prune\": %.3f, \"speedup\": %.3f, "
        "\"executions\": %lld, \"valid\": %lld, "
        "\"refuted_early\": %lld, \"rows_saved\": %lld}%s\n",
        c.dataset.c_str(), c.family.c_str(), c.predicate_size, c.k,
        c.validation_ms_off, c.validation_ms_prune, c.speedup(),
        static_cast<long long>(c.executions),
        static_cast<long long>(c.valid),
        static_cast<long long>(c.refuted_early),
        static_cast<long long>(c.rows_saved),
        i + 1 < cells.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", path);
}

}  // namespace bench
}  // namespace paleo

#endif  // PALEO_BENCH_HARNESS_H_
