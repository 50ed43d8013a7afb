// RunRequest API suite: equivalent requests must produce reports
// byte-identical (modulo wall-clock fields) under sequential and
// parallel validation, options overrides, and the sample coverage
// schedule; plus coverage of the observability sinks the request
// carries (metrics registry, trace).

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "datagen/tpch_gen.h"
#include "datagen/traffic_gen.h"
#include "paleo/paleo.h"
#include "paleo/sampler.h"
#include "workload/workload.h"

namespace paleo {
namespace {

/// Deterministic serialization of everything in a report except
/// wall-clock measurements (timings, trace) and speculative_executions
/// (parallel-only discarded look-ahead, explicitly wall-clock
/// dependent; see PaleoOptions::num_threads). Two equivalent runs must
/// produce byte-identical fingerprints.
std::string Fingerprint(const ReverseEngineerReport& r,
                        const Schema& schema) {
  std::string out;
  auto line = [&out](const std::string& s) {
    out += s;
    out += '\n';
  };
  for (const ValidQuery& vq : r.valid) {
    line("valid " + vq.query.ToSql(schema) + " @" +
         std::to_string(vq.executions_at_discovery));
  }
  line("candidate_predicates=" + std::to_string(r.candidate_predicates));
  std::string sizes;
  for (int n : r.predicates_by_size) sizes += std::to_string(n) + ",";
  line("predicates_by_size=" + sizes);
  line("tuple_sets=" + std::to_string(r.tuple_sets));
  line("candidate_queries=" + std::to_string(r.candidate_queries));
  line("executed_queries=" + std::to_string(r.executed_queries));
  line("skip_events=" + std::to_string(r.skip_events));
  line("rprime_rows=" + std::to_string(r.rprime_rows));
  line("rprime_bytes=" + std::to_string(r.rprime_bytes));
  line("termination=" +
       std::string(TerminationReasonToString(r.termination)));
  line("ranking=" + std::to_string(r.ranking_info.used_top_entities) +
       std::to_string(r.ranking_info.used_histograms) +
       std::to_string(r.ranking_info.used_fallback) + "/" +
       std::to_string(r.ranking_info.top_entity_candidate_columns) + "/" +
       std::to_string(r.ranking_info.histogram_candidate_columns) + "/" +
       std::to_string(r.ranking_info.tuple_set_evaluations));
  for (const CandidateQuery& cq : r.near_misses) {
    line("near_miss " + cq.query.ToSql(schema));
  }
  for (const CandidateQuery& cq : r.candidates) {
    line("candidate " + cq.query.ToSql(schema));
  }
  return out;
}

/// Shared fixture: a TPC-H relation and a small workload, reused by
/// every equivalence check (table generation dominates the cost).
class RunRequestTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    TpchGenOptions gen;
    gen.scale_factor = 0.003;
    auto table = TpchGen::Generate(gen);
    ASSERT_TRUE(table.ok());
    table_ = new Table(std::move(*table));

    WorkloadOptions wl;
    wl.families = {QueryFamily::kMaxA, QueryFamily::kSumAB};
    wl.predicate_sizes = {1, 2};
    wl.ks = {5};
    wl.queries_per_config = 1;
    auto workload = WorkloadGen::Generate(*table_, wl);
    ASSERT_TRUE(workload.ok());
    ASSERT_GE(workload->size(), 3u);
    workload_ = new std::vector<WorkloadQuery>(std::move(*workload));
  }

  static void TearDownTestSuite() {
    delete workload_;
    workload_ = nullptr;
    delete table_;
    table_ = nullptr;
  }

  static const Table& table() { return *table_; }
  static const std::vector<WorkloadQuery>& workload() {
    return *workload_;
  }

 private:
  static Table* table_;
  static std::vector<WorkloadQuery>* workload_;
};

Table* RunRequestTest::table_ = nullptr;
std::vector<WorkloadQuery>* RunRequestTest::workload_ = nullptr;

TEST_F(RunRequestTest, NullInputIsInvalidArgument) {
  Paleo paleo(&table(), PaleoOptions{});
  RunRequest request;  // input left null
  auto report = paleo.Run(request);
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(report.status().IsInvalidArgument())
      << report.status().ToString();
}

TEST_F(RunRequestTest, CoverageOverrideForwardedByBothPaths) {
  Paleo paleo(&table(), PaleoOptions{});
  const WorkloadQuery& wq = workload()[0];
  auto sample = Sampler::UniformPerEntity(
      paleo.index(), wq.list.DistinctEntities(), 0.3, /*seed=*/7);
  ASSERT_TRUE(sample.ok());

  // The coverage ratio reaches the pipeline by either path: the
  // sample-fraction schedule, or an explicit override that replaces
  // it. A 30% sample's scheduled ratio and the same ratio given as an
  // override on a full-fraction request must run identically.
  RunRequest scheduled;
  scheduled.input = &wq.list;
  scheduled.sample_rows = &*sample;
  scheduled.sample_fraction = 0.3;
  auto via_schedule = paleo.Run(scheduled);
  ASSERT_TRUE(via_schedule.ok());

  RunRequest overridden = scheduled;
  overridden.sample_fraction = 1.0;
  overridden.coverage_ratio_override = CoverageRatioForSample(0.3);
  auto via_override = paleo.Run(overridden);
  ASSERT_TRUE(via_override.ok());

  EXPECT_EQ(Fingerprint(*via_schedule, table().schema()),
            Fingerprint(*via_override, table().schema()));
}

TEST_F(RunRequestTest, ParallelValidationMatchesSequentialFingerprint) {
  // The parallel rank-order-commit schedule must not change any
  // fingerprinted field relative to a plain sequential run.
  Paleo sequential(&table(), PaleoOptions{});
  PaleoOptions parallel_options;
  parallel_options.num_threads = 4;
  ThreadPool pool(4);
  for (const WorkloadQuery& wq : workload()) {
    RunRequest seq_request;
    seq_request.input = &wq.list;
    auto seq = sequential.Run(seq_request);
    ASSERT_TRUE(seq.ok()) << wq.name;

    RunRequest par_request;
    par_request.input = &wq.list;
    par_request.pool = &pool;
    par_request.options_override = &parallel_options;
    auto par = sequential.Run(par_request);
    ASSERT_TRUE(par.ok()) << wq.name;

    EXPECT_EQ(Fingerprint(*seq, table().schema()),
              Fingerprint(*par, table().schema()))
        << wq.name;
  }
}

TEST_F(RunRequestTest, OptionsOverrideEqualToInstanceIsIdentity) {
  Paleo paleo(&table(), PaleoOptions{});
  const WorkloadQuery& wq = workload()[0];
  PaleoOptions copy = paleo.options();

  RunRequest plain;
  plain.input = &wq.list;
  auto base = paleo.Run(plain);
  ASSERT_TRUE(base.ok());

  RunRequest overridden;
  overridden.input = &wq.list;
  overridden.options_override = &copy;
  auto with_override = paleo.Run(overridden);
  ASSERT_TRUE(with_override.ok());

  EXPECT_EQ(Fingerprint(*base, table().schema()),
            Fingerprint(*with_override, table().schema()));
}

TEST_F(RunRequestTest, MetricsRegistryCountsMatchReport) {
  Paleo paleo(&table(), PaleoOptions{});
  const WorkloadQuery& wq = workload()[0];
  obs::MetricsRegistry registry;

  RunRequest request;
  request.input = &wq.list;
  request.metrics = &registry;
  auto report = paleo.Run(request);
  ASSERT_TRUE(report.ok());
  ASSERT_TRUE(report->found());

  EXPECT_EQ(registry.counter("paleo_runs_total")->value(), 1);
  EXPECT_EQ(registry.counter("paleo_runs_found_total")->value(), 1);
  EXPECT_EQ(registry.histogram("paleo_run_ms")->count(), 1);
  // Per-outcome validation counters agree with the report's totals.
  EXPECT_EQ(registry
                .counter("paleo_validation_candidates_total",
                         "outcome=\"executed\"")
                ->value(),
            report->executed_queries);
  EXPECT_EQ(registry
                .counter("paleo_validation_candidates_total",
                         "outcome=\"skipped\"")
                ->value(),
            report->skip_events);
  EXPECT_EQ(registry
                .counter("paleo_validation_candidates_total",
                         "outcome=\"speculative\"")
                ->value(),
            report->speculative_executions);
  EXPECT_EQ(registry.counter("paleo_candidate_predicates_total")->value(),
            report->candidate_predicates);
  EXPECT_EQ(registry.counter("paleo_candidate_queries_total")->value(),
            report->candidate_queries);
  // The request-private executor reported its side of the story.
  EXPECT_GE(registry.counter("paleo_executor_queries_total")->value(),
            report->executed_queries);

  // A second run accumulates into the same instruments.
  auto again = paleo.Run(request);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(registry.counter("paleo_runs_total")->value(), 2);
  EXPECT_EQ(registry.histogram("paleo_run_ms")->count(), 2);

  // The rendered exposition covers every outcome label.
  std::string text = registry.RenderText();
  EXPECT_NE(text.find("outcome=\"executed\""), std::string::npos);
  EXPECT_NE(text.find("outcome=\"speculative\""), std::string::npos);
  EXPECT_NE(text.find("outcome=\"skipped\""), std::string::npos);
}

TEST_F(RunRequestTest, TraceCoversPipelineStages) {
  Paleo paleo(&table(), PaleoOptions{});
  const WorkloadQuery& wq = workload()[0];

  RunRequest request;
  request.input = &wq.list;
  auto without = paleo.Run(request);
  ASSERT_TRUE(without.ok());
  EXPECT_EQ(without->trace, nullptr);  // off by default

  request.collect_trace = true;
  auto report = paleo.Run(request);
  ASSERT_TRUE(report.ok());
  ASSERT_NE(report->trace, nullptr);
  const obs::Trace& trace = *report->trace;
  const obs::Span* run = trace.FindSpan("run");
  ASSERT_NE(run, nullptr);
  EXPECT_TRUE(run->finished());
  EXPECT_EQ(run->parent, obs::Trace::kNoSpan);
  for (const char* stage :
       {"find_predicates", "find_ranking", "validate"}) {
    const obs::Span* span = trace.FindSpan(stage);
    ASSERT_NE(span, nullptr) << stage;
    EXPECT_TRUE(span->finished()) << stage;
  }
  // One "execute" span per committed sequential execution.
  int64_t execute_spans = 0;
  for (const obs::Span& span : trace.spans()) {
    if (span.name == "execute") ++execute_spans;
  }
  EXPECT_EQ(execute_spans, report->executed_queries);
  // The dump round-trips to non-trivial JSON.
  std::string json = trace.ToJson();
  EXPECT_NE(json.find("\"name\":\"run\""), std::string::npos);
  EXPECT_NE(json.find("\"find_predicates\""), std::string::npos);
}

TEST_F(RunRequestTest, PaperExampleStillRecoversViaRunRequest) {
  // The introduction example through the canonical entry point, with
  // every observability sink on at once.
  auto traffic = TrafficGen::PaperExample();
  ASSERT_TRUE(traffic.ok());
  TopKList input;
  input.Append("Lara Ellis", 784);
  input.Append("Jane O'Neal", 699);
  input.Append("John Smith", 654);
  input.Append("Richard Fox", 596);
  input.Append("Jack Stiles", 586);

  Paleo paleo(&*traffic, PaleoOptions{});
  obs::MetricsRegistry registry;
  RunRequest request;
  request.input = &input;
  request.metrics = &registry;
  request.collect_trace = true;
  request.keep_candidates = true;
  auto report = paleo.Run(request);
  ASSERT_TRUE(report.ok());
  ASSERT_TRUE(report->found());
  EXPECT_NE(report->valid[0].query.ToSql(traffic->schema())
                .find("max(minutes)"),
            std::string::npos);
  EXPECT_EQ(registry.counter("paleo_runs_found_total")->value(), 1);
  ASSERT_NE(report->trace, nullptr);
  EXPECT_NE(report->trace->FindSpan("run"), nullptr);
}

}  // namespace
}  // namespace paleo
