// Microbenchmarks for the predicate miner plus the tuple-set grouping
// ablation: evaluating ranking criteria once per distinct tuple set
// versus once per predicate (DESIGN.md Section 4.1 decision).

#include <benchmark/benchmark.h>

#include "bench_env.h"
#include "harness.h"
#include "paleo/predicate_miner.h"
#include "paleo/ranking_finder.h"

namespace paleo {
namespace {

struct MinerFixture {
  Table table;
  EntityIndex index;
  StatsCatalog catalog;
  TopKList list;
  RPrime rprime;

  /// One |P| = 2 list of `family` over `table` (SF <= 0.01).
  static MinerFixture* Make(Table table, QueryFamily family, uint64_t seed) {
    EntityIndex index = EntityIndex::Build(table);
    StatsCatalog catalog = StatsCatalog::Build(table);
    auto workload = bench::MakeCellWorkload(table, family,
                                            /*predicate_size=*/2, /*k=*/10,
                                            /*count=*/1, seed);
    PALEO_CHECK(!workload.empty());
    TopKList list = workload[0].list;
    auto rprime = RPrime::Build(table, index, list);
    PALEO_CHECK(rprime.ok());
    return new MinerFixture{std::move(table), std::move(index),
                            std::move(catalog), std::move(list),
                            *std::move(rprime)};
  }

  static bench::Env SmallEnv() {
    bench::Env env;
    env.scale_factor = std::min(env.scale_factor, 0.01);
    return env;
  }

  /// TPC-H max(A).
  static const MinerFixture& Get() {
    static MinerFixture* fixture = [] {
      bench::Env env = SmallEnv();
      return Make(bench::BuildTpch(env), QueryFamily::kMaxA, env.seed);
    }();
    return *fixture;
  }

  /// SSB sum(A+B): hundreds of tuples per entity make R' wide, so the
  /// level extension dominates the miner there.
  static const MinerFixture& Ssb() {
    static MinerFixture* fixture = [] {
      bench::Env env = SmallEnv();
      return Make(bench::BuildSsb(env), QueryFamily::kSumAB, env.seed);
    }();
    return *fixture;
  }
};

void MinePredicates(benchmark::State& state, const MinerFixture& f) {
  PaleoOptions options;
  options.max_predicate_size = static_cast<int>(state.range(0));
  PredicateMiner miner(f.rprime, options);
  int64_t extensions = 0, predicates = 0;
  for (auto _ : state) {
    auto result = miner.Mine();
    benchmark::DoNotOptimize(result.ok());
    PALEO_CHECK(result.ok());
    extensions = result->extensions;
    predicates = static_cast<int64_t>(result->predicates.size());
  }
  state.counters["rprime_rows"] = static_cast<double>(f.rprime.num_rows());
  state.counters["extensions"] = static_cast<double>(extensions);
  state.counters["predicates"] = static_cast<double>(predicates);
}

void BM_MinePredicates(benchmark::State& state) {
  MinePredicates(state, MinerFixture::Get());
}
BENCHMARK(BM_MinePredicates)->Arg(1)->Arg(2)->Arg(3);

void BM_MinePredicatesSsb(benchmark::State& state) {
  MinePredicates(state, MinerFixture::Ssb());
}
BENCHMARK(BM_MinePredicatesSsb)->Arg(1)->Arg(2)->Arg(3);

void BM_RankingPerTupleSet_Grouped(benchmark::State& state) {
  // The shipped design: each distinct tuple set is evaluated once.
  const MinerFixture& f = MinerFixture::Get();
  PaleoOptions options;
  PredicateMiner miner(f.rprime, options);
  auto mining = miner.Mine();
  PALEO_CHECK(mining.ok());
  RankingFinder finder(f.rprime, &f.catalog, options);
  for (auto _ : state) {
    auto rankings = finder.Find(mining->groups, f.list, true);
    benchmark::DoNotOptimize(rankings.ok());
  }
  state.counters["tuple_sets"] =
      static_cast<double>(mining->groups.size());
  state.counters["predicates"] =
      static_cast<double>(mining->predicates.size());
}
BENCHMARK(BM_RankingPerTupleSet_Grouped);

void BM_RankingPerTupleSet_Ungrouped(benchmark::State& state) {
  // Ablation: pretend every predicate has its own tuple set (no
  // Section 4.1 grouping), multiplying criterion evaluations.
  const MinerFixture& f = MinerFixture::Get();
  PaleoOptions options;
  PredicateMiner miner(f.rprime, options);
  auto mining = miner.Mine();
  PALEO_CHECK(mining.ok());
  // One synthetic group per predicate.
  std::vector<PredicateGroup> ungrouped;
  for (const MinedPredicate& p : mining->predicates) {
    ungrouped.push_back(
        mining->groups[static_cast<size_t>(p.group_id)]);
  }
  RankingFinder finder(f.rprime, &f.catalog, options);
  for (auto _ : state) {
    auto rankings = finder.Find(ungrouped, f.list, true);
    benchmark::DoNotOptimize(rankings.ok());
  }
  state.counters["tuple_sets"] = static_cast<double>(ungrouped.size());
}
BENCHMARK(BM_RankingPerTupleSet_Ungrouped);

}  // namespace
}  // namespace paleo
