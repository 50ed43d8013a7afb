// perfbench: the measuring binary of the standing pipeline benchmark.
//
//   perfbench generate --workload W --dir D
//   perfbench measure  --workload W --seed S --dir D --seconds T --trace 0|1
//
// `generate` writes the workload's inputs to D: the relation
// (relation.palb), the top-k lists with their per-list sample row ids
// (lists.txt), and the rows the ingest writer appends (ingest.palb).
// Each workload is one fixed instance (see kInstanceSeed); the run's
// seed S sets the order its lists run in. `measure` reads only those
// files, sets the engine up, runs the lists for T seconds, checks every
// accepted query, and prints one JSON object with the raw samples;
// perfbench/run.py turns it into the benchmark's metrics. With --trace 1 the
// sequential workloads run the pipeline's stages one by one from here
// (the calls Paleo::RunImpl makes, in its order and with its options),
// time each call as a span, and cross-check every list against
// Paleo::Run.

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "catalog/ingestor.h"
#include "catalog/table_catalog.h"
#include "common/random.h"
#include "datagen/augment.h"
#include "datagen/ssb_gen.h"
#include "datagen/tpch_gen.h"
#include "engine/atom_cache.h"
#include "engine/executor.h"
#include "index/dimension_index.h"
#include "index/entity_index.h"
#include "io/binary_io.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "paleo/candidate_query.h"
#include "paleo/options.h"
#include "paleo/paleo.h"
#include "paleo/pipeline_metrics.h"
#include "paleo/predicate_miner.h"
#include "paleo/prob_model.h"
#include "paleo/ranking_finder.h"
#include "paleo/rprime.h"
#include "paleo/sampler.h"
#include "paleo/validator.h"
#include "service/discovery_service.h"
#include "stats/catalog.h"
#include "workload/workload.h"

#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define PERFBENCH_SANITIZED 1
#endif
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define PERFBENCH_SANITIZED 1
#endif

namespace paleo {
namespace perfbench {
namespace {

// ---- Workload definitions ------------------------------------------------

struct Cell {
  QueryFamily family;
  int p;  // |P| of the hidden query; also the miner's |P| cap
  int k;
};

enum class Dataset { kSsb, kTpchAugmented, kTpch };

struct WorkloadDef {
  std::string name;
  Dataset dataset;
  double sf;
  std::vector<Cell> cells;
  int lists_per_cell;
  // 0 runs on the complete R'; otherwise a uniform-per-entity sample.
  double sample_fraction;
  bool use_dimension_index;
  // PaleoOptions::max_query_executions, the paper's per-pass cap.
  int64_t max_query_executions;
  bool serve;
};

std::vector<Cell> Grid(const std::vector<QueryFamily>& families,
                       const std::vector<int>& ps, const std::vector<int>& ks) {
  std::vector<Cell> cells;
  for (QueryFamily f : families) {
    for (int p : ps) {
      for (int k : ks) cells.push_back({f, p, k});
    }
  }
  return cells;
}

std::vector<WorkloadDef> Workloads() {
  using QF = QueryFamily;
  // ssb_exact keeps the cells whose lists finish in about 1.5 s or less
  // at SF 0.01: sum(A+B) with |P| >= 2 and k = 50, or |P| = 3, costs
  // 4-14 s per list, so a single list would fill most of a run.
  std::vector<Cell> ssb = Grid({QF::kMaxA}, {1, 2, 3}, {10, 50});
  for (Cell c : Grid({QF::kSumAB}, {1}, {10, 50})) ssb.push_back(c);
  ssb.push_back({QF::kSumAB, 2, 10});
  std::vector<Cell> sampled = Grid({QF::kMaxA, QF::kSumAB}, {1, 2, 3}, {10});
  std::vector<Cell> serve =
      Grid({QF::kMaxA, QF::kAvgA, QF::kSumA, QF::kSumAB}, {1, 2, 3}, {10, 50});
  return {
      {"ssb_exact", Dataset::kSsb, 0.01, ssb, 1, 0.0, true, 0, false},
      {"tpch_sampled", Dataset::kTpchAugmented, 0.01, sampled, 1, 0.1, true,
       2500, false},
      {"tpch_sampled_scan", Dataset::kTpchAugmented, 0.01, sampled, 1, 0.1,
       false, 2500, false},
      {"tpch_serve_ingest", Dataset::kTpch, 0.1, serve, 2, 0.0, true, 0, true},
  };
}

const WorkloadDef* FindWorkload(const std::string& name) {
  static const std::vector<WorkloadDef> defs = Workloads();
  for (const WorkloadDef& d : defs) {
    if (d.name == name) return &d;
  }
  return nullptr;
}

// Rows per appended batch and how many batches generate writes.
constexpr int kIngestBatchRows = 64;
constexpr int kIngestBatches = 160;
// The serve writer's schedule: one batch every kIngestIntervalMs (a
// publish takes 300-450 ms at SF 0.1 beside three busy readers).
constexpr int kIngestIntervalMs = 500;
// Set-ups per run (setup_s is their median): at least kMinSetups, more
// while they add up to less than kSetupBudgetS, at most kMaxSetups.
constexpr int kMinSetups = 3;
constexpr int kMaxSetups = 9;
constexpr double kSetupBudgetS = 2.0;

// Every workload is one fixed instance: relation, lists and samples come
// from this seed, not from the run's. A run holds 20-1500 lists whose
// costs span three orders of magnitude (a sampled list either validates
// within a few executions or burns the 2500-execution cap), so a fresh
// instance per run moves the results more than any bound allows: on a
// 4-CPU Xeon host, five fresh ssb_exact instances put list_ms_tail's
// quartiles 28% of the median apart, and four fresh tpch_serve_ingest
// instances gave 62-96 lists/s.
constexpr uint64_t kInstanceSeed = 20160315;

bool MoreSetups(int done, const std::vector<double>& setup_s) {
  double total = 0.0;
  for (double s : setup_s) total += s;
  return done < kMinSetups || (done < kMaxSetups && total < kSetupBudgetS);
}

uint64_t Mix(uint64_t seed, uint64_t salt) {
  uint64_t z = seed * 0x9E3779B97F4A7C15ULL + salt + 0x632BE59BD9B4E019ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "perfbench: %s\n", message.c_str());
  std::exit(1);
}

template <typename T>
T Check(StatusOr<T> value, const char* what) {
  if (!value.ok()) Die(std::string(what) + ": " + value.status().ToString());
  return *std::move(value);
}

void CheckOk(const Status& status, const char* what) {
  if (!status.ok()) Die(std::string(what) + ": " + status.ToString());
}

// ---- Inputs --------------------------------------------------------------

struct ListInput {
  int id = 0;
  Cell cell{};
  TopKList list;
  std::vector<RowId> sample;  // empty on complete-R' workloads
};

std::string CellName(const Cell& c) {
  return std::string(QueryFamilyToString(c.family)) + "/p" +
         std::to_string(c.p) + "/k" + std::to_string(c.k);
}

void WriteLists(const std::string& path, const std::vector<ListInput>& lists) {
  std::ofstream out(path);
  if (!out) Die("cannot write " + path);
  char buf[64];
  for (const ListInput& li : lists) {
    out << "list " << li.id << ' ' << static_cast<int>(li.cell.family) << ' '
        << li.cell.p << ' ' << li.cell.k << ' ' << li.list.size() << ' '
        << li.sample.size() << '\n';
    for (size_t i = 0; i < li.sample.size(); ++i) {
      out << (i == 0 ? "" : " ") << li.sample[i];
    }
    out << '\n';
    for (const TopKEntry& e : li.list.entries()) {
      std::snprintf(buf, sizeof(buf), "%.17g", e.value);
      out << e.entity << '\t' << buf << '\n';
    }
  }
  if (!out) Die("write failed: " + path);
}

std::vector<ListInput> ReadLists(const std::string& path) {
  std::ifstream in(path);
  if (!in) Die("cannot read " + path);
  std::vector<ListInput> lists;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream head(line);
    std::string tag;
    int family = 0;
    size_t n = 0, n_sample = 0;
    ListInput li;
    head >> tag >> li.id >> family >> li.cell.p >> li.cell.k >> n >> n_sample;
    if (tag != "list" || !head) Die("malformed list header in " + path);
    li.cell.family = static_cast<QueryFamily>(family);
    if (!std::getline(in, line)) Die("truncated " + path);
    std::istringstream rows(line);
    li.sample.reserve(n_sample);
    for (size_t i = 0; i < n_sample; ++i) {
      RowId r = 0;
      if (!(rows >> r)) Die("malformed sample row in " + path);
      li.sample.push_back(r);
    }
    for (size_t i = 0; i < n; ++i) {
      if (!std::getline(in, line)) Die("truncated " + path);
      size_t tab = line.find('\t');
      if (tab == std::string::npos) Die("malformed list row in " + path);
      li.list.Append(line.substr(0, tab),
                     std::strtod(line.c_str() + tab + 1, nullptr));
    }
    lists.push_back(std::move(li));
  }
  return lists;
}

// Relation generation; tpch_sampled and tpch_sampled_scan share it (and
// the lists and samples) because they differ only in the profile.
Table GenerateRelation(const WorkloadDef& def, uint64_t seed) {
  switch (def.dataset) {
    case Dataset::kSsb: {
      SsbGenOptions o;
      o.scale_factor = def.sf;
      o.seed = Mix(seed, 1);
      return Check(SsbGen::Generate(o), "SsbGen");
    }
    case Dataset::kTpchAugmented: {
      TpchGenOptions o;
      o.scale_factor = def.sf;
      o.seed = Mix(seed, 2);
      Table base = Check(TpchGen::Generate(o), "TpchGen");
      // Paper Section 8.1: clones per entity ~ N(200, 50).
      AugmentOptions a;
      a.clones_mean = 200.0;
      a.clones_stddev = 50.0;
      a.seed = Mix(seed, 3);
      return Check(Augment(base, a), "Augment");
    }
    case Dataset::kTpch: {
      TpchGenOptions o;
      o.scale_factor = def.sf;
      o.seed = Mix(seed, 4);
      return Check(TpchGen::Generate(o), "TpchGen");
    }
  }
  Die("unknown dataset");
}

// Rows of new entities for Ingestor::Append: dimensions copied from
// random existing rows, every measure set to its column minimum, one row
// per entity, names sorting after every generated name. Such an entity
// can neither displace nor tie ahead of a listed entity in any list's
// top-k, so every list's answer is unchanged by the appends.
Table GenerateIngestRows(const Table& table, uint64_t seed) {
  const Schema& schema = table.schema();
  std::vector<Value> minima(static_cast<size_t>(schema.num_fields()));
  for (int c = 0; c < schema.num_fields(); ++c) {
    if (schema.field(c).role != FieldRole::kMeasure) continue;
    bool first = true;
    for (RowId r = 0; r < table.num_rows(); ++r) {
      Value v = table.GetValue(r, c);
      if (first || v.AsDouble() < minima[static_cast<size_t>(c)].AsDouble()) {
        minima[static_cast<size_t>(c)] = v;
        first = false;
      }
    }
  }
  Rng rng(seed);
  Table rows(schema);
  const int entity = schema.entity_index();
  char name[64];
  for (int i = 0; i < kIngestBatchRows * kIngestBatches; ++i) {
    RowId src = static_cast<RowId>(rng.Uniform(table.num_rows()));
    std::vector<Value> row;
    row.reserve(static_cast<size_t>(schema.num_fields()));
    for (int c = 0; c < schema.num_fields(); ++c) {
      if (c == entity) {
        std::snprintf(name, sizeof(name), "~ingest#%09d", i);
        row.emplace_back(std::string(name));
      } else if (schema.field(c).role == FieldRole::kMeasure) {
        row.push_back(minima[static_cast<size_t>(c)]);
      } else {
        row.push_back(table.GetValue(src, c));
      }
    }
    CheckOk(rows.AppendRow(row), "ingest row");
  }
  return rows;
}

int Generate(const WorkloadDef& def, const std::string& dir) {
  const uint64_t instance =
      Mix(kInstanceSeed, 100 + static_cast<uint64_t>(def.dataset));
  Table table = GenerateRelation(def, instance);
  EntityIndex index = EntityIndex::Build(table);
  std::vector<std::vector<ListInput>> per_cell(def.cells.size());
  for (size_t c = 0; c < def.cells.size(); ++c) {
    const Cell& cell = def.cells[c];
    WorkloadOptions o;
    o.families = {cell.family};
    o.predicate_sizes = {cell.p};
    o.ks = {cell.k};
    o.queries_per_config = def.lists_per_cell;
    o.seed = Mix(instance, 1000 + c);
    for (WorkloadQuery& wq : Check(WorkloadGen::Generate(table, o), "WorkloadGen")) {
      ListInput li;
      li.cell = cell;
      li.list = std::move(wq.list);
      per_cell[c].push_back(std::move(li));
    }
  }
  // Round-robin over cells, so every prefix of a pass is balanced.
  std::vector<ListInput> ordered;
  for (int j = 0; j < def.lists_per_cell; ++j) {
    for (std::vector<ListInput>& cell_lists : per_cell) {
      if (j < static_cast<int>(cell_lists.size())) {
        ordered.push_back(std::move(cell_lists[static_cast<size_t>(j)]));
      }
    }
  }
  for (size_t i = 0; i < ordered.size(); ++i) {
    ListInput& li = ordered[i];
    li.id = static_cast<int>(i);
    if (def.sample_fraction > 0.0) {
      li.sample = Check(
          Sampler::UniformPerEntity(index, li.list.DistinctEntities(),
                                    def.sample_fraction, Mix(instance, 5000 + i)),
          "Sampler");
    }
  }
  CheckOk(BinaryIo::WriteFile(table, dir + "/relation.palb"), "write relation");
  if (def.serve) {
    CheckOk(BinaryIo::WriteFile(GenerateIngestRows(table, Mix(instance, 6)),
                                dir + "/ingest.palb"),
            "write ingest rows");
  }
  WriteLists(dir + "/lists.txt", ordered);
  return 0;
}

// ---- JSON output ----------------------------------------------------------

class JsonWriter {
 public:
  JsonWriter& Raw(const std::string& s) {
    out_ += s;
    return *this;
  }
  JsonWriter& Key(const std::string& k) {
    Sep();
    out_ += Quote(k) + ":";
    fresh_ = true;
    return *this;
  }
  JsonWriter& Num(double v) {
    Sep();
    char buf[64];
    if (std::isfinite(v)) {
      std::snprintf(buf, sizeof(buf), "%.17g", v);
    } else {
      std::snprintf(buf, sizeof(buf), "null");
    }
    out_ += buf;
    return *this;
  }
  JsonWriter& Int(int64_t v) {
    Sep();
    out_ += std::to_string(v);
    return *this;
  }
  JsonWriter& Bool(bool v) {
    Sep();
    out_ += v ? "true" : "false";
    return *this;
  }
  JsonWriter& Str(const std::string& v) {
    Sep();
    out_ += Quote(v);
    return *this;
  }
  JsonWriter& Open(char c) {
    Sep();
    out_ += c;
    fresh_ = true;
    return *this;
  }
  JsonWriter& Close(char c) {
    out_ += c;
    fresh_ = false;
    return *this;
  }
  JsonWriter& Nums(const std::vector<double>& vs) {
    Open('[');
    for (double v : vs) Num(v);
    return Close(']');
  }
  const std::string& str() const { return out_; }

 private:
  void Sep() {
    if (!fresh_ && !out_.empty()) out_ += ',';
    fresh_ = false;
  }
  static std::string Quote(const std::string& s) {
    std::string q = "\"";
    for (char c : s) {
      if (c == '"' || c == '\\') {
        q += '\\';
        q += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        q += ' ';
      } else {
        q += c;
      }
    }
    return q + "\"";
  }
  std::string out_;
  bool fresh_ = true;
};

// ---- Shared measurement pieces --------------------------------------------

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

int AvailableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

PaleoOptions ListOptions(const PaleoOptions& base, const WorkloadDef& def,
                         const Cell& cell) {
  PaleoOptions o = base;
  o.max_predicate_size = cell.p;  // the paper's |P| cap
  o.max_query_executions = def.max_query_executions;
  return o;
}

// The correctness gate: every accepted query, re-executed through a
// fresh Executor with no dimension index, must reproduce L.
struct Gate {
  std::mutex mu;
  int64_t checked = 0;
  std::vector<std::string> mismatches;

  void Verify(const Table& table, const ListInput& li,
              const std::vector<ValidQuery>& valid, double rel_eps) {
    for (const ValidQuery& vq : valid) {
      Executor fresh;
      StatusOr<TopKList> got = fresh.Execute(table, vq.query, ExecContext{});
      std::lock_guard<std::mutex> lock(mu);
      ++checked;
      if (!got.ok() || !got->InstanceEquals(li.list, rel_eps)) {
        mismatches.push_back("list " + std::to_string(li.id) + ": " +
                             vq.query.ToSql(table.schema()) +
                             (got.ok() ? " does not reproduce L"
                                       : " fails: " + got.status().ToString()));
      }
    }
  }
};

// Deterministic per-list counts; every repetition of a list must
// reproduce its first repetition's counts exactly.
struct Counts {
  std::vector<int64_t> values;
  std::vector<std::string> names;
};

struct RepeatCheck {
  std::map<int, std::vector<int64_t>> first;
  int64_t compared = 0;
  std::vector<std::string> mismatches;

  void Add(int list_id, const Counts& c) {
    auto it = first.find(list_id);
    if (it == first.end()) {
      first.emplace(list_id, c.values);
      return;
    }
    ++compared;
    for (size_t i = 0; i < c.values.size(); ++i) {
      if (it->second[i] != c.values[i]) {
        mismatches.push_back("list " + std::to_string(list_id) + " " +
                             c.names[i] + ": " + std::to_string(it->second[i]) +
                             " then " + std::to_string(c.values[i]));
      }
    }
  }
};

struct ListSample {
  int id;
  double ms;
  bool ok;
  bool found;
  int64_t executions;
  bool cap_hit;
  int64_t rprime_rows;
};

void WriteListSamples(JsonWriter* j, const std::vector<ListSample>& samples) {
  j->Key("lists").Open('[');
  for (const ListSample& s : samples) {
    j->Open('[').Int(s.id).Num(s.ms).Bool(s.ok).Bool(s.found).Int(s.executions)
        .Bool(s.cap_hit).Int(s.rprime_rows).Close(']');
  }
  j->Close(']');
}

std::vector<std::vector<Value>> RowsOf(const Table& t) {
  std::vector<std::vector<Value>> rows(t.num_rows());
  for (RowId r = 0; r < t.num_rows(); ++r) {
    rows[r].reserve(static_cast<size_t>(t.num_columns()));
    for (int c = 0; c < t.num_columns(); ++c) rows[r].push_back(t.GetValue(r, c));
  }
  return rows;
}

std::span<const std::vector<Value>> Batch(
    const std::vector<std::vector<Value>>& rows, int i) {
  const size_t begin = static_cast<size_t>(i) * kIngestBatchRows;
  return std::span<const std::vector<Value>>(rows.data() + begin,
                                             kIngestBatchRows);
}

struct PublishLog {
  std::vector<double> ms;
  std::vector<double> late_ms;
  int64_t failures = 0;
  int64_t snapshots_live_max = 0;
};

void SampleLive(const obs::MetricsRegistry& reg, PublishLog* log) {
  const obs::Gauge* live = reg.gauge("paleo_snapshot_live");
  if (live != nullptr) {
    log->snapshots_live_max = std::max(log->snapshots_live_max, live->value());
  }
}

// ---- Traced, decomposed pipeline (sequential workloads) ------------------

struct SpanRec {
  const char* name;
  int parent;
  int list;
  double start_ms;
  double end_ms;
};

class SpanLog {
 public:
  explicit SpanLog(double origin) : origin_(origin) {}
  int Start(const char* name, int parent, int list) {
    spans_.push_back({name, parent, list, NowMs() - origin_, -1.0});
    return static_cast<int>(spans_.size()) - 1;
  }
  void End(int id) { spans_[static_cast<size_t>(id)].end_ms = NowMs() - origin_; }
  // Copies the validator's per-candidate "execute" spans under `parent`.
  void AdoptExecutes(const obs::Trace& trace, int parent, int list) {
    const double origin_abs = origin_;
    for (const obs::Span& s : trace.spans()) {
      if (s.name != "execute" || !s.finished()) continue;
      auto ms = [origin_abs](std::chrono::steady_clock::time_point t) {
        return std::chrono::duration<double, std::milli>(t.time_since_epoch())
                   .count() -
               origin_abs;
      };
      spans_.push_back({"execute", parent, list, ms(s.start), ms(s.end)});
    }
  }
  const std::vector<SpanRec>& spans() const { return spans_; }

  // Self time per span name over spans [from, end): duration minus the
  // part its children cover (children never overlap here).
  std::map<std::string, double> SelfTimes(size_t from) const {
    std::vector<double> child(spans_.size() - from, 0.0);
    for (size_t i = from; i < spans_.size(); ++i) {
      const SpanRec& s = spans_[i];
      if (s.parent >= static_cast<int>(from)) {
        child[static_cast<size_t>(s.parent) - from] += s.end_ms - s.start_ms;
      }
    }
    std::map<std::string, double> self;
    for (size_t i = from; i < spans_.size(); ++i) {
      const SpanRec& s = spans_[i];
      self[s.name] += (s.end_ms - s.start_ms) - child[i - from];
    }
    return self;
  }

 private:
  double origin_;
  std::vector<SpanRec> spans_;
};

struct DecomposedOutcome {
  std::vector<ValidQuery> valid;
  int64_t executions = 0;
  int64_t skip_events = 0;
  int64_t passes = 0;
  int64_t refuted_early = 0;
  int64_t rprime_rows = 0;
  int64_t predicates = 0;
  int64_t tuple_sets = 0;
  int64_t tuple_set_evaluations = 0;
  int64_t candidates = 0;
  bool used_fallback = false;
  bool deepened = false;
};

struct ExecCounts {
  int64_t queries = 0, rows_scanned = 0, index_assisted = 0, morsels = 0,
          scalar_fallbacks = 0, chunks_skipped = 0, rows_saved = 0;
};

// Paleo::RunImpl's stages for an ungoverned sequential request, called
// one by one and timed from outside. Any change to RunImpl's order or
// options shows up as a mismatch against Paleo::Run.
StatusOr<DecomposedOutcome> RunDecomposed(const Paleo& paleo,
                                          const PaleoOptions& options,
                                          const ListInput& li,
                                          double sample_fraction,
                                          const PipelineMetrics& metrics,
                                          SpanLog* log, ExecCounts* exec) {
  const Table& base = paleo.base();
  const TopKList& input = li.list;
  const std::vector<RowId>* sample_rows = li.sample.empty() ? nullptr : &li.sample;
  const bool assume_complete = sample_rows == nullptr;
  const double coverage_ratio = assume_complete
                                    ? options.coverage_ratio
                                    : CoverageRatioForSample(sample_fraction);
  DecomposedOutcome out;
  const int root = log->Start("list", -1, li.id);

  int span = log->Start("rprime", root, li.id);
  PALEO_ASSIGN_OR_RETURN(RPrime rprime,
                         RPrime::Build(base, paleo.index(), input, sample_rows));
  log->End(span);
  out.rprime_rows = static_cast<int64_t>(rprime.num_rows());

  PaleoOptions step_options = options;
  step_options.coverage_ratio = coverage_ratio;
  span = log->Start("miner", root, li.id);
  PredicateMiner miner(rprime, step_options);
  PALEO_ASSIGN_OR_RETURN(MiningResult mining, miner.Mine(nullptr));
  log->End(span);
  out.predicates = static_cast<int64_t>(mining.predicates.size());
  out.tuple_sets = static_cast<int64_t>(mining.groups.size());

  span = log->Start("ranking", root, li.id);
  RankingFinder finder(rprime, &paleo.catalog(), step_options);
  RankingSearchInfo info;
  PALEO_ASSIGN_OR_RETURN(
      std::vector<GroupRanking> rankings,
      finder.Find(mining.groups, input, assume_complete, &info,
                  /*exhaustive=*/false, nullptr));
  log->End(span);
  out.tuple_set_evaluations = info.tuple_set_evaluations;
  out.used_fallback = info.used_fallback;

  span = log->Start("candidates", root, li.id);
  std::vector<double> input_values = input.Values();
  const SortOrder order =
      std::is_sorted(input_values.begin(), input_values.end()) &&
              !std::is_sorted(input_values.rbegin(), input_values.rend())
          ? SortOrder::kAsc
          : SortOrder::kDesc;
  ProbModel model(paleo.catalog(), rprime);
  model.set_use_observed_match_rate(options.use_observed_match_rate);
  std::vector<CandidateQuery> candidates = BuildCandidateQueries(
      mining, rankings, model, static_cast<int>(input.size()), order,
      options.lattice_aware_order);
  log->End(span);
  out.candidates = static_cast<int64_t>(candidates.size());

  Executor executor;
  executor.SetVectorized(options.vectorized_execution);
  if (paleo.dimension_index() != nullptr && options.use_dimension_index) {
    executor.SetDimensionIndex(paleo.dimension_index(), &base);
  }
  executor.SetMetrics({metrics.executor_queries, metrics.executor_rows_scanned,
                       metrics.executor_index_assisted, metrics.chunks_skipped,
                       metrics.morsels, metrics.rows_saved_by_threshold,
                       metrics.scan_parallelism});
  std::unique_ptr<AtomSelectionCache> atom_cache;
  if (executor.vectorized() && options.atom_cache_bytes > 0) {
    atom_cache = std::make_unique<AtomSelectionCache>(
        options.atom_cache_bytes,
        AtomSelectionCache::MetricHandles{
            metrics.cache_hits, metrics.cache_misses, metrics.cache_evictions,
            metrics.cache_resident_bytes, metrics.conjunction_cache_hits,
            metrics.conjunction_cache_misses});
  }

  obs::Trace exec_trace;
  span = log->Start("validator", root, li.id);
  Validator validator(base, &executor, options, nullptr, metrics,
                      obs::TraceContext{&exec_trace, obs::Trace::kNoSpan},
                      atom_cache.get());
  PALEO_ASSIGN_OR_RETURN(ValidationOutcome outcome,
                         validator.Validate(candidates, input, nullptr, 0));
  log->End(span);
  log->AdoptExecutes(exec_trace, span, li.id);
  out.valid = std::move(outcome.valid);
  out.executions = outcome.executions;
  out.skip_events = outcome.skip_events;
  out.passes = outcome.passes;
  out.refuted_early = outcome.refuted_early;

  if (assume_complete && out.valid.empty()) {
    out.deepened = true;
    const int deepen = log->Start("deepen", root, li.id);
    span = log->Start("ranking", deepen, li.id);
    RankingSearchInfo deep_info;
    PALEO_ASSIGN_OR_RETURN(
        std::vector<GroupRanking> all_rankings,
        finder.Find(mining.groups, input, /*assume_complete=*/true, &deep_info,
                    /*exhaustive=*/true, nullptr));
    log->End(span);
    out.tuple_set_evaluations += deep_info.tuple_set_evaluations;
    span = log->Start("candidates", deepen, li.id);
    std::vector<CandidateQuery> all_candidates = BuildCandidateQueries(
        mining, all_rankings, model, static_cast<int>(input.size()), order,
        options.lattice_aware_order);
    std::unordered_set<uint64_t> already_tried;
    for (const CandidateQuery& cq : candidates) {
      already_tried.insert(cq.query.Hash());
    }
    std::vector<CandidateQuery> fresh;
    for (CandidateQuery& cq : all_candidates) {
      if (already_tried.count(cq.query.Hash()) == 0) fresh.push_back(std::move(cq));
    }
    log->End(span);
    out.candidates += static_cast<int64_t>(fresh.size());
    obs::Trace deep_trace;
    span = log->Start("validator", deepen, li.id);
    Validator deep_validator(base, &executor, options, nullptr, metrics,
                             obs::TraceContext{&deep_trace, obs::Trace::kNoSpan},
                             atom_cache.get());
    PALEO_ASSIGN_OR_RETURN(
        ValidationOutcome retry,
        deep_validator.Validate(fresh, input, nullptr, out.executions));
    log->End(span);
    log->AdoptExecutes(deep_trace, span, li.id);
    log->End(deepen);
    for (ValidQuery& vq : retry.valid) {
      vq.executions_at_discovery += out.executions;
      out.valid.push_back(std::move(vq));
    }
    out.executions += retry.executions;
    out.skip_events += retry.skip_events;
    out.passes += retry.passes;
    out.refuted_early += retry.refuted_early;
  }
  log->End(root);

  // relaxed: the executor is quiescent; these are plain tallies.
  const Executor::Stats& st = executor.stats();
  exec->queries = st.queries_executed.load(std::memory_order_relaxed);
  exec->rows_scanned = st.rows_scanned.load(std::memory_order_relaxed);
  exec->index_assisted = st.index_assisted.load(std::memory_order_relaxed);
  exec->morsels = st.morsels.load(std::memory_order_relaxed);
  exec->scalar_fallbacks = st.scalar_fallbacks.load(std::memory_order_relaxed);
  exec->chunks_skipped = st.chunks_skipped.load(std::memory_order_relaxed);
  exec->rows_saved = st.rows_saved.load(std::memory_order_relaxed);
  return out;
}

bool SameValid(const std::vector<ValidQuery>& a, const std::vector<ValidQuery>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!(a[i].query == b[i].query) ||
        a[i].executions_at_discovery != b[i].executions_at_discovery) {
      return false;
    }
  }
  return true;
}

int64_t CounterValue(const obs::MetricsRegistry& reg, const char* name,
                     const std::string& labels = "") {
  const obs::Counter* c = reg.counter(name, labels);
  return c != nullptr ? c->value() : 0;
}

double Share(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// ---- Sequential workloads --------------------------------------------------

struct Setup {
  std::unique_ptr<Table> table;
  std::unique_ptr<Paleo> paleo;
};

int MeasureSequential(const WorkloadDef& def, const std::string& dir,
                      uint64_t seed, double seconds, bool trace, JsonWriter* j) {
  const std::string relation_path = dir + "/relation.palb";
  std::vector<ListInput> lists = ReadLists(dir + "/lists.txt");
  if (lists.empty()) Die("no lists generated");
  std::rotate(lists.begin(), lists.begin() + static_cast<long>(seed % lists.size()),
              lists.end());
  PaleoOptions base_options;
  base_options.use_dimension_index = def.use_dimension_index;

  // Set-up: read the relation and build the engine, repeatedly (MoreSetups).
  std::vector<double> setup_s;
  std::map<std::string, std::vector<double>> setup_layers;
  Setup setup;
  for (int i = 0; MoreSetups(i, setup_s); ++i) {
    setup = Setup{};
    const double t0 = NowMs();
    if (!trace) {
      setup.table = std::make_unique<Table>(
          Check(BinaryIo::ReadFile(relation_path), "read relation"));
      setup.paleo = std::make_unique<Paleo>(setup.table.get(), base_options);
      setup_s.push_back((NowMs() - t0) / 1000.0);
      continue;
    }
    double t = NowMs();
    setup.table = std::make_unique<Table>(
        Check(BinaryIo::ReadFile(relation_path), "read relation"));
    setup_layers["io.read_table_ms"].push_back(NowMs() - t);
    t = NowMs();
    EntityIndex index = EntityIndex::Build(*setup.table);
    setup_layers["index.entity_build_ms"].push_back(NowMs() - t);
    t = NowMs();
    StatsCatalog stats = StatsCatalog::Build(*setup.table);
    setup_layers["stats.catalog_build_ms"].push_back(NowMs() - t);
    t = NowMs();
    std::unique_ptr<DimensionIndex> dims;
    if (base_options.use_dimension_index) {
      dims = std::make_unique<DimensionIndex>(DimensionIndex::Build(*setup.table));
    }
    setup_layers["index.dimension_build_ms"].push_back(dims != nullptr ? NowMs() - t : 0.0);
    setup.paleo = std::make_unique<Paleo>(setup.table.get(), base_options,
                                          std::move(index), std::move(stats),
                                          std::move(dims));
    setup_s.push_back((NowMs() - t0) / 1000.0);
  }
  const Table& table = *setup.table;
  const Paleo& paleo = *setup.paleo;

  Gate gate;
  RepeatCheck repeat;
  std::vector<ListSample> samples;
  std::vector<std::string> trace_mismatches;
  double run_ms_total = 0.0, traced_ms_total = 0.0;
  // Traced-run per-layer sums (over every traced list).
  std::map<std::string, double> layer_ms;
  double n_traced = 0, sum_rprime = 0, sum_predicates = 0, sum_tuple_sets = 0,
         sum_evals = 0, sum_fallback = 0, sum_deepen = 0, sum_candidates = 0,
         sum_executions = 0, sum_skips = 0, sum_passes = 0, sum_valid = 0,
         sum_cap_hit = 0, sum_refuted = 0;
  ExecCounts exec_sum;
  obs::MetricsRegistry registry;
  const PipelineMetrics metrics = PipelineMetrics::Bind(trace ? &registry : nullptr);
  SpanLog spans(NowMs());

  const int min_passes = trace ? 2 : 1;
  const double start = NowMs();
  int passes = 0;
  while (true) {
    const double pass_start = NowMs();
    for (const ListInput& li : lists) {
      const PaleoOptions options = ListOptions(base_options, def, li.cell);
      RunRequest request;
      request.input = &li.list;
      request.options_override = &options;
      if (!li.sample.empty()) {
        request.sample_rows = &li.sample;
        request.sample_fraction = def.sample_fraction;
      }
      // Traced runs alternate which of the two goes first, so neither
      // always runs on caches the other warmed.
      const bool decomposed_first = trace && passes % 2 == 1;
      ExecCounts ec;
      StatusOr<DecomposedOutcome> dec = Status::Internal("not run");
      size_t first_span = 0;
      int64_t hits0 = 0, misses0 = 0, chits0 = 0, cmiss0 = 0;
      auto run_decomposed = [&] {
        first_span = spans.spans().size();
        hits0 = CounterValue(registry, "paleo_cache_hits_total");
        misses0 = CounterValue(registry, "paleo_cache_misses_total");
        chits0 = CounterValue(registry, "paleo_conjunction_cache_hits_total");
        cmiss0 = CounterValue(registry, "paleo_conjunction_cache_misses_total");
        const double tt = NowMs();
        dec = RunDecomposed(paleo, options, li, def.sample_fraction, metrics,
                            &spans, &ec);
        traced_ms_total += NowMs() - tt;
      };
      if (decomposed_first) run_decomposed();
      const double t0 = NowMs();
      StatusOr<ReverseEngineerReport> report = paleo.Run(request);
      const double ms = NowMs() - t0;
      run_ms_total += ms;
      ListSample s{li.id, ms, report.ok(), false, 0, false, 0};
      if (report.ok()) {
        s.found = report->found();
        s.executions = report->executed_queries;
        s.cap_hit = def.max_query_executions > 0 &&
                    report->executed_queries >= def.max_query_executions;
        s.rprime_rows = report->rprime_rows;
        gate.Verify(table, li, report->valid, options.rel_eps);
        repeat.Add(li.id, Counts{{report->executed_queries,
                                  report->candidate_predicates,
                                  report->tuple_sets,
                                  report->ranking_info.tuple_set_evaluations,
                                  report->candidate_queries},
                                 {"validator.executions", "miner.predicates",
                                  "miner.tuple_sets",
                                  "ranking.tuple_set_evaluations",
                                  "candidates.count"}});
      }
      samples.push_back(s);
      if (!trace || !report.ok()) continue;

      // The traced decomposition of the same list.
      if (!decomposed_first) run_decomposed();
      if (!dec.ok()) {
        trace_mismatches.push_back("list " + std::to_string(li.id) + ": " +
                                   dec.status().ToString());
        continue;
      }
      if (!SameValid(dec->valid, report->valid) ||
          dec->executions != report->executed_queries) {
        trace_mismatches.push_back(
            "list " + std::to_string(li.id) + ": decomposed pipeline found " +
            std::to_string(dec->valid.size()) + " valid in " +
            std::to_string(dec->executions) + " executions, Paleo::Run " +
            std::to_string(report->valid.size()) + " in " +
            std::to_string(report->executed_queries));
      }
      const int64_t hits = CounterValue(registry, "paleo_cache_hits_total") - hits0;
      const int64_t misses =
          CounterValue(registry, "paleo_cache_misses_total") - misses0;
      const int64_t chits =
          CounterValue(registry, "paleo_conjunction_cache_hits_total") - chits0;
      const int64_t cmisses =
          CounterValue(registry, "paleo_conjunction_cache_misses_total") - cmiss0;
      // Keyed apart from the untraced counts: list id + 1e6.
      repeat.Add(li.id + 1000000,
                 Counts{{dec->executions, dec->predicates,
                         dec->tuple_set_evaluations, ec.queries, hits, misses,
                         chits, cmisses},
                        {"validator.executions", "miner.predicates",
                         "ranking.tuple_set_evaluations", "executor.queries",
                         "atom_cache.hits", "atom_cache.misses",
                         "conjunction_cache.hits", "conjunction_cache.misses"}});
      for (const auto& [name, ms_self] : spans.SelfTimes(first_span)) {
        layer_ms[name] += ms_self;
      }
      n_traced += 1;
      sum_rprime += static_cast<double>(dec->rprime_rows);
      sum_predicates += static_cast<double>(dec->predicates);
      sum_tuple_sets += static_cast<double>(dec->tuple_sets);
      sum_evals += static_cast<double>(dec->tuple_set_evaluations);
      sum_fallback += dec->used_fallback ? 1 : 0;
      sum_deepen += dec->deepened ? 1 : 0;
      sum_candidates += static_cast<double>(dec->candidates);
      sum_executions += static_cast<double>(dec->executions);
      sum_skips += static_cast<double>(dec->skip_events);
      sum_passes += static_cast<double>(dec->passes);
      sum_valid += static_cast<double>(dec->valid.size());
      sum_cap_hit += s.cap_hit ? 1 : 0;
      sum_refuted += static_cast<double>(dec->refuted_early);
      exec_sum.queries += ec.queries;
      exec_sum.rows_scanned += ec.rows_scanned;
      exec_sum.index_assisted += ec.index_assisted;
      exec_sum.morsels += ec.morsels;
      exec_sum.scalar_fallbacks += ec.scalar_fallbacks;
      exec_sum.chunks_skipped += ec.chunks_skipped;
      exec_sum.rows_saved += ec.rows_saved;
    }
    ++passes;
    // Passes are whole, so every run sees the same mix of cells; the
    // next one starts only if a pass as long as this one ends in time.
    const double now = NowMs();
    if (passes >= min_passes && 2 * now - pass_start - start > seconds * 1000.0) {
      break;
    }
  }
  const double measured_s = (NowMs() - start) / 1000.0;
  const double peak_rss = PeakRssMb();

  j->Key("passes").Int(passes);
  j->Key("measured_s").Num(measured_s);
  j->Key("lists_per_s").Num(Share(static_cast<double>(samples.size()),
                                  run_ms_total / 1000.0));
  j->Key("setup_s").Nums(setup_s);
  j->Key("peak_rss_mb").Num(peak_rss);
  j->Key("publish_ms").Nums({});
  j->Key("publish_failures").Int(0);
  WriteListSamples(j, samples);
  j->Key("gate").Open('{').Key("checked").Int(gate.checked);
  j->Key("mismatches").Open('[');
  for (const std::string& m : gate.mismatches) j->Str(m);
  j->Close(']').Close('}');
  j->Key("repeat").Open('{').Key("compared").Int(repeat.compared);
  j->Key("mismatches").Open('[');
  for (const std::string& m : repeat.mismatches) j->Str(m);
  j->Close(']').Close('}');
  j->Key("trace_mismatches").Open('[');
  for (const std::string& m : trace_mismatches) j->Str(m);
  j->Close(']');
  j->Key("table").Open('{').Key("rows").Int(static_cast<int64_t>(table.num_rows()));
  j->Key("entities").Int(table.NumEntities()).Close('}');

  if (trace) {
    const double n = std::max(n_traced, 1.0);
    j->Key("per_layer").Open('{');
    for (const auto& [name, values] : setup_layers) {
      std::vector<double> v = values;
      std::sort(v.begin(), v.end());
      j->Key(name).Num(v[v.size() / 2]);
    }
    j->Key("rprime.ms").Num(layer_ms["rprime"] / n);
    j->Key("rprime.rows").Num(sum_rprime / n);
    j->Key("miner.ms").Num(layer_ms["miner"] / n);
    j->Key("miner.predicates").Num(sum_predicates / n);
    j->Key("miner.tuple_sets").Num(sum_tuple_sets / n);
    j->Key("ranking.ms").Num(layer_ms["ranking"] / n);
    j->Key("ranking.tuple_set_evaluations").Num(sum_evals / n);
    j->Key("ranking.fallback_share").Num(sum_fallback / n);
    j->Key("ranking.deepen_share").Num(sum_deepen / n);
    j->Key("candidates.ms").Num(layer_ms["candidates"] / n);
    j->Key("candidates.count").Num(sum_candidates / n);
    j->Key("validator.ms").Num(layer_ms["validator"] / n);
    j->Key("validator.executions").Num(sum_executions / n);
    j->Key("validator.skip_events").Num(sum_skips / n);
    j->Key("validator.passes").Num(sum_passes / n);
    j->Key("validator.valid_per_execution").Num(Share(sum_valid, sum_executions));
    j->Key("validator.cap_hit_share").Num(sum_cap_hit / n);
    j->Key("executor.exec_ms").Num(layer_ms["execute"] / n);
    const double queries = static_cast<double>(exec_sum.queries);
    j->Key("executor.queries").Num(queries / n);
    j->Key("executor.rows_scanned_per_query")
        .Num(Share(static_cast<double>(exec_sum.rows_scanned), queries));
    j->Key("executor.index_assisted_share")
        .Num(Share(static_cast<double>(exec_sum.index_assisted), queries));
    j->Key("executor.morsels").Num(static_cast<double>(exec_sum.morsels) / n);
    j->Key("executor.scalar_fallbacks")
        .Num(static_cast<double>(exec_sum.scalar_fallbacks) / n);
    j->Key("threshold.refuted_share")
        .Num(Share(sum_refuted, sum_executions));
    j->Key("threshold.rows_saved").Num(static_cast<double>(exec_sum.rows_saved) / n);
    j->Key("storage.chunks_skipped")
        .Num(static_cast<double>(exec_sum.chunks_skipped) / n);
    const double hits = static_cast<double>(CounterValue(registry, "paleo_cache_hits_total"));
    const double misses =
        static_cast<double>(CounterValue(registry, "paleo_cache_misses_total"));
    const double chits = static_cast<double>(
        CounterValue(registry, "paleo_conjunction_cache_hits_total"));
    const double cmisses = static_cast<double>(
        CounterValue(registry, "paleo_conjunction_cache_misses_total"));
    j->Key("atom_cache.hit_share").Num(Share(hits, hits + misses));
    j->Key("atom_cache.evictions")
        .Num(static_cast<double>(CounterValue(registry, "paleo_cache_evictions_total")) / n);
    j->Key("conjunction_cache.hit_share").Num(Share(chits, chits + cmisses));
    // Sequential lists never queue; the service layer is idle here.
    j->Key("service.queue_wait_ms_p50").Num(0.0);
    j->Key("service.run_ms_p50").Num(0.0);
    j->Key("service.shed").Num(0.0);
    // Nothing is ingested; the catalog layer is not used.
    j->Key("catalog.full_rebuilds").Num(0.0);
    j->Key("catalog.snapshots_live_max").Num(0.0);
    // Untraced Paleo::Run vs the traced decomposition of the same lists.
    j->Key("obs.trace_overhead_share")
        .Num(traced_ms_total > 0.0 ? 1.0 - run_ms_total / traced_ms_total : 0.0);
    j->Close('}');

    // Spans stay in memory until here; then they go to a file with the
    // per-layer self times.
    std::ofstream out(dir + "/spans.json");
    JsonWriter sj;
    sj.Open('{').Key("fields").Raw("[\"name\",\"parent\",\"list\",\"start_ms\",\"end_ms\"]");
    sj.Key("spans").Open('[');
    for (const SpanRec& s : spans.spans()) {
      sj.Open('[').Str(s.name).Int(s.parent).Int(s.list).Num(s.start_ms)
          .Num(s.end_ms).Close(']');
    }
    sj.Close(']').Key("self_ms_total").Open('{');
    for (const auto& [name, ms] : layer_ms) sj.Key(name).Num(ms);
    sj.Close('}').Close('}');
    out << sj.str() << '\n';
  }
  return 0;
}

// ---- tpch_serve_ingest ------------------------------------------------------

// Per-layer sums over the session reports of completed lists.
struct ReportSums {
  double n = 0, find_predicates_ms = 0, find_ranking_ms = 0, validation_ms = 0,
         predicates = 0, tuple_sets = 0, tuple_set_evaluations = 0,
         fallbacks = 0, candidates = 0, executions = 0, skip_events = 0,
         refuted = 0, rows_saved = 0, degraded = 0;

  void Add(const ReverseEngineerReport& r) {
    n += 1;
    find_predicates_ms += r.timings.find_predicates_ms;
    find_ranking_ms += r.timings.find_ranking_ms;
    validation_ms += r.timings.validation_ms;
    predicates += static_cast<double>(r.candidate_predicates);
    tuple_sets += static_cast<double>(r.tuple_sets);
    tuple_set_evaluations += static_cast<double>(r.ranking_info.tuple_set_evaluations);
    fallbacks += r.ranking_info.used_fallback ? 1 : 0;
    candidates += static_cast<double>(r.candidate_queries);
    executions += static_cast<double>(r.executed_queries);
    skip_events += static_cast<double>(r.skip_events);
    refuted += static_cast<double>(r.executions_aborted_early);
    rows_saved += static_cast<double>(r.rows_saved);
    degraded += static_cast<double>(r.degraded_events);
  }
};

struct ServeResult {
  std::vector<ListSample> samples;
  int64_t completed_in_window = 0;
  double window_s = 0.0;
  int64_t found_mismatches = 0;
  ReportSums reports;
};

// A closed loop of `clients` threads, each keeping one request
// outstanding, for `seconds`; every completed session is checked.
ServeResult RunClosedLoop(DiscoveryService* service,
                          const std::vector<ListInput>& lists,
                          const std::vector<PaleoOptions>& list_options,
                          const std::vector<int>& ref_found, int clients,
                          double seconds, bool collect_trace, Gate* gate,
                          std::atomic<size_t>* cursor) {
  ServeResult result;
  std::mutex mu;
  std::atomic<bool> stop{false};
  const double start = NowMs();
  const double window_end = start + seconds * 1000.0;
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&] {
      while (!stop.load()) {
        const size_t idx = cursor->fetch_add(1) % lists.size();
        const ListInput& li = lists[idx];
        ServiceRequest request;
        request.input = li.list;
        request.options = list_options[idx];
        request.collect_trace = collect_trace;
        const double t0 = NowMs();
        StatusOr<std::shared_ptr<Session>> session = service->Submit(std::move(request));
        ListSample s{li.id, 0.0, false, false, 0, false, 0};
        bool mismatch = false;
        if (session.ok()) {
          SessionState state = (*session)->Wait();
          const double t1 = NowMs();
          s.ms = t1 - t0;
          const ReverseEngineerReport* report = (*session)->report();
          s.ok = state == SessionState::kDone && report != nullptr;
          if (s.ok) {
            s.found = report->found();
            s.executions = report->executed_queries;
            s.rprime_rows = report->rprime_rows;
            gate->Verify((*session)->snapshot().table(), li, report->valid,
                         list_options[idx].rel_eps);
            mismatch = s.found != (ref_found[idx] != 0);
          }
          std::lock_guard<std::mutex> lock(mu);
          if (t1 <= window_end) ++result.completed_in_window;
          if (s.ok) result.reports.Add(*report);
        } else {
          s.ms = NowMs() - t0;
        }
        std::lock_guard<std::mutex> lock(mu);
        result.samples.push_back(s);
        if (mismatch) ++result.found_mismatches;
        if (NowMs() >= window_end) stop.store(true);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  result.window_s = seconds;
  return result;
}

int MeasureServe(const WorkloadDef& def, const std::string& dir, uint64_t seed,
                 double seconds, bool trace, JsonWriter* j) {
  const std::string relation_path = dir + "/relation.palb";
  std::vector<ListInput> lists = ReadLists(dir + "/lists.txt");
  if (lists.empty()) Die("no lists generated");
  std::rotate(lists.begin(), lists.begin() + static_cast<long>(seed % lists.size()),
              lists.end());
  PaleoOptions base_options;
  base_options.use_dimension_index = def.use_dimension_index;
  std::vector<PaleoOptions> list_options;
  for (const ListInput& li : lists) {
    list_options.push_back(ListOptions(base_options, def, li.cell));
  }
  std::vector<std::vector<Value>> ingest_rows =
      RowsOf(Check(BinaryIo::ReadFile(dir + "/ingest.palb"), "read ingest rows"));

  // Set-up: read the relation and build the catalog, repeatedly (MoreSetups).
  obs::MetricsRegistry catalog_registry;
  std::vector<double> setup_s;
  std::map<std::string, std::vector<double>> setup_layers;
  std::shared_ptr<TableCatalog> catalog;
  size_t relation_rows = 0, relation_entities = 0;
  for (int i = 0; MoreSetups(i, setup_s); ++i) {
    catalog.reset();
    const double t0 = NowMs();
    Table table = Check(BinaryIo::ReadFile(relation_path), "read relation");
    const double read_ms = NowMs() - t0;
    relation_rows = table.num_rows();
    relation_entities = table.NumEntities();
    if (trace) {
      // The catalog builds these inside its constructor; time each from
      // outside on the same table, outside the set-up measurement.
      setup_layers["io.read_table_ms"].push_back(read_ms);
      double t = NowMs();
      EntityIndex index = EntityIndex::Build(table);
      setup_layers["index.entity_build_ms"].push_back(NowMs() - t);
      t = NowMs();
      StatsCatalog stats = StatsCatalog::Build(table);
      setup_layers["stats.catalog_build_ms"].push_back(NowMs() - t);
      t = NowMs();
      DimensionIndex dims = DimensionIndex::Build(table);
      setup_layers["index.dimension_build_ms"].push_back(NowMs() - t);
    }
    const double t1 = NowMs();
    catalog = std::make_shared<TableCatalog>(std::move(table), base_options,
                                             &catalog_registry);
    setup_s.push_back((read_ms + (NowMs() - t1)) / 1000.0);
  }

  const int workers = std::max(1, AvailableCpus() - 1);
  DiscoveryServiceOptions service_options;
  service_options.num_workers = workers;
  Gate gate;
  double lists_per_s = 0.0;
  double overhead_share = 0.0;
  ServeResult measured;
  PublishLog publish;
  int64_t shed = 0;
  std::map<std::string, double> layer;
  {
    DiscoveryService service(catalog, service_options);

    // Static reference: every list once on the base relation, before any
    // ingest. found_share under ingest must equal it list by list.
    std::vector<int> ref_found(lists.size(), 0);
    {
      std::vector<std::shared_ptr<Session>> sessions;
      for (size_t i = 0; i < lists.size(); ++i) {
        ServiceRequest request;
        request.input = lists[i].list;
        request.options = list_options[i];
        sessions.push_back(Check(service.Submit(std::move(request)), "reference"));
      }
      for (size_t i = 0; i < lists.size(); ++i) {
        if (sessions[i]->Wait() != SessionState::kDone) {
          Die("reference run failed: " + sessions[i]->status().ToString());
        }
        ref_found[i] = sessions[i]->report()->found() ? 1 : 0;
        gate.Verify(sessions[i]->snapshot().table(), lists[i],
                    sessions[i]->report()->valid, list_options[i].rel_eps);
      }
    }
    const int64_t shed0 = service.stats().shed;

    // The writer: one fixed batch every kIngestIntervalMs.
    std::atomic<bool> writer_stop{false};
    Ingestor ingestor(catalog.get());
    std::thread writer([&] {
      const double t_start = NowMs();
      for (int i = 0; i < kIngestBatches && !writer_stop.load(); ++i) {
        const double due = t_start + static_cast<double>(i) * kIngestIntervalMs;
        while (NowMs() < due && !writer_stop.load()) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        if (writer_stop.load()) break;
        const double t0 = NowMs();
        Status st = ingestor.Append(Batch(ingest_rows, i));
        publish.ms.push_back(NowMs() - t0);
        publish.late_ms.push_back(t0 - due);
        if (!st.ok()) ++publish.failures;
        SampleLive(catalog_registry, &publish);
      }
    });

    std::atomic<size_t> cursor{0};
    const double untraced_seconds = trace ? seconds / 2.0 : seconds;
    measured = RunClosedLoop(&service, lists, list_options, ref_found, workers,
                             untraced_seconds, false, &gate, &cursor);
    lists_per_s = static_cast<double>(measured.completed_in_window) /
                  measured.window_s;
    if (trace) {
      ServeResult traced = RunClosedLoop(&service, lists, list_options, ref_found,
                                         workers, seconds - untraced_seconds,
                                         true, &gate, &cursor);
      const double traced_lps =
          static_cast<double>(traced.completed_in_window) / traced.window_s;
      overhead_share = lists_per_s > 0.0 ? 1.0 - traced_lps / lists_per_s : 0.0;
      measured.found_mismatches += traced.found_mismatches;
      measured.reports = traced.reports;  // the traced half feeds the layers
      for (const ListSample& s : traced.samples) measured.samples.push_back(s);
    }
    writer_stop.store(true);
    writer.join();
    shed = service.stats().shed - shed0;

    if (trace) {
      const obs::MetricsRegistry& reg = service.metrics();
      const obs::Histogram* qw = reg.histogram("paleo_service_queue_wait_ms");
      const obs::Histogram* rm = reg.histogram("paleo_service_run_ms");
      layer["service.queue_wait_ms_p50"] = qw != nullptr ? qw->p50() : 0.0;
      layer["service.run_ms_p50"] = rm != nullptr ? rm->p50() : 0.0;
      // Registry counters cover every run the service made, the static
      // reference pass included; per-list means divide by that count.
      const obs::Histogram* runs = reg.histogram("paleo_run_ms");
      const double n = runs != nullptr ? std::max<double>(1.0, static_cast<double>(runs->count())) : 1.0;
      const double queries = static_cast<double>(
          CounterValue(reg, "paleo_executor_queries_total"));
      layer["validator.passes"] =
          static_cast<double>(CounterValue(reg, "paleo_validation_passes_total")) / n;
      layer["executor.queries"] = queries / n;
      layer["executor.rows_scanned_per_query"] = Share(
          static_cast<double>(CounterValue(reg, "paleo_executor_rows_scanned_total")),
          queries);
      layer["executor.index_assisted_share"] = Share(
          static_cast<double>(CounterValue(reg, "paleo_executor_index_assisted_total")),
          queries);
      layer["executor.morsels"] =
          static_cast<double>(CounterValue(reg, "paleo_morsels_total")) / n;
      layer["storage.chunks_skipped"] =
          static_cast<double>(CounterValue(reg, "paleo_chunks_skipped_total")) / n;
      const double hits = static_cast<double>(CounterValue(reg, "paleo_cache_hits_total"));
      const double misses =
          static_cast<double>(CounterValue(reg, "paleo_cache_misses_total"));
      layer["atom_cache.hit_share"] = Share(hits, hits + misses);
      layer["atom_cache.evictions"] =
          static_cast<double>(CounterValue(reg, "paleo_cache_evictions_total")) / n;
      const double chits = static_cast<double>(
          CounterValue(reg, "paleo_conjunction_cache_hits_total"));
      const double cmisses = static_cast<double>(
          CounterValue(reg, "paleo_conjunction_cache_misses_total"));
      layer["conjunction_cache.hit_share"] = Share(chits, chits + cmisses);
    }
  }
  const double peak_rss = PeakRssMb();

  double sum_rprime = 0, sum_execs = 0, n_ok = 0, n_found = 0;
  for (const ListSample& s : measured.samples) {
    if (!s.ok) continue;
    sum_rprime += static_cast<double>(s.rprime_rows);
    sum_execs += static_cast<double>(s.executions);
    n_ok += 1;
    n_found += s.found ? 1 : 0;  // one valid query each: stop_at_first_valid
  }
  j->Key("passes").Int(0);
  j->Key("measured_s").Num(seconds);
  j->Key("lists_per_s").Num(lists_per_s);
  j->Key("setup_s").Nums(setup_s);
  j->Key("peak_rss_mb").Num(peak_rss);
  j->Key("publish_ms").Nums(publish.ms);
  j->Key("publish_late_ms").Nums(publish.late_ms);
  j->Key("publish_failures").Int(publish.failures);
  j->Key("workers").Int(workers);
  j->Key("found_mismatches").Int(measured.found_mismatches);
  WriteListSamples(j, measured.samples);
  j->Key("gate").Open('{').Key("checked").Int(gate.checked);
  j->Key("mismatches").Open('[');
  for (const std::string& m : gate.mismatches) j->Str(m);
  j->Close(']').Close('}');
  j->Key("repeat").Open('{').Key("compared").Int(0);
  j->Key("mismatches").Open('[').Close(']').Close('}');
  j->Key("trace_mismatches").Open('[').Close(']');
  j->Key("table").Open('{').Key("rows").Int(static_cast<int64_t>(relation_rows));
  j->Key("entities").Int(static_cast<int64_t>(relation_entities)).Close('}');
  if (trace) {
    const double n = std::max(n_ok, 1.0);
    j->Key("per_layer").Open('{');
    for (const auto& [name, values] : setup_layers) {
      std::vector<double> v = values;
      std::sort(v.begin(), v.end());
      j->Key(name).Num(v[v.size() / 2]);
    }
    // From the session reports' timings and counts. The service runs
    // Paleo::Run whole, so R' retrieval and candidate assembly are inside
    // the step timings, validator.ms includes executor time, and the
    // deepening pass is not visible.
    const ReportSums& r = measured.reports;
    const double nr = std::max(r.n, 1.0);
    layer["rprime.ms"] = 0.0;
    layer["rprime.rows"] = sum_rprime / n;
    layer["miner.ms"] = r.find_predicates_ms / nr;
    layer["miner.predicates"] = r.predicates / nr;
    layer["miner.tuple_sets"] = r.tuple_sets / nr;
    layer["ranking.ms"] = r.find_ranking_ms / nr;
    layer["ranking.tuple_set_evaluations"] = r.tuple_set_evaluations / nr;
    layer["ranking.fallback_share"] = r.fallbacks / nr;
    layer["ranking.deepen_share"] = 0.0;
    layer["candidates.ms"] = 0.0;
    layer["candidates.count"] = r.candidates / nr;
    layer["validator.ms"] = r.validation_ms / nr;
    layer["validator.executions"] = r.executions / nr;
    layer["validator.skip_events"] = r.skip_events / nr;
    layer["validator.valid_per_execution"] = Share(n_found, sum_execs);
    layer["validator.cap_hit_share"] = 0.0;
    layer["executor.exec_ms"] = 0.0;
    layer["executor.scalar_fallbacks"] = r.degraded / nr;
    layer["threshold.refuted_share"] = Share(r.refuted, r.executions);
    layer["threshold.rows_saved"] = r.rows_saved / nr;
    layer["service.shed"] = static_cast<double>(shed);
    layer["obs.trace_overhead_share"] = overhead_share;
    for (const auto& [name, v] : layer) j->Key(name).Num(v);
    const obs::Counter* rebuilds =
        catalog_registry.counter("paleo_ingest_full_rebuilds_total");
    j->Key("catalog.full_rebuilds")
        .Num(rebuilds != nullptr ? static_cast<double>(rebuilds->value()) : 0.0);
    j->Key("catalog.snapshots_live_max")
        .Num(static_cast<double>(publish.snapshots_live_max));
    j->Close('}');
  }
  return 0;
}

int Measure(const WorkloadDef& def, const std::string& dir, uint64_t seed,
            double seconds, bool trace) {
  JsonWriter j;
  j.Open('{');
  j.Key("workload").Str(def.name);
  j.Key("build").Open('{').Key("type").Str(PERFBENCH_BUILD_TYPE);
  j.Key("compiler").Str(PERFBENCH_COMPILER);
  j.Key("flags").Str(PERFBENCH_CXX_FLAGS).Close('}');
  j.Key("sf").Num(def.sf);
  j.Key("sample_fraction").Num(def.sample_fraction);
  j.Key("use_dimension_index").Bool(def.use_dimension_index);
  j.Key("max_query_executions").Int(def.max_query_executions);
  j.Key("nproc").Int(AvailableCpus());
  j.Key("cells").Open('[');
  for (const Cell& c : def.cells) j.Str(CellName(c));
  j.Close(']');
  {
    std::vector<ListInput> lists = ReadLists(dir + "/lists.txt");
    j.Key("list_cells").Open('[');
    for (const ListInput& li : lists) j.Str(CellName(li.cell));
    j.Close(']');
  }
  const int rc = def.serve ? MeasureServe(def, dir, seed, seconds, trace, &j)
                           : MeasureSequential(def, dir, seed, seconds, trace, &j);
  j.Close('}');
  std::printf("%s\n", j.str().c_str());
  std::fflush(stdout);
  return rc;
}

}  // namespace
}  // namespace perfbench
}  // namespace paleo

int main(int argc, char** argv) {
  using namespace paleo::perfbench;
#if !defined(NDEBUG) || !defined(__OPTIMIZE__) || defined(PERFBENCH_SANITIZED)
  std::fprintf(stderr,
               "perfbench: refusing to run a debug or sanitizer build (%s)\n",
               PERFBENCH_BUILD_TYPE);
  return 2;
#endif
  if (argc < 2) Die("usage: perfbench generate|measure --workload W --dir D ...");
  const std::string mode = argv[1];
  std::map<std::string, std::string> args;
  for (int i = 2; i + 1 < argc; i += 2) args[argv[i]] = argv[i + 1];
  for (const char* required : {"--workload", "--dir"}) {
    if (args.count(required) == 0) Die(std::string("missing ") + required);
  }
  const WorkloadDef* def = FindWorkload(args["--workload"]);
  if (def == nullptr) Die("unknown workload " + args["--workload"]);
  if (mode == "generate") return Generate(*def, args["--dir"]);
  const uint64_t seed = std::strtoull(args["--seed"].c_str(), nullptr, 10);
  if (mode == "measure") {
    const double seconds = std::strtod(args["--seconds"].c_str(), nullptr);
    if (!(seconds > 0.0)) Die("--seconds must be positive");
    return Measure(*def, args["--dir"], seed, seconds, args["--trace"] == "1");
  }
  Die("unknown mode " + mode);
}
