// Micro-benchmarks (google-benchmark) of the components the paper's numbers
// rest on: SQL parsing, LIKE matching, scan+filter execution, hash joins,
// the Lineage overhead of provenance mode, the network protocol round trip,
// trace serialization, dependency inference, the observability primitives,
// group commit, morsel-parallel operators and the columnar kernel shapes.
//
//   ./build/bench/bench_micro [--benchmark_filter=...] [RECORD.json]
//
// Given a record path, also runs the resource-governance latency probe and
// writes every run's real time and items/s, the parallel curve and the
// probe's latencies as a smoke record (bench/record.h) for
// tools/bench_smoke_check.py.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>

#include "common/clock.h"
#include "common/json.h"
#include "common/logging.h"
#include "exec/governor.h"
#include "exec/executor.h"
#include "net/db_client.h"
#include "net/protocol.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "record.h"
#include "sql/parser.h"
#include "storage/database.h"
#include "storage/wal.h"
#include "tpch/generator.h"
#include "tpch/queries.h"
#include "trace/inference.h"
#include "trace/serialize.h"
#include "util/fsutil.h"
#include "util/rng.h"
#include "util/strings.h"

namespace {

void BM_ParseSelect(benchmark::State& state) {
  const std::string sql = ldv::tpch::ExperimentQueries()[7].sql;  // Q2-3 join
  for (auto _ : state) {
    auto stmt = ldv::sql::Parse(sql);
    benchmark::DoNotOptimize(stmt);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ParseSelect);

void BM_SqlLikeMatch(benchmark::State& state) {
  std::string text = "Customer#000074321";
  for (auto _ : state) {
    benchmark::DoNotOptimize(ldv::SqlLikeMatch(text, "%0000%"));
    benchmark::DoNotOptimize(ldv::SqlLikeMatch(text, "%9999%"));
  }
  state.SetItemsProcessed(2 * state.iterations());
}
BENCHMARK(BM_SqlLikeMatch);

/// Shared tiny TPC-H instance for the execution benchmarks.
ldv::storage::Database* BenchDb() {
  static ldv::storage::Database* db = [] {
    auto* instance = new ldv::storage::Database();
    ldv::tpch::GenOptions options;
    options.scale_factor = 0.002;
    LDV_CHECK_OK(ldv::tpch::Generate(instance, options));
    return instance;
  }();
  return db;
}

void BM_ScanFilter(benchmark::State& state) {
  ldv::exec::Executor executor(BenchDb());
  const std::string sql =
      "SELECT l_quantity FROM lineitem WHERE l_suppkey BETWEEN 1 AND " +
      std::to_string(state.range(0));
  int64_t rows = 0;
  for (auto _ : state) {
    auto result = executor.Execute(sql, {});
    LDV_CHECK(result.ok());
    rows += static_cast<int64_t>(result->rows.size());
  }
  state.SetItemsProcessed(
      state.iterations() *
      BenchDb()->FindTable("lineitem")->live_row_count());
  benchmark::DoNotOptimize(rows);
}
BENCHMARK(BM_ScanFilter)->Arg(10)->Arg(250);

void BM_HashJoin3Way(benchmark::State& state) {
  ldv::exec::Executor executor(BenchDb());
  const std::string sql = ldv::tpch::ExperimentQueries()[6].sql;  // Q2-2
  for (auto _ : state) {
    auto result = executor.Execute(sql, {});
    LDV_CHECK(result.ok());
    benchmark::DoNotOptimize(result->rows.size());
  }
}
BENCHMARK(BM_HashJoin3Way);

void BM_QueryLineageOverhead(benchmark::State& state) {
  ldv::exec::Executor executor(BenchDb());
  const bool provenance = state.range(0) != 0;
  std::string sql =
      "SELECT l_quantity FROM lineitem WHERE l_suppkey BETWEEN 1 AND 100";
  if (provenance) sql = "PROVENANCE " + sql;
  for (auto _ : state) {
    auto result = executor.Execute(sql, {});
    LDV_CHECK(result.ok());
    benchmark::DoNotOptimize(result->prov_tuples.size());
  }
}
BENCHMARK(BM_QueryLineageOverhead)
    ->Arg(0)
    ->Arg(1)
    ->ArgNames({"provenance"});

void BM_ReenactmentUpdate(benchmark::State& state) {
  ldv::storage::Database db;
  ldv::tpch::GenOptions options;
  options.scale_factor = 0.002;
  LDV_CHECK_OK(ldv::tpch::Generate(&db, options));
  db.FindTable("orders")->set_provenance_tracking(true);
  ldv::exec::Executor executor(&db);
  const bool provenance = state.range(0) != 0;
  int64_t key = 1;
  for (auto _ : state) {
    std::string sql = ldv::StrFormat(
        "UPDATE orders SET o_comment = 'x' WHERE o_orderkey = %lld",
        static_cast<long long>(key % 3000 + 1));
    if (provenance) sql = "PROVENANCE " + sql;
    auto result = executor.Execute(sql, {});
    LDV_CHECK(result.ok());
    ++key;
  }
}
BENCHMARK(BM_ReenactmentUpdate)->Arg(0)->Arg(1)->ArgNames({"provenance"});

void BM_ProtocolRoundTrip(benchmark::State& state) {
  ldv::exec::Executor executor(BenchDb());
  auto result = executor.Execute(
      "SELECT l_orderkey, l_quantity, l_comment FROM lineitem "
      "WHERE l_suppkey BETWEEN 1 AND 100",
      {});
  LDV_CHECK(result.ok());
  for (auto _ : state) {
    std::string bytes = ldv::net::EncodeResponse(ldv::Status::Ok(), *result);
    auto decoded = ldv::net::DecodeResponse(bytes);
    LDV_CHECK(decoded.ok());
    benchmark::DoNotOptimize(decoded->rows.size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(result->rows.size()));
}
BENCHMARK(BM_ProtocolRoundTrip);

ldv::trace::TraceGraph* BenchTrace(int files) {
  auto* g = new ldv::trace::TraceGraph();
  ldv::Rng rng(99);
  std::vector<ldv::trace::NodeId> file_nodes;
  std::vector<ldv::trace::NodeId> procs;
  for (int i = 0; i < files; ++i) {
    file_nodes.push_back(g->GetOrAddNode(ldv::trace::NodeType::kFile,
                                         ldv::StrFormat("f%d", i)));
  }
  for (int i = 0; i < files / 2; ++i) {
    procs.push_back(g->GetOrAddNode(ldv::trace::NodeType::kProcess,
                                    ldv::StrFormat("p%d", i)));
  }
  for (int i = 0; i < files * 4; ++i) {
    auto f = file_nodes[static_cast<size_t>(rng.Uniform(0, files - 1))];
    auto p = procs[static_cast<size_t>(rng.Uniform(0, files / 2 - 1))];
    int64_t begin = rng.Uniform(1, 500);
    if (rng.Bernoulli(0.5)) {
      (void)g->MergeEdge(f, p, ldv::trace::EdgeType::kReadFrom,
                         {begin, begin + 3});
    } else {
      (void)g->MergeEdge(p, f, ldv::trace::EdgeType::kHasWritten,
                         {begin, begin + 3});
    }
  }
  return g;
}

void BM_DependencyInference(benchmark::State& state) {
  static ldv::trace::TraceGraph* graph = BenchTrace(200);
  ldv::trace::DependencyAnalyzer analyzer(graph);
  int64_t node = 0;
  for (auto _ : state) {
    auto deps = analyzer.DependenciesOf(
        static_cast<ldv::trace::NodeId>(node % 200));
    benchmark::DoNotOptimize(deps.size());
    ++node;
  }
}
BENCHMARK(BM_DependencyInference);

void BM_TraceSerialize(benchmark::State& state) {
  static ldv::trace::TraceGraph* graph = BenchTrace(500);
  for (auto _ : state) {
    std::string bytes = ldv::trace::SerializeTrace(*graph);
    auto restored = ldv::trace::DeserializeTrace(bytes);
    LDV_CHECK(restored.ok());
    benchmark::DoNotOptimize(restored->num_edges());
  }
}
BENCHMARK(BM_TraceSerialize);

// --- Observability primitives: the costs the <2% overhead bound rests on
// (ISSUE: instrumentation compiled in but with no sink configured). ---

void BM_ObsCounterAdd(benchmark::State& state) {
  static ldv::obs::Counter* counter =
      ldv::obs::MetricsRegistry::Global().counter("bench.counter");
  for (auto _ : state) counter->Add(1);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsCounterAdd);

void BM_ObsHistogramObserve(benchmark::State& state) {
  static ldv::obs::Histogram* histogram =
      ldv::obs::MetricsRegistry::Global().latency_histogram("bench.latency");
  int64_t value = 1;
  for (auto _ : state) {
    histogram->Observe(value);
    value = (value * 7 + 1) % 1'000'000;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsHistogramObserve);

/// The disabled-tracing fast path: constructing and destroying a Span while
/// no recorder is enabled must compile down to a branch on an atomic flag.
void BM_ObsSpanDisabled(benchmark::State& state) {
  LDV_CHECK(!ldv::obs::TraceRecorder::enabled());
  for (auto _ : state) {
    ldv::obs::Span span("bench.span", "bench");
    benchmark::DoNotOptimize(span.recording());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsSpanDisabled);

/// Query execution with per-operator profiling on (the EXPLAIN ANALYZE
/// path) — the compare-against number for the profiling overhead.
void BM_ScanFilterProfiled(benchmark::State& state) {
  ldv::exec::Executor executor(BenchDb());
  ldv::exec::ExecOptions options;
  options.profile = true;
  const std::string sql =
      "SELECT l_quantity FROM lineitem WHERE l_suppkey BETWEEN 1 AND 250";
  for (auto _ : state) {
    auto result = executor.Execute(sql, options);
    LDV_CHECK(result.ok());
    benchmark::DoNotOptimize(result->profile);
  }
  state.SetItemsProcessed(
      state.iterations() *
      BenchDb()->FindTable("lineitem")->live_row_count());
}
BENCHMARK(BM_ScanFilterProfiled);

// --- Durability: the price of fsync-on-commit and what group commit buys
// back. BM_WalCommit runs autocommitted single-row INSERTs through the
// engine with a WAL attached; sync=0 appends without syncing (the no-fsync
// baseline), sync=1 uses fdatasync, sync=2 full fsync. At threads:8 the
// concurrent writers piggyback on each other's fsync (group commit), so the
// aggregate items/s at sync:2/threads:8 should recover >= 3x the
// single-writer fsync throughput — the bound tools/check.sh spot-checks. ---

struct WalBenchEnv {
  std::string root;
  std::unique_ptr<ldv::storage::Database> db;
  std::unique_ptr<ldv::net::EngineHandle> engine;
  std::atomic<int64_t> next_key{0};
};
WalBenchEnv* g_wal_bench = nullptr;

void WalBenchSetup(const benchmark::State& state) {
  auto* env = new WalBenchEnv();
  auto dir = ldv::MakeTempDir("bench_wal");
  LDV_CHECK(dir.ok());
  env->root = *dir;
  env->db = std::make_unique<ldv::storage::Database>();
  env->engine = std::make_unique<ldv::net::EngineHandle>(env->db.get());
  ldv::storage::WalOptions options;
  switch (state.range(0)) {
    case 0: options.sync_mode = ldv::storage::WalSyncMode::kNone; break;
    case 1: options.sync_mode = ldv::storage::WalSyncMode::kFdatasync; break;
    default: options.sync_mode = ldv::storage::WalSyncMode::kFsync; break;
  }
  auto wal = ldv::storage::Wal::Open(env->root + "/wal", options, 1);
  LDV_CHECK(wal.ok());
  ldv::net::EngineDurabilityOptions durability;
  durability.data_dir = env->root + "/data";
  env->engine->AttachWal(std::move(*wal), durability);
  ldv::net::DbRequest ddl;
  ddl.sql = "CREATE TABLE wal_bench (id INT, v INT)";
  LDV_CHECK(env->engine->Execute(ddl).ok());
  g_wal_bench = env;
}

void WalBenchTeardown(const benchmark::State&) {
  std::string root = g_wal_bench->root;
  delete g_wal_bench;
  g_wal_bench = nullptr;
  (void)ldv::RemoveAll(root);
}

void BM_WalCommit(benchmark::State& state) {
  ldv::net::EngineHandle* engine = g_wal_bench->engine.get();
  // Session ids only matter for explicit transactions, but keep them
  // distinct anyway so the run mirrors one-connection-per-writer.
  const int64_t session = state.thread_index() + 1;
  for (auto _ : state) {
    const int64_t key = g_wal_bench->next_key.fetch_add(1);
    ldv::net::DbRequest request;
    request.sql = ldv::StrFormat("INSERT INTO wal_bench VALUES (%lld, 1)",
                                 static_cast<long long>(key));
    auto result = engine->ExecuteSession(request, session);
    LDV_CHECK(result.ok());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WalCommit)
    ->ArgNames({"sync"})
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Threads(1)
    ->Threads(8)
    ->Setup(WalBenchSetup)
    ->Teardown(WalBenchTeardown)
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

// --- Morsel-driven parallel execution: serial-vs-parallel throughput of
// the hot operators over a table big enough (~150k rows, ~75 morsels) that
// fan-out dominates coordination. Each run records its point on the
// threads-vs-throughput curve (ParallelCurve), which the smoke record
// carries; tools/bench_smoke_check.py enforces the scaling bound
// (hardware-aware: on single-core boxes only no-regression is checked). ---

constexpr int64_t kParallelBenchRows = 150'000;

ldv::storage::Database* ParallelBenchDb() {
  static ldv::storage::Database* db = [] {
    auto* instance = new ldv::storage::Database();
    using ldv::storage::Column;
    using ldv::storage::Value;
    using ldv::storage::ValueType;
    auto wide = instance->CreateTable(
        "wide", ldv::storage::Schema({{"id", ValueType::kInt64},
                                      {"grp", ValueType::kInt64},
                                      {"val", ValueType::kDouble},
                                      {"pad", ValueType::kString}}));
    LDV_CHECK(wide.ok());
    ldv::Rng rng(51);
    for (int64_t i = 0; i < kParallelBenchRows; ++i) {
      LDV_CHECK((*wide)
                    ->Insert({Value::Int(i), Value::Int(rng.Uniform(0, 99)),
                              Value::Real(rng.NextDouble() * 1000.0),
                              Value::Str("pad" + std::to_string(i % 1000))},
                             0)
                    .ok());
    }
    auto dims = instance->CreateTable(
        "dims", ldv::storage::Schema(
                    {{"g", ValueType::kInt64}, {"w", ValueType::kDouble}}));
    LDV_CHECK(dims.ok());
    for (int64_t g = 0; g < 100; ++g) {
      LDV_CHECK((*dims)
                    ->Insert({Value::Int(g), Value::Real(0.5 * g)}, 0)
                    .ok());
    }
    return instance;
  }();
  return db;
}

/// Best wall-clock rows/s per "parallel.<curve>.threads_<n>" over gbench's
/// repeated invocations of a parallel benchmark (its iteration counts grow
/// from a cold first pass, which is not the curve). The work runs on pool
/// threads, so the timing thread's CPU-time rate would overstate it.
std::map<std::string, double>& ParallelCurve() {
  static auto* curve = new std::map<std::string, double>();
  return *curve;
}

/// Runs `sql` at `threads` (the benchmark's arg when 0), reporting rows
/// scanned per second; a named `curve` also records its wall-clock point.
void RunQueryBench(benchmark::State& state, const std::string& sql,
                   int threads, const char* curve = nullptr) {
  ldv::exec::Executor executor(ParallelBenchDb());
  ldv::exec::ExecOptions options;
  options.threads = threads > 0 ? threads : static_cast<int>(state.range(0));
  const int64_t start = ldv::NowNanos();
  for (auto _ : state) {
    auto result = executor.Execute(sql, options);
    LDV_CHECK(result.ok());
    benchmark::DoNotOptimize(result->rows.size());
  }
  const double seconds = static_cast<double>(ldv::NowNanos() - start) / 1e9;
  const int64_t items =
      static_cast<int64_t>(state.iterations()) * kParallelBenchRows;
  state.SetItemsProcessed(items);
  if (curve != nullptr && seconds > 0) {
    double& best = ParallelCurve()[ldv::StrFormat(
        "parallel.%s.threads_%d", curve, options.threads)];
    best = std::max(best, static_cast<double>(items) / seconds);
  }
}

void BM_ParallelScan(benchmark::State& state) {
  RunQueryBench(state, "SELECT id, val * 2 FROM wide WHERE grp < 50", 0,
                "scan");
}
BENCHMARK(BM_ParallelScan)
    ->ArgNames({"threads"})
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8);

void BM_ParallelHashJoin(benchmark::State& state) {
  RunQueryBench(
      state,
      "SELECT w.id, d.w FROM wide w, dims d WHERE w.grp = d.g AND d.w > 10",
      0, "hash_join");
}
BENCHMARK(BM_ParallelHashJoin)
    ->ArgNames({"threads"})
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8);

void BM_ParallelAgg(benchmark::State& state) {
  RunQueryBench(
      state, "SELECT grp, count(*), sum(val), min(val) FROM wide GROUP BY grp",
      0, "agg");
}
BENCHMARK(BM_ParallelAgg)
    ->ArgNames({"threads"})
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8);

// --- Columnar kernel shapes at one thread (DESIGN.md §15) that the scan,
// join and aggregate benchmarks above do not cover: input rows/s. ---

void BM_Kernel(benchmark::State& state, const char* sql) {
  RunQueryBench(state, sql, 1);
}
BENCHMARK_CAPTURE(BM_Kernel, project_arith,
                  "SELECT id * 2 + grp, val * 0.5, val + id FROM wide");
BENCHMARK_CAPTURE(BM_Kernel, distinct, "SELECT DISTINCT grp, pad FROM wide");
BENCHMARK_CAPTURE(BM_Kernel, scan_filter_agg,
                  "SELECT grp, count(*), sum(val) FROM wide WHERE val < 750 "
                  "GROUP BY grp");

// --- Resource-governance latency probe (DESIGN.md §11): how fast a
// mid-scan statement unwinds after a cancel lands, and how far past its
// deadline a statement overshoots, at threads 1 and 8 over the 150k-row
// table. Not a google-benchmark (the interesting number is one latency, not
// a throughput): main() runs it when a record path is given and
// tools/bench_smoke_check.py enforces the <=100 ms acceptance bound. ---

/// Cross join whose predicate never matches (val and w are non-negative):
/// 15M predicate evaluations with governor checks at every morsel boundary.
constexpr char kGovernanceProbeSql[] =
    "SELECT count(*) FROM wide, dims WHERE val + w < -1";

/// Runs the probe query with a cancel fired ~30 ms in; returns the
/// cancel-to-return latency in milliseconds.
double GovernanceCancelLatencyMs(int threads) {
  ldv::exec::Executor executor(ParallelBenchDb());
  ldv::exec::QueryGovernor governor;
  ldv::exec::ExecOptions options;
  options.threads = threads;
  options.governor = &governor;
  std::atomic<int64_t> finished{0};
  ldv::Status verdict = ldv::Status::Ok();
  std::thread worker([&] {
    auto result = executor.Execute(kGovernanceProbeSql, options);
    verdict = result.status();
    finished.store(ldv::NowNanos(), std::memory_order_release);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  const int64_t cancelled_at = ldv::NowNanos();
  governor.Cancel(ldv::StatusCode::kCancelled, "bench probe");
  worker.join();
  if (verdict.ok()) {
    // The scan finished before the cancel landed — unwinding cost nothing.
    return 0.0;
  }
  LDV_CHECK(verdict.code() == ldv::StatusCode::kCancelled);
  return static_cast<double>(finished.load(std::memory_order_acquire) -
                             cancelled_at) /
         1e6;
}

/// Runs the probe query under a 25 ms deadline; returns how many
/// milliseconds past the deadline the statement actually returned.
double GovernanceDeadlineOvershootMs(int threads) {
  constexpr int64_t kDeadlineMs = 25;
  ldv::exec::Executor executor(ParallelBenchDb());
  ldv::exec::QueryGovernor governor;
  ldv::exec::ExecOptions options;
  options.threads = threads;
  options.governor = &governor;
  const int64_t start = ldv::NowNanos();
  governor.set_deadline_nanos(start + kDeadlineMs * 1'000'000);
  auto result = executor.Execute(kGovernanceProbeSql, options);
  const double elapsed_ms =
      static_cast<double>(ldv::NowNanos() - start) / 1e6;
  if (result.ok()) return 0.0;  // finished inside the deadline
  LDV_CHECK(result.status().code() == ldv::StatusCode::kDeadlineExceeded);
  const double overshoot = elapsed_ms - static_cast<double>(kDeadlineMs);
  return overshoot > 0 ? overshoot : 0.0;
}

void AddGovernanceProbe(std::map<std::string, double>* values) {
  for (int threads : {1, 8}) {
    const std::string suffix = ".threads_" + std::to_string(threads);
    (*values)["governance.cancel_ms" + suffix] =
        GovernanceCancelLatencyMs(threads);
    (*values)["governance.deadline_overshoot_ms" + suffix] =
        GovernanceDeadlineOvershootMs(threads);
  }
}

void BM_TpchGenerate(benchmark::State& state) {
  for (auto _ : state) {
    ldv::storage::Database db;
    ldv::tpch::GenOptions options;
    options.scale_factor = 0.001;
    LDV_CHECK_OK(ldv::tpch::Generate(&db, options));
    benchmark::DoNotOptimize(db.TotalLiveRows());
  }
}
BENCHMARK(BM_TpchGenerate);

/// The console reporter, also keeping each run's real time (ns) and items/s
/// for the smoke record.
class RecordingReporter final : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred) continue;
      const std::string name = run.benchmark_name();
      values[name + ".real_ns"] =
          run.GetAdjustedRealTime() * 1e9 /
          benchmark::GetTimeUnitMultiplier(run.time_unit);
      auto items = run.counters.find("items_per_second");
      if (items != run.counters.end()) {
        values[name + ".items_per_second"] = items->second.value;
      }
    }
    ConsoleReporter::ReportRuns(runs);
  }

  std::map<std::string, double> values;
};

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  // What gbench left is the record path; a leftover flag is a mistyped one.
  if (argc > 2 || (argc == 2 && argv[1][0] == '-')) {
    std::fprintf(stderr, "usage: bench_micro [--benchmark_*...] [RECORD]\n");
    return 2;
  }
  RecordingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  if (argc < 2) return 0;
  reporter.values.insert(ParallelCurve().begin(), ParallelCurve().end());
  AddGovernanceProbe(&reporter.values);
  return ldv::bench::WriteRecord(argv[1], "micro", reporter.values);
}
