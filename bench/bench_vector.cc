// Vectorized-vs-row engine benchmark (DESIGN.md §15): runs the same
// queries through the columnar kernels and the row-at-a-time engine,
// single-threaded, and reports input rows per second for each. The two
// engines return bit-identical results (tests/vectorized_exec_test.cc is
// the contract); this benchmark measures what the batch representation
// buys on the hot operator shapes — scan+filter, projection arithmetic,
// hash join, grouped aggregation, DISTINCT — plus the end-to-end
// scan-filter-agg pipeline the paper's workloads spend their time in.
//
// Writes BENCH_VECTOR.json (path = argv[1], default LDV_BENCH_VECTOR_OUT,
// default "BENCH_VECTOR.json"); tools/bench_smoke_check.py enforces the
// speedup gate: >= 2x scan_filter_agg rows/s on boxes with >= 4 hardware
// threads, a loud SKIP plus a no-regression floor otherwise.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/json.h"
#include "exec/executor.h"
#include "storage/database.h"
#include "util/fsutil.h"
#include "util/strings.h"

namespace {

using ldv::exec::ExecOptions;
using ldv::exec::Executor;

constexpr int kRows = 200'000;
constexpr int kDims = 64;
constexpr int64_t kRunNanos = 300'000'000;  // 300 ms per (query, engine)

bool Fill(Executor* exec) {
  ExecOptions options;
  options.threads = 1;
  if (!exec->Execute("CREATE TABLE t (id INT, grp INT, val DOUBLE, tag TEXT)",
                     options)
           .ok()) {
    return false;
  }
  for (int base = 0; base < kRows; base += 500) {
    std::string sql = "INSERT INTO t VALUES ";
    for (int i = base; i < base + 500; ++i) {
      if (i != base) sql += ",";
      sql += ldv::StrFormat("(%d,%d,%d.25,'t%d')", i, i % 97, i % 1000,
                            i % 13);
    }
    if (!exec->Execute(sql, options).ok()) return false;
  }
  std::string dims = "CREATE TABLE d (k INT, w DOUBLE)";
  if (!exec->Execute(dims, options).ok()) return false;
  std::string insert = "INSERT INTO d VALUES ";
  for (int k = 0; k < kDims; ++k) {
    if (k > 0) insert += ",";
    insert += ldv::StrFormat("(%d,%d.5)", k, k);
  }
  return exec->Execute(insert, options).ok();
}

/// Input rows per second: one warmup run, then repeat until kRunNanos.
double RowsPerSec(Executor* exec, const std::string& sql, int vectorize) {
  ExecOptions options;
  options.threads = 1;  // the speedup must come from batching, not fan-out
  options.vectorize = vectorize;
  if (!exec->Execute(sql, options).ok()) {
    std::fprintf(stderr, "bench_vector: query failed: %s\n", sql.c_str());
    std::exit(1);
  }
  int64_t iters = 0;
  const int64_t start = ldv::NowNanos();
  do {
    if (!exec->Execute(sql, options).ok()) {
      std::fprintf(stderr, "bench_vector: query failed: %s\n", sql.c_str());
      std::exit(1);
    }
    ++iters;
  } while (ldv::NowNanos() - start < kRunNanos);
  const double seconds =
      static_cast<double>(ldv::NowNanos() - start) / 1e9;
  return static_cast<double>(kRows) * static_cast<double>(iters) / seconds;
}

struct Kernel {
  const char* name;
  const char* sql;
};

}  // namespace

int main(int argc, char** argv) {
  std::string out = "BENCH_VECTOR.json";
  if (const char* env = std::getenv("LDV_BENCH_VECTOR_OUT")) out = env;
  if (argc > 1) out = argv[1];

  ldv::storage::Database db;
  Executor exec(&db);
  if (!Fill(&exec)) {
    std::fprintf(stderr, "bench_vector: database fill failed\n");
    return 1;
  }

  const std::vector<Kernel> kernels = {
      {"scan_filter", "SELECT id FROM t WHERE val < 500 AND grp != 13"},
      {"project_arith", "SELECT id * 2 + grp, val * 0.5, val + id FROM t"},
      {"hash_join",
       "SELECT t.id, d.w FROM t, d WHERE t.grp = d.k AND t.val < 250"},
      {"group_agg",
       "SELECT grp, count(*), sum(val), min(val), max(val) FROM t GROUP BY "
       "grp"},
      {"distinct", "SELECT DISTINCT grp, tag FROM t"},
      {"scan_filter_agg",
       "SELECT grp, count(*), sum(val) FROM t WHERE val < 750 GROUP BY grp"},
  };

  ldv::Json kernels_doc = ldv::Json::MakeObject();
  for (const Kernel& kernel : kernels) {
    const double vec = RowsPerSec(&exec, kernel.sql, /*vectorize=*/1);
    const double row = RowsPerSec(&exec, kernel.sql, /*vectorize=*/-1);
    const double ratio = vec / row;
    std::printf("bench_vector: %-16s vectorized %12.0f rows/s  row %12.0f"
                " rows/s  = %.2fx\n",
                kernel.name, vec, row, ratio);
    ldv::Json entry = ldv::Json::MakeObject();
    entry.Set("vectorized_rps", ldv::Json::MakeDouble(vec));
    entry.Set("row_rps", ldv::Json::MakeDouble(row));
    entry.Set("ratio", ldv::Json::MakeDouble(ratio));
    kernels_doc.Set(kernel.name, std::move(entry));
  }

  ldv::Json doc = ldv::Json::MakeObject();
  doc.Set("hardware_threads",
          ldv::Json::MakeInt(std::thread::hardware_concurrency()));
  doc.Set("rows", ldv::Json::MakeInt(kRows));
  doc.Set("duration_ms", ldv::Json::MakeInt(kRunNanos / 1'000'000));
  doc.Set("kernels", std::move(kernels_doc));
  ldv::Status written = ldv::WriteStringToFile(out, doc.Dump(true) + "\n");
  if (!written.ok()) {
    std::fprintf(stderr, "bench_vector: %s\n", written.ToString().c_str());
    return 1;
  }
  std::printf("bench_vector: wrote %s\n", out.c_str());
  return 0;
}
