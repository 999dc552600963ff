// Columnar engine kernel benchmark (DESIGN.md §15): runs the hot operator
// shapes — scan+filter, projection arithmetic, hash join, grouped
// aggregation, DISTINCT — plus the end-to-end scan-filter-agg pipeline the
// paper's workloads spend their time in, single-threaded, and reports input
// rows per second for each.
//
// Writes BENCH_VECTOR.json (path = argv[1], default LDV_BENCH_VECTOR_OUT,
// default "BENCH_VECTOR.json"); tools/bench_smoke_check.py prints it.

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
constexpr int64_t kRunNanos = 300'000'000;  // 300 ms per query

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
double RowsPerSec(Executor* exec, const std::string& sql) {
  ExecOptions options;
  options.threads = 1;  // per-core kernel speed, not fan-out
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
    const double rps = RowsPerSec(&exec, kernel.sql);
    std::printf("bench_vector: %-16s %12.0f rows/s\n", kernel.name, rps);
    ldv::Json entry = ldv::Json::MakeObject();
    entry.Set("rows_per_sec", ldv::Json::MakeDouble(rps));
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
