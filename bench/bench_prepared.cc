// Prepared-statement throughput benchmark (DESIGN.md §13): the same
// parameterized SELECT is executed repeatedly, once as re-sent literal SQL
// (the engine parses and plans every request) and once as EXECUTE against a
// prepared handle (bind-and-execute through the shared plan cache). The
// quantity measured is exactly the per-request parse/plan work the cache
// removes, so the query is deliberately text-heavy and data-light: a long
// predicate over a small table.
//
// Statements run in-process through LocalDbClient at dop 1 — socket framing
// and morsel fan-out would add identical constants to both sides and dilute
// the ratio being measured.
//
// Writes the smoke record (bench/record.h) to argv[1], default
// "BENCH_PREPARED.json"; tools/bench_smoke_check.py enforces the
// repeated-statement bound: >= 2x EXECUTE QPS vs literal QPS on boxes with
// >= 4 hardware threads, a loud SKIP plus a no-regression floor otherwise.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "record.h"
#include "exec/plan_cache.h"
#include "net/db_client.h"
#include "storage/database.h"
#include "util/fsutil.h"
#include "util/thread_pool.h"
#include "util/strings.h"

namespace {

using ldv::net::EngineHandle;
using ldv::net::LocalDbClient;

constexpr int kRows = 16;
constexpr int64_t kRunNanos = 400'000'000;  // 400 ms per side

// A planning-heavy, execution-light statement: many projection expressions
// and a deep predicate over a 256-row table. The placeholders are the two
// selectivity knobs a real application would re-bind per request.
constexpr char kParamSql[] =
    "SELECT grp, count(*), sum(val * 2 + 1), min(val - grp), max(val + grp), "
    "avg(val), sum(val) / (count(*) + 1) "
    "FROM items WHERE (val > ? OR val < ?) AND "
    "(grp = 0 OR grp = 1 OR grp = 2 OR grp = 3 OR grp = 4 OR grp = 5 OR "
    "grp = 6 OR grp = 7) AND id + grp >= 0 AND name <> 'missing' "
    "GROUP BY grp ORDER BY grp";

bool FillDatabase(LocalDbClient* client) {
  if (!client
           ->Query("CREATE TABLE items (id INT, grp INT, val INT, name TEXT)")
           .ok()) {
    return false;
  }
  std::string sql = "INSERT INTO items VALUES ";
  for (int i = 0; i < kRows; ++i) {
    if (i > 0) sql += ",";
    sql += ldv::StrFormat("(%d,%d,%d,'row%d')", i, i % 8, i % 100, i % 10);
  }
  return client->Query(sql).ok();
}

/// Replaces the two '?' with literal bounds derived from the iteration
/// counter — the text the literal side re-sends every request.
std::string InlinedSql(int i) {
  std::string out;
  int slot = 0;
  for (const char* p = kParamSql; *p != '\0'; ++p) {
    if (*p == '?') {
      out += std::to_string(slot++ == 0 ? 40 + i % 20 : 10 + i % 5);
    } else {
      out.push_back(*p);
    }
  }
  return out;
}

/// Runs `fn(i)` for kRunNanos; returns statements/second. `fn` returns
/// false on error.
template <typename Fn>
double MeasureQps(Fn fn) {
  const int64_t start = ldv::NowNanos();
  int64_t completed = 0;
  while (ldv::NowNanos() - start < kRunNanos) {
    for (int burst = 0; burst < 20; ++burst) {
      if (!fn(static_cast<int>(completed))) {
        std::fprintf(stderr, "bench_prepared: statement failed\n");
        std::exit(1);
      }
      ++completed;
    }
  }
  const double seconds = static_cast<double>(ldv::NowNanos() - start) / 1e9;
  return static_cast<double>(completed) / seconds;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out = argc > 1 ? argv[1] : "BENCH_PREPARED.json";

  // Serial execution: the ratio must isolate parse/plan savings, not morsel
  // scheduling.
  ldv::ThreadPool::SetDefaultDop(1);

  ldv::storage::Database db;
  EngineHandle engine(&db);
  LocalDbClient client(&engine);
  if (!FillDatabase(&client)) {
    std::fprintf(stderr, "bench_prepared: database fill failed\n");
    return 1;
  }
  if (!client.Query(std::string("PREPARE q AS ") + kParamSql).ok()) {
    std::fprintf(stderr, "bench_prepared: PREPARE failed\n");
    return 1;
  }

  // Warm both paths (first EXECUTE plans and populates the cache).
  for (int i = 0; i < 50; ++i) {
    if (!client.Query(InlinedSql(i)).ok() ||
        !client
             .Query("EXECUTE q (" + std::to_string(40 + i % 20) + ", " +
                    std::to_string(10 + i % 5) + ")")
             .ok()) {
      std::fprintf(stderr, "bench_prepared: warmup failed\n");
      return 1;
    }
  }

  const double literal_qps =
      MeasureQps([&](int i) { return client.Query(InlinedSql(i)).ok(); });
  const double execute_qps = MeasureQps([&](int i) {
    return client
        .Query("EXECUTE q (" + std::to_string(40 + i % 20) + ", " +
               std::to_string(10 + i % 5) + ")")
        .ok();
  });
  const double speedup = execute_qps / literal_qps;
  std::printf(
      "bench_prepared: literal %.0f qps, execute %.0f qps = %.2fx\n",
      literal_qps, execute_qps, speedup);

  return ldv::bench::WriteRecord(
      out, "prepared",
      {{"literal_qps", literal_qps}, {"execute_qps", execute_qps}});
}
