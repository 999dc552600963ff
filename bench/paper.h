#ifndef LDV_BENCH_PAPER_H_
#define LDV_BENCH_PAPER_H_

// The paper's evaluation (§IX) as one sweep of cells plus one claim table.
//
// A cell is one (query, configuration, load) run of the §IX-A application:
// TPC-H generation, the app under no audit or under one packaging mode, the
// replay of its package, and the package's size breakdown. Every figure,
// table and ablation is a view over the cells; every verdict EXPERIMENTS.md
// states is a named claim checked against them. bench_paper runs the sweep
// at SF 0.01 and asserts every claim; bench_paper_test runs it at a small SF
// and asserts the claims that do not depend on timing.

#include <compare>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/result.h"
#include "ldv/manifest.h"
#include "tpch/app.h"

namespace ldv::bench {

/// How a cell runs the application.
enum class Config { kNoAudit, kPtu, kIncluded, kExcluded, kVmImage };

/// The application load of a cell.
enum class Load {
  /// §IX-A: 1000 inserts, 10 selects, 100 updates (Fig. 7, Table III,
  /// §IX-F and perfbench's workloads).
  kPaper,
  /// §IX-A with a hash index on orders(o_orderkey) (ablation A3).
  kPaperIndexed,
  /// 100 inserts, 10 selects, 20 updates: the 18-query sweeps (Fig. 8,
  /// Fig. 9, ablation A1), whose subject is the Select step.
  kSweep,
};

struct CellKey {
  std::string query;
  Config config;
  Load load;
  auto operator<=>(const CellKey&) const = default;
};

/// One cell's measurements. Timings are per-field medians over the sweep's
/// repeats; sizes come from the first repeat (packages are deterministic).
struct Cell {
  tpch::StepTimings audit;   // the unaudited run itself for kNoAudit
  tpch::StepTimings replay;  // zero for kNoAudit
  double replay_init_seconds = 0;
  PackageInfo package;       // zero for kNoAudit
  /// Every repeat's replay returned the audited run's results.
  bool replay_faithful = true;

  /// Package bytes without the embedded server binary, in MB: perfbench's
  /// `package_mb`, independent of how large the compiler made ldv_server.
  double data_mb() const;
  double server_mb() const;
  /// Average seconds of one query execution in the Select step.
  double audit_query_seconds() const;
  double replay_query_seconds() const;
};

/// Table II: one query's qualifying lineitem rows against the paper's Sel.
struct SelectivityRow {
  std::string query;
  std::string param;
  int64_t qualifying = 0;
  double paper_pct = 0;
  double measured_pct = 0;
};

/// Ablation A2: inferred dependencies on one randomized trace.
struct TemporalRow {
  int files = 0;
  int events = 0;
  int64_t temporal = 0;
  int64_t naive = 0;
};

struct Sweep {
  double scale_factor = 0.01;
  int repeats = 1;
  std::map<CellKey, Cell> cells;
  std::vector<SelectivityRow> table2;
  std::vector<TemporalRow> a2;

  const Cell& at(const std::string& query, Config config, Load load) const;
};

/// Runs every cell `repeats` times (repeat-major, so drift spreads over all
/// cells), plus Table II's selectivities and A2's traces. Each cell works in
/// its own directory under `workdir` and removes it once measured; on an
/// error the failing cell's directory is left for inspection.
Result<Sweep> RunSweep(double scale_factor, int repeats,
                       const std::string& workdir);

/// Table II at `scale_factor`: generation plus the 18 queries, no app.
std::vector<SelectivityRow> MeasureSelectivity(double scale_factor);

/// One verdict of EXPERIMENTS.md, checked against a sweep.
struct Claim {
  std::string name;       // e.g. "fig9.q1_crossover"; EXPERIMENTS.md cites it
  std::string statement;  // what must hold
  bool timed = false;     // depends on wall-clock timings
  bool applies = true;    // false: the sweep's SF is outside the claim's range
  bool holds = false;
  std::string measured;   // the numbers the verdict rests on
};

/// Every claim, in EXPERIMENTS.md order.
std::vector<Claim> CheckClaims(const Sweep& sweep);

/// Table II's claim alone (the first of CheckClaims): it reads only the
/// selectivity rows, which are cheap to measure at SF 0.01 on their own.
Claim CheckSelectivity(double scale_factor,
                       const std::vector<SelectivityRow>& rows);

/// EXPERIMENTS.md's tables for `sweep`, then the claim table, as Markdown.
std::string RenderMarkdown(const Sweep& sweep,
                           const std::vector<Claim>& claims);

}  // namespace ldv::bench

#endif  // LDV_BENCH_PAPER_H_
