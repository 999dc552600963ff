#ifndef LDV_OBS_PROFILE_H_
#define LDV_OBS_PROFILE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/json.h"

namespace ldv::obs {

/// Execution statistics for one plan operator, collected when a query runs
/// with profiling enabled (EXPLAIN ANALYZE or ExecOptions::profile).
struct OperatorProfile {
  std::string label;   // "HashJoin", "Scan", ...
  std::string detail;  // operator-specific: table name, predicate, ...
  int64_t rows_out = 0;
  int64_t invocations = 0;
  int64_t wall_nanos = 0;
  // Join-only split of wall_nanos; both stay 0 for other operators and for
  // nested-loop joins, which never build a hash table.
  int64_t build_nanos = 0;
  int64_t probe_nanos = 0;
  // Morsel-parallel operators only (all 0 on the serial path): morsels
  // fanned out, the degree of parallelism used, and worker CPU time summed
  // across threads — against wall_nanos this is the wall/CPU split.
  int64_t parallel_morsels = 0;
  int64_t parallel_workers = 0;
  int64_t cpu_nanos = 0;
  // Columnar execution (DESIGN.md §15): morsel batches this operator
  // processed through its kernels (EXPLAIN ANALYZE's "batches=N").
  int64_t vector_batches = 0;
  std::vector<OperatorProfile> children;
};

/// Whole-query profile attached to a ResultSet by EXPLAIN ANALYZE.
struct QueryProfile {
  OperatorProfile root;
  int64_t total_nanos = 0;
  int64_t rows_returned = 0;

  Json ToJson() const;

  /// Postgres-style rendering, one line per operator:
  ///   HashJoin (emp.dept_id = dept.id)  rows=42 time=1.234ms build=0.2ms
  ///     Scan emp  rows=100 time=0.5ms
  /// `analyze` = false omits the runtime columns (plain EXPLAIN).
  std::vector<std::string> ToTextLines(bool analyze) const;
};

}  // namespace ldv::obs

#endif  // LDV_OBS_PROFILE_H_
