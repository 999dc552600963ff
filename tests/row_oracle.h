#ifndef LDV_TESTS_ROW_ORACLE_H_
#define LDV_TESTS_ROW_ORACLE_H_

#include <string_view>

#include "common/result.h"
#include "exec/executor.h"
#include "storage/database.h"

namespace ldv::exec {

/// What the reference interpreter computed for one SELECT.
struct OracleResult {
  ResultSet result;
  /// The plan has a SUM or AVG aggregate. The engine merges per-morsel
  /// partial sums, the oracle sums serially, so double results of such a
  /// query may differ in the last bits.
  bool inexact_sums = false;
};

/// A deliberately naive reference for the execution engine: plans `sql`
/// (one SELECT, optionally PROVENANCE, without subqueries) with the
/// engine's planner, then interprets the plan tree serially, one row at a
/// time — no morsels, no hash tables: nested-loop joins, linear group and
/// distinct search, std::stable_sort. It reuses EvalExpr and the aggregate
/// accumulator/finalizer, reads the live table state, and never stamps the
/// rows it reads.
Result<OracleResult> OracleExecute(storage::Database* db,
                                   std::string_view sql);

/// The serial reference for UPDATE and DELETE (optionally PROVENANCE):
/// uncorrelated subqueries in WHERE run on the SELECT oracle first; then
/// every live row, one at a time in slot order, is narrowed linearly by the
/// reference index-probe choice and tested with EvalExpr over its values
/// plus the four prov_* columns; SET expressions are evaluated the same
/// way and coerced into every new tuple before the first mutation. Returns
/// what the engine returns: `affected`, DmlRecords and the pre-state
/// prov_tuples in row order, then the subqueries' provenance.
Result<ResultSet> OracleExecuteDml(storage::Database* db, std::string_view sql,
                                   const ExecOptions& options);

}  // namespace ldv::exec

#endif  // LDV_TESTS_ROW_ORACLE_H_
