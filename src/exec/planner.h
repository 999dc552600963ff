#ifndef LDV_EXEC_PLANNER_H_
#define LDV_EXEC_PLANNER_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "exec/operators.h"
#include "sql/ast.h"
#include "storage/database.h"
#include "storage/schema.h"

namespace ldv::exec {

/// A complete SELECT plan: the operator tree plus the result schema (with
/// user-facing column names, i.e., aliases applied).
struct SelectPlan {
  std::unique_ptr<PlanNode> root;
  storage::Schema output_schema;
};

/// Appends the conjuncts of the top-level AND structure of `expr` (none
/// when null) to `out`, left to right.
void SplitConjuncts(const sql::Expr* expr,
                    std::vector<const sql::Expr*>* out);

/// The one access-path chooser, for SELECT scans and UPDATE/DELETE alike:
/// enables `scan`'s hash-index probe when one of `conjuncts` (predicates
/// over the scanned table) is an equality between an indexed column and a
/// literal. The first such conjunct wins.
void ChooseIndexProbe(ScanNode* scan,
                      const std::vector<const sql::Expr*>& conjuncts);

/// Builds an executable plan for a SELECT statement:
///   - per-table predicate pushdown into scans,
///   - left-deep joins in FROM order, hash joins on extracted equi-join
///     conjuncts, nested loop + residual otherwise,
///   - hash aggregation with HAVING, DISTINCT, ORDER BY, LIMIT,
///   - prov_* pseudo-columns exposed on scans whose table is referenced by
///     one of them.
Result<SelectPlan> PlanSelect(storage::Database* db,
                              const sql::SelectStmt& select);

}  // namespace ldv::exec

#endif  // LDV_EXEC_PLANNER_H_
