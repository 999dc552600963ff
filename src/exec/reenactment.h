#ifndef LDV_EXEC_REENACTMENT_H_
#define LDV_EXEC_REENACTMENT_H_

#include "common/result.h"
#include "exec/executor.h"
#include "sql/ast.h"
#include "storage/database.h"

namespace ldv::exec {

/// Executes UPDATE/DELETE with reenactment-style provenance (paper §VII-B,
/// following GProM): the set of affected tuple versions — the statement's
/// provenance — is computed against the *pre-state* of the table, before the
/// mutation is applied, because afterwards the prior versions would only be
/// available from the archive.
///
/// With `provenance`:
///   - each affected row contributes a DmlRecord linking the created version
///     to the prior version (updates) or recording the removed version
///     (deletes), and
///   - the prior versions' values are returned in `prov_tuples` so they can
///     be persisted into a package.
/// `where` is the (possibly subquery-flattened) predicate to use; pass
/// `update.where.get()` when no flattening was needed. May be null (all
/// rows). The rows are selected by the SELECT scan kernel on the calling
/// thread (an equality between an indexed column and a literal probes the
/// hash index), and mutated serially in rowid order
/// after every new tuple has been built: a statement that fails changes
/// nothing.
Result<ResultSet> ExecUpdate(storage::Database* db,
                             const sql::UpdateStmt& update,
                             const sql::Expr* where, bool provenance,
                             const ExecOptions& options);

Result<ResultSet> ExecDelete(storage::Database* db, const sql::DeleteStmt& del,
                             const sql::Expr* where, bool provenance,
                             const ExecOptions& options);

/// Convenience overloads using the statement's own WHERE clause.
inline Result<ResultSet> ExecUpdate(storage::Database* db,
                                    const sql::UpdateStmt& update,
                                    bool provenance,
                                    const ExecOptions& options) {
  return ExecUpdate(db, update, update.where.get(), provenance, options);
}

inline Result<ResultSet> ExecDelete(storage::Database* db,
                                    const sql::DeleteStmt& del,
                                    bool provenance,
                                    const ExecOptions& options) {
  return ExecDelete(db, del, del.where.get(), provenance, options);
}

}  // namespace ldv::exec

#endif  // LDV_EXEC_REENACTMENT_H_
