#include "exec/reenactment.h"

#include "exec/exec_internal.h"
#include "exec/planner.h"
#include "exec/vector_expr.h"

namespace ldv::exec {

using storage::RowVersion;
using storage::Table;
using storage::Tuple;
using storage::TupleVid;

namespace {

/// One SET clause, bound against the DML scan's scope.
struct Assignment {
  int column;
  std::unique_ptr<BoundExpr> expr;
};

/// Phase 1 of reenactment: the rows the statement qualifies, in rowid
/// order, snapshotted from the pre-state before any mutation — each row's
/// prior version and values, and for an UPDATE its new tuple. Every tuple
/// is owned and coerced: the scan's string cells are views into the row
/// versions Table::Update replaces, and a statement that fails here leaves
/// the table untouched.
struct PreState {
  std::vector<TupleVid> prior;
  std::vector<Tuple> old_values;
  std::vector<Tuple> new_values;  // UPDATE only
};

/// Snapshots rows [begin, end) of the scan batch into `pre`. Errors surface
/// as a row-at-a-time evaluation reports them: the first failing row, SET
/// by SET, whatever the morsel size.
Status SnapshotRows(const Table& table, const std::vector<Assignment>& sets,
                    const ColumnBatch& batch, size_t begin, size_t end,
                    PreState* pre) {
  std::vector<ColumnVector> results(sets.size());
  std::vector<Status> evaluated(sets.size());
  bool failed = false;
  for (size_t s = 0; s < sets.size(); ++s) {
    evaluated[s] = EvalVector(*sets[s].expr, batch, begin, end,
                              /*params=*/nullptr, &results[s]);
    failed = failed || !evaluated[s].ok();
  }
  if (failed && end - begin > 1) {
    // An earlier row may fail first, in another SET or a coercion.
    for (size_t i = begin; i < end; ++i) {
      LDV_RETURN_IF_ERROR(SnapshotRows(table, sets, batch, i, i + 1, pre));
    }
    return Status::Ok();
  }
  const size_t base_cols = table.schema().columns().size();
  for (size_t i = begin; i < end; ++i) {
    // The hidden prov_rowid / prov_v columns follow the table's own.
    pre->prior[i] = TupleVid{table.id(), batch.cols[base_cols].i64[i],
                             batch.cols[base_cols + 1].i64[i]};
    Tuple values(base_cols);
    for (size_t c = 0; c < base_cols; ++c) {
      values[c] = batch.cols[c].GetValue(i);
    }
    if (!pre->new_values.empty()) {
      Tuple updated = values;
      for (size_t s = 0; s < sets.size(); ++s) {
        LDV_RETURN_IF_ERROR(evaluated[s]);
        const int column = sets[s].column;
        LDV_ASSIGN_OR_RETURN(
            updated[static_cast<size_t>(column)],
            CoerceValue(results[s].GetValue(i - begin),
                        table.schema().column(column).type));
      }
      pre->new_values[i] = std::move(updated);
    }
    pre->old_values[i] = std::move(values);
  }
  return Status::Ok();
}

/// Runs `scan` — the SELECT scan kernel: fused filter, index-probe arm,
/// morsels — over the live rows, stamping none of them, and snapshots the
/// pre-state of the rows it selects, evaluating `sets` over the same batch.
/// The snapshot is charged against the statement's memory budget.
///
/// The morsels run on the calling thread: on perfbench's audit workloads,
/// fanning them out over the pool bought no write latency and left the
/// TPC-H generations that followed in the same process measurably slower.
Result<PreState> SelectPreState(storage::Database* db, ScanNode* scan,
                                const std::vector<Assignment>& sets,
                                bool update, QueryGovernor* governor) {
  ExecContext ctx;
  ctx.db = db;
  ctx.governor = governor;
  LDV_ASSIGN_OR_RETURN(ColumnBatch batch, scan->Execute(&ctx));

  const size_t n = batch.num_rows;
  PreState pre;
  pre.prior.resize(n);
  pre.old_values.resize(n);
  if (update) pre.new_values.resize(n);
  LDV_RETURN_IF_ERROR(internal::RunMorsels(
      &ctx, nullptr, n, [&](size_t begin, size_t end, size_t) {
        return SnapshotRows(*scan->table(), sets, batch, begin, end, &pre);
      }));
  size_t bytes = 0;
  for (const Tuple& values : pre.old_values) {
    bytes += sizeof(RowVersion) + ApproxTupleBytes(values);
  }
  LDV_RETURN_IF_ERROR(ctx.ChargeMemory(bytes));
  return pre;
}

/// UPDATE (`assignments` set) or DELETE: phase 1 selects and snapshots,
/// phase 2 mutates serially in rowid order, so version stamps, DmlRecords,
/// prov_tuples and WAL redo are deterministic at any degree of parallelism.
Result<ResultSet> ExecDml(
    storage::Database* db, const std::string& table_name,
    const std::string& alias, const sql::Expr* where,
    const std::vector<std::pair<std::string, std::unique_ptr<sql::Expr>>>*
        assignments,
    bool provenance, const ExecOptions& options) {
  Table* table = db->FindTable(table_name);
  if (table == nullptr) {
    return Status::NotFound("no such table: " + table_name);
  }
  ScanNode scan(table, alias.empty() ? table_name : alias,
                /*expose_prov_columns=*/true);
  if (where != nullptr) {
    LDV_ASSIGN_OR_RETURN(std::unique_ptr<BoundExpr> filter,
                         BindExpr(*where, scan.scope()));
    scan.set_filter(std::move(filter));
    std::vector<const sql::Expr*> conjuncts;
    SplitConjuncts(where, &conjuncts);
    ChooseIndexProbe(&scan, conjuncts);
  }
  std::vector<Assignment> sets;
  if (assignments != nullptr) {
    for (const auto& [col_name, expr] : *assignments) {
      const int column = table->schema().IndexOf(col_name);
      if (column < 0) {
        return Status::NotFound(table_name + ": no column " + col_name);
      }
      LDV_ASSIGN_OR_RETURN(std::unique_ptr<BoundExpr> bound,
                           BindExpr(*expr, scan.scope()));
      sets.push_back({column, std::move(bound)});
    }
  }
  LDV_ASSIGN_OR_RETURN(
      PreState pre,
      SelectPreState(db, &scan, sets, assignments != nullptr,
                     options.governor));

  ResultSet result;
  const int64_t stmt_seq = db->NextStatementSeq();
  for (size_t i = 0; i < pre.prior.size(); ++i) {
    const TupleVid& prior = pre.prior[i];
    DmlRecord rec;
    rec.table = table->name();
    rec.prior = prior;
    rec.has_prior = true;
    if (assignments != nullptr) {
      LDV_RETURN_IF_ERROR(table->Update(
          prior.rowid, std::move(pre.new_values[i]), stmt_seq));
      rec.kind = DmlRecord::Kind::kUpdated;
      rec.vid = TupleVid{table->id(), prior.rowid, stmt_seq};
    } else {
      LDV_RETURN_IF_ERROR(table->Delete(prior.rowid, stmt_seq));
      rec.kind = DmlRecord::Kind::kDeleted;
      rec.vid = prior;
    }
    result.dml.push_back(std::move(rec));
    if (provenance) {
      result.prov_tuples.push_back(
          {prior, table->name(), std::move(pre.old_values[i])});
    }
  }
  result.affected = static_cast<int64_t>(pre.prior.size());
  result.has_provenance = provenance;
  return result;
}

}  // namespace

Result<ResultSet> ExecUpdate(storage::Database* db,
                             const sql::UpdateStmt& update,
                             const sql::Expr* where_expr, bool provenance,
                             const ExecOptions& options) {
  return ExecDml(db, update.table, update.alias, where_expr,
                 &update.assignments, provenance, options);
}

Result<ResultSet> ExecDelete(storage::Database* db, const sql::DeleteStmt& del,
                             const sql::Expr* where_expr, bool provenance,
                             const ExecOptions& options) {
  return ExecDml(db, del.table, del.alias, where_expr,
                 /*assignments=*/nullptr, provenance, options);
}

}  // namespace ldv::exec
