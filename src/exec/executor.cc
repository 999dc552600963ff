#include "exec/executor.h"

#include <algorithm>
#include <unordered_set>

#include "common/clock.h"
#include "common/logging.h"
#include "exec/planner.h"
#include "exec/reenactment.h"
#include "sql/parser.h"
#include "util/csv.h"
#include "util/fsutil.h"
#include "util/strings.h"

namespace ldv::exec {

using sql::Statement;
using sql::StatementKind;
using storage::Table;
using storage::Tuple;
using storage::TupleVid;
using storage::Value;

uint64_t ResultSet::Fingerprint() const {
  uint64_t h = Fnv1a(schema.ToString());
  h ^= static_cast<uint64_t>(affected) * 0x9E3779B97F4A7C15ULL;
  for (const Tuple& row : rows) {
    h ^= storage::HashTuple(row) + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
  }
  return h;
}

namespace {

/// Gives `ctx` the shared pool at `options`' degree of parallelism (none
/// when it resolves to 1).
void UsePool(const ExecOptions& options, ExecContext* ctx) {
  const int dop =
      options.threads > 0 ? options.threads : ThreadPool::default_dop();
  if (dop > 1) {
    ctx->pool = ThreadPool::Shared();
    ctx->dop = dop;
  }
}

}  // namespace

std::vector<ProvTupleRecord> CollectProvTuples(const ExecContext& ctx,
                                               const storage::Database& db) {
  std::vector<ProvTupleRecord> out;
  out.reserve(ctx.prov_tuples.size());
  for (const auto& [vid, values] : ctx.prov_tuples) {
    ProvTupleRecord rec;
    rec.vid = vid;
    const Table* table = db.FindTableById(vid.table_id);
    rec.table = table != nullptr ? table->name() : "?";
    rec.values = *values;
    out.push_back(std::move(rec));
  }
  std::sort(out.begin(), out.end(),
            [](const ProvTupleRecord& a, const ProvTupleRecord& b) {
              return a.vid < b.vid;
            });
  return out;
}

namespace {

bool ExprHasSubquery(const sql::Expr& expr) {
  if (expr.subquery != nullptr) return true;
  for (const auto& child : expr.children) {
    if (ExprHasSubquery(*child)) return true;
  }
  return false;
}

/// Copies labels and accumulated OpStats out of an executed plan tree.
obs::OperatorProfile ProfileFromPlan(const PlanNode& node) {
  obs::OperatorProfile op;
  op.label = node.label();
  op.detail = node.detail();
  const OpStats& stats = node.stats();
  op.rows_out = stats.rows_out;
  op.invocations = stats.invocations;
  op.wall_nanos = stats.wall_nanos;
  op.build_nanos = stats.build_nanos;
  op.probe_nanos = stats.probe_nanos;
  op.parallel_morsels = stats.parallel_morsels;
  op.parallel_workers = stats.parallel_workers;
  op.cpu_nanos = stats.cpu_nanos;
  op.vector_batches = stats.vector_batches;
  for (const PlanNode* child : node.children()) {
    op.children.push_back(ProfileFromPlan(*child));
  }
  return op;
}

bool SelectHasSubquery(const sql::SelectStmt& select) {
  for (const auto& item : select.items) {
    if (ExprHasSubquery(*item.expr)) return true;
  }
  for (const sql::TableRef& ref : select.from) {
    if (ref.join_condition != nullptr && ExprHasSubquery(*ref.join_condition)) {
      return true;
    }
  }
  if (select.where != nullptr && ExprHasSubquery(*select.where)) return true;
  for (const auto& g : select.group_by) {
    if (ExprHasSubquery(*g)) return true;
  }
  if (select.having != nullptr && ExprHasSubquery(*select.having)) {
    return true;
  }
  for (const auto& o : select.order_by) {
    if (ExprHasSubquery(*o.expr)) return true;
  }
  return false;
}

}  // namespace

Result<ResultSet> Executor::Execute(std::string_view sql,
                                    const ExecOptions& options) {
  LDV_ASSIGN_OR_RETURN(Statement stmt, sql::Parse(sql));
  return ExecuteParsed(stmt, options);
}

Result<ResultSet> Executor::ExecuteParsed(const Statement& stmt,
                                          const ExecOptions& options) {
  // A cancel/deadline that landed while the statement was queued (e.g.
  // waiting behind another session's transaction) aborts before any work.
  if (options.governor != nullptr) {
    LDV_RETURN_IF_ERROR(options.governor->Check());
  }
  if (stmt.explain) return ExecExplain(stmt, options);
  switch (stmt.kind) {
    case StatementKind::kSelect:
      return ExecSelect(*stmt.select, stmt.provenance, options);
    case StatementKind::kInsert:
      return ExecInsert(*stmt.insert, stmt.provenance, options);
    case StatementKind::kUpdate:
    case StatementKind::kDelete: {
      // Flatten subqueries in the WHERE clause first (their provenance
      // joins the statement's provenance).
      const sql::Expr* where = stmt.kind == StatementKind::kUpdate
                                   ? stmt.update->where.get()
                                   : stmt.del->where.get();
      std::unique_ptr<sql::Expr> flattened_where;
      LineageSet ambient_lineage;
      std::vector<ProvTupleRecord> ambient;
      if (where != nullptr && ExprHasSubquery(*where)) {
        LDV_ASSIGN_OR_RETURN(flattened_where,
                             FlattenExpr(*where, stmt.provenance, options,
                                         &ambient_lineage, &ambient));
        where = flattened_where.get();
      }
      Result<ResultSet> result =
          stmt.kind == StatementKind::kUpdate
              ? ExecUpdate(db_, *stmt.update, where, stmt.provenance, options)
              : ExecDelete(db_, *stmt.del, where, stmt.provenance, options);
      if (result.ok() && stmt.provenance && !ambient.empty()) {
        for (ProvTupleRecord& rec : ambient) {
          result->prov_tuples.push_back(std::move(rec));
        }
      }
      return result;
    }
    case StatementKind::kCreateTable:
      return ExecCreateTable(*stmt.create_table);
    case StatementKind::kDropTable:
      return ExecDropTable(*stmt.drop_table);
    case StatementKind::kAlterTableAddColumn:
      return ExecAlterTable(*stmt.alter_table);
    case StatementKind::kCreateIndex:
      return ExecCreateIndex(*stmt.create_index);
    case StatementKind::kCopy:
      return ExecCopy(*stmt.copy);
    case StatementKind::kTransaction:
      // Single-statement autocommit engine: BEGIN/COMMIT/ROLLBACK accepted
      // as no-ops for application compatibility.
      return ResultSet{};
    case StatementKind::kPrepare:
    case StatementKind::kExecute:
    case StatementKind::kDeallocate:
      // Prepared-statement handles are per-session state owned by the
      // engine/session layer (EngineHandle); a bare Executor has nowhere to
      // keep them.
      return Status::InvalidArgument(
          "PREPARE/EXECUTE/DEALLOCATE require a session");
  }
  return Status::Internal("unreachable statement kind");
}

Result<std::unique_ptr<sql::Expr>> Executor::FlattenExpr(
    const sql::Expr& expr, bool provenance, const ExecOptions& options,
    LineageSet* ambient_lineage, std::vector<ProvTupleRecord>* ambient) {
  // Executes one subquery and folds its provenance into the ambient sets.
  auto run_subquery = [&](const sql::SelectStmt& subquery)
      -> Result<ResultSet> {
    LDV_ASSIGN_OR_RETURN(ResultSet sub,
                         ExecSelect(subquery, provenance, options));
    if (provenance) {
      for (const LineageSet& set : sub.lineage) {
        MergeLineage(ambient_lineage, set);
      }
      for (ProvTupleRecord& rec : sub.prov_tuples) {
        ambient->push_back(std::move(rec));
      }
    }
    return sub;
  };

  switch (expr.kind) {
    case sql::ExprKind::kSubquery: {
      LDV_ASSIGN_OR_RETURN(ResultSet sub, run_subquery(*expr.subquery));
      if (sub.schema.num_columns() != 1) {
        return Status::InvalidArgument(
            "scalar subquery must return one column");
      }
      if (sub.rows.size() > 1) {
        return Status::InvalidArgument(
            "scalar subquery returned more than one row");
      }
      return sql::MakeLiteral(sub.rows.empty() ? Value::Null()
                                               : sub.rows[0][0]);
    }
    case sql::ExprKind::kExists: {
      LDV_ASSIGN_OR_RETURN(ResultSet sub, run_subquery(*expr.subquery));
      return sql::MakeLiteral(Value::Bool(!sub.rows.empty()));
    }
    case sql::ExprKind::kInList:
      if (expr.subquery != nullptr) {
        LDV_ASSIGN_OR_RETURN(ResultSet sub, run_subquery(*expr.subquery));
        if (sub.schema.num_columns() != 1) {
          return Status::InvalidArgument(
              "IN subquery must return one column");
        }
        auto out = std::make_unique<sql::Expr>();
        out->kind = sql::ExprKind::kInList;
        out->negated = expr.negated;
        LDV_ASSIGN_OR_RETURN(
            std::unique_ptr<sql::Expr> probe,
            FlattenExpr(*expr.children[0], provenance, options,
                        ambient_lineage, ambient));
        out->children.push_back(std::move(probe));
        for (const Tuple& row : sub.rows) {
          out->children.push_back(sql::MakeLiteral(row[0]));
        }
        return out;
      }
      break;
    default:
      break;
  }
  std::unique_ptr<sql::Expr> clone = expr.Clone();
  clone->children.clear();
  for (const auto& child : expr.children) {
    LDV_ASSIGN_OR_RETURN(std::unique_ptr<sql::Expr> flattened,
                         FlattenExpr(*child, provenance, options,
                                     ambient_lineage, ambient));
    clone->children.push_back(std::move(flattened));
  }
  return clone;
}

Result<std::unique_ptr<sql::SelectStmt>> Executor::FlattenSelect(
    const sql::SelectStmt& select, bool provenance,
    const ExecOptions& options, LineageSet* ambient_lineage,
    std::vector<ProvTupleRecord>* ambient) {
  std::unique_ptr<sql::SelectStmt> out = sql::CloneSelect(select);
  auto flatten_in_place =
      [&](std::unique_ptr<sql::Expr>* slot) -> Status {
    if (*slot == nullptr || !ExprHasSubquery(**slot)) return Status::Ok();
    LDV_ASSIGN_OR_RETURN(*slot, FlattenExpr(**slot, provenance, options,
                                            ambient_lineage, ambient));
    return Status::Ok();
  };
  for (auto& item : out->items) LDV_RETURN_IF_ERROR(flatten_in_place(&item.expr));
  for (auto& ref : out->from) {
    LDV_RETURN_IF_ERROR(flatten_in_place(&ref.join_condition));
  }
  LDV_RETURN_IF_ERROR(flatten_in_place(&out->where));
  for (auto& g : out->group_by) LDV_RETURN_IF_ERROR(flatten_in_place(&g));
  LDV_RETURN_IF_ERROR(flatten_in_place(&out->having));
  for (auto& o : out->order_by) LDV_RETURN_IF_ERROR(flatten_in_place(&o.expr));
  return out;
}

Result<ResultSet> Executor::ExecSelect(const sql::SelectStmt& select,
                                       bool provenance,
                                       const ExecOptions& options) {
  // Evaluate uncorrelated subqueries first (their provenance becomes
  // ambient lineage shared by every result row).
  const sql::SelectStmt* effective = &select;
  std::unique_ptr<sql::SelectStmt> flattened;
  LineageSet ambient_lineage;
  std::vector<ProvTupleRecord> ambient;
  if (SelectHasSubquery(select)) {
    LDV_ASSIGN_OR_RETURN(flattened,
                         FlattenSelect(select, provenance, options,
                                       &ambient_lineage, &ambient));
    effective = flattened.get();
  }

  LDV_ASSIGN_OR_RETURN(SelectPlan plan, PlanSelect(db_, *effective));
  ExecContext ctx;
  ctx.db = db_;
  ctx.track_lineage = provenance;
  ctx.profile = options.profile;
  ctx.query_id = options.query_id;
  ctx.process_id = options.process_id;
  ctx.governor = options.governor;
  ctx.snapshot_epoch = options.snapshot_epoch;
  UsePool(options, &ctx);
  const int64_t exec_start = options.profile ? NowNanos() : 0;
  LDV_ASSIGN_OR_RETURN(ColumnBatch batch, plan.root->Execute(&ctx));
  ResultSet result;
  result.schema = std::move(plan.output_schema);
  LDV_ASSIGN_OR_RETURN(result.rows, ColumnarToRows(&ctx, batch));
  result.affected = static_cast<int64_t>(result.rows.size());
  if (options.profile) {
    auto profile = std::make_shared<obs::QueryProfile>();
    profile->root = ProfileFromPlan(*plan.root);
    profile->total_nanos = NowNanos() - exec_start;
    profile->rows_returned = static_cast<int64_t>(result.rows.size());
    result.profile = std::move(profile);
  }
  if (provenance) {
    result.has_provenance = true;
    result.lineage = std::move(batch.lineage);
    if (!ambient_lineage.empty()) {
      for (LineageSet& set : result.lineage) {
        MergeLineage(&set, ambient_lineage);
      }
      for (const ProvTupleRecord& rec : ambient) {
        ctx.prov_tuples.emplace(rec.vid, &rec.values);
      }
    }
    // Scans cache every tuple that passed their local filter, but the
    // statement's provenance is only what some result row's Lineage actually
    // references (e.g. rows eliminated by a join contribute nothing).
    std::unordered_set<TupleVid, storage::TupleVidHash> referenced;
    for (const LineageSet& set : result.lineage) {
      referenced.insert(set.begin(), set.end());
    }
    for (auto it = ctx.prov_tuples.begin(); it != ctx.prov_tuples.end();) {
      it = referenced.contains(it->first) ? std::next(it)
                                          : ctx.prov_tuples.erase(it);
    }
    result.prov_tuples = CollectProvTuples(ctx, *db_);
  }
  return result;
}

Result<ResultSet> Executor::ExecutePlanned(SelectPlan& plan,
                                           const Tuple& params,
                                           const ExecOptions& options) {
  ExecContext ctx;
  ctx.db = db_;
  ctx.params = &params;
  ctx.frozen_plan = true;
  ctx.query_id = options.query_id;
  ctx.process_id = options.process_id;
  ctx.governor = options.governor;
  ctx.snapshot_epoch = options.snapshot_epoch;
  UsePool(options, &ctx);
  LDV_ASSIGN_OR_RETURN(ColumnBatch batch, plan.root->Execute(&ctx));
  ResultSet result;
  result.schema = plan.output_schema;  // copy: the plan stays shared
  LDV_ASSIGN_OR_RETURN(result.rows, ColumnarToRows(&ctx, batch));
  result.affected = static_cast<int64_t>(result.rows.size());
  return result;
}

Result<ResultSet> Executor::ExecExplain(const Statement& stmt,
                                        const ExecOptions& options) {
  if (stmt.kind != StatementKind::kSelect) {
    return Status::NotSupported("EXPLAIN supports SELECT statements only");
  }

  ResultSet out;
  out.schema = storage::Schema(
      {storage::Column{"QUERY PLAN", storage::ValueType::kString}});

  obs::QueryProfile profile;
  const obs::QueryProfile* to_render = &profile;
  if (stmt.analyze) {
    ExecOptions profiled = options;
    profiled.profile = true;
    LDV_ASSIGN_OR_RETURN(ResultSet executed,
                         ExecSelect(*stmt.select, stmt.provenance, profiled));
    LDV_CHECK(executed.profile != nullptr);
    out.profile = std::move(executed.profile);
    to_render = out.profile.get();  // render in place; the tree can be large
  } else {
    // Plain EXPLAIN: plan but do not run the outer query. Uncorrelated
    // subqueries still execute, since planning needs their values.
    const sql::SelectStmt* effective = stmt.select.get();
    std::unique_ptr<sql::SelectStmt> flattened;
    LineageSet ambient_lineage;
    std::vector<ProvTupleRecord> ambient;
    if (SelectHasSubquery(*stmt.select)) {
      LDV_ASSIGN_OR_RETURN(flattened,
                           FlattenSelect(*stmt.select, /*provenance=*/false,
                                         options, &ambient_lineage, &ambient));
      effective = flattened.get();
    }
    LDV_ASSIGN_OR_RETURN(SelectPlan plan, PlanSelect(db_, *effective));
    profile.root = ProfileFromPlan(*plan.root);
  }

  for (std::string& line : to_render->ToTextLines(stmt.analyze)) {
    out.rows.push_back({Value::Str(std::move(line))});
  }
  out.affected = static_cast<int64_t>(out.rows.size());
  return out;
}

Result<ResultSet> Executor::ExecInsert(const sql::InsertStmt& insert,
                                       bool provenance,
                                       const ExecOptions& options) {
  Table* table = db_->FindTable(insert.table);
  if (table == nullptr) {
    return Status::NotFound("no such table: " + insert.table);
  }
  const storage::Schema& schema = table->schema();

  // Map provided columns (or the full schema) to target positions.
  std::vector<int> target_cols;
  if (insert.columns.empty()) {
    for (int i = 0; i < schema.num_columns(); ++i) target_cols.push_back(i);
  } else {
    for (const std::string& name : insert.columns) {
      int idx = schema.IndexOf(name);
      if (idx < 0) {
        return Status::NotFound(insert.table + ": no column " + name);
      }
      target_cols.push_back(idx);
    }
  }

  std::vector<Tuple> new_rows;
  ResultSet result;

  if (insert.select != nullptr) {
    // INSERT ... SELECT. When provenance is on, the source query's lineage
    // becomes the hasRead-side provenance of the insert.
    LDV_ASSIGN_OR_RETURN(ResultSet src,
                         ExecSelect(*insert.select, provenance, options));
    if (src.schema.num_columns() != static_cast<int>(target_cols.size())) {
      return Status::InvalidArgument("INSERT SELECT arity mismatch");
    }
    new_rows = std::move(src.rows);
    if (provenance) {
      result.lineage = std::move(src.lineage);
      result.prov_tuples = std::move(src.prov_tuples);
    }
  } else {
    for (const auto& row_exprs : insert.rows) {
      if (row_exprs.size() != target_cols.size()) {
        return Status::InvalidArgument("INSERT arity mismatch");
      }
      Tuple row;
      row.reserve(row_exprs.size());
      for (const auto& e : row_exprs) {
        LDV_ASSIGN_OR_RETURN(Value v, EvalConstExpr(*e));
        row.push_back(std::move(v));
      }
      new_rows.push_back(std::move(row));
    }
  }

  const int64_t stmt_seq = db_->NextStatementSeq();
  for (size_t r = 0; r < new_rows.size(); ++r) {
    Tuple full(static_cast<size_t>(schema.num_columns()));
    for (size_t c = 0; c < target_cols.size(); ++c) {
      LDV_ASSIGN_OR_RETURN(
          full[static_cast<size_t>(target_cols[c])],
          CoerceValue(std::move(new_rows[r][c]),
                      schema.column(target_cols[c]).type));
    }
    LDV_ASSIGN_OR_RETURN(storage::RowId rowid,
                         table->Insert(std::move(full), stmt_seq));
    DmlRecord rec;
    rec.kind = DmlRecord::Kind::kInserted;
    rec.table = table->name();
    rec.vid = TupleVid{table->id(), rowid, stmt_seq};
    result.dml.push_back(std::move(rec));
  }
  result.affected = static_cast<int64_t>(new_rows.size());
  result.has_provenance = provenance;
  return result;
}

Result<ResultSet> Executor::ExecCreateTable(const sql::CreateTableStmt& create) {
  storage::Schema schema{create.columns};
  LDV_RETURN_IF_ERROR(
      db_->CreateTable(create.table, std::move(schema), create.if_not_exists)
          .status());
  return ResultSet{};
}

Result<ResultSet> Executor::ExecDropTable(const sql::DropTableStmt& drop) {
  Status s = db_->DropTable(drop.table);
  if (!s.ok() && drop.if_exists && s.code() == StatusCode::kNotFound) {
    return ResultSet{};
  }
  LDV_RETURN_IF_ERROR(s);
  return ResultSet{};
}

Result<ResultSet> Executor::ExecAlterTable(
    const sql::AlterTableAddColumnStmt& alter) {
  Table* table = db_->FindTable(alter.table);
  if (table == nullptr) {
    return Status::NotFound("no such table: " + alter.table);
  }
  LDV_RETURN_IF_ERROR(table->AddColumn(alter.column, Value::Null()));
  db_->BumpSchemaVersion();
  return ResultSet{};
}

Result<ResultSet> Executor::ExecCreateIndex(
    const sql::CreateIndexStmt& create) {
  Table* table = db_->FindTable(create.table);
  if (table == nullptr) {
    return Status::NotFound("no such table: " + create.table);
  }
  int column = table->schema().IndexOf(create.column);
  if (column < 0) {
    return Status::NotFound(create.table + ": no column " + create.column);
  }
  if (table->HasIndexOn(column) && !create.if_not_exists) {
    return Status::AlreadyExists("index already exists on " + create.table +
                                 "." + create.column);
  }
  LDV_RETURN_IF_ERROR(table->CreateIndex(column));
  db_->BumpSchemaVersion();
  return ResultSet{};
}

Result<ResultSet> Executor::ExecCopy(const sql::CopyStmt& copy) {
  Table* table = db_->FindTable(copy.table);
  if (table == nullptr) {
    return Status::NotFound("no such table: " + copy.table);
  }
  if (!copy.from) {
    // COPY ... TO: dump the table as CSV.
    CsvWriter writer;
    for (const storage::RowVersion& row : table->rows()) {
      if (row.deleted) continue;
      std::vector<std::string> fields;
      fields.reserve(row.values.size());
      for (const Value& v : row.values) fields.push_back(v.ToText());
      writer.AppendRow(fields);
    }
    LDV_RETURN_IF_ERROR(WriteStringToFile(copy.path, writer.data()));
    ResultSet result;
    result.affected = table->live_row_count();
    return result;
  }
  LDV_ASSIGN_OR_RETURN(std::string text, ReadFileToString(copy.path));
  LDV_ASSIGN_OR_RETURN(auto rows, ParseCsv(text));
  const storage::Schema& schema = table->schema();
  const int64_t stmt_seq = db_->NextStatementSeq();
  ResultSet result;
  for (const auto& fields : rows) {
    if (static_cast<int>(fields.size()) != schema.num_columns()) {
      return Status::InvalidArgument(
          StrFormat("COPY %s: row arity %zu != %d", copy.table.c_str(),
                    fields.size(), schema.num_columns()));
    }
    Tuple row;
    row.reserve(fields.size());
    for (int c = 0; c < schema.num_columns(); ++c) {
      LDV_ASSIGN_OR_RETURN(
          Value v, Value::FromText(schema.column(c).type,
                                   fields[static_cast<size_t>(c)]));
      row.push_back(std::move(v));
    }
    LDV_RETURN_IF_ERROR(table->Insert(std::move(row), stmt_seq).status());
    ++result.affected;
  }
  // A bulk load counts as a catalog bump: plan-cache entries built before
  // the COPY are treated as stale and rebuilt on their next use.
  db_->BumpSchemaVersion();
  return result;
}

}  // namespace ldv::exec
