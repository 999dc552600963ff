#include "row_oracle.h"

#include <algorithm>
#include <map>

#include "exec/exec_internal.h"
#include "exec/operators.h"
#include "exec/planner.h"
#include "sql/parser.h"

namespace ldv::exec {
namespace {

using storage::Tuple;
using storage::TupleVid;
using storage::Value;

struct Rows {
  std::vector<Tuple> rows;
  std::vector<LineageSet> lineage;  // parallel to rows when tracking
};

class Interpreter {
 public:
  explicit Interpreter(bool lineage) : lineage_(lineage) {}

  bool inexact_sums() const { return inexact_sums_; }
  const std::map<TupleVid, Tuple>& read_tuples() const { return read_; }

  Result<Rows> Run(const PlanNode& node) {
    if (const auto* scan = dynamic_cast<const ScanNode*>(&node)) {
      return Scan(*scan);
    }
    if (const auto* join = dynamic_cast<const JoinNode*>(&node)) {
      return Join(*join);
    }
    if (const auto* filter = dynamic_cast<const FilterNode*>(&node)) {
      return Filter(*filter);
    }
    if (const auto* project = dynamic_cast<const ProjectNode*>(&node)) {
      return Project(*project);
    }
    if (const auto* agg = dynamic_cast<const AggregateNode*>(&node)) {
      return Aggregate(*agg);
    }
    if (dynamic_cast<const DistinctNode*>(&node) != nullptr) {
      return Distinct(*node.children()[0]);
    }
    if (const auto* sort = dynamic_cast<const SortLimitNode*>(&node)) {
      return SortLimit(*sort);
    }
    if (node.label() == "SingleRow") {
      Rows out;
      out.rows.emplace_back();
      if (lineage_) out.lineage.emplace_back();
      return out;
    }
    return Status::NotSupported("oracle: unknown operator " + node.label());
  }

 private:
  static Result<bool> Truthy(const BoundExpr& expr, const Tuple& row) {
    LDV_ASSIGN_OR_RETURN(Value v, EvalExpr(expr, row));
    return v.IsTruthy();
  }

  void Emit(Rows* out, Tuple row, LineageSet lineage) {
    out->rows.push_back(std::move(row));
    if (lineage_) out->lineage.push_back(std::move(lineage));
  }

  // Every live row in slot order (an index probe only narrows the rows
  // visited; the filter decides), ignoring the LIMIT hint (the SortLimit
  // above truncates).
  Result<Rows> Scan(const ScanNode& scan) {
    const storage::Table& table = *scan.table();
    Rows out;
    for (const storage::RowVersion& row : table.rows()) {
      if (row.deleted) continue;
      Tuple values = row.values;
      if (scan.exposes_prov_columns()) {
        values.push_back(Value::Int(row.rowid));
        values.push_back(Value::Int(row.version));
        values.push_back(Value::Int(row.used_by_query));
        values.push_back(Value::Int(row.used_by_process));
      }
      if (scan.filter() != nullptr) {
        LDV_ASSIGN_OR_RETURN(bool keep, Truthy(*scan.filter(), values));
        if (!keep) continue;
      }
      const TupleVid vid{table.id(), row.rowid, row.version};
      if (lineage_) read_[vid] = row.values;
      Emit(&out, std::move(values), {vid});
    }
    return out;
  }

  Result<Rows> Join(const JoinNode& join) {
    const std::vector<const PlanNode*> kids = join.children();
    LDV_ASSIGN_OR_RETURN(Rows left, Run(*kids[0]));
    LDV_ASSIGN_OR_RETURN(Rows right, Run(*kids[1]));
    const size_t right_width =
        static_cast<size_t>(kids[1]->scope().num_columns());
    Rows out;
    for (size_t li = 0; li < left.rows.size(); ++li) {
      bool matched = false;
      for (size_t ri = 0; ri < right.rows.size(); ++ri) {
        bool keys_equal = true;
        for (const auto& [l, r] : join.key_pairs()) {
          const Value& lv = left.rows[li][static_cast<size_t>(l)];
          const Value& rv = right.rows[ri][static_cast<size_t>(r)];
          Result<int> cmp = lv.Compare(rv);
          if (lv.is_null() || rv.is_null() || !cmp.ok() || *cmp != 0) {
            keys_equal = false;
            break;
          }
        }
        if (!keys_equal) continue;
        Tuple row = left.rows[li];
        row.insert(row.end(), right.rows[ri].begin(), right.rows[ri].end());
        if (join.residual() != nullptr) {
          LDV_ASSIGN_OR_RETURN(bool keep, Truthy(*join.residual(), row));
          if (!keep) continue;
        }
        matched = true;
        LineageSet lineage;
        if (lineage_) {
          lineage = left.lineage[li];
          MergeLineage(&lineage, right.lineage[ri]);
        }
        Emit(&out, std::move(row), std::move(lineage));
      }
      if (join.left_outer() && !matched) {
        Tuple row = left.rows[li];
        row.resize(row.size() + right_width);
        Emit(&out, std::move(row),
             lineage_ ? left.lineage[li] : LineageSet{});
      }
    }
    return out;
  }

  Result<Rows> Filter(const FilterNode& filter) {
    LDV_ASSIGN_OR_RETURN(Rows in, Run(*filter.children()[0]));
    Rows out;
    for (size_t i = 0; i < in.rows.size(); ++i) {
      LDV_ASSIGN_OR_RETURN(bool keep, Truthy(filter.predicate(), in.rows[i]));
      if (!keep) continue;
      Emit(&out, std::move(in.rows[i]),
           lineage_ ? std::move(in.lineage[i]) : LineageSet{});
    }
    return out;
  }

  Result<Rows> Project(const ProjectNode& project) {
    LDV_ASSIGN_OR_RETURN(Rows in, Run(*project.children()[0]));
    Rows out;
    for (size_t i = 0; i < in.rows.size(); ++i) {
      Tuple row;
      for (const auto& expr : project.exprs()) {
        LDV_ASSIGN_OR_RETURN(Value v, EvalExpr(*expr, in.rows[i]));
        row.push_back(std::move(v));
      }
      Emit(&out, std::move(row),
           lineage_ ? std::move(in.lineage[i]) : LineageSet{});
    }
    return out;
  }

  Result<Rows> Aggregate(const AggregateNode& agg) {
    LDV_ASSIGN_OR_RETURN(Rows in, Run(*agg.children()[0]));
    const std::vector<AggregateSpec>& specs = agg.aggs();
    for (const AggregateSpec& spec : specs) {
      inexact_sums_ |= spec.fn == AggregateSpec::Fn::kSum ||
                       spec.fn == AggregateSpec::Fn::kAvg;
    }
    std::vector<internal::GroupState> groups;
    for (size_t i = 0; i < in.rows.size(); ++i) {
      Tuple keys;
      for (const auto& expr : agg.group_exprs()) {
        LDV_ASSIGN_OR_RETURN(Value v, EvalExpr(*expr, in.rows[i]));
        keys.push_back(std::move(v));
      }
      auto it = std::find_if(groups.begin(), groups.end(),
                             [&](const internal::GroupState& g) {
                               return g.keys == keys;
                             });
      if (it == groups.end()) {
        groups.emplace_back();
        groups.back().keys = std::move(keys);
        groups.back().aggs.resize(specs.size());
        it = groups.end() - 1;
      }
      for (size_t a = 0; a < specs.size(); ++a) {
        Value arg;
        if (specs[a].arg != nullptr) {
          LDV_ASSIGN_OR_RETURN(arg, EvalExpr(*specs[a].arg, in.rows[i]));
        }
        LDV_RETURN_IF_ERROR(
            internal::Accumulate(&it->aggs[a], specs[a].fn, arg));
      }
      if (lineage_) MergeLineage(&it->lineage, in.lineage[i]);
    }
    if (groups.empty() && agg.group_exprs().empty()) {
      groups.emplace_back();
      groups.back().aggs.resize(specs.size());
    }
    Rows out;
    for (internal::GroupState& g : groups) {
      Tuple row = std::move(g.keys);
      for (size_t a = 0; a < specs.size(); ++a) {
        row.push_back(internal::FinalizeAgg(g.aggs[a], specs[a]));
      }
      Emit(&out, std::move(row), std::move(g.lineage));
    }
    return out;
  }

  Result<Rows> Distinct(const PlanNode& child) {
    LDV_ASSIGN_OR_RETURN(Rows in, Run(child));
    Rows out;
    for (size_t i = 0; i < in.rows.size(); ++i) {
      auto it = std::find(out.rows.begin(), out.rows.end(), in.rows[i]);
      if (it == out.rows.end()) {
        Emit(&out, std::move(in.rows[i]),
             lineage_ ? std::move(in.lineage[i]) : LineageSet{});
      } else if (lineage_) {
        MergeLineage(&out.lineage[static_cast<size_t>(it - out.rows.begin())],
                     in.lineage[i]);
      }
    }
    return out;
  }

  Result<Rows> SortLimit(const SortLimitNode& sort) {
    LDV_ASSIGN_OR_RETURN(Rows in, Run(*sort.children()[0]));
    std::vector<Tuple> keys(in.rows.size());
    for (size_t i = 0; i < in.rows.size(); ++i) {
      for (const SortLimitNode::SortKey& key : sort.keys()) {
        LDV_ASSIGN_OR_RETURN(Value v, EvalExpr(*key.expr, in.rows[i]));
        keys[i].push_back(std::move(v));
      }
    }
    std::vector<size_t> order(in.rows.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      for (size_t k = 0; k < sort.keys().size(); ++k) {
        Result<int> cmp = keys[a][k].Compare(keys[b][k]);
        const int c = cmp.ok() ? *cmp : 0;
        if (c != 0) return sort.keys()[k].ascending ? c < 0 : c > 0;
      }
      return false;
    });
    if (sort.limit().has_value() && *sort.limit() >= 0 &&
        static_cast<size_t>(*sort.limit()) < order.size()) {
      order.resize(static_cast<size_t>(*sort.limit()));
    }
    Rows out;
    for (size_t i : order) {
      Emit(&out, std::move(in.rows[i]),
           lineage_ ? std::move(in.lineage[i]) : LineageSet{});
    }
    return out;
  }

  bool lineage_;
  bool inexact_sums_ = false;
  std::map<TupleVid, Tuple> read_;
};

/// Plans `select` with the engine's planner and interprets it serially;
/// `read` (optional) receives every tuple version a lineage-tracked scan
/// read.
Result<OracleResult> RunSelect(storage::Database* db,
                               const sql::SelectStmt& select, bool provenance,
                               std::map<TupleVid, Tuple>* read = nullptr) {
  LDV_ASSIGN_OR_RETURN(SelectPlan plan, PlanSelect(db, select));
  Interpreter interpreter(provenance);
  LDV_ASSIGN_OR_RETURN(Rows rows, interpreter.Run(*plan.root));
  if (read != nullptr) *read = interpreter.read_tuples();

  OracleResult out;
  out.inexact_sums = interpreter.inexact_sums();
  ResultSet& result = out.result;
  result.schema = std::move(plan.output_schema);
  result.rows = std::move(rows.rows);
  result.affected = static_cast<int64_t>(result.rows.size());
  if (provenance) {
    result.has_provenance = true;
    result.lineage = std::move(rows.lineage);
    // The provenance is exactly the tuple versions some result row's
    // lineage references, in vid order.
    std::map<TupleVid, Tuple> referenced;
    for (const LineageSet& set : result.lineage) {
      for (const TupleVid& vid : set) {
        referenced[vid] = interpreter.read_tuples().at(vid);
      }
    }
    for (auto& [vid, values] : referenced) {
      ProvTupleRecord rec;
      rec.vid = vid;
      rec.table = db->FindTableById(vid.table_id)->name();
      rec.values = std::move(values);
      result.prov_tuples.push_back(std::move(rec));
    }
  }
  return out;
}

/// The DML oracle's subquery flattening: each uncorrelated subquery runs on
/// the SELECT oracle and is replaced by its value(s), in the engine's
/// evaluation order. Under provenance the rows its scans read are stamped
/// as a lineage-tracked engine scan stamps them, and its provenance tuples
/// are appended to `ambient`.
class SubqueryFlattener {
 public:
  SubqueryFlattener(storage::Database* db, bool provenance,
                    const ExecOptions& options,
                    std::vector<ProvTupleRecord>* ambient)
      : db_(db), provenance_(provenance), options_(options),
        ambient_(ambient) {}

  Result<std::unique_ptr<sql::Expr>> Flatten(const sql::Expr& expr) {
    if (expr.subquery != nullptr) {
      LDV_ASSIGN_OR_RETURN(ResultSet sub, Run(*expr.subquery));
      if (expr.kind == sql::ExprKind::kExists) {
        return sql::MakeLiteral(Value::Bool(!sub.rows.empty()));
      }
      const bool in_list = expr.kind == sql::ExprKind::kInList;
      if (sub.schema.num_columns() != 1) {
        return Status::InvalidArgument(in_list
                                           ? "IN subquery must return one "
                                             "column"
                                           : "scalar subquery must return "
                                             "one column");
      }
      if (!in_list) {
        if (sub.rows.size() > 1) {
          return Status::InvalidArgument(
              "scalar subquery returned more than one row");
        }
        return sql::MakeLiteral(sub.rows.empty() ? Value::Null()
                                                 : sub.rows[0][0]);
      }
      auto out = std::make_unique<sql::Expr>();
      out->kind = sql::ExprKind::kInList;
      out->negated = expr.negated;
      LDV_ASSIGN_OR_RETURN(std::unique_ptr<sql::Expr> probe,
                           Flatten(*expr.children[0]));
      out->children.push_back(std::move(probe));
      for (const Tuple& row : sub.rows) {
        out->children.push_back(sql::MakeLiteral(row[0]));
      }
      return out;
    }
    std::unique_ptr<sql::Expr> clone = expr.Clone();
    clone->children.clear();
    for (const auto& child : expr.children) {
      LDV_ASSIGN_OR_RETURN(std::unique_ptr<sql::Expr> flattened,
                           Flatten(*child));
      clone->children.push_back(std::move(flattened));
    }
    return clone;
  }

 private:
  Result<ResultSet> Run(const sql::SelectStmt& select) {
    std::map<TupleVid, Tuple> read;
    LDV_ASSIGN_OR_RETURN(OracleResult sub,
                         RunSelect(db_, select, provenance_, &read));
    for (const auto& [vid, values] : read) {
      storage::RowVersion* row =
          db_->FindTableById(vid.table_id)->FindMutable(vid.rowid);
      row->used_by_query = options_.query_id;
      row->used_by_process = options_.process_id;
    }
    for (ProvTupleRecord& rec : sub.result.prov_tuples) {
      ambient_->push_back(std::move(rec));
    }
    return std::move(sub.result);
  }

  storage::Database* db_;
  bool provenance_;
  const ExecOptions& options_;
  std::vector<ProvTupleRecord>* ambient_;
};

/// The reference access path: the first top-level conjunct equating an
/// indexed column with a literal, as (column, probe value); column -1 when
/// there is none.
std::pair<int, Value> FindIndexProbe(const storage::Table& table,
                                     const sql::Expr* where) {
  if (where == nullptr) return {-1, Value::Null()};
  if (where->kind == sql::ExprKind::kBinary &&
      where->binary_op == sql::BinaryOp::kAnd) {
    auto left = FindIndexProbe(table, where->children[0].get());
    if (left.first >= 0) return left;
    return FindIndexProbe(table, where->children[1].get());
  }
  if (where->kind != sql::ExprKind::kBinary ||
      where->binary_op != sql::BinaryOp::kEq) {
    return {-1, Value::Null()};
  }
  for (int side = 0; side < 2; ++side) {
    const sql::Expr* col = where->children[static_cast<size_t>(side)].get();
    const sql::Expr* lit =
        where->children[static_cast<size_t>(1 - side)].get();
    if (col->kind != sql::ExprKind::kColumnRef ||
        lit->kind != sql::ExprKind::kLiteral) {
      continue;
    }
    const int idx = table.schema().IndexOf(col->column);
    if (idx < 0 || !table.HasIndexOn(idx)) continue;
    Result<Value> coerced =
        CoerceValue(lit->literal, table.schema().column(idx).type);
    if (!coerced.ok()) continue;
    return {idx, std::move(coerced).value()};
  }
  return {-1, Value::Null()};
}

Tuple WithProvColumns(const storage::RowVersion& row) {
  Tuple values = row.values;
  values.push_back(Value::Int(row.rowid));
  values.push_back(Value::Int(row.version));
  values.push_back(Value::Int(row.used_by_query));
  values.push_back(Value::Int(row.used_by_process));
  return values;
}

}  // namespace

Result<OracleResult> OracleExecute(storage::Database* db,
                                   std::string_view sql) {
  LDV_ASSIGN_OR_RETURN(sql::Statement stmt, sql::Parse(sql));
  if (stmt.kind != sql::StatementKind::kSelect || stmt.explain) {
    return Status::NotSupported("oracle: SELECT statements only");
  }
  return RunSelect(db, *stmt.select, stmt.provenance);
}

Result<ResultSet> OracleExecuteDml(storage::Database* db, std::string_view sql,
                                   const ExecOptions& options) {
  LDV_ASSIGN_OR_RETURN(sql::Statement stmt, sql::Parse(sql));
  const bool update = stmt.kind == sql::StatementKind::kUpdate;
  if (!update && stmt.kind != sql::StatementKind::kDelete) {
    return Status::NotSupported("oracle: UPDATE and DELETE statements only");
  }
  const std::string& table_name =
      update ? stmt.update->table : stmt.del->table;
  const std::string& alias = update ? stmt.update->alias : stmt.del->alias;
  const sql::Expr* where =
      update ? stmt.update->where.get() : stmt.del->where.get();

  std::vector<ProvTupleRecord> ambient;
  std::unique_ptr<sql::Expr> flattened;
  if (where != nullptr) {
    SubqueryFlattener flattener(db, stmt.provenance, options, &ambient);
    LDV_ASSIGN_OR_RETURN(flattened, flattener.Flatten(*where));
    where = flattened.get();
  }
  storage::Table* table = db->FindTable(table_name);
  if (table == nullptr) {
    return Status::NotFound("no such table: " + table_name);
  }
  // Binding goes through the scan's scope: the table's columns, then the
  // four prov_* columns WithProvColumns appends.
  const ScanNode binder(table, alias.empty() ? table_name : alias,
                       /*expose_prov_columns=*/true);
  std::unique_ptr<BoundExpr> predicate;
  if (where != nullptr) {
    LDV_ASSIGN_OR_RETURN(predicate, BindExpr(*where, binder.scope()));
  }
  std::vector<std::pair<int, std::unique_ptr<BoundExpr>>> sets;
  if (update) {
    for (const auto& [col_name, expr] : stmt.update->assignments) {
      const int idx = table->schema().IndexOf(col_name);
      if (idx < 0) {
        return Status::NotFound(table_name + ": no column " + col_name);
      }
      LDV_ASSIGN_OR_RETURN(std::unique_ptr<BoundExpr> bound,
                           BindExpr(*expr, binder.scope()));
      sets.emplace_back(idx, std::move(bound));
    }
  }

  // The pre-state, one row at a time in slot order: an index probe narrows
  // the rows the predicate sees, linearly. Every new tuple is built before
  // the first mutation, so a failing statement changes nothing.
  const std::pair<int, Value> probe = FindIndexProbe(*table, where);
  std::vector<storage::RowVersion> matched;
  std::vector<Tuple> new_rows;
  for (const storage::RowVersion& row : table->rows()) {
    if (row.deleted) continue;
    if (probe.first >= 0) {
      const Value& v = row.values[static_cast<size_t>(probe.first)];
      Result<int> cmp = v.Compare(probe.second);
      if (v.is_null() || !cmp.ok() || *cmp != 0) continue;
    }
    const Tuple with_prov = WithProvColumns(row);
    if (predicate != nullptr) {
      LDV_ASSIGN_OR_RETURN(Value keep, EvalExpr(*predicate, with_prov));
      if (!keep.IsTruthy()) continue;
    }
    matched.push_back(row);
  }
  for (const storage::RowVersion& row : matched) {
    if (!update) break;
    const Tuple with_prov = WithProvColumns(row);
    Tuple values = row.values;
    for (const auto& [idx, expr] : sets) {
      LDV_ASSIGN_OR_RETURN(Value v, EvalExpr(*expr, with_prov));
      LDV_ASSIGN_OR_RETURN(
          values[static_cast<size_t>(idx)],
          CoerceValue(std::move(v), table->schema().column(idx).type));
    }
    new_rows.push_back(std::move(values));
  }

  ResultSet result;
  const int64_t stmt_seq = db->NextStatementSeq();
  for (size_t i = 0; i < matched.size(); ++i) {
    const storage::RowVersion& old_row = matched[i];
    DmlRecord rec;
    rec.table = table->name();
    rec.prior = TupleVid{table->id(), old_row.rowid, old_row.version};
    rec.has_prior = true;
    if (update) {
      LDV_RETURN_IF_ERROR(
          table->Update(old_row.rowid, std::move(new_rows[i]), stmt_seq));
      rec.kind = DmlRecord::Kind::kUpdated;
      rec.vid = TupleVid{table->id(), old_row.rowid, stmt_seq};
    } else {
      LDV_RETURN_IF_ERROR(table->Delete(old_row.rowid, stmt_seq));
      rec.kind = DmlRecord::Kind::kDeleted;
      rec.vid = rec.prior;
    }
    result.dml.push_back(rec);
    if (stmt.provenance) {
      result.prov_tuples.push_back({rec.prior, table->name(), old_row.values});
    }
  }
  for (ProvTupleRecord& rec : ambient) {
    result.prov_tuples.push_back(std::move(rec));
  }
  result.affected = static_cast<int64_t>(matched.size());
  result.has_provenance = stmt.provenance;
  return result;
}

}  // namespace ldv::exec
