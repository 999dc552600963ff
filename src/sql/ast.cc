#include "sql/ast.h"

#include <algorithm>

#include "util/strings.h"

namespace ldv::sql {
namespace {

std::string_view BinaryOpSymbol(BinaryOp op) {
  switch (op) {
    case BinaryOp::kEq:
      return "=";
    case BinaryOp::kNe:
      return "<>";
    case BinaryOp::kLt:
      return "<";
    case BinaryOp::kLe:
      return "<=";
    case BinaryOp::kGt:
      return ">";
    case BinaryOp::kGe:
      return ">=";
    case BinaryOp::kAnd:
      return "AND";
    case BinaryOp::kOr:
      return "OR";
    case BinaryOp::kAdd:
      return "+";
    case BinaryOp::kSub:
      return "-";
    case BinaryOp::kMul:
      return "*";
    case BinaryOp::kDiv:
      return "/";
    case BinaryOp::kMod:
      return "%";
    case BinaryOp::kLike:
      return "LIKE";
    case BinaryOp::kNotLike:
      return "NOT LIKE";
    case BinaryOp::kConcat:
      return "||";
  }
  return "?";
}

/// Shortest decimal rendering of `v` that re-parses to exactly `v` and
/// always re-lexes as a *double* (a '.' or exponent is forced). ToText's
/// %.15g is lossy for one in ~10 doubles and renders 5.0 as "5", which
/// would come back as an integer — wrong type for WAL replay of
/// parameter-substituted DML.
std::string RenderDouble(double v) {
  for (const char* fmt : {"%.15g", "%.16g", "%.17g"}) {
    std::string text = StrFormat(fmt, v);
    Result<double> back = ParseDouble(text);
    if (back.ok() && *back == v) {
      if (text.find_first_of(".eE") == std::string::npos &&
          text.find_first_of("0123456789") != std::string::npos) {
        text += ".0";
      }
      return text;
    }
  }
  return StrFormat("%.17g", v);  // unreachable for finite doubles
}

}  // namespace

Expr::Expr() = default;
Expr::~Expr() = default;
Expr::Expr(Expr&&) noexcept = default;
Expr& Expr::operator=(Expr&&) noexcept = default;

std::unique_ptr<Expr> Expr::Clone() const {
  auto out = std::make_unique<Expr>();
  out->kind = kind;
  out->literal = literal;
  out->table = table;
  out->column = column;
  out->name = name;
  out->binary_op = binary_op;
  out->unary_op = unary_op;
  out->negated = negated;
  out->param_index = param_index;
  out->param_type = param_type;
  out->children.reserve(children.size());
  for (const auto& child : children) out->children.push_back(child->Clone());
  if (subquery != nullptr) out->subquery = CloneSelect(*subquery);
  return out;
}

std::unique_ptr<SelectStmt> CloneSelect(const SelectStmt& select) {
  auto out = std::make_unique<SelectStmt>();
  out->distinct = select.distinct;
  for (const SelectItem& item : select.items) {
    SelectItem clone;
    clone.expr = item.expr->Clone();
    clone.alias = item.alias;
    out->items.push_back(std::move(clone));
  }
  for (const TableRef& ref : select.from) {
    TableRef clone;
    clone.table = ref.table;
    clone.alias = ref.alias;
    clone.join_type = ref.join_type;
    if (ref.join_condition != nullptr) {
      clone.join_condition = ref.join_condition->Clone();
    }
    out->from.push_back(std::move(clone));
  }
  if (select.where != nullptr) out->where = select.where->Clone();
  for (const auto& g : select.group_by) out->group_by.push_back(g->Clone());
  if (select.having != nullptr) out->having = select.having->Clone();
  for (const OrderItem& o : select.order_by) {
    OrderItem clone;
    clone.expr = o.expr->Clone();
    clone.ascending = o.ascending;
    out->order_by.push_back(std::move(clone));
  }
  out->limit = select.limit;
  return out;
}

std::string SelectToString(const SelectStmt& select) {
  std::string out = "SELECT ";
  if (select.distinct) out += "DISTINCT ";
  for (size_t i = 0; i < select.items.size(); ++i) {
    if (i > 0) out += ", ";
    out += select.items[i].expr->ToString();
    if (!select.items[i].alias.empty()) {
      out += " AS " + select.items[i].alias;
    }
  }
  for (size_t i = 0; i < select.from.size(); ++i) {
    const TableRef& ref = select.from[i];
    if (i == 0) {
      out += " FROM ";
    } else if (ref.join_condition != nullptr) {
      out += ref.join_type == JoinType::kLeft ? " LEFT JOIN " : " JOIN ";
    } else {
      out += ", ";
    }
    out += ref.table;
    if (!ref.alias.empty()) out += " " + ref.alias;
    if (i > 0 && ref.join_condition != nullptr) {
      out += " ON " + ref.join_condition->ToString();
    }
  }
  if (select.where != nullptr) out += " WHERE " + select.where->ToString();
  if (!select.group_by.empty()) {
    out += " GROUP BY ";
    for (size_t i = 0; i < select.group_by.size(); ++i) {
      if (i > 0) out += ", ";
      out += select.group_by[i]->ToString();
    }
  }
  if (select.having != nullptr) out += " HAVING " + select.having->ToString();
  if (!select.order_by.empty()) {
    out += " ORDER BY ";
    for (size_t i = 0; i < select.order_by.size(); ++i) {
      if (i > 0) out += ", ";
      out += select.order_by[i].expr->ToString();
      if (!select.order_by[i].ascending) out += " DESC";
    }
  }
  if (select.limit.has_value()) {
    out += " LIMIT " + std::to_string(*select.limit);
  }
  return out;
}

std::string Expr::ToString() const {
  switch (kind) {
    case ExprKind::kLiteral:
      if (literal.type() == storage::ValueType::kString) {
        // Rendered expressions must re-parse (the WAL logs an EXECUTE'd
        // statement as its rendered text), so quotes are '' -escaped.
        std::string escaped;
        for (char c : literal.ToText()) {
          escaped.push_back(c);
          if (c == '\'') escaped.push_back('\'');
        }
        return "'" + escaped + "'";
      }
      if (literal.type() == storage::ValueType::kDouble) {
        return RenderDouble(literal.AsDouble());
      }
      return literal.is_null() ? "NULL" : literal.ToText();
    case ExprKind::kParameter:
      return "$" + std::to_string(param_index + 1);
    case ExprKind::kColumnRef:
      return table.empty() ? column : table + "." + column;
    case ExprKind::kStar:
      return table.empty() ? "*" : table + ".*";
    case ExprKind::kUnary:
      switch (unary_op) {
        case UnaryOp::kNot:
          return "NOT (" + children[0]->ToString() + ")";
        case UnaryOp::kNeg:
          return "-(" + children[0]->ToString() + ")";
        case UnaryOp::kIsNull:
          return "(" + children[0]->ToString() + " IS NULL)";
        case UnaryOp::kIsNotNull:
          return "(" + children[0]->ToString() + " IS NOT NULL)";
      }
      return "?";
    case ExprKind::kBinary:
      return "(" + children[0]->ToString() + " " +
             std::string(BinaryOpSymbol(binary_op)) + " " +
             children[1]->ToString() + ")";
    case ExprKind::kBetween:
      return "(" + children[0]->ToString() + (negated ? " NOT" : "") +
             " BETWEEN " + children[1]->ToString() + " AND " +
             children[2]->ToString() + ")";
    case ExprKind::kInList: {
      std::string out = "(" + children[0]->ToString() +
                        (negated ? " NOT IN (" : " IN (");
      if (subquery != nullptr) {
        out += SelectToString(*subquery);
      } else {
        for (size_t i = 1; i < children.size(); ++i) {
          if (i > 1) out += ", ";
          out += children[i]->ToString();
        }
      }
      return out + "))";
    }
    case ExprKind::kSubquery:
      return "(" + SelectToString(*subquery) + ")";
    case ExprKind::kExists:
      return std::string(negated ? "NOT " : "") + "EXISTS (" +
             SelectToString(*subquery) + ")";
    case ExprKind::kFuncCall: {
      std::string out = name + "(";
      for (size_t i = 0; i < children.size(); ++i) {
        if (i > 0) out += ", ";
        out += children[i]->ToString();
      }
      return out + ")";
    }
  }
  return "?";
}

std::unique_ptr<Expr> MakeLiteral(storage::Value v) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kLiteral;
  e->literal = std::move(v);
  return e;
}

std::unique_ptr<Expr> MakeColumnRef(std::string table, std::string column) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kColumnRef;
  e->table = std::move(table);
  e->column = std::move(column);
  return e;
}

std::unique_ptr<Expr> MakeBinary(BinaryOp op, std::unique_ptr<Expr> lhs,
                                 std::unique_ptr<Expr> rhs) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kBinary;
  e->binary_op = op;
  e->children.push_back(std::move(lhs));
  e->children.push_back(std::move(rhs));
  return e;
}

std::unique_ptr<Expr> MakeUnary(UnaryOp op, std::unique_ptr<Expr> operand) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kUnary;
  e->unary_op = op;
  e->children.push_back(std::move(operand));
  return e;
}

bool IsAggregateFunction(std::string_view name) {
  return EqualsIgnoreCase(name, "count") || EqualsIgnoreCase(name, "sum") ||
         EqualsIgnoreCase(name, "avg") || EqualsIgnoreCase(name, "min") ||
         EqualsIgnoreCase(name, "max");
}

bool ContainsAggregate(const Expr& expr) {
  if (expr.kind == ExprKind::kFuncCall && IsAggregateFunction(expr.name)) {
    return true;
  }
  for (const auto& child : expr.children) {
    if (ContainsAggregate(*child)) return true;
  }
  return false;
}

namespace {

void AddTable(const std::string& table, std::vector<std::string>* out) {
  if (std::find(out->begin(), out->end(), table) == out->end()) {
    out->push_back(table);
  }
}

void CollectSelectTables(const SelectStmt& select,
                         std::vector<std::string>* out);

void CollectExprTables(const Expr* expr, std::vector<std::string>* out) {
  if (expr == nullptr) return;
  for (const auto& child : expr->children) CollectExprTables(child.get(), out);
  if (expr->subquery != nullptr) CollectSelectTables(*expr->subquery, out);
}

void CollectSelectTables(const SelectStmt& select,
                         std::vector<std::string>* out) {
  for (const TableRef& ref : select.from) {
    AddTable(ref.table, out);
    CollectExprTables(ref.join_condition.get(), out);
  }
  for (const SelectItem& item : select.items) {
    CollectExprTables(item.expr.get(), out);
  }
  CollectExprTables(select.where.get(), out);
  for (const auto& expr : select.group_by) CollectExprTables(expr.get(), out);
  CollectExprTables(select.having.get(), out);
  for (const OrderItem& item : select.order_by) {
    CollectExprTables(item.expr.get(), out);
  }
}

}  // namespace

std::vector<std::string> ReferencedTables(const Statement& stmt) {
  std::vector<std::string> tables;
  switch (stmt.kind) {
    case StatementKind::kSelect:
      CollectSelectTables(*stmt.select, &tables);
      break;
    case StatementKind::kInsert:
      AddTable(stmt.insert->table, &tables);
      if (stmt.insert->select != nullptr) {
        CollectSelectTables(*stmt.insert->select, &tables);
      }
      break;
    case StatementKind::kUpdate:
      AddTable(stmt.update->table, &tables);
      for (const auto& [column, expr] : stmt.update->assignments) {
        CollectExprTables(expr.get(), &tables);
      }
      CollectExprTables(stmt.update->where.get(), &tables);
      break;
    case StatementKind::kDelete:
      AddTable(stmt.del->table, &tables);
      CollectExprTables(stmt.del->where.get(), &tables);
      break;
    case StatementKind::kCopy:
      AddTable(stmt.copy->table, &tables);
      break;
    default:
      break;
  }
  return tables;
}

PrepareStmt::PrepareStmt() = default;
PrepareStmt::~PrepareStmt() = default;
PrepareStmt::PrepareStmt(PrepareStmt&&) noexcept = default;
PrepareStmt& PrepareStmt::operator=(PrepareStmt&&) noexcept = default;

Statement CloneStatement(const Statement& stmt) {
  Statement out;
  out.kind = stmt.kind;
  out.provenance = stmt.provenance;
  out.explain = stmt.explain;
  out.analyze = stmt.analyze;
  out.num_params = stmt.num_params;
  if (stmt.select != nullptr) out.select = CloneSelect(*stmt.select);
  if (stmt.insert != nullptr) {
    auto insert = std::make_unique<InsertStmt>();
    insert->table = stmt.insert->table;
    insert->columns = stmt.insert->columns;
    for (const auto& row : stmt.insert->rows) {
      std::vector<std::unique_ptr<Expr>> clone;
      clone.reserve(row.size());
      for (const auto& e : row) clone.push_back(e->Clone());
      insert->rows.push_back(std::move(clone));
    }
    if (stmt.insert->select != nullptr) {
      insert->select = CloneSelect(*stmt.insert->select);
    }
    out.insert = std::move(insert);
  }
  if (stmt.update != nullptr) {
    auto update = std::make_unique<UpdateStmt>();
    update->table = stmt.update->table;
    update->alias = stmt.update->alias;
    for (const auto& [col, e] : stmt.update->assignments) {
      update->assignments.emplace_back(col, e->Clone());
    }
    if (stmt.update->where != nullptr) {
      update->where = stmt.update->where->Clone();
    }
    out.update = std::move(update);
  }
  if (stmt.del != nullptr) {
    auto del = std::make_unique<DeleteStmt>();
    del->table = stmt.del->table;
    del->alias = stmt.del->alias;
    if (stmt.del->where != nullptr) del->where = stmt.del->where->Clone();
    out.del = std::move(del);
  }
  return out;
}

std::string InsertToString(const InsertStmt& insert) {
  std::string out = "INSERT INTO " + insert.table;
  if (!insert.columns.empty()) {
    out += " (";
    for (size_t i = 0; i < insert.columns.size(); ++i) {
      if (i > 0) out += ", ";
      out += insert.columns[i];
    }
    out += ")";
  }
  if (insert.select != nullptr) {
    return out + " " + SelectToString(*insert.select);
  }
  out += " VALUES ";
  for (size_t r = 0; r < insert.rows.size(); ++r) {
    if (r > 0) out += ", ";
    out += "(";
    for (size_t i = 0; i < insert.rows[r].size(); ++i) {
      if (i > 0) out += ", ";
      out += insert.rows[r][i]->ToString();
    }
    out += ")";
  }
  return out;
}

std::string UpdateToString(const UpdateStmt& update) {
  std::string out = "UPDATE " + update.table;
  if (!update.alias.empty()) out += " " + update.alias;
  out += " SET ";
  for (size_t i = 0; i < update.assignments.size(); ++i) {
    if (i > 0) out += ", ";
    out += update.assignments[i].first + " = " +
           update.assignments[i].second->ToString();
  }
  if (update.where != nullptr) out += " WHERE " + update.where->ToString();
  return out;
}

std::string DeleteToString(const DeleteStmt& del) {
  std::string out = "DELETE FROM " + del.table;
  if (!del.alias.empty()) out += " " + del.alias;
  if (del.where != nullptr) out += " WHERE " + del.where->ToString();
  return out;
}

std::string StatementToString(const Statement& stmt) {
  std::string prefix;
  if (stmt.provenance) prefix = "PROVENANCE ";
  switch (stmt.kind) {
    case StatementKind::kSelect:
      return prefix + SelectToString(*stmt.select);
    case StatementKind::kInsert:
      return prefix + InsertToString(*stmt.insert);
    case StatementKind::kUpdate:
      return prefix + UpdateToString(*stmt.update);
    case StatementKind::kDelete:
      return prefix + DeleteToString(*stmt.del);
    default:
      return prefix;  // only preparable kinds are rendered
  }
}

namespace {

Status SubstituteExpr(Expr* expr, const std::vector<storage::Value>& params) {
  if (expr->kind == ExprKind::kParameter) {
    if (expr->param_index < 0 ||
        expr->param_index >= static_cast<int>(params.size())) {
      return Status::InvalidArgument(
          "parameter $" + std::to_string(expr->param_index + 1) +
          " has no bound value (" + std::to_string(params.size()) +
          " supplied)");
    }
    expr->kind = ExprKind::kLiteral;
    expr->literal = params[expr->param_index];
    expr->param_index = -1;
    return Status::Ok();
  }
  for (auto& child : expr->children) {
    LDV_RETURN_IF_ERROR(SubstituteExpr(child.get(), params));
  }
  // Subqueries cannot contain placeholders (the parser rejects them), so
  // expr->subquery needs no walk.
  return Status::Ok();
}

template <typename Fn>
void VisitExprs(Expr* expr, const Fn& fn) {
  fn(expr);
  for (auto& child : expr->children) VisitExprs(child.get(), fn);
}

template <typename Fn>
void VisitSelectExprs(SelectStmt* select, const Fn& fn) {
  for (auto& item : select->items) VisitExprs(item.expr.get(), fn);
  for (auto& ref : select->from) {
    if (ref.join_condition != nullptr) {
      VisitExprs(ref.join_condition.get(), fn);
    }
  }
  if (select->where != nullptr) VisitExprs(select->where.get(), fn);
  for (auto& g : select->group_by) VisitExprs(g.get(), fn);
  if (select->having != nullptr) VisitExprs(select->having.get(), fn);
  for (auto& o : select->order_by) VisitExprs(o.expr.get(), fn);
}

template <typename Fn>
void VisitStatementExprs(Statement* stmt, const Fn& fn) {
  if (stmt->select != nullptr) VisitSelectExprs(stmt->select.get(), fn);
  if (stmt->insert != nullptr) {
    for (auto& row : stmt->insert->rows) {
      for (auto& e : row) VisitExprs(e.get(), fn);
    }
    if (stmt->insert->select != nullptr) {
      VisitSelectExprs(stmt->insert->select.get(), fn);
    }
  }
  if (stmt->update != nullptr) {
    for (auto& [col, e] : stmt->update->assignments) VisitExprs(e.get(), fn);
    if (stmt->update->where != nullptr) {
      VisitExprs(stmt->update->where.get(), fn);
    }
  }
  if (stmt->del != nullptr && stmt->del->where != nullptr) {
    VisitExprs(stmt->del->where.get(), fn);
  }
}

}  // namespace

Status SubstituteParameters(Statement* stmt,
                            const std::vector<storage::Value>& params) {
  Status status = Status::Ok();
  VisitStatementExprs(stmt, [&](Expr* e) {
    if (!status.ok()) return;
    if (e->kind == ExprKind::kParameter) {
      status = SubstituteExpr(e, params);
    }
  });
  LDV_RETURN_IF_ERROR(status);
  stmt->num_params = 0;
  return Status::Ok();
}

void AnnotateParameterTypes(Statement* stmt,
                            const std::vector<storage::ValueType>& types) {
  VisitStatementExprs(stmt, [&](Expr* e) {
    if (e->kind == ExprKind::kParameter && e->param_index >= 0 &&
        e->param_index < static_cast<int>(types.size())) {
      e->param_type = types[e->param_index];
    }
  });
}

}  // namespace ldv::sql
