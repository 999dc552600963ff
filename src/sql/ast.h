#ifndef LDV_SQL_AST_H_
#define LDV_SQL_AST_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/schema.h"
#include "storage/value.h"

namespace ldv::sql {

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

enum class ExprKind : uint8_t {
  kLiteral,
  kColumnRef,
  kStar,      // '*' or 'alias.*' inside COUNT(*) / select list
  kUnary,
  kBinary,
  kBetween,   // children: value, low, high
  kInList,    // children: value, item... — or value + `subquery`
  kFuncCall,  // children: args; name in `name`
  kSubquery,  // scalar subquery: `subquery` set, no children
  kExists,    // EXISTS (subquery): `subquery` set
  kParameter,  // ? / $N placeholder, bound at EXECUTE time
};

enum class BinaryOp : uint8_t {
  kEq,
  kNe,
  kLt,
  kLe,
  kGt,
  kGe,
  kAnd,
  kOr,
  kAdd,
  kSub,
  kMul,
  kDiv,
  kMod,
  kLike,
  kNotLike,
  kConcat,
};

enum class UnaryOp : uint8_t {
  kNot,
  kNeg,
  kIsNull,
  kIsNotNull,
};

struct SelectStmt;

/// Expression tree node. A single struct with a kind tag keeps cloning and
/// serialization straightforward.
struct Expr {
  ExprKind kind = ExprKind::kLiteral;

  storage::Value literal;  // kLiteral
  std::string table;       // kColumnRef/kStar qualifier (may be empty)
  std::string column;      // kColumnRef column name
  std::string name;        // kFuncCall function name (upper-cased)
  BinaryOp binary_op = BinaryOp::kEq;
  UnaryOp unary_op = UnaryOp::kNot;
  bool negated = false;  // NOT BETWEEN / NOT IN / NOT EXISTS
  /// kParameter: 0-based position (`?` assigns the next free slot, `$N`
  /// maps to N-1), and the value type the binder should assume. The parser
  /// leaves param_type as kNull; the plan cache stamps it per execution's
  /// parameter-type signature so a cached plan binds exactly like the same
  /// statement with literals inlined.
  int param_index = -1;
  storage::ValueType param_type = storage::ValueType::kNull;
  std::vector<std::unique_ptr<Expr>> children;
  /// kSubquery / kExists / kInList-over-subquery (uncorrelated).
  std::unique_ptr<SelectStmt> subquery;

  Expr();
  ~Expr();
  Expr(Expr&&) noexcept;
  Expr& operator=(Expr&&) noexcept;

  std::unique_ptr<Expr> Clone() const;
  /// SQL-ish rendering, used in trace labels and error messages. Renders a
  /// form that re-parses to an equivalent expression.
  std::string ToString() const;
};

std::unique_ptr<Expr> MakeLiteral(storage::Value v);
std::unique_ptr<Expr> MakeColumnRef(std::string table, std::string column);
std::unique_ptr<Expr> MakeBinary(BinaryOp op, std::unique_ptr<Expr> lhs,
                                 std::unique_ptr<Expr> rhs);
std::unique_ptr<Expr> MakeUnary(UnaryOp op, std::unique_ptr<Expr> operand);

/// True if the function name is one of the supported aggregates
/// (COUNT/SUM/AVG/MIN/MAX).
bool IsAggregateFunction(std::string_view name);

/// True if any node in the tree is an aggregate call.
bool ContainsAggregate(const Expr& expr);

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

enum class StatementKind : uint8_t {
  kSelect,
  kInsert,
  kUpdate,
  kDelete,
  kCreateTable,
  kDropTable,
  kAlterTableAddColumn,
  kCreateIndex,
  kCopy,
  kTransaction,  // BEGIN/COMMIT/ROLLBACK — accepted, no-ops
  kPrepare,      // PREPARE name AS <statement>
  kExecute,      // EXECUTE name (args...)
  kDeallocate,   // DEALLOCATE [PREPARE] name | ALL
};

struct SelectItem {
  std::unique_ptr<Expr> expr;
  std::string alias;  // empty when none
};

/// How a FROM entry joins the entries before it.
enum class JoinType : uint8_t { kInner, kLeft };

struct TableRef {
  std::string table;
  std::string alias;  // defaults to table name
  JoinType join_type = JoinType::kInner;
  /// Explicit ON condition ([INNER|LEFT] JOIN ... ON ...); null for
  /// comma-list entries.
  std::unique_ptr<Expr> join_condition;

  const std::string& EffectiveName() const {
    return alias.empty() ? table : alias;
  }
};

struct OrderItem {
  std::unique_ptr<Expr> expr;
  bool ascending = true;
};

struct SelectStmt {
  bool distinct = false;
  std::vector<SelectItem> items;
  std::vector<TableRef> from;
  std::unique_ptr<Expr> where;          // may be null
  std::vector<std::unique_ptr<Expr>> group_by;
  std::unique_ptr<Expr> having;         // may be null
  std::vector<OrderItem> order_by;
  std::optional<int64_t> limit;
};

struct InsertStmt {
  std::string table;
  std::vector<std::string> columns;  // empty = all, schema order
  /// Literal rows (VALUES ...); empty when `select` is set.
  std::vector<std::vector<std::unique_ptr<Expr>>> rows;
  std::unique_ptr<SelectStmt> select;  // INSERT ... SELECT
};

struct UpdateStmt {
  std::string table;
  std::string alias;
  std::vector<std::pair<std::string, std::unique_ptr<Expr>>> assignments;
  std::unique_ptr<Expr> where;  // may be null
};

struct DeleteStmt {
  std::string table;
  std::string alias;
  std::unique_ptr<Expr> where;  // may be null
};

struct CreateTableStmt {
  std::string table;
  bool if_not_exists = false;
  std::vector<storage::Column> columns;
};

struct DropTableStmt {
  std::string table;
  bool if_exists = false;
};

struct AlterTableAddColumnStmt {
  std::string table;
  storage::Column column;
};

/// CREATE INDEX <name> ON <table> (<column>) — a hash index for equality
/// probes (point lookups and reenactment WHERE clauses).
struct CreateIndexStmt {
  std::string index_name;
  std::string table;
  std::string column;
  bool if_not_exists = false;
};

/// COPY <table> FROM '<path>' (CSV) — the bulk-load utility the paper assumes
/// applications may use.
struct CopyStmt {
  std::string table;
  std::string path;
  bool from = true;  // COPY ... FROM; false = COPY ... TO
};

struct TransactionStmt {
  enum class Kind { kBegin, kCommit, kRollback } kind = Kind::kBegin;
};

struct Statement;

/// PREPARE <name> AS <statement>. The body is any preparable statement
/// (SELECT/INSERT/UPDATE/DELETE) and may contain `?` / `$N` placeholders.
struct PrepareStmt {
  std::string name;
  std::unique_ptr<Statement> body;

  PrepareStmt();
  ~PrepareStmt();
  PrepareStmt(PrepareStmt&&) noexcept;
  PrepareStmt& operator=(PrepareStmt&&) noexcept;
};

/// EXECUTE <name> [(arg, ...)]. Arguments are constant expressions
/// evaluated at execute time and bound to the body's placeholders.
struct ExecuteStmt {
  std::string name;
  std::vector<std::unique_ptr<Expr>> args;
};

/// DEALLOCATE [PREPARE] <name> | ALL.
struct DeallocateStmt {
  std::string name;  // empty when `all`
  bool all = false;
};

/// A parsed statement. Exactly one member (per `kind`) is populated.
struct Statement {
  StatementKind kind = StatementKind::kSelect;
  /// Perm-style PROVENANCE prefix: the engine returns Lineage for the
  /// statement's results (paper §VII-B/C).
  bool provenance = false;
  /// EXPLAIN [ANALYZE] prefix: render the plan instead of the query result;
  /// ANALYZE also executes and reports per-operator rows/timings.
  bool explain = false;
  bool analyze = false;
  /// Number of placeholder slots this statement references (max over `?`
  /// positions and `$N` indices); 0 for ordinary statements.
  int num_params = 0;

  std::unique_ptr<SelectStmt> select;
  std::unique_ptr<InsertStmt> insert;
  std::unique_ptr<UpdateStmt> update;
  std::unique_ptr<DeleteStmt> del;
  std::unique_ptr<CreateTableStmt> create_table;
  std::unique_ptr<DropTableStmt> drop_table;
  std::unique_ptr<AlterTableAddColumnStmt> alter_table;
  std::unique_ptr<CreateIndexStmt> create_index;
  std::unique_ptr<CopyStmt> copy;
  std::unique_ptr<TransactionStmt> transaction;
  std::unique_ptr<PrepareStmt> prepare;
  std::unique_ptr<ExecuteStmt> execute;
  std::unique_ptr<DeallocateStmt> deallocate;
};

/// Deep copy / rendering of a SELECT (used by Expr::Clone / Expr::ToString
/// for subqueries).
std::unique_ptr<SelectStmt> CloneSelect(const SelectStmt& select);
std::string SelectToString(const SelectStmt& select);

/// Deep copy of a whole statement (plan-cache AST entries are shared and
/// cloned per use; only preparable kinds — SELECT/INSERT/UPDATE/DELETE —
/// plus the flags and num_params are copied).
Statement CloneStatement(const Statement& stmt);

/// Every table `stmt` reads or writes, each once, in first-appearance order:
/// the INSERT/UPDATE/DELETE/COPY target first, then FROM and JOIN entries
/// and the tables of subqueries in any clause (JOIN ... ON, select list,
/// WHERE, GROUP BY, HAVING, ORDER BY, INSERT ... SELECT, UPDATE SET). Names
/// are as written; resolving them is the caller's business.
std::vector<std::string> ReferencedTables(const Statement& stmt);

/// SQL rendering of a statement that re-parses to an equivalent statement.
/// Supports SELECT/INSERT/UPDATE/DELETE (the WAL logs the rendered text of
/// parameter-substituted DML). Doubles render with enough digits to
/// round-trip exactly and always with a '.' or exponent so the re-parsed
/// literal stays a double.
std::string StatementToString(const Statement& stmt);
std::string InsertToString(const InsertStmt& insert);
std::string UpdateToString(const UpdateStmt& update);
std::string DeleteToString(const DeleteStmt& del);

/// Replaces every kParameter node in `stmt` (in place) with a kLiteral of
/// the corresponding value. Errors if a placeholder index is out of range.
Status SubstituteParameters(Statement* stmt,
                            const std::vector<storage::Value>& params);

/// Stamps Expr::param_type on every kParameter node from `types` (indexed
/// by param_index) so binding infers the same result types the same
/// statement with literals inlined would.
void AnnotateParameterTypes(Statement* stmt,
                            const std::vector<storage::ValueType>& types);

}  // namespace ldv::sql

#endif  // LDV_SQL_AST_H_
