#ifndef LDV_EXEC_EXECUTOR_H_
#define LDV_EXEC_EXECUTOR_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "exec/operators.h"
#include "obs/profile.h"
#include "sql/ast.h"
#include "storage/database.h"

namespace ldv::exec {

struct SelectPlan;

/// One tuple version referenced by a statement's provenance, with its values
/// snapshot — what Perm's rewritten query returns alongside the results and
/// what the packager persists into the package's CSV files.
struct ProvTupleRecord {
  storage::TupleVid vid;
  std::string table;
  storage::Tuple values;
};

/// Provenance of one DML effect.
struct DmlRecord {
  enum class Kind { kInserted, kUpdated, kDeleted };
  Kind kind = Kind::kInserted;
  std::string table;
  /// The created tuple version (insert/update); for deletes, the removed
  /// version.
  storage::TupleVid vid;
  /// The prior version the statement read (update/delete).
  storage::TupleVid prior;
  bool has_prior = false;
};

/// Result of executing one statement.
struct ResultSet {
  storage::Schema schema;
  std::vector<storage::Tuple> rows;
  /// Per-row Lineage (parallel to rows) when provenance was requested.
  std::vector<LineageSet> lineage;
  /// Values of every distinct tuple version appearing in `lineage` or as a
  /// DML prior version.
  std::vector<ProvTupleRecord> prov_tuples;
  std::vector<DmlRecord> dml;
  int64_t affected = 0;
  bool has_provenance = false;
  /// Per-operator execution statistics, set when the statement ran with
  /// ExecOptions::profile (EXPLAIN ANALYZE). Not serialized over the wire;
  /// remote clients see the rendered QUERY PLAN rows instead.
  std::shared_ptr<const obs::QueryProfile> profile;

  /// Deterministic fingerprint of schema+rows, used by replay equivalence
  /// tests.
  uint64_t Fingerprint() const;
};

/// Per-statement execution options: the identifiers the (auditing) client
/// library assigned.
struct ExecOptions {
  int64_t query_id = 0;
  int64_t process_id = 0;
  /// Collect per-operator stats and attach a QueryProfile to the result.
  bool profile = false;
  /// Degree of parallelism for morsel-driven operators: number of threads
  /// (including the caller) a SELECT's scans and kernels may use. 0 = the
  /// process default (ThreadPool::default_dop(), i.e. the --threads flag),
  /// 1 = serial. Results are bit-identical at any value.
  int threads = 0;
  /// Cooperative cancellation token + memory budget for this statement; may
  /// be null (internal statements run ungoverned). Owned by the caller and
  /// must outlive the Execute call (DESIGN.md §11).
  QueryGovernor* governor = nullptr;
  /// Read at this snapshot epoch instead of the live state (DESIGN.md §12).
  /// Set by the engine's concurrent read path; 0 = live state.
  int64_t snapshot_epoch = 0;
};

/// The query/DML engine over one Database. Statements carrying the
/// PROVENANCE prefix additionally return Lineage (queries) or reenactment
/// provenance (updates/deletes computed against the pre-state, GProM-style).
class Executor {
 public:
  explicit Executor(storage::Database* db) : db_(db) {}

  /// Parses and executes one statement.
  Result<ResultSet> Execute(std::string_view sql, const ExecOptions& options);

  /// Executes an already-parsed statement.
  Result<ResultSet> ExecuteParsed(const sql::Statement& stmt,
                                  const ExecOptions& options);

  /// Executes a prebuilt (shared, plan-cache) SELECT plan with `params`
  /// bound to its kParameter slots. The plan tree is treated as immutable:
  /// ExecContext::frozen_plan is set, so per-node stats/instrumentation are
  /// never touched and concurrent callers may share one tree. No lineage,
  /// profiling, or subqueries — PlanCacheEligible statements only.
  Result<ResultSet> ExecutePlanned(SelectPlan& plan,
                                   const storage::Tuple& params,
                                   const ExecOptions& options);

  storage::Database* db() { return db_; }

 private:
  Result<ResultSet> ExecSelect(const sql::SelectStmt& select, bool provenance,
                               const ExecOptions& options);
  /// EXPLAIN [ANALYZE] <select>: returns one "QUERY PLAN" text column, one
  /// row per plan-tree line (Postgres style). ANALYZE executes the query
  /// with profiling and attaches the structured profile to the result.
  Result<ResultSet> ExecExplain(const sql::Statement& stmt,
                                const ExecOptions& options);
  Result<ResultSet> ExecInsert(const sql::InsertStmt& insert, bool provenance,
                               const ExecOptions& options);
  Result<ResultSet> ExecCreateTable(const sql::CreateTableStmt& create);
  Result<ResultSet> ExecDropTable(const sql::DropTableStmt& drop);
  Result<ResultSet> ExecAlterTable(const sql::AlterTableAddColumnStmt& alter);
  Result<ResultSet> ExecCreateIndex(const sql::CreateIndexStmt& create);
  Result<ResultSet> ExecCopy(const sql::CopyStmt& copy);

  /// Evaluates every uncorrelated subquery in `expr`, replacing it with its
  /// computed value(s). Under provenance, the tuples the subqueries read are
  /// accumulated as ambient lineage — conservatively, every outer result row
  /// depends on them.
  Result<std::unique_ptr<sql::Expr>> FlattenExpr(
      const sql::Expr& expr, bool provenance, const ExecOptions& options,
      LineageSet* ambient_lineage, std::vector<ProvTupleRecord>* ambient);

  /// Clone of `select` with all subqueries flattened (null when `select`
  /// contains none).
  Result<std::unique_ptr<sql::SelectStmt>> FlattenSelect(
      const sql::SelectStmt& select, bool provenance,
      const ExecOptions& options, LineageSet* ambient_lineage,
      std::vector<ProvTupleRecord>* ambient);

  storage::Database* db_;
};

/// Converts the ExecContext prov-tuple map into sorted ProvTupleRecords.
std::vector<ProvTupleRecord> CollectProvTuples(const ExecContext& ctx,
                                               const storage::Database& db);

}  // namespace ldv::exec

#endif  // LDV_EXEC_EXECUTOR_H_
