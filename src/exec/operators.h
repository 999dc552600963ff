#ifndef LDV_EXEC_OPERATORS_H_
#define LDV_EXEC_OPERATORS_H_

#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "exec/column_batch.h"
#include "exec/expression.h"
#include "exec/governor.h"
#include "storage/database.h"
#include "util/thread_pool.h"

namespace ldv::exec {

/// Shared state for one statement execution.
struct ExecContext {
  storage::Database* db = nullptr;
  /// Perm-style provenance computation requested for this statement.
  bool track_lineage = false;
  /// Collect per-operator execution statistics (EXPLAIN ANALYZE). Off by
  /// default so the instrumentation costs a single branch per operator.
  bool profile = false;
  /// Identifiers the auditing client assigned (paper §VII-C); stamped into
  /// the prov_usedby / prov_p metadata of every tuple a lineage-tracked scan
  /// reads.
  int64_t query_id = 0;
  int64_t process_id = 0;
  /// Lineage contributed by flattened (uncorrelated) subqueries: every
  /// result row of the outer query conservatively depends on the tuples the
  /// subquery read, since they decided its predicate values.
  LineageSet ambient_lineage;
  /// Values of every tuple version that appeared in some lineage set,
  /// collected so the caller can persist provenance without re-querying.
  /// Points at the scanned row versions themselves: a lineage-tracked
  /// statement runs with the tables it reads held still, and
  /// CollectProvTuples copies the values out before ExecSelect returns.
  std::unordered_map<storage::TupleVid, const storage::Tuple*,
                     storage::TupleVidHash>
      prov_tuples;
  /// Worker pool for morsel-parallel operators; null or dop <= 1 runs every
  /// operator on the calling thread (the decomposition stays the same, so
  /// results are identical — see kMorselRows).
  ThreadPool* pool = nullptr;
  int dop = 1;
  /// Cooperative cancellation token + per-query memory budget; may be null
  /// (tests, internal statements). Operators call CheckGovernor() at every
  /// morsel boundary and expression-loop stride and ChargeMemory() when
  /// they materialize (DESIGN.md §11).
  QueryGovernor* governor = nullptr;
  /// Snapshot-isolated read (DESIGN.md §12): scans resolve each row to the
  /// newest version created at or before this epoch, so the statement sees
  /// a frozen committed state regardless of concurrent writers. 0 reads the
  /// live current state (DML, transactions, provenance, internal reads).
  /// Snapshot reads never run with track_lineage (lineage stamps mutate the
  /// rows being scanned).
  int64_t snapshot_epoch = 0;
  /// Bound parameter values for kParameter expressions (EXECUTE of a cached
  /// plan); null when the statement has no placeholders.
  const storage::Tuple* params = nullptr;
  /// Set when the plan tree is shared (plan cache): the node's stats_ must
  /// never be mutated — the same tree may execute concurrently on other
  /// threads. Shared plans are only handed out for non-profiled,
  /// non-traced executions, and this flag keeps a mid-execution
  /// TraceRecorder::Enable from racing onto them.
  bool frozen_plan = false;

  bool parallel() const { return pool != nullptr && dop > 1; }

  /// The cooperative cancellation check, inlined to a null test plus one
  /// relaxed-ish atomic load on the fast path.
  Status CheckGovernor() {
    return governor == nullptr ? Status::Ok() : governor->Check();
  }

  /// Charges `bytes` against the statement's memory budget (no-op without
  /// a governor).
  Status ChargeMemory(size_t bytes) {
    return governor == nullptr ? Status::Ok()
                               : governor->ChargeMemory(bytes);
  }
};

/// Execution statistics one operator accumulates while profiling or tracing
/// is on. Plan trees are built per statement, so counts start at zero.
struct OpStats {
  int64_t rows_out = 0;
  int64_t invocations = 0;
  /// Inclusive wall time (children included), like EXPLAIN ANALYZE.
  int64_t wall_nanos = 0;
  /// Hash-join only: time spent building the hash table vs. probing it
  /// (children excluded). Zero for every other operator.
  int64_t build_nanos = 0;
  int64_t probe_nanos = 0;
  /// Morsels this operator fanned out over the pool (0 when it ran the
  /// plain serial path).
  int64_t parallel_morsels = 0;
  /// Degree of parallelism of those fan-outs (max over invocations).
  int64_t parallel_workers = 0;
  /// CPU time summed across workers for the parallel sections; compared
  /// against wall_nanos this shows the wall/CPU split in EXPLAIN ANALYZE.
  int64_t cpu_nanos = 0;
  /// Morsel batches this operator's kernels processed.
  int64_t vector_batches = 0;
};

/// Base class of the materialized operator tree. Execute() returns the full
/// result as one ColumnBatch; schema()/scope() describe its column layout.
class PlanNode {
 public:
  virtual ~PlanNode() = default;

  /// Runs the operator. When neither profiling (ctx->profile) nor tracing
  /// (obs::TraceRecorder) is active this is a single predicted branch in
  /// front of the operator logic; otherwise it times the call, accumulates
  /// `stats()` and emits an "exec" trace span. Results — rows, order and
  /// lineage — are identical at any DOP.
  Result<ColumnBatch> Execute(ExecContext* ctx);

  const Scope& scope() const { return scope_; }

  /// Operator name shown in EXPLAIN output and trace spans ("HashJoin",
  /// "Scan", ...).
  virtual std::string label() const = 0;
  /// Operator-specific annotation (table name, join keys, ...); may be "".
  virtual std::string detail() const { return ""; }
  /// Child operators in plan order, for profile-tree extraction.
  virtual std::vector<const PlanNode*> children() const { return {}; }

  const OpStats& stats() const { return stats_; }

 protected:
  /// The operator logic; subclasses implement this instead of Execute().
  virtual Result<ColumnBatch> Produce(ExecContext* ctx) = 0;

  /// Records morsel batches this operator's kernels processed (the
  /// exec.vectorized.batches counter and, unless the plan is shared,
  /// stats().vector_batches).
  void CountBatches(ExecContext* ctx, size_t batches);

  Scope scope_;
  OpStats stats_;

 private:
  Result<ColumnBatch> ExecuteInstrumented(ExecContext* ctx);
};

/// Materializes the root's batch as rows (parallel over morsels).
Result<std::vector<storage::Tuple>> ColumnarToRows(ExecContext* ctx,
                                                   const ColumnBatch& in);

/// Sequential scan with optional pushed-down filter, extracting typed
/// columns per morsel. When lineage tracking is on, every emitted row
/// carries its TupleVid and has its usedby/process metadata stamped.
class ScanNode final : public PlanNode {
 public:
  /// `expose_prov_columns` appends the four prov_* pseudo-columns (hidden)
  /// to the output layout.
  ScanNode(storage::Table* table, const std::string& alias,
           bool expose_prov_columns);

  /// Filter over this scan's scope; may be null. Set after construction so
  /// the caller can bind against scope().
  void set_filter(std::unique_ptr<BoundExpr> filter) {
    filter_ = std::move(filter);
  }
  const BoundExpr* filter() const { return filter_.get(); }

  /// Access-path hint: fetch candidate rows through the table's hash index
  /// on `column` (a table column index) for rows equal to `value`. The
  /// filter still runs; the probe only narrows the rows visited.
  void set_index_probe(int column, storage::Value value) {
    probe_column_ = column;
    probe_value_ = std::move(value);
  }
  bool has_index_probe() const { return probe_column_ >= 0; }

  /// Planner hint: the query takes at most `limit` rows of this scan in
  /// emission order (LIMIT with no ORDER BY / aggregation / join above), so
  /// the scan may stop at the first morsel boundary where the limit is
  /// reached instead of materializing the full table. Ignored for
  /// lineage-tracked statements (they stamp every row they read).
  void set_limit_hint(int64_t limit) { limit_hint_ = limit; }
  int64_t limit_hint() const { return limit_hint_; }

  bool exposes_prov_columns() const { return expose_prov_columns_; }
  const storage::Table* table() const { return table_; }

  std::string label() const override { return "Scan"; }
  std::string detail() const override;

 protected:
  Result<ColumnBatch> Produce(ExecContext* ctx) override;

 private:
  storage::Table* table_;
  std::string alias_;
  bool expose_prov_columns_;
  std::unique_ptr<BoundExpr> filter_;
  int probe_column_ = -1;
  storage::Value probe_value_;
  int64_t limit_hint_ = -1;
};

/// Hash join (equi keys) with optional residual predicate, evaluated over the
/// gathered candidate pairs; a nested loop when no keys are given.
/// `left_outer` emits unmatched left rows padded with NULLs (their lineage
/// is the left side's alone).
class JoinNode final : public PlanNode {
 public:
  JoinNode(std::unique_ptr<PlanNode> left, std::unique_ptr<PlanNode> right,
           std::vector<std::pair<int, int>> key_pairs,
           bool left_outer = false);

  void set_residual(std::unique_ptr<BoundExpr> residual) {
    residual_ = std::move(residual);
  }
  const std::vector<std::pair<int, int>>& key_pairs() const {
    return key_pairs_;
  }
  const BoundExpr* residual() const { return residual_.get(); }
  bool left_outer() const { return left_outer_; }

  std::string label() const override {
    return key_pairs_.empty() ? "NestedLoopJoin" : "HashJoin";
  }
  std::string detail() const override;
  std::vector<const PlanNode*> children() const override {
    return {left_.get(), right_.get()};
  }

 protected:
  Result<ColumnBatch> Produce(ExecContext* ctx) override;

 private:
  std::unique_ptr<PlanNode> left_;
  std::unique_ptr<PlanNode> right_;
  /// Pairs of (left scope index, right scope index) equi-join keys.
  std::vector<std::pair<int, int>> key_pairs_;
  std::unique_ptr<BoundExpr> residual_;
  bool left_outer_;
};

/// Filters rows by a predicate bound to the child scope.
class FilterNode final : public PlanNode {
 public:
  FilterNode(std::unique_ptr<PlanNode> child,
             std::unique_ptr<BoundExpr> predicate);

  std::string label() const override { return "Filter"; }
  const BoundExpr& predicate() const { return *predicate_; }
  std::vector<const PlanNode*> children() const override {
    return {child_.get()};
  }

 protected:
  Result<ColumnBatch> Produce(ExecContext* ctx) override;

 private:
  std::unique_ptr<PlanNode> child_;
  std::unique_ptr<BoundExpr> predicate_;
};

/// Evaluates output expressions; the scope is built from provided names.
class ProjectNode final : public PlanNode {
 public:
  ProjectNode(std::unique_ptr<PlanNode> child,
              std::vector<std::unique_ptr<BoundExpr>> exprs,
              std::vector<std::string> names);

  std::string label() const override { return "Project"; }
  const std::vector<std::unique_ptr<BoundExpr>>& exprs() const {
    return exprs_;
  }
  std::vector<const PlanNode*> children() const override {
    return {child_.get()};
  }

 protected:
  Result<ColumnBatch> Produce(ExecContext* ctx) override;

 private:
  std::unique_ptr<PlanNode> child_;
  std::vector<std::unique_ptr<BoundExpr>> exprs_;
};

/// One aggregate computation over a group.
struct AggregateSpec {
  enum class Fn { kCountStar, kCount, kSum, kAvg, kMin, kMax };
  Fn fn = Fn::kCountStar;
  std::unique_ptr<BoundExpr> arg;  // null for COUNT(*)
  std::string output_name;         // synthetic "#aggN"
  storage::ValueType output_type = storage::ValueType::kInt64;
};

/// Hash aggregation. Output layout: group key columns (named "#grpN") then
/// one column per aggregate ("#aggN"). The lineage of an output row is the
/// union of the lineage of its group's input rows — exactly the Lineage
/// semantics the paper's Example 4 illustrates.
class AggregateNode final : public PlanNode {
 public:
  AggregateNode(std::unique_ptr<PlanNode> child,
                std::vector<std::unique_ptr<BoundExpr>> group_exprs,
                std::vector<AggregateSpec> aggs);

  std::string label() const override { return "Aggregate"; }
  const std::vector<std::unique_ptr<BoundExpr>>& group_exprs() const {
    return group_exprs_;
  }
  const std::vector<AggregateSpec>& aggs() const { return aggs_; }
  std::string detail() const override;
  std::vector<const PlanNode*> children() const override {
    return {child_.get()};
  }

 protected:
  Result<ColumnBatch> Produce(ExecContext* ctx) override;

 private:
  std::unique_ptr<PlanNode> child_;
  std::vector<std::unique_ptr<BoundExpr>> group_exprs_;
  std::vector<AggregateSpec> aggs_;
};

/// DISTINCT on all output columns; lineage of a kept row is the union over
/// its duplicates.
class DistinctNode final : public PlanNode {
 public:
  explicit DistinctNode(std::unique_ptr<PlanNode> child);

  std::string label() const override { return "Distinct"; }
  std::vector<const PlanNode*> children() const override {
    return {child_.get()};
  }

 protected:
  Result<ColumnBatch> Produce(ExecContext* ctx) override;

 private:
  std::unique_ptr<PlanNode> child_;
};

/// ORDER BY (stable) + optional LIMIT.
class SortLimitNode final : public PlanNode {
 public:
  struct SortKey {
    std::unique_ptr<BoundExpr> expr;
    bool ascending = true;
  };
  SortLimitNode(std::unique_ptr<PlanNode> child, std::vector<SortKey> keys,
                std::optional<int64_t> limit);

  std::string label() const override { return "SortLimit"; }
  const std::vector<SortKey>& keys() const { return keys_; }
  std::optional<int64_t> limit() const { return limit_; }
  std::string detail() const override;
  std::vector<const PlanNode*> children() const override {
    return {child_.get()};
  }

 protected:
  Result<ColumnBatch> Produce(ExecContext* ctx) override;

 private:
  std::unique_ptr<PlanNode> child_;
  std::vector<SortKey> keys_;
  std::optional<int64_t> limit_;
};

/// Appends `src` lineage entries into `dst` keeping it sorted and unique.
void MergeLineage(LineageSet* dst, const LineageSet& src);

}  // namespace ldv::exec

#endif  // LDV_EXEC_OPERATORS_H_
