#include "exec/operators.h"

#include <algorithm>
#include <atomic>
#include <optional>

#include "common/clock.h"
#include "exec/exec_internal.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "util/strings.h"

namespace ldv::exec {

using storage::Tuple;
using storage::Value;
using storage::ValueType;

// ---------------------------------------------------------------------------
// PlanNode instrumentation
// ---------------------------------------------------------------------------

Result<ColumnBatch> PlanNode::Execute(ExecContext* ctx) {
  // Shared (cached) plan trees may execute concurrently: never touch
  // stats_, even if tracing got enabled mid-execution.
  if (ctx->frozen_plan || (!ctx->profile && !obs::TraceRecorder::enabled())) {
    return Produce(ctx);
  }
  return ExecuteInstrumented(ctx);
}

Result<ColumnBatch> PlanNode::ExecuteInstrumented(ExecContext* ctx) {
  obs::Span span(label(), "exec");
  if (span.recording()) {
    std::string d = detail();
    if (!d.empty()) span.AddArg("detail", d);
  }
  const int64_t start = NowNanos();
  const int64_t batches_before = stats_.vector_batches;
  Result<ColumnBatch> result = Produce(ctx);
  stats_.wall_nanos += NowNanos() - start;
  ++stats_.invocations;
  if (result.ok()) {
    stats_.rows_out += static_cast<int64_t>(result->num_rows);
    if (span.recording()) {
      span.AddArg("rows_out", std::to_string(result->num_rows));
      if (stats_.vector_batches > batches_before) {
        span.AddArg("batches",
                    std::to_string(stats_.vector_batches - batches_before));
      }
      if (stats_.parallel_morsels > 0) {
        span.AddArg("morsels", std::to_string(stats_.parallel_morsels));
        span.AddArg("workers", std::to_string(stats_.parallel_workers));
      }
    }
  }
  return result;
}

void MergeLineage(LineageSet* dst, const LineageSet& src) {
  if (src.empty()) return;
  size_t old_size = dst->size();
  dst->insert(dst->end(), src.begin(), src.end());
  std::inplace_merge(dst->begin(), dst->begin() + static_cast<long>(old_size),
                     dst->end());
  dst->erase(std::unique(dst->begin(), dst->end()), dst->end());
}

namespace {

/// Counters the parallel fan-outs and batch kernels feed; resolved once (registry lookups
/// take a mutex, Add() is a relaxed sharded increment).
struct ExecMetrics {
  obs::Counter* fanouts;
  obs::Counter* morsels;
  obs::Counter* batches;
};

const ExecMetrics& GetExecMetrics() {
  static const ExecMetrics metrics{
      obs::MetricsRegistry::Global().counter("exec.parallel.fanouts"),
      obs::MetricsRegistry::Global().counter("exec.parallel.morsels"),
      obs::MetricsRegistry::Global().counter("exec.vectorized.batches")};
  return metrics;
}

}  // namespace

void PlanNode::CountBatches(ExecContext* ctx, size_t batches) {
  if (batches == 0) return;
  GetExecMetrics().batches->Add(static_cast<int64_t>(batches));
  if (!ctx->frozen_plan) {
    stats_.vector_batches += static_cast<int64_t>(batches);
  }
}

namespace internal {

size_t NumMorsels(size_t n) { return (n + kMorselRows - 1) / kMorselRows; }

Status RunMorsels(ExecContext* ctx, OpStats* stats, size_t n,
                  const std::function<Status(size_t, size_t, size_t)>& fn) {
  const size_t num_morsels = NumMorsels(n);
  if (!ctx->parallel() || num_morsels <= 1) {
    for (size_t m = 0; m < num_morsels; ++m) {
      // Cooperative cancellation at every morsel boundary: a CANCEL, an
      // expired deadline or a vanished client is observed within one
      // morsel's worth of work.
      LDV_RETURN_IF_ERROR(ctx->CheckGovernor());
      const size_t begin = m * kMorselRows;
      LDV_RETURN_IF_ERROR(fn(begin, std::min(n, begin + kMorselRows), m));
    }
    return Status::Ok();
  }
  std::atomic<int64_t> cpu{0};
  const bool timing = ctx->profile;
  // The governor check leads every pooled morsel: once a statement is
  // cancelled, its remaining queued morsels return immediately, which is
  // what hands the ThreadPool slots back promptly.
  auto timed = [&](size_t begin, size_t end, size_t morsel) -> Status {
    LDV_RETURN_IF_ERROR(ctx->CheckGovernor());
    if (!timing) return fn(begin, end, morsel);
    const int64_t start = NowNanos();
    Status status = fn(begin, end, morsel);
    cpu.fetch_add(NowNanos() - start, std::memory_order_relaxed);
    return status;
  };
  Status status = ctx->pool->ParallelFor(n, kMorselRows, timed, ctx->dop);
  if (ctx->frozen_plan) stats = nullptr;  // shared plan: stats are read-only
  if (stats != nullptr) {
    stats->parallel_morsels += static_cast<int64_t>(num_morsels);
    stats->parallel_workers = std::max(
        stats->parallel_workers,
        static_cast<int64_t>(
            std::min(static_cast<size_t>(ctx->dop), num_morsels)));
    stats->cpu_nanos += cpu.load(std::memory_order_relaxed);
  }
  const ExecMetrics& metrics = GetExecMetrics();
  metrics.fanouts->Add(1);
  metrics.morsels->Add(static_cast<int64_t>(num_morsels));
  return status;
}

}  // namespace internal


// ---------------------------------------------------------------------------
// ScanNode
// ---------------------------------------------------------------------------

ScanNode::ScanNode(storage::Table* table, const std::string& alias,
                   bool expose_prov_columns)
    : table_(table), alias_(alias), expose_prov_columns_(expose_prov_columns) {
  for (const storage::Column& c : table->schema().columns()) {
    scope_.Add({alias, c.name, c.type, /*hidden=*/false});
  }
  if (expose_prov_columns_) {
    scope_.Add({alias, std::string(storage::kProvRowIdColumn),
                ValueType::kInt64, /*hidden=*/true});
    scope_.Add({alias, std::string(storage::kProvVersionColumn),
                ValueType::kInt64, /*hidden=*/true});
    scope_.Add({alias, std::string(storage::kProvUsedByColumn),
                ValueType::kInt64, /*hidden=*/true});
    scope_.Add({alias, std::string(storage::kProvProcessColumn),
                ValueType::kInt64, /*hidden=*/true});
  }
}

std::string ScanNode::detail() const {
  std::string d = table_->name();
  if (!alias_.empty() && alias_ != table_->name()) d += " AS " + alias_;
  if (has_index_probe()) d += " [index probe]";
  return d;
}

// ---------------------------------------------------------------------------
// JoinNode
// ---------------------------------------------------------------------------

JoinNode::JoinNode(std::unique_ptr<PlanNode> left,
                   std::unique_ptr<PlanNode> right,
                   std::vector<std::pair<int, int>> key_pairs,
                   bool left_outer)
    : left_(std::move(left)),
      right_(std::move(right)),
      key_pairs_(std::move(key_pairs)),
      left_outer_(left_outer) {
  scope_ = Scope::Concat(left_->scope(), right_->scope());
}

std::string JoinNode::detail() const {
  std::string d;
  if (left_outer_) d = "left outer";
  if (!key_pairs_.empty()) {
    if (!d.empty()) d += ", ";
    d += std::to_string(key_pairs_.size()) + " key" +
         (key_pairs_.size() == 1 ? "" : "s");
  }
  return d;
}

// ---------------------------------------------------------------------------
// FilterNode
// ---------------------------------------------------------------------------

FilterNode::FilterNode(std::unique_ptr<PlanNode> child,
                       std::unique_ptr<BoundExpr> predicate)
    : child_(std::move(child)), predicate_(std::move(predicate)) {
  scope_ = child_->scope();
}

// ---------------------------------------------------------------------------
// ProjectNode
// ---------------------------------------------------------------------------

ProjectNode::ProjectNode(std::unique_ptr<PlanNode> child,
                         std::vector<std::unique_ptr<BoundExpr>> exprs,
                         std::vector<std::string> names)
    : child_(std::move(child)), exprs_(std::move(exprs)) {
  for (size_t i = 0; i < exprs_.size(); ++i) {
    scope_.Add({"", names[i], exprs_[i]->result_type, /*hidden=*/false});
  }
}

// ---------------------------------------------------------------------------
// AggregateNode
// ---------------------------------------------------------------------------

AggregateNode::AggregateNode(std::unique_ptr<PlanNode> child,
                             std::vector<std::unique_ptr<BoundExpr>> group_exprs,
                             std::vector<AggregateSpec> aggs)
    : child_(std::move(child)),
      group_exprs_(std::move(group_exprs)),
      aggs_(std::move(aggs)) {
  for (size_t i = 0; i < group_exprs_.size(); ++i) {
    scope_.Add({"", "#grp" + std::to_string(i), group_exprs_[i]->result_type,
                /*hidden=*/false});
  }
  for (const AggregateSpec& a : aggs_) {
    scope_.Add({"", a.output_name, a.output_type, /*hidden=*/false});
  }
}

namespace internal {

size_t GroupTable::FindOrCreate(uint64_t hash, Tuple&& keys,
                                size_t num_aggs) {
  auto [begin, end] = index.equal_range(hash);
  for (auto it = begin; it != end; ++it) {
    if (groups[it->second].keys == keys) return it->second;
  }
  size_t id = groups.size();
  GroupState g;
  g.keys = std::move(keys);
  g.aggs.resize(num_aggs);
  groups.push_back(std::move(g));
  hashes.push_back(hash);
  index.emplace(hash, id);
  return id;
}

Status Accumulate(AggState* state, AggregateSpec::Fn fn, const Value& v) {
  switch (fn) {
    case AggregateSpec::Fn::kCountStar:
      ++state->count;
      return Status::Ok();
    case AggregateSpec::Fn::kCount:
      if (!v.is_null()) ++state->count;
      return Status::Ok();
    case AggregateSpec::Fn::kSum:
    case AggregateSpec::Fn::kAvg:
      if (v.is_null()) return Status::Ok();
      if (v.type() == ValueType::kString) {
        return Status::InvalidArgument("SUM/AVG over a string value");
      }
      ++state->count;
      state->any = true;
      if (v.type() == ValueType::kInt64 && !state->sum_is_double) {
        state->sum_int += v.AsInt();
      } else {
        if (!state->sum_is_double) {
          state->sum_double = static_cast<double>(state->sum_int);
          state->sum_is_double = true;
        }
        state->sum_double += v.AsDouble();
      }
      return Status::Ok();
    case AggregateSpec::Fn::kMin:
    case AggregateSpec::Fn::kMax: {
      if (v.is_null()) return Status::Ok();
      if (!state->any) {
        state->extreme = v;
        state->any = true;
        return Status::Ok();
      }
      LDV_ASSIGN_OR_RETURN(int cmp, v.Compare(state->extreme));
      if ((fn == AggregateSpec::Fn::kMin && cmp < 0) ||
          (fn == AggregateSpec::Fn::kMax && cmp > 0)) {
        state->extreme = v;
      }
      return Status::Ok();
    }
  }
  return Status::Internal("unreachable aggregate fn");
}

Status MergeAggState(AggState* into, const AggState& from,
                     AggregateSpec::Fn fn) {
  switch (fn) {
    case AggregateSpec::Fn::kCountStar:
    case AggregateSpec::Fn::kCount:
      into->count += from.count;
      return Status::Ok();
    case AggregateSpec::Fn::kSum:
    case AggregateSpec::Fn::kAvg:
      into->count += from.count;
      if (!from.any) return Status::Ok();
      into->any = true;
      if (from.sum_is_double || into->sum_is_double) {
        if (!into->sum_is_double) {
          into->sum_double = static_cast<double>(into->sum_int);
          into->sum_is_double = true;
        }
        into->sum_double += from.sum_is_double
                                ? from.sum_double
                                : static_cast<double>(from.sum_int);
      } else {
        into->sum_int += from.sum_int;
      }
      return Status::Ok();
    case AggregateSpec::Fn::kMin:
    case AggregateSpec::Fn::kMax: {
      if (!from.any) return Status::Ok();
      if (!into->any) {
        *into = from;
        return Status::Ok();
      }
      LDV_ASSIGN_OR_RETURN(int cmp, from.extreme.Compare(into->extreme));
      if ((fn == AggregateSpec::Fn::kMin && cmp < 0) ||
          (fn == AggregateSpec::Fn::kMax && cmp > 0)) {
        into->extreme = from.extreme;
      }
      return Status::Ok();
    }
  }
  return Status::Internal("unreachable aggregate fn");
}

Value FinalizeAgg(const AggState& state, const AggregateSpec& spec) {
  switch (spec.fn) {
    case AggregateSpec::Fn::kCountStar:
    case AggregateSpec::Fn::kCount:
      return Value::Int(state.count);
    case AggregateSpec::Fn::kSum:
      if (!state.any) return Value::Null();
      return state.sum_is_double ? Value::Real(state.sum_double)
                                 : Value::Int(state.sum_int);
    case AggregateSpec::Fn::kAvg: {
      if (!state.any) return Value::Null();
      double total = state.sum_is_double ? state.sum_double
                                         : static_cast<double>(state.sum_int);
      return Value::Real(total / static_cast<double>(state.count));
    }
    case AggregateSpec::Fn::kMin:
    case AggregateSpec::Fn::kMax:
      return state.any ? state.extreme : Value::Null();
  }
  return Value::Null();
}

Result<ColumnBatch> MergeAndFinalizeGroups(
    std::vector<GroupTable>&& partials, const std::vector<AggregateSpec>& aggs,
    size_t num_keys, bool lineage) {
  // Phase 2: deterministic merge in morsel order. A group's global position
  // is its first appearance over the input — exactly the serial order.
  GroupTable global;
  for (GroupTable& partial : partials) {
    for (size_t g = 0; g < partial.groups.size(); ++g) {
      GroupState& local_group = partial.groups[g];
      const uint64_t h = partial.hashes[g];
      auto [begin, end] = global.index.equal_range(h);
      size_t id = SIZE_MAX;
      for (auto it = begin; it != end; ++it) {
        if (global.groups[it->second].keys == local_group.keys) {
          id = it->second;
          break;
        }
      }
      if (id == SIZE_MAX) {
        global.hashes.push_back(h);
        global.index.emplace(h, global.groups.size());
        global.groups.push_back(std::move(local_group));
        continue;
      }
      GroupState& into = global.groups[id];
      for (size_t a = 0; a < aggs.size(); ++a) {
        LDV_RETURN_IF_ERROR(
            MergeAggState(&into.aggs[a], local_group.aggs[a], aggs[a].fn));
      }
      if (lineage) {
        into.lineage.insert(
            into.lineage.end(),
            std::make_move_iterator(local_group.lineage.begin()),
            std::make_move_iterator(local_group.lineage.end()));
      }
    }
  }
  std::vector<GroupState>& groups = global.groups;

  // A global aggregate (no GROUP BY) over empty input yields one row.
  if (groups.empty() && num_keys == 0) {
    GroupState g;
    g.aggs.resize(aggs.size());
    groups.push_back(std::move(g));
  }

  ColumnBatch out;
  out.num_rows = groups.size();
  out.cols.resize(num_keys + aggs.size());
  for (ColumnVector& col : out.cols) {
    col.boxed = true;
    col.length = groups.size();
    col.cells.reserve(groups.size());
  }
  if (lineage) out.lineage.reserve(groups.size());
  for (GroupState& g : groups) {
    for (size_t k = 0; k < num_keys; ++k) {
      out.cols[k].cells.push_back(std::move(g.keys[k]));
    }
    for (size_t a = 0; a < aggs.size(); ++a) {
      out.cols[num_keys + a].cells.push_back(FinalizeAgg(g.aggs[a], aggs[a]));
    }
    if (lineage) {
      std::sort(g.lineage.begin(), g.lineage.end());
      g.lineage.erase(std::unique(g.lineage.begin(), g.lineage.end()),
                      g.lineage.end());
      out.lineage.push_back(std::move(g.lineage));
    }
  }
  return out;
}

}  // namespace internal

std::string AggregateNode::detail() const {
  return std::to_string(group_exprs_.size()) + " group keys, " +
         std::to_string(aggs_.size()) + " aggregates";
}

// ---------------------------------------------------------------------------
// DistinctNode
// ---------------------------------------------------------------------------

DistinctNode::DistinctNode(std::unique_ptr<PlanNode> child)
    : child_(std::move(child)) {
  scope_ = child_->scope();
}

// ---------------------------------------------------------------------------
// SortLimitNode
// ---------------------------------------------------------------------------

SortLimitNode::SortLimitNode(std::unique_ptr<PlanNode> child,
                             std::vector<SortKey> keys,
                             std::optional<int64_t> limit)
    : child_(std::move(child)), keys_(std::move(keys)), limit_(limit) {
  scope_ = child_->scope();
}

std::string SortLimitNode::detail() const {
  std::string d = std::to_string(keys_.size()) + " sort keys";
  if (limit_.has_value()) d += ", limit " + std::to_string(*limit_);
  return d;
}

}  // namespace ldv::exec
