// Vectorized columnar execution (DESIGN.md §15): batch kernels for the hot
// operators — scan with fused filter, hash join build/probe, aggregate and
// distinct partials, projection — running inside the same morsel
// decomposition as the row engine, so results are bit-identical at any DOP.
// Operators whose plan shape the kernels don't cover (cold expressions,
// sorts, outer joins, residuals) fall back to the row-at-a-time path via
// ColumnarToRows; the fallback boundary is visible in EXPLAIN ANALYZE and
// the exec.vectorized.* metrics.

#include <algorithm>
#include <atomic>
#include <utility>

#include "common/clock.h"
#include "exec/exec_internal.h"
#include "exec/operators.h"
#include "exec/vector_expr.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace ldv::exec {

using internal::AggState;
using internal::ApproxRowsBytes;
using internal::GroupState;
using internal::GroupTable;
using internal::MergeAndFinalizeGroups;
using internal::NumMorsels;
using internal::RunMorsels;
using storage::RowVersion;
using storage::Tuple;
using storage::TupleVid;
using storage::Value;
using storage::ValueType;

namespace {

struct VectorizedMetrics {
  obs::Counter* queries;
  obs::Counter* batches;
  obs::Counter* fallbacks;
};

const VectorizedMetrics& GetVectorizedMetrics() {
  static const VectorizedMetrics metrics{
      obs::MetricsRegistry::Global().counter("exec.vectorized.queries"),
      obs::MetricsRegistry::Global().counter("exec.vectorized.batches"),
      obs::MetricsRegistry::Global().counter("exec.vectorized.fallbacks")};
  return metrics;
}

/// An operator "fell back" when it produced rows without running any batch
/// kernel (an aggregate returns a row-carrier but DID run vectorized — its
/// batches count says so).
bool IsRowFallback(const ColumnarResult& r) {
  return !r.columnar && r.batches == 0;
}

ColumnarResult WrapRows(Batch&& rows) {
  ColumnarResult out;
  out.rows = std::move(rows);
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// PlanNode columnar entry points
// ---------------------------------------------------------------------------

Result<ColumnarResult> PlanNode::ExecuteColumnar(ExecContext* ctx) {
  Result<ColumnarResult> result =
      ctx->frozen_plan || (!ctx->profile && !obs::TraceRecorder::enabled())
          ? ExecuteColumnarImpl(ctx)
          : ExecuteColumnarInstrumented(ctx);
  if (result.ok()) {
    const VectorizedMetrics& metrics = GetVectorizedMetrics();
    if (result->batches > 0) metrics.batches->Add(result->batches);
    if (IsRowFallback(*result)) metrics.fallbacks->Add(1);
  }
  return result;
}

Result<ColumnarResult> PlanNode::ExecuteColumnarInstrumented(ExecContext* ctx) {
  obs::Span span(label(), "exec");
  if (span.recording()) {
    std::string d = detail();
    if (!d.empty()) span.AddArg("detail", d);
  }
  const int64_t start = NowNanos();
  Result<ColumnarResult> result = ExecuteColumnarImpl(ctx);
  stats_.wall_nanos += NowNanos() - start;
  ++stats_.invocations;
  if (result.ok()) {
    stats_.rows_out += static_cast<int64_t>(result->NumRows());
    stats_.vector_batches += result->batches;
    if (IsRowFallback(*result)) ++stats_.row_fallbacks;
    if (span.recording()) {
      span.AddArg("rows_out", std::to_string(result->NumRows()));
      if (result->batches > 0) {
        span.AddArg("batches", std::to_string(result->batches));
      }
      if (stats_.parallel_morsels > 0) {
        span.AddArg("morsels", std::to_string(stats_.parallel_morsels));
        span.AddArg("workers", std::to_string(stats_.parallel_workers));
      }
    }
  }
  return result;
}

Result<ColumnarResult> PlanNode::ExecuteColumnarImpl(ExecContext* ctx) {
  // Cold operators (DML feeds, reenactment, single-row sources) run their
  // row logic unchanged and hand the result on as a row carrier.
  LDV_ASSIGN_OR_RETURN(Batch rows, ExecuteImpl(ctx));
  return WrapRows(std::move(rows));
}

Result<Batch> ColumnarToRows(ExecContext* ctx, OpStats* stats,
                             ColumnarResult&& in) {
  if (!in.columnar) return std::move(in.rows);
  ColumnBatch& cb = in.columns;
  const size_t n = cb.num_rows;
  Batch out;
  out.rows.resize(n);
  LDV_RETURN_IF_ERROR(RunMorsels(
      ctx, stats, n, [&](size_t begin, size_t end, size_t) -> Status {
        for (size_t i = begin; i < end; ++i) {
          Tuple row;
          row.reserve(cb.cols.size());
          for (const ColumnVector& col : cb.cols) {
            row.push_back(col.GetValue(i));
          }
          out.rows[i] = std::move(row);
        }
        return Status::Ok();
      }));
  out.lineage = std::move(cb.lineage);
  return out;
}

// ---------------------------------------------------------------------------
// ScanNode: typed column extraction with the filter fused per morsel
// ---------------------------------------------------------------------------

Result<ColumnarResult> ScanNode::ExecuteColumnarImpl(ExecContext* ctx) {
  const int64_t epoch = ctx->snapshot_epoch;
  const bool versioned = epoch > 0 && table_->last_mutation_seq() > epoch;
  // The index-probe access path selects few rows by construction and a
  // non-vectorizable filter would run row-at-a-time anyway: both take the
  // row path wholesale.
  if ((has_index_probe() && table_->HasIndexOn(probe_column_) && !versioned) ||
      (filter_ != nullptr && !CanVectorizeExpr(*filter_, ctx->params))) {
    LDV_ASSIGN_OR_RETURN(Batch rows, ExecuteImpl(ctx));
    return WrapRows(std::move(rows));
  }

  const auto& schema_cols = table_->schema().columns();
  const size_t base_cols = schema_cols.size();
  const size_t ncols =
      base_cols + (expose_prov_columns_ ? size_t{4} : size_t{0});
  const bool lineage = ctx->track_lineage;
  std::vector<RowVersion>& rows = table_->mutable_rows();
  const size_t n = rows.size();

  // Strict-typing escape hatch: the kernels require every cell to be NULL
  // or exactly the schema type. A cell that deviates (legacy data, lax
  // coercion) aborts the columnar attempt and the whole scan re-runs
  // row-at-a-time — correctness never depends on the data being clean.
  std::atomic<bool> strict_abort{false};

  using ProvRecords = std::vector<std::pair<TupleVid, const Tuple*>>;
  const size_t num_morsels = NumMorsels(n);
  std::vector<ColumnBatch> parts(num_morsels);
  std::vector<ProvRecords> part_prov(num_morsels);

  auto scan_morsel = [&](size_t begin, size_t end, size_t morsel) -> Status {
    if (strict_abort.load(std::memory_order_relaxed)) return Status::Ok();
    // Resolve the visible version of each slot and extract its cells into
    // morsel-local typed columns.
    ColumnBatch cand;
    cand.cols.resize(ncols);
    for (size_t c = 0; c < base_cols; ++c) {
      cand.cols[c].type = schema_cols[c].type;
      cand.cols[c].Reserve(end - begin);
    }
    for (size_t c = base_cols; c < ncols; ++c) {
      cand.cols[c].type = ValueType::kInt64;
      cand.cols[c].Reserve(end - begin);
    }
    std::vector<RowVersion*> visible;
    visible.reserve(end - begin);
    for (size_t i = begin; i < end; ++i) {
      RowVersion* row = &rows[i];
      if (versioned) {
        const RowVersion* v = table_->VisibleVersion(*row, epoch);
        if (v == nullptr) continue;
        // Snapshot reads never track lineage, so the archived version is
        // never written through (mirrors the row path).
        row = const_cast<RowVersion*>(v);
      } else if (row->deleted) {
        continue;
      }
      if (row->values.size() != base_cols) {
        strict_abort.store(true, std::memory_order_relaxed);
        return Status::Ok();
      }
      for (size_t c = 0; c < base_cols; ++c) {
        const Value& v = row->values[c];
        if (v.is_null()) {
          cand.cols[c].AppendNull();
          continue;
        }
        if (v.type() != schema_cols[c].type) {
          strict_abort.store(true, std::memory_order_relaxed);
          return Status::Ok();
        }
        switch (v.type()) {
          case ValueType::kInt64:
            cand.cols[c].AppendInt(v.AsInt());
            break;
          case ValueType::kDouble:
            cand.cols[c].AppendDouble(v.AsDouble());
            break;
          case ValueType::kString:
            // View into the row version's string storage; stable for the
            // whole statement (the table is read-locked and lineage stamps
            // touch only the integer usedby fields).
            cand.cols[c].AppendStr(std::string_view(v.AsString()));
            break;
          case ValueType::kNull:
            break;
        }
      }
      if (expose_prov_columns_) {
        // usedby/process are read BEFORE this statement stamps the row,
        // exactly like the row path's EmitRow.
        cand.cols[base_cols].AppendInt(row->rowid);
        cand.cols[base_cols + 1].AppendInt(row->version);
        cand.cols[base_cols + 2].AppendInt(row->used_by_query);
        cand.cols[base_cols + 3].AppendInt(row->used_by_process);
      }
      visible.push_back(row);
    }
    cand.num_rows = visible.size();

    ColumnBatch& part = parts[morsel];
    if (filter_ == nullptr && !lineage) {
      part = std::move(cand);
      return Status::Ok();
    }
    std::vector<uint8_t> keep;
    if (filter_ != nullptr) {
      ColumnVector pred;
      EvalVector(*filter_, cand, 0, cand.num_rows, ctx->params, &pred);
      VectorTruthy(pred, &keep);
    }
    auto stamp = [&](size_t k) {
      RowVersion* row = visible[k];
      TupleVid vid{table_->id(), row->rowid, row->version};
      row->used_by_query = ctx->query_id;
      row->used_by_process = ctx->process_id;
      part.lineage.push_back({vid});
      part_prov[morsel].emplace_back(vid, &row->values);
    };
    if (filter_ == nullptr) {
      part.cols = std::move(cand.cols);
      part.num_rows = cand.num_rows;
      part.lineage.reserve(part.num_rows);
      for (size_t k = 0; k < part.num_rows; ++k) stamp(k);
      return Status::Ok();
    }
    std::vector<size_t> sel;
    sel.reserve(cand.num_rows);
    for (size_t k = 0; k < cand.num_rows; ++k) {
      if (keep[k]) sel.push_back(k);
    }
    if (sel.size() == cand.num_rows) {
      // Filter kept everything: hand the candidate columns on as-is.
      part.cols = std::move(cand.cols);
    } else {
      part.cols.resize(ncols);
      for (size_t c = 0; c < ncols; ++c) {
        ColumnVector& out_col = part.cols[c];
        out_col.type = cand.cols[c].type;
        out_col.ResizeZero(sel.size());
        if (cand.cols[c].nulls.empty()) out_col.nulls.clear();  // stay dense
        GatherColumnRange(cand.cols[c], sel.data(), sel.size(), 0, &out_col);
      }
    }
    part.num_rows = sel.size();
    if (lineage) {
      part.lineage.reserve(sel.size());
      for (size_t k : sel) stamp(k);
    }
    return Status::Ok();
  };

  // LIMIT pushdown without ORDER BY: run morsels serially and stop at the
  // first boundary where the limit is reached — the same whole-morsel
  // prefix the hinted row path emits. Lineage-tracked scans must stamp
  // every row they read, so they ignore the hint (as does the row path).
  const int64_t limit = limit_hint_ >= 0 && !lineage ? limit_hint_ : -1;
  int64_t batches = 0;
  if (limit >= 0) {
    size_t emitted = 0;
    for (size_t m = 0; m < num_morsels; ++m) {
      if (emitted >= static_cast<size_t>(limit)) break;
      LDV_RETURN_IF_ERROR(ctx->CheckGovernor());
      const size_t begin = m * kMorselRows;
      LDV_RETURN_IF_ERROR(
          scan_morsel(begin, std::min(n, begin + kMorselRows), m));
      if (strict_abort.load(std::memory_order_relaxed)) break;
      emitted += parts[m].num_rows;
      ++batches;
    }
  } else {
    LDV_RETURN_IF_ERROR(RunMorsels(ctx, &stats_, n, scan_morsel));
    batches = static_cast<int64_t>(num_morsels);
  }

  if (strict_abort.load(std::memory_order_relaxed)) {
    // Already-applied lineage stamps are idempotent for this statement and
    // the row path re-collects every prov record, so a clean re-run is safe.
    LDV_ASSIGN_OR_RETURN(Batch fallback_rows, ExecuteImpl(ctx));
    return WrapRows(std::move(fallback_rows));
  }

  ColumnarResult out;
  out.columnar = true;
  out.batches = batches;
  out.columns = ConcatColumnBatches(std::move(parts));
  if (out.columns.cols.empty()) out.columns.cols.resize(ncols);
  for (const ProvRecords& records : part_prov) {
    ctx->prov_tuples.insert(records.begin(), records.end());
  }
  return out;
}

// ---------------------------------------------------------------------------
// FilterNode: predicate kernel -> selection vector -> one parallel gather
// ---------------------------------------------------------------------------

Result<ColumnarResult> FilterNode::ExecuteColumnarImpl(ExecContext* ctx) {
  LDV_ASSIGN_OR_RETURN(ColumnarResult in, child_->ExecuteColumnar(ctx));
  if (!in.columnar || !CanVectorizeExpr(*predicate_, ctx->params)) {
    LDV_ASSIGN_OR_RETURN(Batch rows,
                         ColumnarToRows(ctx, &stats_, std::move(in)));
    LDV_ASSIGN_OR_RETURN(Batch out, ProcessRows(ctx, std::move(rows)));
    return WrapRows(std::move(out));
  }
  ColumnBatch& cb = in.columns;
  const size_t n = cb.num_rows;
  std::vector<std::vector<size_t>> sels(NumMorsels(n));
  LDV_RETURN_IF_ERROR(RunMorsels(
      ctx, &stats_, n, [&](size_t begin, size_t end, size_t morsel) -> Status {
        ColumnVector pred;
        EvalVector(*predicate_, cb, begin, end, ctx->params, &pred);
        std::vector<uint8_t> keep;
        VectorTruthy(pred, &keep);
        std::vector<size_t>& sel = sels[morsel];
        for (size_t i = 0; i < keep.size(); ++i) {
          if (keep[i]) sel.push_back(begin + i);
        }
        return Status::Ok();
      }));
  std::vector<size_t> sel;
  {
    size_t total = 0;
    for (const auto& s : sels) total += s.size();
    sel.reserve(total);
    for (const auto& s : sels) sel.insert(sel.end(), s.begin(), s.end());
  }

  ColumnarResult out;
  out.columnar = true;
  out.batches = static_cast<int64_t>(NumMorsels(n));
  ColumnBatch& oc = out.columns;
  oc.num_rows = sel.size();
  oc.cols.resize(cb.cols.size());
  for (size_t c = 0; c < cb.cols.size(); ++c) {
    oc.cols[c].type = cb.cols[c].type;
    oc.cols[c].ResizeZero(sel.size());
    if (cb.cols[c].nulls.empty()) oc.cols[c].nulls.clear();  // stay dense
  }
  LDV_RETURN_IF_ERROR(RunMorsels(
      ctx, &stats_, sel.size(),
      [&](size_t begin, size_t end, size_t) -> Status {
        for (size_t c = 0; c < cb.cols.size(); ++c) {
          GatherColumnRange(cb.cols[c], sel.data() + begin, end - begin, begin,
                            &oc.cols[c]);
        }
        return Status::Ok();
      }));
  if (ctx->track_lineage) {
    oc.lineage.reserve(sel.size());
    for (size_t i : sel) oc.lineage.push_back(std::move(cb.lineage[i]));
  }
  return out;
}

// ---------------------------------------------------------------------------
// ProjectNode: expression kernels per morsel
// ---------------------------------------------------------------------------

Result<ColumnarResult> ProjectNode::ExecuteColumnarImpl(ExecContext* ctx) {
  LDV_ASSIGN_OR_RETURN(ColumnarResult in, child_->ExecuteColumnar(ctx));
  bool can = in.columnar;
  for (size_t e = 0; can && e < exprs_.size(); ++e) {
    can = CanVectorizeExpr(*exprs_[e], ctx->params);
  }
  if (!can) {
    LDV_ASSIGN_OR_RETURN(Batch rows,
                         ColumnarToRows(ctx, &stats_, std::move(in)));
    LDV_ASSIGN_OR_RETURN(Batch out, ProcessRows(ctx, std::move(rows)));
    return WrapRows(std::move(out));
  }
  ColumnBatch& cb = in.columns;
  const size_t n = cb.num_rows;
  std::vector<ColumnBatch> parts(NumMorsels(n));
  LDV_RETURN_IF_ERROR(RunMorsels(
      ctx, &stats_, n, [&](size_t begin, size_t end, size_t morsel) -> Status {
        ColumnBatch& part = parts[morsel];
        part.cols.resize(exprs_.size());
        for (size_t e = 0; e < exprs_.size(); ++e) {
          EvalVector(*exprs_[e], cb, begin, end, ctx->params, &part.cols[e]);
        }
        part.num_rows = end - begin;
        return Status::Ok();
      }));
  ColumnarResult out;
  out.columnar = true;
  out.batches = static_cast<int64_t>(NumMorsels(n));
  out.columns = ConcatColumnBatches(std::move(parts));
  if (out.columns.cols.empty()) out.columns.cols.resize(exprs_.size());
  if (ctx->track_lineage) out.columns.lineage = std::move(cb.lineage);
  return out;
}

// ---------------------------------------------------------------------------
// JoinNode: columnar hash build + probe (equi-join, no residual/outer)
// ---------------------------------------------------------------------------

Result<ColumnarResult> JoinNode::ExecuteColumnarImpl(ExecContext* ctx) {
  LDV_ASSIGN_OR_RETURN(ColumnarResult left, left_->ExecuteColumnar(ctx));
  LDV_ASSIGN_OR_RETURN(ColumnarResult right, right_->ExecuteColumnar(ctx));
  // The kernel covers the hot shape: hash equi-join, inner, no residual.
  // Everything else (nested loop, outer padding, residual re-evaluation)
  // stays on the row path.
  if (!left.columnar || !right.columnar || key_pairs_.empty() ||
      residual_ != nullptr || left_outer_) {
    LDV_ASSIGN_OR_RETURN(Batch l, ColumnarToRows(ctx, &stats_, std::move(left)));
    LDV_ASSIGN_OR_RETURN(Batch r,
                         ColumnarToRows(ctx, &stats_, std::move(right)));
    LDV_ASSIGN_OR_RETURN(Batch out,
                         ProcessRows(ctx, std::move(l), std::move(r)));
    return WrapRows(std::move(out));
  }
  ColumnBatch& lb = left.columns;
  ColumnBatch& rb = right.columns;
  const bool lineage = ctx->track_lineage;
  const bool timing = ctx->profile;
  const size_t num_rights = rb.num_rows;
  const size_t num_lefts = lb.num_rows;

  const int64_t build_start = timing ? NowNanos() : 0;
  // Same row-equivalent budget charge as the row path: the build side is
  // held materialized for the whole build+probe plus per-row bookkeeping.
  {
    size_t right_bytes = 0;
    for (size_t ri = 0; ri < num_rights; ++ri) {
      right_bytes += ApproxColumnRowBytes(rb, ri);
    }
    LDV_RETURN_IF_ERROR(ctx->ChargeMemory(
        right_bytes +
        num_rights * (sizeof(uint64_t) + sizeof(char) + 3 * sizeof(size_t))));
  }

  // Hash the right key columns per morsel; bit-identical to HashTuple over
  // the materialized key (shared per-type primitives + combiner).
  std::vector<uint64_t> right_hash(num_rights);
  std::vector<char> right_null_key(num_rights, 0);
  LDV_RETURN_IF_ERROR(RunMorsels(
      ctx, &stats_, num_rights,
      [&](size_t begin, size_t end, size_t) -> Status {
        for (size_t ri = begin; ri < end; ++ri) {
          right_hash[ri] = storage::kTupleHashSeed;
        }
        for (const auto& [l, r] : key_pairs_) {
          const ColumnVector& col = rb.cols[static_cast<size_t>(r)];
          HashColumnCombine(col, begin, end - begin, &right_hash[begin]);
          if (col.type == ValueType::kNull) {
            for (size_t ri = begin; ri < end; ++ri) right_null_key[ri] = 1;
          } else if (!col.nulls.empty()) {
            for (size_t ri = begin; ri < end; ++ri) {
              if (col.nulls[ri] != 0) right_null_key[ri] = 1;
            }
          }
        }
        return Status::Ok();
      }));

  // Identical partitioned build to the row path: hash-disjoint partitions,
  // bucket lists in ascending right-row order.
  using PartitionTable = std::unordered_map<uint64_t, std::vector<size_t>>;
  const size_t num_partitions =
      ctx->parallel() ? std::min<size_t>(static_cast<size_t>(ctx->dop), 16)
                      : 1;
  std::vector<PartitionTable> partitions(num_partitions);
  {
    std::vector<std::function<Status()>> build_tasks;
    build_tasks.reserve(num_partitions);
    for (size_t p = 0; p < num_partitions; ++p) {
      build_tasks.push_back([&, p]() -> Status {
        PartitionTable& table = partitions[p];
        for (size_t ri = 0; ri < num_rights; ++ri) {
          if (right_null_key[ri]) continue;
          if (right_hash[ri] % num_partitions != p) continue;
          table[right_hash[ri]].push_back(ri);
        }
        return Status::Ok();
      });
    }
    if (num_partitions > 1) {
      LDV_RETURN_IF_ERROR(
          ctx->pool->RunTasks(std::move(build_tasks), ctx->dop));
    } else {
      LDV_RETURN_IF_ERROR(build_tasks[0]());
    }
  }
  const int64_t probe_start = timing ? NowNanos() : 0;
  if (timing) stats_.build_nanos += probe_start - build_start;

  // Probe per left morsel, collecting (left, right) match pairs; per-morsel
  // pair lists concatenate to left order with ascending right order within
  // a left row — the row path's emission order exactly.
  std::vector<std::vector<std::pair<size_t, size_t>>> pair_parts(
      NumMorsels(num_lefts));
  LDV_RETURN_IF_ERROR(RunMorsels(
      ctx, &stats_, num_lefts,
      [&](size_t begin, size_t end, size_t morsel) -> Status {
        auto& pairs = pair_parts[morsel];
        const size_t count = end - begin;
        std::vector<uint64_t> left_hash(count, storage::kTupleHashSeed);
        std::vector<char> left_null_key(count, 0);
        for (const auto& [l, r] : key_pairs_) {
          const ColumnVector& col = lb.cols[static_cast<size_t>(l)];
          HashColumnCombine(col, begin, count, left_hash.data());
          if (col.type == ValueType::kNull) {
            std::fill(left_null_key.begin(), left_null_key.end(), 1);
          } else if (!col.nulls.empty()) {
            for (size_t k = 0; k < count; ++k) {
              if (col.nulls[begin + k] != 0) left_null_key[k] = 1;
            }
          }
        }
        for (size_t li = begin; li < end; ++li) {
          if (left_null_key[li - begin]) continue;  // NULL never matches
          const uint64_t h = left_hash[li - begin];
          const PartitionTable& table = partitions[h % num_partitions];
          auto it = table.find(h);
          if (it == table.end()) continue;
          for (size_t ri : it->second) {
            bool keys_equal = true;
            for (size_t k = 0; keys_equal && k < key_pairs_.size(); ++k) {
              keys_equal = JoinKeyCellsEqual(
                  lb.cols[static_cast<size_t>(key_pairs_[k].first)], li,
                  rb.cols[static_cast<size_t>(key_pairs_[k].second)], ri);
            }
            if (keys_equal) pairs.emplace_back(li, ri);
          }
        }
        return Status::Ok();
      }));

  std::vector<std::pair<size_t, size_t>> pairs;
  {
    size_t total = 0;
    for (const auto& p : pair_parts) total += p.size();
    pairs.reserve(total);
    for (const auto& p : pair_parts) {
      pairs.insert(pairs.end(), p.begin(), p.end());
    }
  }

  ColumnarResult out;
  out.columnar = true;
  out.batches =
      static_cast<int64_t>(NumMorsels(num_rights) + NumMorsels(num_lefts));
  ColumnBatch& oc = out.columns;
  const size_t lcols = lb.cols.size();
  const size_t rcols = rb.cols.size();
  oc.num_rows = pairs.size();
  oc.cols.resize(lcols + rcols);
  for (size_t c = 0; c < lcols; ++c) {
    oc.cols[c].type = lb.cols[c].type;
    oc.cols[c].ResizeZero(pairs.size());
    if (lb.cols[c].nulls.empty()) oc.cols[c].nulls.clear();  // stay dense
  }
  for (size_t c = 0; c < rcols; ++c) {
    oc.cols[lcols + c].type = rb.cols[c].type;
    oc.cols[lcols + c].ResizeZero(pairs.size());
    if (rb.cols[c].nulls.empty()) oc.cols[lcols + c].nulls.clear();
  }
  if (lineage) oc.lineage.resize(pairs.size());
  LDV_RETURN_IF_ERROR(RunMorsels(
      ctx, &stats_, pairs.size(),
      [&](size_t begin, size_t end, size_t) -> Status {
        const size_t count = end - begin;
        std::vector<size_t> lsel(count), rsel(count);
        for (size_t k = 0; k < count; ++k) {
          lsel[k] = pairs[begin + k].first;
          rsel[k] = pairs[begin + k].second;
        }
        for (size_t c = 0; c < lcols; ++c) {
          GatherColumnRange(lb.cols[c], lsel.data(), count, begin, &oc.cols[c]);
        }
        for (size_t c = 0; c < rcols; ++c) {
          GatherColumnRange(rb.cols[c], rsel.data(), count, begin,
                            &oc.cols[lcols + c]);
        }
        if (lineage) {
          for (size_t i = begin; i < end; ++i) {
            LineageSet merged = lb.lineage[pairs[i].first];
            MergeLineage(&merged, rb.lineage[pairs[i].second]);
            oc.lineage[i] = std::move(merged);
          }
        }
        return Status::Ok();
      }));
  if (timing) stats_.probe_nanos += NowNanos() - probe_start;
  return out;
}

// ---------------------------------------------------------------------------
// AggregateNode: typed accumulation over key/arg vectors
// ---------------------------------------------------------------------------

namespace {

/// Typed Accumulate over cell `i` of an evaluated argument vector;
/// semantics identical to internal::Accumulate over the equivalent Value
/// (int fast path for SUM/AVG until a double flips it, Compare-ordered
/// MIN/MAX). `arg` is null only for COUNT(*).
void AccumulateCell(AggState* state, AggregateSpec::Fn fn,
                    const ColumnVector* arg, size_t i) {
  switch (fn) {
    case AggregateSpec::Fn::kCountStar:
      ++state->count;
      return;
    case AggregateSpec::Fn::kCount:
      if (!arg->IsNull(i)) ++state->count;
      return;
    case AggregateSpec::Fn::kSum:
    case AggregateSpec::Fn::kAvg:
      if (arg->IsNull(i)) return;
      ++state->count;
      state->any = true;
      if (arg->type == ValueType::kInt64 && !state->sum_is_double) {
        state->sum_int += arg->i64[i];
      } else {
        if (!state->sum_is_double) {
          state->sum_double = static_cast<double>(state->sum_int);
          state->sum_is_double = true;
        }
        state->sum_double += arg->AsF64(i);
      }
      return;
    case AggregateSpec::Fn::kMin:
    case AggregateSpec::Fn::kMax: {
      if (arg->IsNull(i)) return;
      if (!state->any) {
        state->extreme = arg->GetValue(i);
        state->any = true;
        return;
      }
      // The running extreme came from this same vector, so the types match
      // and the comparison is the error-free arm of Value::Compare.
      int cmp = 0;
      switch (arg->type) {
        case ValueType::kInt64: {
          const int64_t a = arg->i64[i];
          const int64_t b = state->extreme.AsInt();
          cmp = a < b ? -1 : (a > b ? 1 : 0);
          break;
        }
        case ValueType::kDouble: {
          const double a = arg->f64[i];
          const double b = state->extreme.AsDouble();
          cmp = a < b ? -1 : (a > b ? 1 : 0);
          break;
        }
        case ValueType::kString: {
          const int c = arg->str[i].compare(state->extreme.AsString());
          cmp = c < 0 ? -1 : (c > 0 ? 1 : 0);
          break;
        }
        case ValueType::kNull:
          break;
      }
      if ((fn == AggregateSpec::Fn::kMin && cmp < 0) ||
          (fn == AggregateSpec::Fn::kMax && cmp > 0)) {
        state->extreme = arg->GetValue(i);
      }
      return;
    }
  }
}

/// Finds the group whose keys equal cell `i` of the evaluated key vectors
/// (Value::operator== semantics), materializing the key tuple only when a
/// new group is created.
size_t FindOrCreateGroupCell(GroupTable* table, uint64_t hash,
                             const std::vector<ColumnVector>& keys, size_t i,
                             size_t num_aggs) {
  auto [begin, end] = table->index.equal_range(hash);
  for (auto it = begin; it != end; ++it) {
    const Tuple& group_keys = table->groups[it->second].keys;
    bool eq = true;
    for (size_t k = 0; eq && k < keys.size(); ++k) {
      eq = CellEqualsValue(keys[k], i, group_keys[k]);
    }
    if (eq) return it->second;
  }
  Tuple key;
  key.reserve(keys.size());
  for (const ColumnVector& kv : keys) key.push_back(kv.GetValue(i));
  return table->FindOrCreate(hash, std::move(key), num_aggs);
}

/// One aggregate over a whole morsel with the function and argument-type
/// dispatch hoisted out of the row loop; per-cell effects are identical to
/// AccumulateCell in morsel order.
void AccumulateColumn(GroupTable* table, const std::vector<size_t>& gids,
                      size_t slot, AggregateSpec::Fn fn,
                      const ColumnVector* arg) {
  std::vector<GroupState>& groups = table->groups;
  const size_t n = gids.size();
  switch (fn) {
    case AggregateSpec::Fn::kCountStar:
      for (size_t i = 0; i < n; ++i) ++groups[gids[i]].aggs[slot].count;
      return;
    case AggregateSpec::Fn::kCount:
      for (size_t i = 0; i < n; ++i) {
        if (!arg->IsNull(i)) ++groups[gids[i]].aggs[slot].count;
      }
      return;
    case AggregateSpec::Fn::kSum:
    case AggregateSpec::Fn::kAvg:
      // A kNull argument never accumulates; kString was gated to the row
      // engine. The slot's partial state is fed only by this single-typed
      // vector, so an int sum can never flip to double mid-morsel.
      if (arg->type == ValueType::kInt64) {
        for (size_t i = 0; i < n; ++i) {
          if (arg->IsNull(i)) continue;
          AggState& state = groups[gids[i]].aggs[slot];
          ++state.count;
          state.any = true;
          if (state.sum_is_double) {
            state.sum_double += static_cast<double>(arg->i64[i]);
          } else {
            state.sum_int += arg->i64[i];
          }
        }
      } else if (arg->type == ValueType::kDouble) {
        for (size_t i = 0; i < n; ++i) {
          if (arg->IsNull(i)) continue;
          AggState& state = groups[gids[i]].aggs[slot];
          ++state.count;
          state.any = true;
          if (!state.sum_is_double) {
            state.sum_double = static_cast<double>(state.sum_int);
            state.sum_is_double = true;
          }
          state.sum_double += arg->f64[i];
        }
      }
      return;
    case AggregateSpec::Fn::kMin:
    case AggregateSpec::Fn::kMax:
      for (size_t i = 0; i < n; ++i) {
        AccumulateCell(&groups[gids[i]].aggs[slot], fn, arg, i);
      }
      return;
  }
}

}  // namespace

Result<ColumnarResult> AggregateNode::ExecuteColumnarImpl(ExecContext* ctx) {
  LDV_ASSIGN_OR_RETURN(ColumnarResult in, child_->ExecuteColumnar(ctx));
  bool can = in.columnar;
  for (size_t g = 0; can && g < group_exprs_.size(); ++g) {
    can = CanVectorizeExpr(*group_exprs_[g], ctx->params);
  }
  for (size_t a = 0; can && a < aggs_.size(); ++a) {
    if (aggs_[a].arg == nullptr) continue;
    can = CanVectorizeExpr(*aggs_[a].arg, ctx->params);
    // SUM/AVG over strings is a row-engine error path; keep it there.
    if (can &&
        (aggs_[a].fn == AggregateSpec::Fn::kSum ||
         aggs_[a].fn == AggregateSpec::Fn::kAvg) &&
        aggs_[a].arg->result_type == ValueType::kString) {
      can = false;
    }
  }
  if (!can) {
    LDV_ASSIGN_OR_RETURN(Batch rows,
                         ColumnarToRows(ctx, &stats_, std::move(in)));
    LDV_ASSIGN_OR_RETURN(Batch out, ProcessRows(ctx, std::move(rows)));
    return WrapRows(std::move(out));
  }
  ColumnBatch& cb = in.columns;
  const bool lineage = ctx->track_lineage;
  const size_t n = cb.num_rows;

  std::vector<GroupTable> partials(NumMorsels(n));
  LDV_RETURN_IF_ERROR(RunMorsels(
      ctx, &stats_, n, [&](size_t begin, size_t end, size_t morsel) -> Status {
        GroupTable& local = partials[morsel];
        std::vector<ColumnVector> keys(group_exprs_.size());
        for (size_t g = 0; g < group_exprs_.size(); ++g) {
          EvalVector(*group_exprs_[g], cb, begin, end, ctx->params, &keys[g]);
        }
        std::vector<ColumnVector> args(aggs_.size());
        for (size_t a = 0; a < aggs_.size(); ++a) {
          if (aggs_[a].arg != nullptr) {
            EvalVector(*aggs_[a].arg, cb, begin, end, ctx->params, &args[a]);
          }
        }
        const size_t count = end - begin;
        std::vector<uint64_t> hashes(count, storage::kTupleHashSeed);
        for (const ColumnVector& kv : keys) {
          HashColumnCombine(kv, 0, count, hashes.data());
        }
        std::vector<size_t> gids(count);
        for (size_t i = 0; i < count; ++i) {
          gids[i] = FindOrCreateGroupCell(&local, hashes[i], keys, i,
                                          aggs_.size());
        }
        for (size_t a = 0; a < aggs_.size(); ++a) {
          AccumulateColumn(&local, gids, a, aggs_[a].fn,
                           aggs_[a].arg != nullptr ? &args[a] : nullptr);
        }
        if (lineage) {
          for (size_t i = 0; i < count; ++i) {
            const LineageSet& src = cb.lineage[begin + i];
            GroupState& group = local.groups[gids[i]];
            group.lineage.insert(group.lineage.end(), src.begin(), src.end());
          }
        }
        size_t partial_bytes = 0;
        for (const GroupState& g : local.groups) {
          partial_bytes += sizeof(GroupState) + ApproxTupleBytes(g.keys) +
                           g.aggs.size() * sizeof(AggState);
        }
        return ctx->ChargeMemory(partial_bytes);
      }));

  LDV_ASSIGN_OR_RETURN(
      Batch rows, MergeAndFinalizeGroups(std::move(partials), aggs_,
                                         !group_exprs_.empty(), lineage));
  // Group counts are small; hand the result on as rows (HAVING filters and
  // projections above fall back harmlessly).
  ColumnarResult out;
  out.rows = std::move(rows);
  out.batches = static_cast<int64_t>(NumMorsels(n));
  return out;
}

// ---------------------------------------------------------------------------
// DistinctNode: hash dedup over column cells
// ---------------------------------------------------------------------------

Result<ColumnarResult> DistinctNode::ExecuteColumnarImpl(ExecContext* ctx) {
  LDV_ASSIGN_OR_RETURN(ColumnarResult in, child_->ExecuteColumnar(ctx));
  if (!in.columnar) {
    LDV_ASSIGN_OR_RETURN(Batch rows,
                         ColumnarToRows(ctx, &stats_, std::move(in)));
    LDV_ASSIGN_OR_RETURN(Batch out, ProcessRows(ctx, std::move(rows)));
    return WrapRows(std::move(out));
  }
  ColumnBatch& cb = in.columns;
  const bool lineage = ctx->track_lineage;
  const size_t n = cb.num_rows;

  auto rows_equal = [&](size_t a, size_t b) {
    for (const ColumnVector& col : cb.cols) {
      if (!CellsEqual(col, a, col, b)) return false;
    }
    return true;
  };

  // Phase 1: dedup within each morsel — kept rows stay as indexes into the
  // shared input batch (first appearance kept, duplicate lineage unioned).
  struct Partial {
    std::vector<size_t> kept;
    std::vector<uint64_t> hashes;
    std::vector<LineageSet> lineage;
    std::unordered_multimap<uint64_t, size_t> seen;
  };
  std::vector<Partial> partials(NumMorsels(n));
  LDV_RETURN_IF_ERROR(RunMorsels(
      ctx, &stats_, n, [&](size_t begin, size_t end, size_t morsel) -> Status {
        Partial& local = partials[morsel];
        std::vector<uint64_t> row_hashes(end - begin, storage::kTupleHashSeed);
        for (const ColumnVector& col : cb.cols) {
          HashColumnCombine(col, begin, end - begin, row_hashes.data());
        }
        for (size_t i = begin; i < end; ++i) {
          const uint64_t h = row_hashes[i - begin];
          size_t found = SIZE_MAX;
          auto [first, last] = local.seen.equal_range(h);
          for (auto it = first; it != last; ++it) {
            if (rows_equal(local.kept[it->second], i)) {
              found = it->second;
              break;
            }
          }
          if (found == SIZE_MAX) {
            local.seen.emplace(h, local.kept.size());
            local.hashes.push_back(h);
            local.kept.push_back(i);
            if (lineage) local.lineage.push_back(std::move(cb.lineage[i]));
          } else if (lineage) {
            MergeLineage(&local.lineage[found], cb.lineage[i]);
          }
        }
        // Row-equivalent charge for the retained dedup output + hash index.
        size_t kept_bytes = 0;
        for (size_t i : local.kept) kept_bytes += ApproxColumnRowBytes(cb, i);
        return ctx->ChargeMemory(
            kept_bytes +
            local.kept.size() * (sizeof(uint64_t) + 4 * sizeof(size_t)));
      }));

  // Phase 2: merge in morsel order — global first-appearance order and
  // lineage unions match the serial pass exactly.
  std::unordered_multimap<uint64_t, size_t> seen;
  std::vector<size_t> kept;
  std::vector<LineageSet> kept_lineage;
  for (Partial& partial : partials) {
    for (size_t i = 0; i < partial.kept.size(); ++i) {
      const uint64_t h = partial.hashes[i];
      size_t found = SIZE_MAX;
      auto [first, last] = seen.equal_range(h);
      for (auto it = first; it != last; ++it) {
        if (rows_equal(kept[it->second], partial.kept[i])) {
          found = it->second;
          break;
        }
      }
      if (found == SIZE_MAX) {
        seen.emplace(h, kept.size());
        kept.push_back(partial.kept[i]);
        if (lineage) kept_lineage.push_back(std::move(partial.lineage[i]));
      } else if (lineage) {
        MergeLineage(&kept_lineage[found], partial.lineage[i]);
      }
    }
  }

  ColumnarResult out;
  out.columnar = true;
  out.batches = static_cast<int64_t>(NumMorsels(n));
  ColumnBatch& oc = out.columns;
  oc.num_rows = kept.size();
  oc.cols.resize(cb.cols.size());
  for (size_t c = 0; c < cb.cols.size(); ++c) {
    oc.cols[c].type = cb.cols[c].type;
    oc.cols[c].ResizeZero(kept.size());
    if (cb.cols[c].nulls.empty()) oc.cols[c].nulls.clear();  // stay dense
  }
  LDV_RETURN_IF_ERROR(RunMorsels(
      ctx, &stats_, kept.size(),
      [&](size_t begin, size_t end, size_t) -> Status {
        for (size_t c = 0; c < cb.cols.size(); ++c) {
          GatherColumnRange(cb.cols[c], kept.data() + begin, end - begin,
                            begin, &oc.cols[c]);
        }
        return Status::Ok();
      }));
  if (lineage) oc.lineage = std::move(kept_lineage);
  return out;
}

// ---------------------------------------------------------------------------
// SortLimitNode: no sort kernel — children vectorize, the sort runs on rows
// ---------------------------------------------------------------------------

Result<ColumnarResult> SortLimitNode::ExecuteColumnarImpl(ExecContext* ctx) {
  LDV_ASSIGN_OR_RETURN(ColumnarResult in, child_->ExecuteColumnar(ctx));
  LDV_ASSIGN_OR_RETURN(Batch rows, ColumnarToRows(ctx, &stats_, std::move(in)));
  LDV_ASSIGN_OR_RETURN(Batch out, ProcessRows(ctx, std::move(rows)));
  return WrapRows(std::move(out));
}

}  // namespace ldv::exec
