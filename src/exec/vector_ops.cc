// Columnar execution (DESIGN.md §15): every operator produces one
// ColumnBatch. The hot shapes run typed batch kernels — scan with fused
// filter, hash join build/probe, aggregate and distinct partials,
// projection — and the rest (sorts, outer, residual and nested-loop joins,
// expressions the kernels do not cover) run over the same batches, the
// latter through EvalVector's generic arm. Every operator works inside the
// fixed morsel decomposition, so results are bit-identical at any DOP.

#include <algorithm>
#include <numeric>
#include <utility>

#include "common/clock.h"
#include "exec/exec_internal.h"
#include "exec/operators.h"
#include "exec/vector_expr.h"

namespace ldv::exec {

using internal::AggState;
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

/// Concatenates per-morsel lists in morsel order.
template <typename T>
std::vector<T> ConcatParts(const std::vector<std::vector<T>>& parts) {
  size_t total = 0;
  for (const auto& part : parts) total += part.size();
  std::vector<T> out;
  out.reserve(total);
  for (const auto& part : parts) out.insert(out.end(), part.begin(), part.end());
  return out;
}

/// Sets `out`'s columns to the rows of `in` at `sel`, in order, gathered in
/// parallel; lineage is the caller's to carry.
Status GatherColumns(ExecContext* ctx, OpStats* stats, const ColumnBatch& in,
                     const std::vector<size_t>& sel, ColumnBatch* out) {
  out->num_rows = sel.size();
  out->cols.resize(in.cols.size());
  for (size_t c = 0; c < in.cols.size(); ++c) {
    out->cols[c].ResizeLike(in.cols[c], sel.size());
  }
  return RunMorsels(
      ctx, stats, sel.size(), [&](size_t begin, size_t end, size_t) -> Status {
        for (size_t c = 0; c < in.cols.size(); ++c) {
          GatherColumnRange(in.cols[c], sel.data() + begin, end - begin, begin,
                            &out->cols[c]);
        }
        return Status::Ok();
      });
}

/// Row indexes whose predicate cell is truthy, offset by `base`.
void AppendSelected(const ColumnVector& pred, size_t base,
                    std::vector<size_t>* sel) {
  std::vector<uint8_t> keep;
  VectorTruthy(pred, &keep);
  for (size_t i = 0; i < keep.size(); ++i) {
    if (keep[i]) sel->push_back(base + i);
  }
}

}  // namespace

Result<std::vector<Tuple>> ColumnarToRows(ExecContext* ctx,
                                          const ColumnBatch& in) {
  std::vector<Tuple> rows(in.num_rows);
  LDV_RETURN_IF_ERROR(RunMorsels(
      ctx, nullptr, in.num_rows,
      [&](size_t begin, size_t end, size_t) -> Status {
        for (size_t i = begin; i < end; ++i) {
          rows[i].reserve(in.cols.size());
          for (const ColumnVector& col : in.cols) {
            rows[i].push_back(col.GetValue(i));
          }
        }
        return Status::Ok();
      }));
  return rows;
}

// ---------------------------------------------------------------------------
// ScanNode: typed column extraction with the filter fused per morsel
// ---------------------------------------------------------------------------

Result<ColumnBatch> ScanNode::Produce(ExecContext* ctx) {
  // Snapshot-isolated scan (DESIGN.md §12): when the table carries
  // mutations newer than the snapshot epoch, every slot resolves to the
  // newest version the snapshot may see — possibly an archived pre-image,
  // possibly none. Tables untouched since the epoch take the plain path,
  // so snapshot reads on a quiescent table cost nothing extra.
  const int64_t epoch = ctx->snapshot_epoch;
  const bool versioned = epoch > 0 && table_->last_mutation_seq() > epoch;
  const auto& schema_cols = table_->schema().columns();
  const size_t base_cols = schema_cols.size();
  const size_t ncols =
      base_cols + (expose_prov_columns_ ? size_t{4} : size_t{0});
  const bool lineage = ctx->track_lineage;
  std::vector<RowVersion>& rows = table_->mutable_rows();

  using ProvRecords = std::vector<std::pair<TupleVid, const Tuple*>>;
  std::vector<ColumnBatch> parts;
  std::vector<ProvRecords> part_prov;

  // Appends the cells of `row` to the typed columns of `cand`. Storage
  // admits only NULL or schema-typed cells (Table::Insert/Update/
  // RestoreRow), so every cell lands in its column's typed array.
  auto extract = [&](const RowVersion& row, ColumnBatch* cand) {
    for (size_t c = 0; c < base_cols; ++c) {
      const Value& v = row.values[c];
      switch (v.type()) {
        case ValueType::kNull:
          cand->cols[c].AppendNull();
          break;
        case ValueType::kInt64:
          cand->cols[c].AppendInt(v.AsInt());
          break;
        case ValueType::kDouble:
          cand->cols[c].AppendDouble(v.AsDouble());
          break;
        case ValueType::kString:
          // View into the row version's string storage; stable for the
          // whole statement (the table is read-locked and lineage stamps
          // touch only the integer usedby fields).
          cand->cols[c].AppendStr(std::string_view(v.AsString()));
          break;
      }
    }
    if (expose_prov_columns_) {
      // usedby/process are read BEFORE this statement stamps the row.
      cand->cols[base_cols].AppendInt(row.rowid);
      cand->cols[base_cols + 1].AppendInt(row.version);
      cand->cols[base_cols + 2].AppendInt(row.used_by_query);
      cand->cols[base_cols + 3].AppendInt(row.used_by_process);
    }
  };
  auto new_candidates = [&](size_t rows_hint) {
    ColumnBatch cand;
    cand.cols.resize(ncols);
    for (size_t c = 0; c < ncols; ++c) {
      cand.cols[c].type =
          c < base_cols ? schema_cols[c].type : ValueType::kInt64;
      cand.cols[c].Reserve(rows_hint);
    }
    return cand;
  };
  // Applies the filter to the extracted rows of `visible` and stamps
  // lineage, into parts[part].
  auto emit = [&](ColumnBatch&& cand, const std::vector<RowVersion*>& visible,
                  size_t part) -> Status {
    cand.num_rows = visible.size();
    std::vector<size_t> sel;
    if (filter_ != nullptr) {
      ColumnVector pred;
      LDV_RETURN_IF_ERROR(
          EvalVector(*filter_, cand, 0, cand.num_rows, ctx->params, &pred));
      sel.reserve(cand.num_rows);
      AppendSelected(pred, 0, &sel);
    }
    ColumnBatch& out = parts[part];
    if (filter_ == nullptr || sel.size() == cand.num_rows) {
      // No filter, or it kept everything: hand the candidates on as-is.
      out.cols = std::move(cand.cols);
      out.num_rows = cand.num_rows;
      if (lineage && filter_ == nullptr) {
        sel.resize(cand.num_rows);
        std::iota(sel.begin(), sel.end(), size_t{0});
      }
    } else {
      out.cols.resize(ncols);
      for (size_t c = 0; c < ncols; ++c) {
        out.cols[c].ResizeLike(cand.cols[c], sel.size());
        GatherColumnRange(cand.cols[c], sel.data(), sel.size(), 0,
                          &out.cols[c]);
      }
      out.num_rows = sel.size();
    }
    if (lineage) {
      // Lineage-tracked scans stamp the prov_usedby / prov_p attributes of
      // every tuple they read (§VII-B). A parallel scan's morsels touch
      // disjoint rows, so the stamps are race-free.
      out.lineage.reserve(sel.size());
      for (size_t k : sel) {
        RowVersion* row = visible[k];
        TupleVid vid{table_->id(), row->rowid, row->version};
        row->used_by_query = ctx->query_id;
        row->used_by_process = ctx->process_id;
        out.lineage.push_back({vid});
        part_prov[part].emplace_back(vid, &row->values);
      }
    }
    return Status::Ok();
  };

  size_t batches = 0;
  if (has_index_probe() && table_->HasIndexOn(probe_column_) && !versioned) {
    // Point lookup through the hash index (live rows only, hence not for a
    // versioned snapshot). Rowid order keeps emission order identical to a
    // full scan over the same qualifying rows; index probes select few rows
    // by construction, so they make one batch.
    parts.resize(1);
    part_prov.resize(1);
    const std::vector<storage::RowId> rowids =
        table_->IndexLookup(probe_column_, probe_value_);
    ColumnBatch cand = new_candidates(rowids.size());
    std::vector<RowVersion*> visible;
    for (storage::RowId rowid : rowids) {
      RowVersion* row = table_->FindMutable(rowid);
      if (row == nullptr) continue;
      extract(*row, &cand);
      visible.push_back(row);
    }
    LDV_RETURN_IF_ERROR(ctx->CheckGovernor());
    LDV_RETURN_IF_ERROR(emit(std::move(cand), visible, 0));
    batches = 1;
  } else {
    const size_t n = rows.size();
    const size_t num_morsels = NumMorsels(n);
    parts.resize(num_morsels);
    part_prov.resize(num_morsels);
    // Resolves the version of each slot this statement may see. Snapshot
    // reads never track lineage, so the cast-away const on an archived
    // version is never written through.
    auto scan_morsel = [&](size_t begin, size_t end, size_t morsel) -> Status {
      ColumnBatch cand = new_candidates(end - begin);
      std::vector<RowVersion*> visible;
      visible.reserve(end - begin);
      for (size_t i = begin; i < end; ++i) {
        RowVersion* row = &rows[i];
        if (versioned) {
          const RowVersion* v = table_->VisibleVersion(*row, epoch);
          if (v == nullptr) continue;
          row = const_cast<RowVersion*>(v);
        } else if (row->deleted) {
          continue;
        }
        extract(*row, &cand);
        visible.push_back(row);
      }
      return emit(std::move(cand), visible, morsel);
    };
    // LIMIT pushdown (no ORDER BY above): stop at the first morsel boundary
    // where the limit is reached. Runs serially — the rows wanted are a
    // prefix, so fanning the tail out would be wasted work — and emits a
    // whole-morsel prefix of the unhinted scan's rows. Lineage-tracked
    // scans ignore the hint: they stamp every row they read.
    const int64_t limit = limit_hint_ >= 0 && !lineage ? limit_hint_ : -1;
    if (limit >= 0) {
      size_t emitted = 0;
      for (size_t m = 0; m < num_morsels; ++m) {
        if (emitted >= static_cast<size_t>(limit)) break;
        LDV_RETURN_IF_ERROR(ctx->CheckGovernor());
        const size_t begin = m * kMorselRows;
        LDV_RETURN_IF_ERROR(
            scan_morsel(begin, std::min(n, begin + kMorselRows), m));
        emitted += parts[m].num_rows;
        ++batches;
      }
    } else {
      LDV_RETURN_IF_ERROR(RunMorsels(ctx, &stats_, n, scan_morsel));
      batches = num_morsels;
    }
  }
  CountBatches(ctx, batches);

  ColumnBatch out = ConcatColumnBatches(std::move(parts));
  if (out.cols.empty()) out.cols.resize(ncols);
  for (const ProvRecords& records : part_prov) {
    ctx->prov_tuples.insert(records.begin(), records.end());
  }
  return out;
}

// ---------------------------------------------------------------------------
// FilterNode: predicate kernel -> selection vector -> one parallel gather
// ---------------------------------------------------------------------------

Result<ColumnBatch> FilterNode::Produce(ExecContext* ctx) {
  LDV_ASSIGN_OR_RETURN(ColumnBatch in, child_->Execute(ctx));
  const size_t n = in.num_rows;
  std::vector<std::vector<size_t>> sels(NumMorsels(n));
  LDV_RETURN_IF_ERROR(RunMorsels(
      ctx, &stats_, n, [&](size_t begin, size_t end, size_t morsel) -> Status {
        ColumnVector pred;
        LDV_RETURN_IF_ERROR(
            EvalVector(*predicate_, in, begin, end, ctx->params, &pred));
        AppendSelected(pred, begin, &sels[morsel]);
        return Status::Ok();
      }));
  CountBatches(ctx, NumMorsels(n));
  const std::vector<size_t> sel = ConcatParts(sels);
  ColumnBatch out;
  LDV_RETURN_IF_ERROR(GatherColumns(ctx, &stats_, in, sel, &out));
  if (ctx->track_lineage) {
    out.lineage.reserve(sel.size());
    for (size_t i : sel) out.lineage.push_back(std::move(in.lineage[i]));
  }
  return out;
}

// ---------------------------------------------------------------------------
// ProjectNode: expression kernels per morsel
// ---------------------------------------------------------------------------

Result<ColumnBatch> ProjectNode::Produce(ExecContext* ctx) {
  LDV_ASSIGN_OR_RETURN(ColumnBatch in, child_->Execute(ctx));
  const size_t n = in.num_rows;
  std::vector<ColumnBatch> parts(NumMorsels(n));
  LDV_RETURN_IF_ERROR(RunMorsels(
      ctx, &stats_, n, [&](size_t begin, size_t end, size_t morsel) -> Status {
        ColumnBatch& part = parts[morsel];
        part.cols.resize(exprs_.size());
        for (size_t e = 0; e < exprs_.size(); ++e) {
          LDV_RETURN_IF_ERROR(EvalVector(*exprs_[e], in, begin, end,
                                         ctx->params, &part.cols[e]));
        }
        part.num_rows = end - begin;
        return Status::Ok();
      }));
  CountBatches(ctx, NumMorsels(n));
  ColumnBatch out = ConcatColumnBatches(std::move(parts));
  if (out.cols.empty()) out.cols.resize(exprs_.size());
  if (ctx->track_lineage) out.lineage = std::move(in.lineage);
  return out;
}

// ---------------------------------------------------------------------------
// JoinNode: columnar hash build + probe, or a nested loop; residuals over
// gathered candidate pairs; outer padding
// ---------------------------------------------------------------------------

Result<ColumnBatch> JoinNode::Produce(ExecContext* ctx) {
  LDV_ASSIGN_OR_RETURN(ColumnBatch lb, left_->Execute(ctx));
  LDV_ASSIGN_OR_RETURN(ColumnBatch rb, right_->Execute(ctx));
  const bool lineage = ctx->track_lineage;
  const bool timing = ctx->profile;
  const bool hashed = !key_pairs_.empty();
  const size_t num_rights = rb.num_rows;
  const size_t num_lefts = lb.num_rows;
  const size_t lcols = lb.cols.size();
  const size_t rcols = rb.cols.size();

  const int64_t build_start = timing ? NowNanos() : 0;
  using PartitionTable = std::unordered_map<uint64_t, std::vector<size_t>>;
  const size_t num_partitions =
      hashed && ctx->parallel()
          ? std::min<size_t>(static_cast<size_t>(ctx->dop), 16)
          : 1;
  std::vector<PartitionTable> partitions(num_partitions);
  if (hashed) {
    // The build side is held materialized for the whole build+probe, plus
    // per-row hash/bucket bookkeeping — charge it (row-equivalent) against
    // the query budget before allocating any of it.
    size_t right_bytes = 0;
    for (size_t ri = 0; ri < num_rights; ++ri) {
      right_bytes += ApproxColumnRowBytes(rb, ri);
    }
    LDV_RETURN_IF_ERROR(ctx->ChargeMemory(
        right_bytes +
        num_rights * (sizeof(uint64_t) + sizeof(char) + 3 * sizeof(size_t))));

    // Hash the right key columns per morsel; bit-identical to HashTuple
    // over the materialized key (shared per-type primitives + combiner).
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
            if (col.boxed || col.type == ValueType::kNull ||
                !col.nulls.empty()) {
              for (size_t ri = begin; ri < end; ++ri) {
                if (col.IsNull(ri)) right_null_key[ri] = 1;
              }
            }
          }
          return Status::Ok();
        }));

    // Hash-disjoint partitions built concurrently; bucket lists hold
    // right-row indexes in ascending order. SQL equality never matches
    // NULL, so null-keyed right rows skip the build.
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
  if (timing && hashed) stats_.build_nanos += probe_start - build_start;

  // Probe per left morsel, collecting (left, right) pairs: left order, and
  // ascending right order within a left row, at every DOP. kNoRow pads an
  // unmatched left row of an outer join.
  constexpr size_t kNoRow = SIZE_MAX;
  using Pairs = std::vector<std::pair<size_t, size_t>>;
  std::vector<Pairs> pair_parts(NumMorsels(num_lefts));
  LDV_RETURN_IF_ERROR(RunMorsels(
      ctx, &stats_, num_lefts,
      [&](size_t begin, size_t end, size_t morsel) -> Status {
        Pairs& pairs = pair_parts[morsel];
        // Key-matched pairs awaiting the residual, evaluated kMorselRows at
        // a time over their gathered cells.
        Pairs cand;
        auto flush = [&]() -> Status {
          const size_t count = cand.size();
          std::vector<size_t> lsel(count), rsel(count);
          for (size_t k = 0; k < count; ++k) {
            lsel[k] = cand[k].first;
            rsel[k] = cand[k].second;
          }
          ColumnBatch gathered;
          gathered.num_rows = count;
          gathered.cols.resize(lcols + rcols);
          for (size_t c = 0; c < lcols + rcols; ++c) {
            const bool is_left = c < lcols;
            const ColumnVector& src =
                is_left ? lb.cols[c] : rb.cols[c - lcols];
            gathered.cols[c].ResizeLike(src, count);
            GatherColumnRange(src, is_left ? lsel.data() : rsel.data(), count,
                              0, &gathered.cols[c]);
          }
          ColumnVector pred;
          LDV_RETURN_IF_ERROR(EvalVector(*residual_, gathered, 0, count,
                                         ctx->params, &pred));
          std::vector<size_t> keep;
          AppendSelected(pred, 0, &keep);
          for (size_t k : keep) pairs.push_back(cand[k]);
          cand.clear();
          return Status::Ok();
        };
        auto match = [&](size_t li, size_t ri) -> Status {
          cand.emplace_back(li, ri);
          return cand.size() == kMorselRows ? flush() : Status::Ok();
        };

        if (hashed) {
          const size_t count = end - begin;
          std::vector<uint64_t> left_hash(count, storage::kTupleHashSeed);
          std::vector<char> left_null_key(count, 0);
          for (const auto& [l, r] : key_pairs_) {
            const ColumnVector& col = lb.cols[static_cast<size_t>(l)];
            HashColumnCombine(col, begin, count, left_hash.data());
            if (col.boxed || col.type == ValueType::kNull ||
                !col.nulls.empty()) {
              for (size_t k = 0; k < count; ++k) {
                if (col.IsNull(begin + k)) left_null_key[k] = 1;
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
              // Verify equality (hash collisions, and = semantics with
              // coercion).
              bool keys_equal = true;
              for (size_t k = 0; keys_equal && k < key_pairs_.size(); ++k) {
                keys_equal = JoinKeyCellsEqual(
                    lb.cols[static_cast<size_t>(key_pairs_[k].first)], li,
                    rb.cols[static_cast<size_t>(key_pairs_[k].second)], ri);
              }
              if (!keys_equal) continue;
              if (residual_ == nullptr) {
                pairs.emplace_back(li, ri);
              } else {
                LDV_RETURN_IF_ERROR(match(li, ri));
              }
            }
          }
        } else {
          // Nested loop (the residual is the join predicate). One morsel
          // covers kMorselRows left rows x |right| pairs — far more work
          // than any other morsel — so the governor is also checked at a
          // fixed pair stride (thread_local: each worker counts its own
          // pairs). A cross join is cancellable mid-morsel.
          thread_local size_t pairs_since_check = 0;
          for (size_t li = begin; li < end; ++li) {
            for (size_t ri = 0; ri < num_rights; ++ri) {
              if (++pairs_since_check >= kMorselRows) {
                pairs_since_check = 0;
                LDV_RETURN_IF_ERROR(ctx->CheckGovernor());
              }
              if (residual_ == nullptr) {
                pairs.emplace_back(li, ri);
              } else {
                LDV_RETURN_IF_ERROR(match(li, ri));
              }
            }
          }
        }
        if (!cand.empty()) LDV_RETURN_IF_ERROR(flush());
        if (left_outer_) {
          // Pad every left row that kept no pair, in left order.
          Pairs padded;
          padded.reserve(pairs.size() + (end - begin));
          size_t p = 0;
          for (size_t li = begin; li < end; ++li) {
            if (p == pairs.size() || pairs[p].first != li) {
              padded.emplace_back(li, kNoRow);
            }
            while (p < pairs.size() && pairs[p].first == li) {
              padded.push_back(pairs[p++]);
            }
          }
          pairs = std::move(padded);
        }
        return Status::Ok();
      }));
  CountBatches(ctx, NumMorsels(num_rights) + NumMorsels(num_lefts));

  const Pairs pairs = ConcatParts(pair_parts);
  ColumnBatch oc;
  oc.num_rows = pairs.size();
  oc.cols.resize(lcols + rcols);
  for (size_t c = 0; c < lcols; ++c) {
    oc.cols[c].ResizeLike(lb.cols[c], pairs.size());
  }
  for (size_t c = 0; c < rcols; ++c) {
    oc.cols[lcols + c].ResizeLike(rb.cols[c], pairs.size(), left_outer_);
  }
  if (lineage) oc.lineage.resize(pairs.size());
  LDV_RETURN_IF_ERROR(RunMorsels(
      ctx, &stats_, pairs.size(),
      [&](size_t begin, size_t end, size_t) -> Status {
        const size_t count = end - begin;
        std::vector<size_t> lsel(count), rsel(count);
        for (size_t k = 0; k < count; ++k) {
          lsel[k] = pairs[begin + k].first;
          // A padded row gathers right row 0 and is then set to NULL.
          rsel[k] = pairs[begin + k].second == kNoRow
                        ? 0
                        : pairs[begin + k].second;
        }
        for (size_t c = 0; c < lcols; ++c) {
          GatherColumnRange(lb.cols[c], lsel.data(), count, begin, &oc.cols[c]);
        }
        if (num_rights > 0) {
          for (size_t c = 0; c < rcols; ++c) {
            GatherColumnRange(rb.cols[c], rsel.data(), count, begin,
                              &oc.cols[lcols + c]);
          }
        }
        for (size_t i = begin; (left_outer_ || lineage) && i < end; ++i) {
          const auto [li, ri] = pairs[i];
          if (ri == kNoRow) {
            for (size_t c = 0; c < rcols; ++c) oc.cols[lcols + c].SetNull(i);
            if (lineage) oc.lineage[i] = lb.lineage[li];
          } else if (lineage) {
            LineageSet merged = lb.lineage[li];
            MergeLineage(&merged, rb.lineage[ri]);
            oc.lineage[i] = std::move(merged);
          }
        }
        return Status::Ok();
      }));
  if (timing && hashed) stats_.probe_nanos += NowNanos() - probe_start;
  return oc;
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
/// internal::Accumulate over the cells' Values in morsel order.
Status AccumulateColumn(GroupTable* table, const std::vector<size_t>& gids,
                        size_t slot, AggregateSpec::Fn fn,
                        const ColumnVector* arg) {
  std::vector<GroupState>& groups = table->groups;
  const size_t n = gids.size();
  const bool sum = fn == AggregateSpec::Fn::kSum || fn == AggregateSpec::Fn::kAvg;
  if (arg != nullptr &&
      (arg->boxed || (sum && arg->type == ValueType::kString))) {
    // Boxed cells (possibly of mixed types), and SUM/AVG over text (an
    // error), take the Value-at-a-time accumulator.
    for (size_t i = 0; i < n; ++i) {
      LDV_RETURN_IF_ERROR(internal::Accumulate(&groups[gids[i]].aggs[slot],
                                               fn, arg->GetValue(i)));
    }
    return Status::Ok();
  }
  switch (fn) {
    case AggregateSpec::Fn::kCountStar:
      for (size_t i = 0; i < n; ++i) ++groups[gids[i]].aggs[slot].count;
      return Status::Ok();
    case AggregateSpec::Fn::kCount:
      for (size_t i = 0; i < n; ++i) {
        if (!arg->IsNull(i)) ++groups[gids[i]].aggs[slot].count;
      }
      return Status::Ok();
    case AggregateSpec::Fn::kSum:
    case AggregateSpec::Fn::kAvg:
      // A kNull argument never accumulates; kString took the Value path
      // above. The slot's partial state is fed only by this single-typed
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
      return Status::Ok();
    case AggregateSpec::Fn::kMin:
    case AggregateSpec::Fn::kMax:
      for (size_t i = 0; i < n; ++i) {
        AccumulateCell(&groups[gids[i]].aggs[slot], fn, arg, i);
      }
      return Status::Ok();
  }
  return Status::Internal("unreachable aggregate fn");
}

}  // namespace

Result<ColumnBatch> AggregateNode::Produce(ExecContext* ctx) {
  LDV_ASSIGN_OR_RETURN(ColumnBatch cb, child_->Execute(ctx));
  const bool lineage = ctx->track_lineage;
  const size_t n = cb.num_rows;

  // Phase 1: morsel-local partial group tables. The partials depend only
  // on the (fixed) morsel boundaries, so phase 2's merge — and with it
  // every result bit — is reproducible at any DOP.
  std::vector<GroupTable> partials(NumMorsels(n));
  LDV_RETURN_IF_ERROR(RunMorsels(
      ctx, &stats_, n, [&](size_t begin, size_t end, size_t morsel) -> Status {
        GroupTable& local = partials[morsel];
        std::vector<ColumnVector> keys(group_exprs_.size());
        for (size_t g = 0; g < group_exprs_.size(); ++g) {
          LDV_RETURN_IF_ERROR(EvalVector(*group_exprs_[g], cb, begin, end,
                                         ctx->params, &keys[g]));
        }
        std::vector<ColumnVector> args(aggs_.size());
        for (size_t a = 0; a < aggs_.size(); ++a) {
          if (aggs_[a].arg != nullptr) {
            LDV_RETURN_IF_ERROR(EvalVector(*aggs_[a].arg, cb, begin, end,
                                           ctx->params, &args[a]));
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
          LDV_RETURN_IF_ERROR(
              AccumulateColumn(&local, gids, a, aggs_[a].fn,
                               aggs_[a].arg != nullptr ? &args[a] : nullptr));
        }
        if (lineage) {
          // Append now, dedup once at finalize: merging per row keeps the
          // whole accumulation quadratic for large groups (e.g. count(*)
          // over a join).
          for (size_t i = 0; i < count; ++i) {
            const LineageSet& src = cb.lineage[begin + i];
            GroupState& group = local.groups[gids[i]];
            group.lineage.insert(group.lineage.end(), src.begin(), src.end());
          }
        }
        // The partials are all retained until the phase-2 merge.
        size_t partial_bytes = 0;
        for (const GroupState& g : local.groups) {
          partial_bytes += sizeof(GroupState) + ApproxTupleBytes(g.keys) +
                           g.aggs.size() * sizeof(AggState);
        }
        return ctx->ChargeMemory(partial_bytes);
      }));
  CountBatches(ctx, NumMorsels(n));
  return MergeAndFinalizeGroups(std::move(partials), aggs_,
                                group_exprs_.size(), lineage);
}

// ---------------------------------------------------------------------------
// DistinctNode: hash dedup over column cells
// ---------------------------------------------------------------------------

Result<ColumnBatch> DistinctNode::Produce(ExecContext* ctx) {
  LDV_ASSIGN_OR_RETURN(ColumnBatch cb, child_->Execute(ctx));
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

  CountBatches(ctx, NumMorsels(n));
  ColumnBatch out;
  LDV_RETURN_IF_ERROR(GatherColumns(ctx, &stats_, cb, kept, &out));
  if (lineage) out.lineage = std::move(kept_lineage);
  return out;
}

// ---------------------------------------------------------------------------
// SortLimitNode: key columns, per-morsel stable sorts, index tie-break merge
// ---------------------------------------------------------------------------

namespace {

/// Three-way comparison of cells `a` and `b` of one sort-key column with
/// Value::Compare's order (NULLs first); an incomparable pair ties.
int CompareSortCells(const ColumnVector& col, size_t a, size_t b) {
  const bool a_null = col.IsNull(a);
  const bool b_null = col.IsNull(b);
  if (a_null || b_null) return a_null == b_null ? 0 : (a_null ? -1 : 1);
  return CompareCells(col, a, col, b);
}

}  // namespace

Result<ColumnBatch> SortLimitNode::Produce(ExecContext* ctx) {
  LDV_ASSIGN_OR_RETURN(ColumnBatch in, child_->Execute(ctx));
  const size_t n = in.num_rows;
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), size_t{0});

  if (!keys_.empty() && n > 1) {
    // Evaluate the sort keys per morsel (errors surface before sorting,
    // lowest-indexed morsel first — the serial error too).
    std::vector<ColumnBatch> key_parts(NumMorsels(n));
    LDV_RETURN_IF_ERROR(RunMorsels(
        ctx, &stats_, n,
        [&](size_t begin, size_t end, size_t morsel) -> Status {
          ColumnBatch& part = key_parts[morsel];
          part.num_rows = end - begin;
          part.cols.resize(keys_.size());
          for (size_t k = 0; k < keys_.size(); ++k) {
            LDV_RETURN_IF_ERROR(EvalVector(*keys_[k].expr, in, begin, end,
                                           ctx->params, &part.cols[k]));
          }
          // The evaluated sort keys are retained for the whole sort+merge.
          size_t bytes = (end - begin) * sizeof(size_t);
          for (size_t i = 0; i < part.num_rows; ++i) {
            bytes += ApproxColumnRowBytes(part, i);
          }
          return ctx->ChargeMemory(bytes);
        }));
    const ColumnBatch sort_keys = ConcatColumnBatches(std::move(key_parts));
    auto key_less = [&](size_t a, size_t b) {
      for (size_t k = 0; k < keys_.size(); ++k) {
        const int c = CompareSortCells(sort_keys.cols[k], a, b);
        if (c != 0) return keys_[k].ascending ? c < 0 : c > 0;
      }
      return false;
    };

    // Sort each morsel's index range (stable within the morsel), then
    // k-way merge the runs, breaking key ties by original index — which
    // reproduces one global stable sort at any DOP.
    LDV_RETURN_IF_ERROR(RunMorsels(
        ctx, &stats_, n, [&](size_t begin, size_t end, size_t) -> Status {
          std::stable_sort(order.begin() + static_cast<long>(begin),
                           order.begin() + static_cast<long>(end), key_less);
          return Status::Ok();
        }));
    const size_t num_runs = NumMorsels(n);
    if (num_runs > 1) {
      auto merge_less = [&](size_t a, size_t b) {
        if (key_less(a, b)) return true;
        if (key_less(b, a)) return false;
        return a < b;  // stability: input order among equal keys
      };
      std::vector<size_t> run_pos(num_runs), run_end(num_runs);
      for (size_t r = 0; r < num_runs; ++r) {
        run_pos[r] = r * kMorselRows;
        run_end[r] = std::min(n, run_pos[r] + kMorselRows);
      }
      std::vector<size_t> merged;
      merged.reserve(n);
      const size_t want =
          limit_.has_value() && *limit_ >= 0 &&
                  static_cast<size_t>(*limit_) < n
              ? static_cast<size_t>(*limit_)
              : n;
      while (merged.size() < want) {
        // The k-way merge is serial and can cover the full input; keep it
        // cancellable at the same stride the morsel loops use.
        if ((merged.size() % kMorselRows) == kMorselRows - 1) {
          LDV_RETURN_IF_ERROR(ctx->CheckGovernor());
        }
        size_t best = SIZE_MAX;
        for (size_t r = 0; r < num_runs; ++r) {
          if (run_pos[r] == run_end[r]) continue;
          if (best == SIZE_MAX ||
              merge_less(order[run_pos[r]], order[run_pos[best]])) {
            best = r;
          }
        }
        if (best == SIZE_MAX) break;
        merged.push_back(order[run_pos[best]++]);
      }
      order = std::move(merged);
    }
    CountBatches(ctx, num_runs);
  }

  if (limit_.has_value() && *limit_ >= 0 &&
      static_cast<size_t>(*limit_) < order.size()) {
    order.resize(static_cast<size_t>(*limit_));
  }
  ColumnBatch out;
  LDV_RETURN_IF_ERROR(GatherColumns(ctx, &stats_, in, order, &out));
  if (ctx->track_lineage) {
    out.lineage.reserve(order.size());
    for (size_t i : order) out.lineage.push_back(std::move(in.lineage[i]));
  }
  return out;
}

}  // namespace ldv::exec
