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

using storage::RowVersion;
using storage::Tuple;
using storage::TupleVid;
using storage::Value;
using storage::ValueType;

// ---------------------------------------------------------------------------
// PlanNode instrumentation
// ---------------------------------------------------------------------------

Result<Batch> PlanNode::Execute(ExecContext* ctx) {
  // Shared (cached) plan trees may execute concurrently: never touch
  // stats_, even if tracing got enabled mid-execution.
  if (ctx->frozen_plan || (!ctx->profile && !obs::TraceRecorder::enabled())) {
    return ExecuteImpl(ctx);
  }
  return ExecuteInstrumented(ctx);
}

Result<Batch> PlanNode::ExecuteInstrumented(ExecContext* ctx) {
  obs::Span span(label(), "exec");
  if (span.recording()) {
    std::string d = detail();
    if (!d.empty()) span.AddArg("detail", d);
  }
  const int64_t start = NowNanos();
  Result<Batch> result = ExecuteImpl(ctx);
  stats_.wall_nanos += NowNanos() - start;
  ++stats_.invocations;
  if (result.ok()) {
    stats_.rows_out += static_cast<int64_t>(result->rows.size());
    if (span.recording()) {
      span.AddArg("rows_out", std::to_string(result->rows.size()));
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

/// Counters the parallel fan-outs feed; resolved once (registry lookups
/// take a mutex, Add() is a relaxed sharded increment).
struct ParallelMetrics {
  obs::Counter* fanouts;
  obs::Counter* morsels;
};

const ParallelMetrics& GetParallelMetrics() {
  static const ParallelMetrics metrics{
      obs::MetricsRegistry::Global().counter("exec.parallel.fanouts"),
      obs::MetricsRegistry::Global().counter("exec.parallel.morsels")};
  return metrics;
}

}  // namespace

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
  const ParallelMetrics& metrics = GetParallelMetrics();
  metrics.fanouts->Add(1);
  metrics.morsels->Add(static_cast<int64_t>(num_morsels));
  return status;
}

void AppendBatch(Batch* dst, Batch&& src) {
  if (dst->rows.empty() && dst->lineage.empty()) {
    *dst = std::move(src);
    return;
  }
  dst->rows.insert(dst->rows.end(),
                   std::make_move_iterator(src.rows.begin()),
                   std::make_move_iterator(src.rows.end()));
  dst->lineage.insert(dst->lineage.end(),
                      std::make_move_iterator(src.lineage.begin()),
                      std::make_move_iterator(src.lineage.end()));
}

size_t ApproxRowsBytes(const std::vector<Tuple>& rows, size_t begin,
                       size_t end) {
  size_t bytes = 0;
  for (size_t i = begin; i < end; ++i) bytes += ApproxTupleBytes(rows[i]);
  return bytes;
}

Batch ConcatBatches(std::vector<Batch>&& parts) {
  size_t rows = 0;
  size_t lineage = 0;
  for (const Batch& part : parts) {
    rows += part.rows.size();
    lineage += part.lineage.size();
  }
  Batch out;
  out.rows.reserve(rows);
  out.lineage.reserve(lineage);
  for (Batch& part : parts) AppendBatch(&out, std::move(part));
  return out;
}

}  // namespace internal

using internal::AppendBatch;
using internal::ApproxRowsBytes;
using internal::ConcatBatches;
using internal::NumMorsels;
using internal::RunMorsels;

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

Status ScanNode::EmitRow(ExecContext* ctx, RowVersion* row, Batch* out,
                         ProvRecords* prov) {
  Tuple values = row->values;
  if (expose_prov_columns_) {
    values.push_back(Value::Int(row->rowid));
    values.push_back(Value::Int(row->version));
    values.push_back(Value::Int(row->used_by_query));
    values.push_back(Value::Int(row->used_by_process));
  }
  if (filter_ != nullptr) {
    LDV_ASSIGN_OR_RETURN(Value keep, EvalExpr(*filter_, values, ctx->params));
    if (!keep.IsTruthy()) return Status::Ok();
  }
  if (ctx->track_lineage) {
    // Lineage-tracked scans stamp the prov_usedby / prov_p attributes of
    // every tuple they read (§VII-B). A parallel scan's morsels touch
    // disjoint rows, so the stamps are race-free.
    TupleVid vid{table_->id(), row->rowid, row->version};
    row->used_by_query = ctx->query_id;
    row->used_by_process = ctx->process_id;
    out->lineage.push_back({vid});
    prov->emplace_back(vid, &row->values);
  }
  out->rows.push_back(std::move(values));
  return Status::Ok();
}

std::string ScanNode::detail() const {
  std::string d = table_->name();
  if (!alias_.empty() && alias_ != table_->name()) d += " AS " + alias_;
  if (has_index_probe()) d += " [index probe]";
  return d;
}

Result<Batch> ScanNode::ExecuteImpl(ExecContext* ctx) {
  ProvRecords prov;
  Batch out;
  // Snapshot-isolated scan (DESIGN.md §12): when the table carries
  // mutations newer than the snapshot epoch, every slot resolves to the
  // newest version the snapshot may see — possibly an archived pre-image,
  // possibly none. Tables untouched since the epoch take the plain path,
  // so snapshot reads on a quiescent table cost nothing extra.
  const int64_t epoch = ctx->snapshot_epoch;
  const bool versioned = epoch > 0 && table_->last_mutation_seq() > epoch;
  // The hash index covers live rows only; a snapshot that must see rows
  // updated or deleted after its epoch would miss them through the probe,
  // so the scan falls back to the full version-resolving path.
  if (has_index_probe() && table_->HasIndexOn(probe_column_) && !versioned) {
    // Point lookup through the hash index; rowid order keeps emission order
    // identical to a full scan over the same qualifying rows. Stays serial:
    // index probes select few rows by construction.
    for (storage::RowId rowid :
         table_->IndexLookup(probe_column_, probe_value_)) {
      RowVersion* row = table_->FindMutable(rowid);
      if (row == nullptr) continue;
      LDV_RETURN_IF_ERROR(EmitRow(ctx, row, &out, &prov));
    }
  } else {
    std::vector<RowVersion>& rows = table_->mutable_rows();
    const size_t n = rows.size();
    // Emits the version of rows[i] this statement may see. Snapshot reads
    // never track lineage, so the cast-away const on an archived version is
    // never written through (EmitRow mutates only under track_lineage).
    auto emit_visible = [&](size_t i, Batch* batch,
                            ProvRecords* records) -> Status {
      RowVersion* row = &rows[i];
      if (versioned) {
        const RowVersion* visible = table_->VisibleVersion(*row, epoch);
        if (visible == nullptr) return Status::Ok();
        row = const_cast<RowVersion*>(visible);
      } else if (row->deleted) {
        return Status::Ok();
      }
      return EmitRow(ctx, row, batch, records);
    };
    // LIMIT pushdown (no ORDER BY above): stop at the first morsel boundary
    // where the limit is reached. Runs serially — the rows wanted are a
    // prefix, so fanning the tail out would be wasted work — and emits
    // exactly the whole-morsel prefix a limit-aware parallel decomposition
    // would, keeping results identical to the unhinted scan's first rows.
    // Lineage-tracked scans ignore the hint: they stamp every row they read.
    const int64_t limit =
        limit_hint_ >= 0 && !ctx->track_lineage ? limit_hint_ : -1;
    if (limit >= 0) {
      const size_t num_morsels = NumMorsels(n);
      for (size_t m = 0; m < num_morsels; ++m) {
        if (out.rows.size() >= static_cast<size_t>(limit)) break;
        LDV_RETURN_IF_ERROR(ctx->CheckGovernor());
        const size_t begin = m * kMorselRows;
        const size_t end = std::min(n, begin + kMorselRows);
        for (size_t i = begin; i < end; ++i) {
          LDV_RETURN_IF_ERROR(emit_visible(i, &out, &prov));
        }
      }
    } else if (!ctx->parallel() || NumMorsels(n) <= 1) {
      out.rows.reserve(n);
      if (ctx->track_lineage) out.lineage.reserve(n);
      for (size_t i = 0; i < n; ++i) {
        LDV_RETURN_IF_ERROR(emit_visible(i, &out, &prov));
      }
    } else {
      // Morsel-parallel scan with the pushed-down filter fused into each
      // morsel; per-morsel outputs concatenate to the serial emission order.
      std::vector<Batch> parts(NumMorsels(n));
      std::vector<ProvRecords> part_prov(parts.size());
      LDV_RETURN_IF_ERROR(RunMorsels(
          ctx, &stats_, n,
          [&](size_t begin, size_t end, size_t morsel) -> Status {
            Batch& part = parts[morsel];
            part.rows.reserve(end - begin);
            for (size_t i = begin; i < end; ++i) {
              LDV_RETURN_IF_ERROR(
                  emit_visible(i, &part, &part_prov[morsel]));
            }
            return Status::Ok();
          }));
      out = ConcatBatches(std::move(parts));
      for (const ProvRecords& records : part_prov) {
        ctx->prov_tuples.insert(records.begin(), records.end());
      }
    }
  }
  ctx->prov_tuples.insert(prov.begin(), prov.end());
  return out;
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

Result<Batch> JoinNode::ExecuteImpl(ExecContext* ctx) {
  LDV_ASSIGN_OR_RETURN(Batch left, left_->Execute(ctx));
  LDV_ASSIGN_OR_RETURN(Batch right, right_->Execute(ctx));
  return ProcessRows(ctx, std::move(left), std::move(right));
}

Result<Batch> JoinNode::ProcessRows(ExecContext* ctx, Batch&& left,
                                    Batch&& right) {
  const bool lineage = ctx->track_lineage;
  const bool timing = ctx->profile;
  const size_t right_width =
      static_cast<size_t>(right_->scope().num_columns());

  // Emits left[li] + right[ri] into `out`; returns whether the pair
  // survived the residual predicate (outer-join match bookkeeping).
  auto emit = [&](size_t li, size_t ri, Batch* out) -> Result<bool> {
    Tuple row;
    row.reserve(left.rows[li].size() + right.rows[ri].size());
    row = left.rows[li];
    row.insert(row.end(), right.rows[ri].begin(), right.rows[ri].end());
    if (residual_ != nullptr) {
      LDV_ASSIGN_OR_RETURN(Value keep, EvalExpr(*residual_, row, ctx->params));
      if (!keep.IsTruthy()) return false;
    }
    if (lineage) {
      LineageSet merged = left.lineage[li];
      MergeLineage(&merged, right.lineage[ri]);
      out->lineage.push_back(std::move(merged));
    }
    out->rows.push_back(std::move(row));
    return true;
  };

  auto emit_unmatched = [&](size_t li, Batch* out) {
    Tuple row = left.rows[li];
    row.resize(row.size() + right_width);  // NULL padding
    if (lineage) out->lineage.push_back(left.lineage[li]);
    out->rows.push_back(std::move(row));
  };

  // Both join strategies fan out over morsels of the left (probe) input;
  // per-morsel outputs concatenate to left-row order, matches within one
  // left row are emitted in ascending right-row order — deterministic and
  // identical at every degree of parallelism.
  auto probe_morsels =
      [&](const std::function<Status(size_t, Batch*)>& per_left_row)
      -> Result<Batch> {
    const size_t n = left.rows.size();
    std::vector<Batch> parts(NumMorsels(n));
    LDV_RETURN_IF_ERROR(RunMorsels(
        ctx, &stats_, n, [&](size_t begin, size_t end, size_t morsel) {
          for (size_t li = begin; li < end; ++li) {
            LDV_RETURN_IF_ERROR(per_left_row(li, &parts[morsel]));
          }
          return Status::Ok();
        }));
    return ConcatBatches(std::move(parts));
  };

  if (key_pairs_.empty()) {
    // Nested loop (the residual is the join predicate). One morsel covers
    // kMorselRows left rows x |right| evaluations — far more work than any
    // other morsel — so the governor is also checked at a fixed
    // pair-evaluation stride (thread_local: each worker counts its own
    // pairs, no sharing across morsel threads). A cross join is cancellable
    // mid-morsel, whatever the shape of the two sides.
    return probe_morsels([&](size_t li, Batch* out) -> Status {
      bool matched = false;
      thread_local size_t pairs_since_check = 0;
      for (size_t ri = 0; ri < right.rows.size(); ++ri) {
        if (++pairs_since_check >= kMorselRows) {
          pairs_since_check = 0;
          LDV_RETURN_IF_ERROR(ctx->CheckGovernor());
        }
        LDV_ASSIGN_OR_RETURN(bool hit, emit(li, ri, out));
        matched |= hit;
      }
      if (left_outer_ && !matched) emit_unmatched(li, out);
      return Status::Ok();
    });
  }

  // Partitioned hash join. Right rows are hashed in parallel, split into
  // hash-disjoint partitions built concurrently (bucket lists keep
  // ascending right-row order), then the left side probes in parallel.
  auto key_of = [&](const Tuple& row, bool is_right) {
    Tuple key;
    key.reserve(key_pairs_.size());
    for (const auto& [l, r] : key_pairs_) {
      key.push_back(row[static_cast<size_t>(is_right ? r : l)]);
    }
    return key;
  };

  const int64_t build_start = timing ? NowNanos() : 0;
  const size_t num_rights = right.rows.size();
  // The build side is held materialized for the whole build+probe, plus
  // per-row hash/bucket bookkeeping — charge it against the query budget
  // before allocating any of it.
  LDV_RETURN_IF_ERROR(ctx->ChargeMemory(
      ApproxRowsBytes(right.rows, 0, num_rights) +
      num_rights * (sizeof(uint64_t) + sizeof(char) + 3 * sizeof(size_t))));
  std::vector<uint64_t> right_hash(num_rights);
  std::vector<char> right_null_key(num_rights, 0);
  LDV_RETURN_IF_ERROR(RunMorsels(
      ctx, &stats_, num_rights, [&](size_t begin, size_t end, size_t) {
        for (size_t ri = begin; ri < end; ++ri) {
          Tuple key = key_of(right.rows[ri], true);
          for (const Value& v : key) {
            if (v.is_null()) right_null_key[ri] = 1;
          }
          right_hash[ri] = storage::HashTuple(key);
        }
        return Status::Ok();
      }));

  // Buckets hold right-row indexes in insertion (= ascending) order. SQL
  // equality never matches NULL, so null-keyed right rows skip the build.
  using PartitionTable = std::unordered_map<uint64_t, std::vector<size_t>>;
  const size_t num_partitions =
      ctx->parallel()
          ? std::min<size_t>(static_cast<size_t>(ctx->dop), 16)
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
      LDV_RETURN_IF_ERROR(ctx->pool->RunTasks(std::move(build_tasks),
                                              ctx->dop));
    } else {
      LDV_RETURN_IF_ERROR(build_tasks[0]());
    }
  }
  const int64_t probe_start = timing ? NowNanos() : 0;
  if (timing) stats_.build_nanos += probe_start - build_start;

  Result<Batch> out = probe_morsels([&](size_t li, Batch* out) -> Status {
    Tuple probe = key_of(left.rows[li], false);
    bool null_key = false;
    for (const Value& v : probe) null_key |= v.is_null();
    bool matched = false;
    if (!null_key) {  // SQL equality never matches NULL
      const uint64_t h = storage::HashTuple(probe);
      const PartitionTable& table = partitions[h % num_partitions];
      auto it = table.find(h);
      if (it != table.end()) {
        for (size_t ri : it->second) {
          // Verify equality (hash collisions, and = semantics with
          // coercion).
          bool keys_equal = true;
          for (size_t k = 0; keys_equal && k < key_pairs_.size(); ++k) {
            const Value& lv =
                left.rows[li][static_cast<size_t>(key_pairs_[k].first)];
            const Value& rv =
                right.rows[ri][static_cast<size_t>(key_pairs_[k].second)];
            if (lv.is_null() || rv.is_null()) {
              keys_equal = false;
              break;
            }
            Result<int> cmp = lv.Compare(rv);
            if (!cmp.ok() || *cmp != 0) keys_equal = false;
          }
          if (keys_equal) {
            LDV_ASSIGN_OR_RETURN(bool hit, emit(li, ri, out));
            matched |= hit;
          }
        }
      }
    }
    if (left_outer_ && !matched) emit_unmatched(li, out);
    return Status::Ok();
  });
  if (timing) stats_.probe_nanos += NowNanos() - probe_start;
  return out;
}

// ---------------------------------------------------------------------------
// FilterNode
// ---------------------------------------------------------------------------

FilterNode::FilterNode(std::unique_ptr<PlanNode> child,
                       std::unique_ptr<BoundExpr> predicate)
    : child_(std::move(child)), predicate_(std::move(predicate)) {
  scope_ = child_->scope();
}

Result<Batch> FilterNode::ExecuteImpl(ExecContext* ctx) {
  LDV_ASSIGN_OR_RETURN(Batch in, child_->Execute(ctx));
  return ProcessRows(ctx, std::move(in));
}

Result<Batch> FilterNode::ProcessRows(ExecContext* ctx, Batch&& in) {
  std::vector<Batch> parts(NumMorsels(in.rows.size()));
  LDV_RETURN_IF_ERROR(RunMorsels(
      ctx, &stats_, in.rows.size(),
      [&](size_t begin, size_t end, size_t morsel) -> Status {
        Batch& part = parts[morsel];
        for (size_t i = begin; i < end; ++i) {
          LDV_ASSIGN_OR_RETURN(Value keep,
                               EvalExpr(*predicate_, in.rows[i], ctx->params));
          if (!keep.IsTruthy()) continue;
          part.rows.push_back(std::move(in.rows[i]));
          if (ctx->track_lineage) {
            part.lineage.push_back(std::move(in.lineage[i]));
          }
        }
        return Status::Ok();
      }));
  return ConcatBatches(std::move(parts));
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

Result<Batch> ProjectNode::ExecuteImpl(ExecContext* ctx) {
  LDV_ASSIGN_OR_RETURN(Batch in, child_->Execute(ctx));
  return ProcessRows(ctx, std::move(in));
}

Result<Batch> ProjectNode::ProcessRows(ExecContext* ctx, Batch&& in) {
  Batch out;
  out.rows.resize(in.rows.size());
  LDV_RETURN_IF_ERROR(RunMorsels(
      ctx, &stats_, in.rows.size(),
      [&](size_t begin, size_t end, size_t) -> Status {
        for (size_t i = begin; i < end; ++i) {
          Tuple row;
          row.reserve(exprs_.size());
          for (const auto& e : exprs_) {
            LDV_ASSIGN_OR_RETURN(Value v,
                                 EvalExpr(*e, in.rows[i], ctx->params));
            row.push_back(std::move(v));
          }
          out.rows[i] = std::move(row);
        }
        return Status::Ok();
      }));
  if (ctx->track_lineage) out.lineage = std::move(in.lineage);
  return out;
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

Result<Batch> MergeAndFinalizeGroups(std::vector<GroupTable>&& partials,
                                     const std::vector<AggregateSpec>& aggs,
                                     bool group_by, bool lineage) {
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
  if (groups.empty() && !group_by) {
    GroupState g;
    g.aggs.resize(aggs.size());
    groups.push_back(std::move(g));
  }

  Batch out;
  out.rows.reserve(groups.size());
  if (lineage) out.lineage.reserve(groups.size());
  for (GroupState& g : groups) {
    Tuple row = std::move(g.keys);
    row.reserve(row.size() + aggs.size());
    for (size_t a = 0; a < aggs.size(); ++a) {
      row.push_back(FinalizeAgg(g.aggs[a], aggs[a]));
    }
    out.rows.push_back(std::move(row));
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

using internal::Accumulate;
using internal::AggState;
using internal::GroupState;
using internal::GroupTable;
using internal::MergeAndFinalizeGroups;

std::string AggregateNode::detail() const {
  return std::to_string(group_exprs_.size()) + " group keys, " +
         std::to_string(aggs_.size()) + " aggregates";
}

Result<Batch> AggregateNode::ExecuteImpl(ExecContext* ctx) {
  LDV_ASSIGN_OR_RETURN(Batch in, child_->Execute(ctx));
  return ProcessRows(ctx, std::move(in));
}

Result<Batch> AggregateNode::ProcessRows(ExecContext* ctx, Batch&& in) {
  const bool lineage = ctx->track_lineage;

  // Phase 1: thread-local partial group tables, one per morsel. The
  // partials depend only on the (fixed) morsel boundaries, so phase 2's
  // merge — and with it every result bit — is reproducible at any DOP.
  std::vector<GroupTable> partials(NumMorsels(in.rows.size()));
  LDV_RETURN_IF_ERROR(RunMorsels(
      ctx, &stats_, in.rows.size(),
      [&](size_t begin, size_t end, size_t morsel) -> Status {
        GroupTable& local = partials[morsel];
        for (size_t i = begin; i < end; ++i) {
          Tuple keys;
          keys.reserve(group_exprs_.size());
          for (const auto& g : group_exprs_) {
            LDV_ASSIGN_OR_RETURN(Value v,
                                 EvalExpr(*g, in.rows[i], ctx->params));
            keys.push_back(std::move(v));
          }
          uint64_t h = storage::HashTuple(keys);
          size_t group_id = local.FindOrCreate(h, std::move(keys),
                                               aggs_.size());
          GroupState& group = local.groups[group_id];
          for (size_t a = 0; a < aggs_.size(); ++a) {
            Value arg;
            if (aggs_[a].arg != nullptr) {
              LDV_ASSIGN_OR_RETURN(
                  arg, EvalExpr(*aggs_[a].arg, in.rows[i], ctx->params));
            }
            LDV_RETURN_IF_ERROR(Accumulate(&group.aggs[a], aggs_[a].fn, arg));
          }
          if (lineage) {
            // Append now, dedup once at finalize: merging per-row keeps the
            // whole accumulation quadratic for large groups (e.g. count(*)
            // over a join).
            group.lineage.insert(group.lineage.end(), in.lineage[i].begin(),
                                 in.lineage[i].end());
          }
        }
        // Charge the morsel's partial table against the query budget: the
        // partials are all retained until the phase-2 merge.
        size_t partial_bytes = 0;
        for (const GroupState& g : local.groups) {
          partial_bytes += sizeof(GroupState) + ApproxTupleBytes(g.keys) +
                           g.aggs.size() * sizeof(AggState);
        }
        return ctx->ChargeMemory(partial_bytes);
      }));

  return MergeAndFinalizeGroups(std::move(partials), aggs_,
                                !group_exprs_.empty(), lineage);
}

// ---------------------------------------------------------------------------
// DistinctNode
// ---------------------------------------------------------------------------

DistinctNode::DistinctNode(std::unique_ptr<PlanNode> child)
    : child_(std::move(child)) {
  scope_ = child_->scope();
}

Result<Batch> DistinctNode::ExecuteImpl(ExecContext* ctx) {
  LDV_ASSIGN_OR_RETURN(Batch in, child_->Execute(ctx));
  return ProcessRows(ctx, std::move(in));
}

Result<Batch> DistinctNode::ProcessRows(ExecContext* ctx, Batch&& in) {
  const bool lineage = ctx->track_lineage;

  // Phase 1: dedup within each morsel (first appearance kept, duplicate
  // lineage unioned locally), keeping row hashes for the merge.
  struct Partial {
    Batch out;
    std::vector<uint64_t> hashes;
    std::unordered_multimap<uint64_t, size_t> seen;
  };
  std::vector<Partial> partials(NumMorsels(in.rows.size()));
  LDV_RETURN_IF_ERROR(RunMorsels(
      ctx, &stats_, in.rows.size(),
      [&](size_t begin, size_t end, size_t morsel) -> Status {
        Partial& local = partials[morsel];
        for (size_t i = begin; i < end; ++i) {
          uint64_t h = storage::HashTuple(in.rows[i]);
          size_t found = SIZE_MAX;
          auto [first, last] = local.seen.equal_range(h);
          for (auto it = first; it != last; ++it) {
            if (local.out.rows[it->second] == in.rows[i]) {
              found = it->second;
              break;
            }
          }
          if (found == SIZE_MAX) {
            local.seen.emplace(h, local.out.rows.size());
            local.hashes.push_back(h);
            local.out.rows.push_back(std::move(in.rows[i]));
            if (lineage) local.out.lineage.push_back(std::move(in.lineage[i]));
          } else if (lineage) {
            MergeLineage(&local.out.lineage[found], in.lineage[i]);
          }
        }
        // Charge the retained (deduped) morsel output plus its hash index.
        return ctx->ChargeMemory(
            ApproxRowsBytes(local.out.rows, 0, local.out.rows.size()) +
            local.out.rows.size() * (sizeof(uint64_t) + 4 * sizeof(size_t)));
      }));

  // Phase 2: merge partials in morsel order — global first-appearance
  // order and lineage unions match the serial pass exactly.
  std::unordered_multimap<uint64_t, size_t> seen;
  Batch out;
  for (Partial& partial : partials) {
    for (size_t i = 0; i < partial.out.rows.size(); ++i) {
      const uint64_t h = partial.hashes[i];
      size_t found = SIZE_MAX;
      auto [first, last] = seen.equal_range(h);
      for (auto it = first; it != last; ++it) {
        if (out.rows[it->second] == partial.out.rows[i]) {
          found = it->second;
          break;
        }
      }
      if (found == SIZE_MAX) {
        seen.emplace(h, out.rows.size());
        out.rows.push_back(std::move(partial.out.rows[i]));
        if (lineage) out.lineage.push_back(std::move(partial.out.lineage[i]));
      } else if (lineage) {
        MergeLineage(&out.lineage[found], partial.out.lineage[i]);
      }
    }
  }
  return out;
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

Result<Batch> SortLimitNode::ExecuteImpl(ExecContext* ctx) {
  LDV_ASSIGN_OR_RETURN(Batch in, child_->Execute(ctx));
  return ProcessRows(ctx, std::move(in));
}

Result<Batch> SortLimitNode::ProcessRows(ExecContext* ctx, Batch&& in) {
  const size_t n = in.rows.size();
  std::vector<size_t> order(n);
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;

  if (!keys_.empty() && n > 1) {
    // Precompute sort keys (parallel over morsels; evaluation errors
    // surface before sorting, lowest-indexed morsel first — the serial
    // error too).
    std::vector<Tuple> sort_keys(n);
    LDV_RETURN_IF_ERROR(RunMorsels(
        ctx, &stats_, n, [&](size_t begin, size_t end, size_t) -> Status {
          for (size_t i = begin; i < end; ++i) {
            Tuple key;
            key.reserve(keys_.size());
            for (const SortKey& k : keys_) {
              LDV_ASSIGN_OR_RETURN(Value v,
                                   EvalExpr(*k.expr, in.rows[i], ctx->params));
              key.push_back(std::move(v));
            }
            sort_keys[i] = std::move(key);
          }
          // The evaluated sort keys are retained for the whole sort+merge.
          return ctx->ChargeMemory(ApproxRowsBytes(sort_keys, begin, end) +
                                   (end - begin) * sizeof(size_t));
        }));
    auto key_less = [&](size_t a, size_t b) {
      for (size_t k = 0; k < keys_.size(); ++k) {
        Result<int> cmp = sort_keys[a][k].Compare(sort_keys[b][k]);
        int c = cmp.ok() ? *cmp : 0;
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
  }

  size_t count = order.size();
  if (limit_.has_value() && *limit_ >= 0 &&
      static_cast<size_t>(*limit_) < count) {
    count = static_cast<size_t>(*limit_);
  }
  Batch out;
  out.rows.reserve(count);
  if (ctx->track_lineage) out.lineage.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    out.rows.push_back(std::move(in.rows[order[i]]));
    if (ctx->track_lineage) {
      out.lineage.push_back(std::move(in.lineage[order[i]]));
    }
  }
  return out;
}

}  // namespace ldv::exec
