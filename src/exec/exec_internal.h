#ifndef LDV_EXEC_EXEC_INTERNAL_H_
#define LDV_EXEC_EXEC_INTERNAL_H_

#include <functional>
#include <vector>

#include "exec/operators.h"

/// Internals shared by the operators (operators.cc, vector_ops.cc) and the
/// test-side reference interpreter. Not part of the exec API.

namespace ldv::exec::internal {

size_t NumMorsels(size_t n);

/// Runs `fn(begin, end, morsel)` over fixed kMorselRows chunks of [0, n) —
/// on the pool when the context allows it and there is more than one
/// morsel, inline (in morsel order) otherwise. The decomposition is
/// identical either way, so per-morsel results never depend on the degree
/// of parallelism. Records fan-out stats into `stats` when non-null.
Status RunMorsels(ExecContext* ctx, OpStats* stats, size_t n,
                  const std::function<Status(size_t, size_t, size_t)>& fn);

/// Running state for one aggregate within one group.
struct AggState {
  int64_t count = 0;
  bool any = false;
  int64_t sum_int = 0;
  double sum_double = 0;
  bool sum_is_double = false;
  storage::Value extreme;  // min/max
};

struct GroupState {
  storage::Tuple keys;
  std::vector<AggState> aggs;
  LineageSet lineage;
};

/// Hash table of groups in first-appearance order — built per morsel in
/// phase 1, merged (in morsel order) into the global table in phase 2.
struct GroupTable {
  std::vector<GroupState> groups;
  std::vector<uint64_t> hashes;  // parallel to groups
  std::unordered_multimap<uint64_t, size_t> index;

  /// Index of the group with `keys`, creating it if needed.
  size_t FindOrCreate(uint64_t hash, storage::Tuple&& keys, size_t num_aggs);
};

/// Folds one argument value into `state` (SUM/AVG over a string is an
/// error).
Status Accumulate(AggState* state, AggregateSpec::Fn fn,
                  const storage::Value& v);

/// Folds a morsel-local partial into the global state. Partials are merged
/// in morsel order, so the (floating-point sensitive) accumulation order is
/// a pure function of the input — never of the thread count.
Status MergeAggState(AggState* into, const AggState& from,
                     AggregateSpec::Fn fn);

storage::Value FinalizeAgg(const AggState& state, const AggregateSpec& spec);

/// Phase 2 of aggregation: merges the per-morsel partial group tables in
/// morsel order (first-appearance group order, deterministic float
/// accumulation), materializes the one-row global-aggregate-over-empty-input
/// case (`num_keys` == 0), finalizes each group into an output row of boxed
/// columns (keys, then aggregates) and dedups its lineage.
Result<ColumnBatch> MergeAndFinalizeGroups(
    std::vector<GroupTable>&& partials, const std::vector<AggregateSpec>& aggs,
    size_t num_keys, bool lineage);

}  // namespace ldv::exec::internal

#endif  // LDV_EXEC_EXEC_INTERNAL_H_
