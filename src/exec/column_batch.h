#ifndef LDV_EXEC_COLUMN_BATCH_H_
#define LDV_EXEC_COLUMN_BATCH_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "storage/table.h"
#include "storage/value.h"

namespace ldv::exec {

/// Rows per morsel — the unit of work parallel operators fan out over.
/// Morsel boundaries depend only on input size, never on thread count, so
/// every decomposition-sensitive result (floating-point aggregate partials,
/// group emission order) is reproducible at any degree of parallelism.
inline constexpr size_t kMorselRows = 2048;

/// Lineage of one output row: the set of input tuple versions it was derived
/// from (paper Definition 7, the P_Lin dependency set).
using LineageSet = std::vector<storage::TupleVid>;

/// One column of a ColumnBatch, in one of two forms.
///
/// Typed: a contiguous array of `type` plus an optional null bitmap
/// (byte-per-row; empty means "no NULLs in this column"). Exactly one payload
/// vector — the one matching `type` — holds `length` entries; null slots hold
/// a zero default so reads are always initialized. A typed column of type
/// kNull carries no payload at all: every row is NULL. String cells are
/// std::string_view into storage owned elsewhere for the whole statement:
/// table row versions (scans hold the table read-locked), plan-tree
/// literals, or the caller's bound parameter tuple.
///
/// Boxed (`boxed` set): every cell is a storage::Value in `cells`; `type`
/// stays kNull and the typed payloads and null map stay empty. The generic
/// expression arm produces boxed columns — its results may mix int and
/// double cells (COALESCE(int_col, 2.5)) or be strings it created, which
/// need storage that owns them — and so does aggregation, whose group keys
/// and finalized values live only as long as the operator. Kernels run on
/// typed columns only; the helpers below handle both forms.
struct ColumnVector {
  storage::ValueType type = storage::ValueType::kNull;
  size_t length = 0;
  std::vector<uint8_t> nulls;  // empty = dense; else length bytes, 1 = NULL
  std::vector<int64_t> i64;
  std::vector<double> f64;
  std::vector<std::string_view> str;
  bool boxed = false;
  std::vector<storage::Value> cells;

  size_t size() const { return length; }

  bool IsNull(size_t i) const {
    if (type == storage::ValueType::kNull) return !boxed || cells[i].is_null();
    return !nulls.empty() && nulls[i] != 0;
  }

  /// Widening numeric read (kInt64 or kDouble cell of a typed column).
  double AsF64(size_t i) const {
    return type == storage::ValueType::kInt64 ? static_cast<double>(i64[i])
                                              : f64[i];
  }

  void Reserve(size_t n);

  /// Sizes the column to `n` zero-initialized (boxed: NULL) slots in
  /// `src`'s form and type, for writes of disjoint ranges from several
  /// threads. A typed column gets a null map unless `src` has none and
  /// `nullable` is false, so dense input stays dense.
  void ResizeLike(const ColumnVector& src, size_t n, bool nullable = false);
  /// Sets slot `i` of a sized column to NULL.
  void SetNull(size_t i);

  void AppendNull();
  void AppendInt(int64_t v);
  void AppendDouble(double v);
  void AppendStr(std::string_view v);
  /// Bulk-appends all of `src` (same type, or one side kNull for an all-NULL
  /// stretch of a typed column); a boxed column takes any source, boxing
  /// typed cells as it goes.
  void AppendColumn(const ColumnVector& src);

  /// Materializes cell `i` as a Value (strings are copied out).
  storage::Value GetValue(size_t i) const;

  /// Hash of cell `i`, bit-identical to GetValue(i).Hash() — both are built
  /// on the shared per-type primitives in storage/value.h.
  uint64_t CellHash(size_t i) const {
    if (boxed) return cells[i].Hash();
    if (IsNull(i)) return storage::kNullValueHash;
    switch (type) {
      case storage::ValueType::kInt64:
        return storage::HashInt64Value(i64[i]);
      case storage::ValueType::kDouble:
        return storage::HashDoubleValue(f64[i]);
      case storage::ValueType::kString:
        return storage::HashStringValue(str[i]);
      case storage::ValueType::kNull:
        break;
    }
    return storage::kNullValueHash;
  }
};

/// Structural cell equality replicating Value::operator== exactly: NULL ==
/// NULL, matching types compare payloads (doubles via ==, so int 1 != double
/// 1.0 and NaN != NaN), mismatched types are unequal.
bool CellsEqual(const ColumnVector& a, size_t i, const ColumnVector& b,
                size_t j);
bool CellEqualsValue(const ColumnVector& a, size_t i,
                     const storage::Value& v);

/// Join-key cell equality: Value::Compare() == 0, with int<->double
/// coercion; a NULL on either side or a string/number mix (a Compare error)
/// is "not equal".
/// Note the Compare quirk survives: a NaN double key "equals" any numeric.
bool JoinKeyCellsEqual(const ColumnVector& a, size_t i, const ColumnVector& b,
                       size_t j);

/// Three-way comparison of two non-NULL cells whose types are statically
/// comparable (both numeric or both string) — Value::Compare minus the error
/// path the static kernel checks already ruled out. A boxed side compares
/// through Value::Compare, an error counting as equal (the sort's rule).
int CompareCells(const ColumnVector& a, size_t i, const ColumnVector& b,
                 size_t j);

/// Gathers `count` cells: dst[dst_begin + k] = src[sel[k]]. `dst` must be
/// pre-sized (ResizeLike) from `src`; the type dispatch runs once per
/// call, not per cell. Safe to call concurrently for disjoint dst ranges.
void GatherColumnRange(const ColumnVector& src, const size_t* sel,
                       size_t count, size_t dst_begin, ColumnVector* dst);

/// Folds cell hashes into the accumulators: hashes[k] =
/// CombineValueHash(hashes[k], col.CellHash(begin + k)) for k in [0, count),
/// bit-identical to the per-cell form with the type dispatch hoisted.
void HashColumnCombine(const ColumnVector& col, size_t begin, size_t count,
                       uint64_t* hashes);

/// The intermediate result every operator produces: columns all `num_rows`
/// long, plus the lineage annotation column (parallel per-row LineageSets,
/// populated only when the statement tracks lineage). A batch may have rows
/// but no columns (the FROM-less SELECT's single empty row).
struct ColumnBatch {
  size_t num_rows = 0;
  std::vector<ColumnVector> cols;
  std::vector<LineageSet> lineage;
};

/// Concatenates per-morsel batches in morsel order (typed columns must agree
/// in type; a column boxed in any part comes out boxed). Lineage columns
/// concatenate alongside.
ColumnBatch ConcatColumnBatches(std::vector<ColumnBatch>&& parts);

/// Approximate retained bytes of one row of `batch`, mirroring
/// ApproxTupleBytes over the same row so memory-budget charges stay
/// row-equivalent.
size_t ApproxColumnRowBytes(const ColumnBatch& batch, size_t row);

}  // namespace ldv::exec

#endif  // LDV_EXEC_COLUMN_BATCH_H_
