#include "exec/column_batch.h"

#include <utility>

#include "common/logging.h"

namespace ldv::exec {

using storage::Value;
using storage::ValueType;

namespace {

/// Cell `i` as a Value: a reference into a boxed column, else a copy held
/// in `*tmp`.
const Value& CellValue(const ColumnVector& col, size_t i, Value* tmp) {
  if (col.boxed) return col.cells[i];
  *tmp = col.GetValue(i);
  return *tmp;
}

/// Value::Compare over two cells, at least one of them boxed.
Result<int> CompareBoxed(const ColumnVector& a, size_t i,
                         const ColumnVector& b, size_t j) {
  Value ta, tb;
  return CellValue(a, i, &ta).Compare(CellValue(b, j, &tb));
}

}  // namespace

void ColumnVector::Reserve(size_t n) {
  if (boxed) {
    cells.reserve(n);
    return;
  }
  switch (type) {
    case ValueType::kNull:
      break;
    case ValueType::kInt64:
      i64.reserve(n);
      break;
    case ValueType::kDouble:
      f64.reserve(n);
      break;
    case ValueType::kString:
      str.reserve(n);
      break;
  }
}

void ColumnVector::ResizeLike(const ColumnVector& src, size_t n,
                              bool nullable) {
  type = src.type;
  boxed = src.boxed;
  length = n;
  if (boxed) {
    cells.assign(n, Value());
    return;
  }
  if (!src.nulls.empty() || nullable) {
    nulls.assign(n, 0);
  } else {
    nulls.clear();  // stay dense
  }
  switch (type) {
    case ValueType::kNull:
      break;
    case ValueType::kInt64:
      i64.assign(n, 0);
      break;
    case ValueType::kDouble:
      f64.assign(n, 0);
      break;
    case ValueType::kString:
      str.assign(n, std::string_view());
      break;
  }
}

void ColumnVector::SetNull(size_t i) {
  if (boxed) {
    cells[i] = Value();
  } else if (type != ValueType::kNull) {
    nulls[i] = 1;
  }
}

void ColumnVector::AppendNull() {
  if (boxed) {
    cells.emplace_back();
    ++length;
    return;
  }
  if (type == ValueType::kNull) {
    ++length;
    return;
  }
  if (nulls.empty()) nulls.assign(length, 0);
  nulls.push_back(1);
  switch (type) {
    case ValueType::kInt64:
      i64.push_back(0);
      break;
    case ValueType::kDouble:
      f64.push_back(0);
      break;
    case ValueType::kString:
      str.push_back(std::string_view());
      break;
    case ValueType::kNull:
      break;
  }
  ++length;
}

void ColumnVector::AppendInt(int64_t v) {
  LDV_CHECK(type == ValueType::kInt64);
  if (!nulls.empty()) nulls.push_back(0);
  i64.push_back(v);
  ++length;
}

void ColumnVector::AppendDouble(double v) {
  LDV_CHECK(type == ValueType::kDouble);
  if (!nulls.empty()) nulls.push_back(0);
  f64.push_back(v);
  ++length;
}

void ColumnVector::AppendStr(std::string_view v) {
  LDV_CHECK(type == ValueType::kString);
  if (!nulls.empty()) nulls.push_back(0);
  str.push_back(v);
  ++length;
}

void ColumnVector::AppendColumn(const ColumnVector& src) {
  if (src.length == 0) return;
  if (boxed) {
    if (src.boxed) {
      cells.insert(cells.end(), src.cells.begin(), src.cells.end());
    } else {
      for (size_t i = 0; i < src.length; ++i) cells.push_back(src.GetValue(i));
    }
    length += src.length;
    return;
  }
  if (type == ValueType::kNull) {
    // Every cell is NULL by type; no payload or null map to maintain.
    length += src.length;
    return;
  }
  const size_t new_length = length + src.length;
  if (src.type == ValueType::kNull) {
    // All-NULL stretch of a typed column: zero payload, null bytes set.
    if (nulls.empty()) nulls.assign(length, 0);
    nulls.resize(new_length, 1);
    switch (type) {
      case ValueType::kInt64:
        i64.resize(new_length, 0);
        break;
      case ValueType::kDouble:
        f64.resize(new_length, 0);
        break;
      case ValueType::kString:
        str.resize(new_length);
        break;
      case ValueType::kNull:
        break;
    }
    length = new_length;
    return;
  }
  LDV_CHECK(src.type == type);
  if (!src.nulls.empty()) {
    if (nulls.empty()) nulls.assign(length, 0);
    nulls.insert(nulls.end(), src.nulls.begin(), src.nulls.end());
  } else if (!nulls.empty()) {
    nulls.resize(new_length, 0);
  }
  switch (type) {
    case ValueType::kInt64:
      i64.insert(i64.end(), src.i64.begin(), src.i64.end());
      break;
    case ValueType::kDouble:
      f64.insert(f64.end(), src.f64.begin(), src.f64.end());
      break;
    case ValueType::kString:
      str.insert(str.end(), src.str.begin(), src.str.end());
      break;
    case ValueType::kNull:
      break;
  }
  length = new_length;
}

Value ColumnVector::GetValue(size_t i) const {
  if (boxed) return cells[i];
  if (IsNull(i)) return Value::Null();
  switch (type) {
    case ValueType::kInt64:
      return Value::Int(i64[i]);
    case ValueType::kDouble:
      return Value::Real(f64[i]);
    case ValueType::kString:
      return Value::Str(std::string(str[i]));
    case ValueType::kNull:
      break;
  }
  return Value::Null();
}

bool CellsEqual(const ColumnVector& a, size_t i, const ColumnVector& b,
                size_t j) {
  if (a.boxed || b.boxed) {
    Value ta, tb;
    return CellValue(a, i, &ta) == CellValue(b, j, &tb);
  }
  const bool an = a.IsNull(i);
  const bool bn = b.IsNull(j);
  if (an || bn) return an && bn;
  if (a.type != b.type) return false;
  switch (a.type) {
    case ValueType::kInt64:
      return a.i64[i] == b.i64[j];
    case ValueType::kDouble:
      return a.f64[i] == b.f64[j];
    case ValueType::kString:
      return a.str[i] == b.str[j];
    case ValueType::kNull:
      return true;
  }
  return false;
}

bool CellEqualsValue(const ColumnVector& a, size_t i, const Value& v) {
  if (a.boxed) return a.cells[i] == v;
  if (a.IsNull(i)) return v.is_null();
  if (v.type() != a.type) return false;
  switch (a.type) {
    case ValueType::kInt64:
      return a.i64[i] == v.AsInt();
    case ValueType::kDouble:
      return a.f64[i] == v.AsDouble();
    case ValueType::kString:
      return a.str[i] == v.AsString();
    case ValueType::kNull:
      return true;
  }
  return false;
}

bool JoinKeyCellsEqual(const ColumnVector& a, size_t i, const ColumnVector& b,
                       size_t j) {
  if (a.IsNull(i) || b.IsNull(j)) return false;
  if (a.boxed || b.boxed) {
    Result<int> cmp = CompareBoxed(a, i, b, j);
    return cmp.ok() && *cmp == 0;
  }
  const bool a_str = a.type == ValueType::kString;
  const bool b_str = b.type == ValueType::kString;
  if (a_str != b_str) return false;  // Compare error => not equal
  if (a_str) return a.str[i] == b.str[j];
  if (a.type == ValueType::kInt64 && b.type == ValueType::kInt64) {
    return a.i64[i] == b.i64[j];
  }
  // Mixed/double keys go through the same three-way comparison the row
  // engine uses, so NaN (neither < nor >) still counts as "equal".
  const double x = a.AsF64(i);
  const double y = b.AsF64(j);
  return !(x < y) && !(x > y);
}

int CompareCells(const ColumnVector& a, size_t i, const ColumnVector& b,
                 size_t j) {
  if (a.boxed || b.boxed) {
    Result<int> cmp = CompareBoxed(a, i, b, j);
    return cmp.ok() ? *cmp : 0;
  }
  if (a.type == ValueType::kString) {
    const int cmp = a.str[i].compare(b.str[j]);
    return cmp < 0 ? -1 : (cmp > 0 ? 1 : 0);
  }
  if (a.type == ValueType::kInt64 && b.type == ValueType::kInt64) {
    if (a.i64[i] < b.i64[j]) return -1;
    if (a.i64[i] > b.i64[j]) return 1;
    return 0;
  }
  const double x = a.AsF64(i);
  const double y = b.AsF64(j);
  if (x < y) return -1;
  if (x > y) return 1;
  return 0;
}

void GatherColumnRange(const ColumnVector& src, const size_t* sel,
                       size_t count, size_t dst_begin, ColumnVector* dst) {
  if (src.boxed) {
    for (size_t k = 0; k < count; ++k) {
      dst->cells[dst_begin + k] = src.cells[sel[k]];
    }
    return;
  }
  // NULL payload slots hold a zero default, so payloads copy unconditionally.
  switch (src.type) {
    case ValueType::kInt64:
      for (size_t k = 0; k < count; ++k) {
        dst->i64[dst_begin + k] = src.i64[sel[k]];
      }
      break;
    case ValueType::kDouble:
      for (size_t k = 0; k < count; ++k) {
        dst->f64[dst_begin + k] = src.f64[sel[k]];
      }
      break;
    case ValueType::kString:
      for (size_t k = 0; k < count; ++k) {
        dst->str[dst_begin + k] = src.str[sel[k]];
      }
      break;
    case ValueType::kNull:
      return;  // dst is all-NULL by type
  }
  if (!src.nulls.empty()) {
    for (size_t k = 0; k < count; ++k) {
      dst->nulls[dst_begin + k] = src.nulls[sel[k]];
    }
  }
}

void HashColumnCombine(const ColumnVector& col, size_t begin, size_t count,
                       uint64_t* hashes) {
  using storage::CombineValueHash;
  if (col.boxed) {
    for (size_t k = 0; k < count; ++k) {
      hashes[k] = CombineValueHash(hashes[k], col.cells[begin + k].Hash());
    }
    return;
  }
  const uint8_t* nulls = col.nulls.empty() ? nullptr : col.nulls.data();
  switch (col.type) {
    case ValueType::kInt64:
      for (size_t k = 0; k < count; ++k) {
        const size_t i = begin + k;
        hashes[k] = CombineValueHash(
            hashes[k], nulls != nullptr && nulls[i] != 0
                           ? storage::kNullValueHash
                           : storage::HashInt64Value(col.i64[i]));
      }
      return;
    case ValueType::kDouble:
      for (size_t k = 0; k < count; ++k) {
        const size_t i = begin + k;
        hashes[k] = CombineValueHash(
            hashes[k], nulls != nullptr && nulls[i] != 0
                           ? storage::kNullValueHash
                           : storage::HashDoubleValue(col.f64[i]));
      }
      return;
    case ValueType::kString:
      for (size_t k = 0; k < count; ++k) {
        const size_t i = begin + k;
        hashes[k] = CombineValueHash(
            hashes[k], nulls != nullptr && nulls[i] != 0
                           ? storage::kNullValueHash
                           : storage::HashStringValue(col.str[i]));
      }
      return;
    case ValueType::kNull:
      for (size_t k = 0; k < count; ++k) {
        hashes[k] = CombineValueHash(hashes[k], storage::kNullValueHash);
      }
      return;
  }
}

ColumnBatch ConcatColumnBatches(std::vector<ColumnBatch>&& parts) {
  ColumnBatch out;
  size_t total = 0;
  size_t first_nonempty = parts.size();
  for (size_t p = 0; p < parts.size(); ++p) {
    total += parts[p].num_rows;
    if (first_nonempty == parts.size() && !parts[p].cols.empty()) {
      first_nonempty = p;
    }
  }
  if (first_nonempty == parts.size()) return out;
  if (parts.size() == 1) return std::move(parts[0]);

  const size_t ncols = parts[first_nonempty].cols.size();
  out.num_rows = total;
  out.cols.resize(ncols);
  bool any_lineage = false;
  for (const ColumnBatch& part : parts) {
    if (!part.lineage.empty()) any_lineage = true;
  }
  if (any_lineage) out.lineage.reserve(total);
  for (size_t c = 0; c < ncols; ++c) {
    ColumnVector& dst = out.cols[c];
    // Result type: first non-kNull part wins (an all-NULL morsel of an
    // otherwise typed column is typed kNull locally); any boxed part boxes
    // the whole column.
    dst.type = ValueType::kNull;
    bool any_null_cell = false;
    for (const ColumnBatch& part : parts) {
      if (part.cols.empty()) continue;
      const ColumnVector& src = part.cols[c];
      dst.boxed = dst.boxed || src.boxed;
      if (dst.type == ValueType::kNull && src.type != ValueType::kNull) {
        dst.type = src.type;
      }
      if (src.type == ValueType::kNull || !src.nulls.empty()) {
        any_null_cell = any_null_cell || src.length > 0;
      }
    }
    if (dst.boxed) dst.type = ValueType::kNull;
    dst.Reserve(total);
    if (any_null_cell && dst.type != ValueType::kNull) dst.nulls.reserve(total);
    for (const ColumnBatch& part : parts) {
      if (part.cols.empty()) continue;
      dst.AppendColumn(part.cols[c]);
    }
  }
  if (any_lineage) {
    for (ColumnBatch& part : parts) {
      for (LineageSet& ls : part.lineage) out.lineage.push_back(std::move(ls));
    }
  }
  return out;
}

size_t ApproxColumnRowBytes(const ColumnBatch& batch, size_t row) {
  size_t bytes =
      sizeof(storage::Tuple) + batch.cols.size() * sizeof(Value);
  for (const ColumnVector& col : batch.cols) {
    if (col.boxed) {
      if (col.cells[row].type() == ValueType::kString) {
        bytes += col.cells[row].AsString().size();
      }
    } else if (col.type == ValueType::kString && !col.IsNull(row)) {
      bytes += col.str[row].size();
    }
  }
  return bytes;
}

}  // namespace ldv::exec
