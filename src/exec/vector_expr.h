#ifndef LDV_EXEC_VECTOR_EXPR_H_
#define LDV_EXEC_VECTOR_EXPR_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "exec/column_batch.h"
#include "exec/expression.h"

namespace ldv::exec {

/// Evaluates `expr` over rows [begin, end) of `batch` into `out` (length
/// end-begin). Trees the typed kernels cover run as column kernels and never
/// fail; every other tree — CONCAT, function calls, anything over a boxed
/// input column, a parameter bound with an unplanned type — runs through
/// the generic arm, EvalExpr once per row into a boxed column, and returns
/// EvalExpr's first error. Either way the cells equal EvalExpr's results.
Status EvalVector(const BoundExpr& expr, const ColumnBatch& batch,
                  size_t begin, size_t end, const storage::Tuple* params,
                  ColumnVector* out);

/// SQL truthiness per cell (NULL -> 0; numeric != 0; non-empty string),
/// matching Value::IsTruthy. `out` is resized to v.length.
void VectorTruthy(const ColumnVector& v, std::vector<uint8_t>* out);

}  // namespace ldv::exec

#endif  // LDV_EXEC_VECTOR_EXPR_H_
