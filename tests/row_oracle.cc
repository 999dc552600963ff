#include "row_oracle.h"

#include <algorithm>
#include <map>

#include "exec/exec_internal.h"
#include "exec/operators.h"
#include "exec/planner.h"
#include "sql/parser.h"

namespace ldv::exec {
namespace {

using storage::Tuple;
using storage::TupleVid;
using storage::Value;

struct Rows {
  std::vector<Tuple> rows;
  std::vector<LineageSet> lineage;  // parallel to rows when tracking
};

class Interpreter {
 public:
  explicit Interpreter(bool lineage) : lineage_(lineage) {}

  bool inexact_sums() const { return inexact_sums_; }
  const std::map<TupleVid, Tuple>& read_tuples() const { return read_; }

  Result<Rows> Run(const PlanNode& node) {
    if (const auto* scan = dynamic_cast<const ScanNode*>(&node)) {
      return Scan(*scan);
    }
    if (const auto* join = dynamic_cast<const JoinNode*>(&node)) {
      return Join(*join);
    }
    if (const auto* filter = dynamic_cast<const FilterNode*>(&node)) {
      return Filter(*filter);
    }
    if (const auto* project = dynamic_cast<const ProjectNode*>(&node)) {
      return Project(*project);
    }
    if (const auto* agg = dynamic_cast<const AggregateNode*>(&node)) {
      return Aggregate(*agg);
    }
    if (dynamic_cast<const DistinctNode*>(&node) != nullptr) {
      return Distinct(*node.children()[0]);
    }
    if (const auto* sort = dynamic_cast<const SortLimitNode*>(&node)) {
      return SortLimit(*sort);
    }
    if (node.label() == "SingleRow") {
      Rows out;
      out.rows.emplace_back();
      if (lineage_) out.lineage.emplace_back();
      return out;
    }
    return Status::NotSupported("oracle: unknown operator " + node.label());
  }

 private:
  static Result<bool> Truthy(const BoundExpr& expr, const Tuple& row) {
    LDV_ASSIGN_OR_RETURN(Value v, EvalExpr(expr, row));
    return v.IsTruthy();
  }

  void Emit(Rows* out, Tuple row, LineageSet lineage) {
    out->rows.push_back(std::move(row));
    if (lineage_) out->lineage.push_back(std::move(lineage));
  }

  // Every live row in slot order (an index probe only narrows the rows
  // visited; the filter decides), ignoring the LIMIT hint (the SortLimit
  // above truncates).
  Result<Rows> Scan(const ScanNode& scan) {
    const storage::Table& table = *scan.table();
    Rows out;
    for (const storage::RowVersion& row : table.rows()) {
      if (row.deleted) continue;
      Tuple values = row.values;
      if (scan.exposes_prov_columns()) {
        values.push_back(Value::Int(row.rowid));
        values.push_back(Value::Int(row.version));
        values.push_back(Value::Int(row.used_by_query));
        values.push_back(Value::Int(row.used_by_process));
      }
      if (scan.filter() != nullptr) {
        LDV_ASSIGN_OR_RETURN(bool keep, Truthy(*scan.filter(), values));
        if (!keep) continue;
      }
      const TupleVid vid{table.id(), row.rowid, row.version};
      if (lineage_) read_[vid] = row.values;
      Emit(&out, std::move(values), {vid});
    }
    return out;
  }

  Result<Rows> Join(const JoinNode& join) {
    const std::vector<const PlanNode*> kids = join.children();
    LDV_ASSIGN_OR_RETURN(Rows left, Run(*kids[0]));
    LDV_ASSIGN_OR_RETURN(Rows right, Run(*kids[1]));
    const size_t right_width =
        static_cast<size_t>(kids[1]->scope().num_columns());
    Rows out;
    for (size_t li = 0; li < left.rows.size(); ++li) {
      bool matched = false;
      for (size_t ri = 0; ri < right.rows.size(); ++ri) {
        bool keys_equal = true;
        for (const auto& [l, r] : join.key_pairs()) {
          const Value& lv = left.rows[li][static_cast<size_t>(l)];
          const Value& rv = right.rows[ri][static_cast<size_t>(r)];
          Result<int> cmp = lv.Compare(rv);
          if (lv.is_null() || rv.is_null() || !cmp.ok() || *cmp != 0) {
            keys_equal = false;
            break;
          }
        }
        if (!keys_equal) continue;
        Tuple row = left.rows[li];
        row.insert(row.end(), right.rows[ri].begin(), right.rows[ri].end());
        if (join.residual() != nullptr) {
          LDV_ASSIGN_OR_RETURN(bool keep, Truthy(*join.residual(), row));
          if (!keep) continue;
        }
        matched = true;
        LineageSet lineage;
        if (lineage_) {
          lineage = left.lineage[li];
          MergeLineage(&lineage, right.lineage[ri]);
        }
        Emit(&out, std::move(row), std::move(lineage));
      }
      if (join.left_outer() && !matched) {
        Tuple row = left.rows[li];
        row.resize(row.size() + right_width);
        Emit(&out, std::move(row),
             lineage_ ? left.lineage[li] : LineageSet{});
      }
    }
    return out;
  }

  Result<Rows> Filter(const FilterNode& filter) {
    LDV_ASSIGN_OR_RETURN(Rows in, Run(*filter.children()[0]));
    Rows out;
    for (size_t i = 0; i < in.rows.size(); ++i) {
      LDV_ASSIGN_OR_RETURN(bool keep, Truthy(filter.predicate(), in.rows[i]));
      if (!keep) continue;
      Emit(&out, std::move(in.rows[i]),
           lineage_ ? std::move(in.lineage[i]) : LineageSet{});
    }
    return out;
  }

  Result<Rows> Project(const ProjectNode& project) {
    LDV_ASSIGN_OR_RETURN(Rows in, Run(*project.children()[0]));
    Rows out;
    for (size_t i = 0; i < in.rows.size(); ++i) {
      Tuple row;
      for (const auto& expr : project.exprs()) {
        LDV_ASSIGN_OR_RETURN(Value v, EvalExpr(*expr, in.rows[i]));
        row.push_back(std::move(v));
      }
      Emit(&out, std::move(row),
           lineage_ ? std::move(in.lineage[i]) : LineageSet{});
    }
    return out;
  }

  Result<Rows> Aggregate(const AggregateNode& agg) {
    LDV_ASSIGN_OR_RETURN(Rows in, Run(*agg.children()[0]));
    const std::vector<AggregateSpec>& specs = agg.aggs();
    for (const AggregateSpec& spec : specs) {
      inexact_sums_ |= spec.fn == AggregateSpec::Fn::kSum ||
                       spec.fn == AggregateSpec::Fn::kAvg;
    }
    std::vector<internal::GroupState> groups;
    for (size_t i = 0; i < in.rows.size(); ++i) {
      Tuple keys;
      for (const auto& expr : agg.group_exprs()) {
        LDV_ASSIGN_OR_RETURN(Value v, EvalExpr(*expr, in.rows[i]));
        keys.push_back(std::move(v));
      }
      auto it = std::find_if(groups.begin(), groups.end(),
                             [&](const internal::GroupState& g) {
                               return g.keys == keys;
                             });
      if (it == groups.end()) {
        groups.emplace_back();
        groups.back().keys = std::move(keys);
        groups.back().aggs.resize(specs.size());
        it = groups.end() - 1;
      }
      for (size_t a = 0; a < specs.size(); ++a) {
        Value arg;
        if (specs[a].arg != nullptr) {
          LDV_ASSIGN_OR_RETURN(arg, EvalExpr(*specs[a].arg, in.rows[i]));
        }
        LDV_RETURN_IF_ERROR(
            internal::Accumulate(&it->aggs[a], specs[a].fn, arg));
      }
      if (lineage_) MergeLineage(&it->lineage, in.lineage[i]);
    }
    if (groups.empty() && agg.group_exprs().empty()) {
      groups.emplace_back();
      groups.back().aggs.resize(specs.size());
    }
    Rows out;
    for (internal::GroupState& g : groups) {
      Tuple row = std::move(g.keys);
      for (size_t a = 0; a < specs.size(); ++a) {
        row.push_back(internal::FinalizeAgg(g.aggs[a], specs[a]));
      }
      Emit(&out, std::move(row), std::move(g.lineage));
    }
    return out;
  }

  Result<Rows> Distinct(const PlanNode& child) {
    LDV_ASSIGN_OR_RETURN(Rows in, Run(child));
    Rows out;
    for (size_t i = 0; i < in.rows.size(); ++i) {
      auto it = std::find(out.rows.begin(), out.rows.end(), in.rows[i]);
      if (it == out.rows.end()) {
        Emit(&out, std::move(in.rows[i]),
             lineage_ ? std::move(in.lineage[i]) : LineageSet{});
      } else if (lineage_) {
        MergeLineage(&out.lineage[static_cast<size_t>(it - out.rows.begin())],
                     in.lineage[i]);
      }
    }
    return out;
  }

  Result<Rows> SortLimit(const SortLimitNode& sort) {
    LDV_ASSIGN_OR_RETURN(Rows in, Run(*sort.children()[0]));
    std::vector<Tuple> keys(in.rows.size());
    for (size_t i = 0; i < in.rows.size(); ++i) {
      for (const SortLimitNode::SortKey& key : sort.keys()) {
        LDV_ASSIGN_OR_RETURN(Value v, EvalExpr(*key.expr, in.rows[i]));
        keys[i].push_back(std::move(v));
      }
    }
    std::vector<size_t> order(in.rows.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      for (size_t k = 0; k < sort.keys().size(); ++k) {
        Result<int> cmp = keys[a][k].Compare(keys[b][k]);
        const int c = cmp.ok() ? *cmp : 0;
        if (c != 0) return sort.keys()[k].ascending ? c < 0 : c > 0;
      }
      return false;
    });
    if (sort.limit().has_value() && *sort.limit() >= 0 &&
        static_cast<size_t>(*sort.limit()) < order.size()) {
      order.resize(static_cast<size_t>(*sort.limit()));
    }
    Rows out;
    for (size_t i : order) {
      Emit(&out, std::move(in.rows[i]),
           lineage_ ? std::move(in.lineage[i]) : LineageSet{});
    }
    return out;
  }

  bool lineage_;
  bool inexact_sums_ = false;
  std::map<TupleVid, Tuple> read_;
};

}  // namespace

Result<OracleResult> OracleExecute(storage::Database* db,
                                   std::string_view sql) {
  LDV_ASSIGN_OR_RETURN(sql::Statement stmt, sql::Parse(sql));
  if (stmt.kind != sql::StatementKind::kSelect || stmt.explain) {
    return Status::NotSupported("oracle: SELECT statements only");
  }
  LDV_ASSIGN_OR_RETURN(SelectPlan plan, PlanSelect(db, *stmt.select));
  Interpreter interpreter(stmt.provenance);
  LDV_ASSIGN_OR_RETURN(Rows rows, interpreter.Run(*plan.root));

  OracleResult out;
  out.inexact_sums = interpreter.inexact_sums();
  ResultSet& result = out.result;
  result.schema = std::move(plan.output_schema);
  result.rows = std::move(rows.rows);
  result.affected = static_cast<int64_t>(result.rows.size());
  if (stmt.provenance) {
    result.has_provenance = true;
    result.lineage = std::move(rows.lineage);
    // The provenance is exactly the tuple versions some result row's
    // lineage references, in vid order.
    std::map<TupleVid, Tuple> referenced;
    for (const LineageSet& set : result.lineage) {
      for (const TupleVid& vid : set) {
        referenced[vid] = interpreter.read_tuples().at(vid);
      }
    }
    for (auto& [vid, values] : referenced) {
      ProvTupleRecord rec;
      rec.vid = vid;
      rec.table = db->FindTableById(vid.table_id)->name();
      rec.values = std::move(values);
      result.prov_tuples.push_back(std::move(rec));
    }
  }
  return out;
}

}  // namespace ldv::exec
