#include "obs/profile.h"

#include <cstdio>

namespace ldv::obs {

namespace {

std::string FormatMillis(int64_t nanos) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3fms",
                static_cast<double>(nanos) / 1e6);
  return buf;
}

/// rows_out over wall time as a human row rate ("1.2M rows/s").
std::string FormatRate(int64_t rows, int64_t nanos) {
  const double per_sec =
      static_cast<double>(rows) * 1e9 / static_cast<double>(nanos);
  char buf[32];
  if (per_sec >= 1e6) {
    std::snprintf(buf, sizeof(buf), "%.1fM", per_sec / 1e6);
  } else if (per_sec >= 1e3) {
    std::snprintf(buf, sizeof(buf), "%.1fK", per_sec / 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%.0f", per_sec);
  }
  return std::string(buf) + " rows/s";
}

Json OperatorToJson(const OperatorProfile& op) {
  Json node = Json::MakeObject();
  node.Set("operator", Json::MakeString(op.label));
  if (!op.detail.empty()) node.Set("detail", Json::MakeString(op.detail));
  node.Set("rows_out", Json::MakeInt(op.rows_out));
  node.Set("invocations", Json::MakeInt(op.invocations));
  node.Set("wall_nanos", Json::MakeInt(op.wall_nanos));
  if (op.build_nanos > 0 || op.probe_nanos > 0) {
    node.Set("build_nanos", Json::MakeInt(op.build_nanos));
    node.Set("probe_nanos", Json::MakeInt(op.probe_nanos));
  }
  if (op.parallel_morsels > 0) {
    node.Set("parallel_morsels", Json::MakeInt(op.parallel_morsels));
    node.Set("parallel_workers", Json::MakeInt(op.parallel_workers));
    node.Set("cpu_nanos", Json::MakeInt(op.cpu_nanos));
  }
  if (op.vector_batches > 0) {
    node.Set("vector_batches", Json::MakeInt(op.vector_batches));
  }
  if (!op.children.empty()) {
    Json children = Json::MakeArray();
    for (const OperatorProfile& child : op.children) {
      children.Append(OperatorToJson(child));
    }
    node.Set("children", std::move(children));
  }
  return node;
}

void RenderOperator(const OperatorProfile& op, bool analyze, int depth,
                    std::vector<std::string>* out) {
  std::string line(static_cast<size_t>(depth) * 2, ' ');
  line += op.label;
  if (!op.detail.empty()) line += " (" + op.detail + ")";
  if (analyze) {
    line += "  rows=" + std::to_string(op.rows_out);
    line += " time=" + FormatMillis(op.wall_nanos);
    if (op.build_nanos > 0 || op.probe_nanos > 0) {
      line += " build=" + FormatMillis(op.build_nanos);
      line += " probe=" + FormatMillis(op.probe_nanos);
    }
    if (op.parallel_morsels > 0) {
      line += " workers=" + std::to_string(op.parallel_workers);
      line += " morsels=" + std::to_string(op.parallel_morsels);
      line += " cpu=" + FormatMillis(op.cpu_nanos);
    }
    if (op.rows_out > 0 && op.wall_nanos > 0) {
      line += " rate=" + FormatRate(op.rows_out, op.wall_nanos);
    }
    if (op.vector_batches > 0) {
      line += " batches=" + std::to_string(op.vector_batches) +
              " [vectorized]";
    }
  }
  out->push_back(std::move(line));
  for (const OperatorProfile& child : op.children) {
    RenderOperator(child, analyze, depth + 1, out);
  }
}

}  // namespace

Json QueryProfile::ToJson() const {
  Json root_json = Json::MakeObject();
  root_json.Set("plan", OperatorToJson(root));
  root_json.Set("total_nanos", Json::MakeInt(total_nanos));
  root_json.Set("rows_returned", Json::MakeInt(rows_returned));
  return root_json;
}

std::vector<std::string> QueryProfile::ToTextLines(bool analyze) const {
  std::vector<std::string> lines;
  RenderOperator(root, analyze, 0, &lines);
  if (analyze) {
    lines.push_back("Total: rows=" + std::to_string(rows_returned) +
                    " time=" + FormatMillis(total_nanos));
  }
  return lines;
}

}  // namespace ldv::obs
