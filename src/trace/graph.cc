#include "trace/graph.h"

#include <algorithm>
#include <limits>

#include "common/logging.h"
#include "util/strings.h"

namespace ldv::trace {

namespace {

constexpr int64_t kMaxId = std::numeric_limits<int32_t>::max();

/// Splits a block-row-shaped label `<prefix>#<row>` (row in canonical
/// decimal) into the prefix, which keeps its '#', and the row number.
bool SplitRowLabel(std::string_view label, std::string_view* prefix,
                   int64_t* row) {
  size_t hash = label.rfind('#');
  if (hash == std::string_view::npos) return false;
  std::string_view digits = label.substr(hash + 1);
  if (digits.empty() || digits.size() > 10 ||
      (digits.size() > 1 && digits[0] == '0')) {
    return false;
  }
  int64_t value = 0;
  for (char c : digits) {
    if (c < '0' || c > '9') return false;
    value = value * 10 + (c - '0');
  }
  *prefix = label.substr(0, hash + 1);
  *row = value;
  return true;
}

uint64_t DependencyKey(NodeId out_tuple, NodeId in_tuple) {
  return (static_cast<uint64_t>(static_cast<uint32_t>(out_tuple)) << 32) |
         static_cast<uint32_t>(in_tuple);
}

}  // namespace

TraceGraph::Ref TraceGraph::LocateNode(NodeId id) const {
  auto it = std::upper_bound(
      blocks_.begin(), blocks_.end(), id,
      [](NodeId v, const LineageBlock& b) { return v < b.first_row; });
  if (it == blocks_.begin()) return {-1, id};
  const int64_t b = (it - blocks_.begin()) - 1;
  const int64_t offset = int64_t{id} - blocks_[b].first_row;
  if (offset < blocks_[b].num_rows()) return {b, offset};
  return {-1, int64_t{id} - rows_through_[b]};
}

TraceGraph::Ref TraceGraph::LocateEdge(int32_t index) const {
  auto it = std::upper_bound(
      blocks_.begin(), blocks_.end(), index,
      [](int32_t v, const LineageBlock& b) { return v < b.first_edge; });
  if (it == blocks_.begin()) return {-1, index};
  const int64_t b = (it - blocks_.begin()) - 1;
  const int64_t offset = int64_t{index} - blocks_[b].first_edge;
  if (offset < blocks_[b].num_edges()) return {b, offset};
  return {-1, int64_t{index} - edges_through_[b]};
}

TraceEdge TraceGraph::BlockEdge(const LineageBlock& block,
                                int64_t offset) const {
  const int64_t num_inputs = static_cast<int64_t>(block.inputs.size());
  if (offset < num_inputs) {
    return {block.inputs[offset], block.stmt, EdgeType::kHasRead, block.t};
  }
  const int64_t j = offset - num_inputs;
  const NodeId row = block.first_row + static_cast<NodeId>(j / 2);
  if (j % 2 == 0) return {block.stmt, row, EdgeType::kHasReturned, block.t};
  return {row, block.proc, EdgeType::kReadFromDb, block.t};
}

NodeId TraceGraph::FindBlockRow(std::string_view label) const {
  std::string_view prefix;
  int64_t row = 0;
  if (blocks_.empty() || !SplitRowLabel(label, &prefix, &row)) {
    return kInvalidNode;
  }
  auto it = block_of_prefix_.find(std::string(prefix));
  if (it == block_of_prefix_.end()) return kInvalidNode;
  const LineageBlock& block = blocks_[it->second];
  if (row >= block.num_rows()) return kInvalidNode;
  return block.first_row + static_cast<NodeId>(row);
}

int64_t TraceGraph::BlockOfStatement(NodeId stmt) const {
  auto it = block_of_stmt_.find(stmt);
  return it == block_of_stmt_.end() ? -1 : it->second;
}

NodeId TraceGraph::GetOrAddNode(NodeType type, const std::string& label) {
  LDV_CHECK(static_cast<int>(type) < kNumNodeTypes) << "bad node type";
  if (type == NodeType::kTuple) {
    NodeId row = FindBlockRow(label);
    if (row != kInvalidNode) return row;
  }
  auto [it, inserted] = node_index_[static_cast<size_t>(type)].try_emplace(
      label, static_cast<NodeId>(num_nodes()));
  if (inserted) {
    LDV_CHECK(num_nodes() < kMaxId) << "trace node ids exhausted";
    nodes_.push_back({type, label});
    in_edges_.emplace_back();
    out_edges_.emplace_back();
    std::string_view prefix;
    int64_t row = 0;
    if (type == NodeType::kTuple && SplitRowLabel(label, &prefix, &row)) {
      row_shaped_prefixes_.emplace(prefix);
    }
  }
  return it->second;
}

NodeId TraceGraph::FindNode(NodeType type, const std::string& label) const {
  if (static_cast<int>(type) >= kNumNodeTypes) return kInvalidNode;
  const auto& index = node_index_[static_cast<size_t>(type)];
  auto it = index.find(label);
  if (it != index.end()) return it->second;
  return type == NodeType::kTuple ? FindBlockRow(label) : kInvalidNode;
}

TraceNode TraceGraph::node(NodeId id) const {
  LDV_CHECK(InRange(id)) << "trace node out of range";
  Ref ref = LocateNode(id);
  if (ref.block < 0) return nodes_[static_cast<size_t>(ref.offset)];
  return {NodeType::kTuple, blocks_[ref.block].row_label_prefix +
                                std::to_string(ref.offset)};
}

NodeType TraceGraph::node_type(NodeId id) const {
  LDV_CHECK(InRange(id)) << "trace node out of range";
  Ref ref = LocateNode(id);
  return ref.block < 0 ? nodes_[static_cast<size_t>(ref.offset)].type
                       : NodeType::kTuple;
}

TraceEdge TraceGraph::edge(int32_t index) const {
  LDV_CHECK(index >= 0 && index < num_edges()) << "trace edge out of range";
  Ref ref = LocateEdge(index);
  if (ref.block < 0) return edges_[static_cast<size_t>(ref.offset)];
  return BlockEdge(blocks_[ref.block], ref.offset);
}

Status TraceGraph::AddEdge(NodeId from, NodeId to, EdgeType type,
                           os::Interval t) {
  if (!InRange(from) || !InRange(to)) {
    return Status::InvalidArgument("edge endpoint out of range");
  }
  Ref from_ref = LocateNode(from);
  Ref to_ref = LocateNode(to);
  if (from_ref.block >= 0 || to_ref.block >= 0) {
    return Status::InvalidArgument(
        "the edges of a lineage block's rows are implied by the block");
  }
  NodeType from_type = nodes_[static_cast<size_t>(from_ref.offset)].type;
  NodeType to_type = nodes_[static_cast<size_t>(to_ref.offset)].type;
  if (!EdgeAllowed(type, from_type, to_type)) {
    return Status::InvalidArgument(StrFormat(
        "edge type %s cannot connect %s -> %s",
        std::string(EdgeTypeName(type)).c_str(),
        std::string(NodeTypeName(from_type)).c_str(),
        std::string(NodeTypeName(to_type)).c_str()));
  }
  if (t.end < t.begin) {
    return Status::InvalidArgument("edge interval end < begin");
  }
  if ((type == EdgeType::kHasRead && BlockOfStatement(to) >= 0) ||
      (type == EdgeType::kHasReturned && BlockOfStatement(from) >= 0)) {
    return Status::InvalidArgument(
        "a statement's reads and results are in its lineage block");
  }
  LDV_CHECK(num_edges() < kMaxId) << "trace edge indexes exhausted";
  int32_t index = static_cast<int32_t>(num_edges());
  edges_.push_back({from, to, type, t});
  out_edges_[static_cast<size_t>(from_ref.offset)].push_back(index);
  in_edges_[static_cast<size_t>(to_ref.offset)].push_back(index);
  return Status::Ok();
}

Status TraceGraph::MergeEdge(NodeId from, NodeId to, EdgeType type,
                             os::Interval t) {
  if (IsExplicit(from) && IsExplicit(to)) {
    // Every explicit (from, to) edge sits in both adjacency lists; the
    // shorter one, scanned newest first, yields the most recent matching
    // edge. Block edges never match: AddEdge refuses their (from, to, type).
    const std::vector<int32_t>& out =
        out_edges_[static_cast<size_t>(LocateNode(from).offset)];
    const std::vector<int32_t>& in =
        in_edges_[static_cast<size_t>(LocateNode(to).offset)];
    const std::vector<int32_t>& scan = out.size() <= in.size() ? out : in;
    for (auto it = scan.rbegin(); it != scan.rend(); ++it) {
      TraceEdge& edge =
          edges_[static_cast<size_t>(LocateEdge(*it).offset)];
      if (edge.from == from && edge.to == to && edge.type == type) {
        edge.t.begin = std::min(edge.t.begin, t.begin);
        edge.t.end = std::max(edge.t.end, t.end);
        return Status::Ok();
      }
    }
  }
  return AddEdge(from, to, type, t);
}

void TraceGraph::AddTupleDependency(NodeId out_tuple, NodeId in_tuple) {
  LDV_CHECK(IsExplicit(out_tuple) && InRange(in_tuple))
      << "tuple dependency of unknown or block-row node";
  if (tuple_dep_pairs_.insert(DependencyKey(out_tuple, in_tuple)).second) {
    tuple_deps_[out_tuple].push_back(in_tuple);
  }
}

bool TraceGraph::HasTupleDependency(NodeId out_tuple, NodeId in_tuple) const {
  if (!InRange(out_tuple)) return false;
  Ref ref = LocateNode(out_tuple);
  if (ref.block < 0) {
    return tuple_dep_pairs_.contains(DependencyKey(out_tuple, in_tuple));
  }
  const LineageBlock& block = blocks_[ref.block];
  for (int32_t j = block.row_offsets[ref.offset];
       j < block.row_offsets[ref.offset + 1]; ++j) {
    if (block.inputs[block.deps[j]] == in_tuple) return true;
  }
  return false;
}

std::vector<NodeId> TraceGraph::TupleDependenciesOf(NodeId out_tuple) const {
  if (!InRange(out_tuple)) return {};
  Ref ref = LocateNode(out_tuple);
  if (ref.block < 0) {
    auto it = tuple_deps_.find(out_tuple);
    return it == tuple_deps_.end() ? std::vector<NodeId>{} : it->second;
  }
  const LineageBlock& block = blocks_[ref.block];
  std::vector<NodeId> out;
  for (int32_t j = block.row_offsets[ref.offset];
       j < block.row_offsets[ref.offset + 1]; ++j) {
    out.push_back(block.inputs[block.deps[j]]);
  }
  return out;
}

Status TraceGraph::AddLineageBlock(LineageBlock block) {
  auto invalid = [](const char* what) {
    return Status::InvalidArgument(std::string("lineage block: ") + what);
  };
  if (block.row_label_prefix.empty() || block.row_label_prefix.back() != '#') {
    return invalid("row label prefix must end in '#'");
  }
  if (block_of_prefix_.contains(block.row_label_prefix) ||
      row_shaped_prefixes_.contains(block.row_label_prefix)) {
    return invalid("row label prefix already in use");
  }
  if (!IsExplicit(block.stmt) || !IsStatement(node_type(block.stmt))) {
    return invalid("statement is not an explicit statement node");
  }
  const size_t stmt_offset = static_cast<size_t>(LocateNode(block.stmt).offset);
  if (BlockOfStatement(block.stmt) >= 0 ||
      !out_edges_[stmt_offset].empty()) {
    return invalid("statement already has results");
  }
  for (int32_t index : in_edges_[stmt_offset]) {
    if (edges_[static_cast<size_t>(LocateEdge(index).offset)].type ==
        EdgeType::kHasRead) {
      return invalid("statement already has reads");
    }
  }
  if (!IsExplicit(block.proc) || node_type(block.proc) != NodeType::kProcess) {
    return invalid("process is not an explicit process node");
  }
  if (block.t.end < block.t.begin) return invalid("interval end < begin");

  std::vector<bool> seen(nodes_.size(), false);
  for (NodeId input : block.inputs) {
    if (!InRange(input)) return invalid("input out of range");
    Ref ref = LocateNode(input);
    if (ref.block >= 0 ||
        nodes_[static_cast<size_t>(ref.offset)].type != NodeType::kTuple) {
      return invalid("input is not an explicit tuple node");
    }
    if (seen[static_cast<size_t>(ref.offset)]) {
      return invalid("repeated input");
    }
    seen[static_cast<size_t>(ref.offset)] = true;
  }

  std::vector<int32_t>& offsets = block.row_offsets;
  std::vector<int32_t>& deps = block.deps;
  if (offsets.empty() || offsets.front() != 0 ||
      offsets.back() != static_cast<int64_t>(deps.size())) {
    return invalid("row offsets do not span the dependencies");
  }
  for (size_t r = 1; r < offsets.size(); ++r) {
    if (offsets[r] < offsets[r - 1]) return invalid("row offsets decrease");
  }
  const int64_t num_inputs = static_cast<int64_t>(block.inputs.size());
  for (int32_t dep : deps) {
    if (dep < 0 || dep >= num_inputs) {
      return invalid("dependency index out of range");
    }
  }
  if (num_nodes() + block.num_rows() > kMaxId ||
      num_edges() + block.num_edges() > kMaxId) {
    return invalid("rows overflow the id space");
  }

  // Keep each row's first occurrence of an input: `last_row[i]` is the
  // last row that listed input i, so every check is O(1).
  std::vector<int64_t> last_row(block.inputs.size(), -1);
  int32_t kept = 0;
  for (int64_t r = 0; r < block.num_rows(); ++r) {
    const int32_t begin = offsets[r];
    const int32_t end = offsets[r + 1];
    offsets[r] = kept;
    for (int32_t j = begin; j < end; ++j) {
      const int32_t dep = deps[j];
      if (last_row[dep] == r) continue;
      last_row[dep] = r;
      deps[kept++] = dep;
    }
  }
  offsets.back() = kept;
  deps.resize(static_cast<size_t>(kept));

  block.first_row = static_cast<NodeId>(num_nodes());
  block.first_edge = static_cast<int32_t>(num_edges());
  implied_nodes_ += block.num_rows();
  implied_edges_ += block.num_edges();
  rows_through_.push_back(implied_nodes_);
  edges_through_.push_back(implied_edges_);
  const int64_t index = static_cast<int64_t>(blocks_.size());
  block_of_stmt_.emplace(block.stmt, index);
  block_of_prefix_.emplace(block.row_label_prefix, index);
  blocks_.push_back(std::move(block));
  return Status::Ok();
}

std::vector<int32_t> TraceGraph::InEdges(NodeId id) const {
  std::vector<int32_t> out;
  ForEachInEdge(id, [&out](int32_t index) { out.push_back(index); });
  return out;
}

std::vector<int32_t> TraceGraph::OutEdges(NodeId id) const {
  LDV_CHECK(InRange(id)) << "trace node out of range";
  Ref ref = LocateNode(id);
  if (ref.block >= 0) {
    const LineageBlock& block = blocks_[ref.block];
    return {static_cast<int32_t>(block.first_edge + block.inputs.size() +
                                 2 * ref.offset + 1)};
  }
  const std::vector<int32_t>& explicit_edges =
      out_edges_[static_cast<size_t>(ref.offset)];
  const bool is_tuple =
      nodes_[static_cast<size_t>(ref.offset)].type == NodeType::kTuple;
  if (!is_tuple && BlockOfStatement(id) < 0) return explicit_edges;
  // A tuple's block reads are found by scanning each block's inputs; no
  // audit-time path asks for them.
  std::vector<int32_t> out;
  size_t next = 0;
  auto explicit_before = [&](int64_t limit) {
    while (next < explicit_edges.size() && explicit_edges[next] < limit) {
      out.push_back(explicit_edges[next++]);
    }
  };
  for (const LineageBlock& block : blocks_) {
    const int32_t num_inputs = static_cast<int32_t>(block.inputs.size());
    if (block.stmt == id) {
      explicit_before(block.first_edge);
      for (int64_t r = 0; r < block.num_rows(); ++r) {
        out.push_back(
            static_cast<int32_t>(block.first_edge + num_inputs + 2 * r));
      }
    } else if (is_tuple) {
      auto it = std::find(block.inputs.begin(), block.inputs.end(), id);
      if (it != block.inputs.end()) {
        explicit_before(block.first_edge);
        out.push_back(block.first_edge +
                      static_cast<int32_t>(it - block.inputs.begin()));
      }
    }
  }
  explicit_before(std::numeric_limits<int64_t>::max());
  return out;
}

std::vector<NodeId> TraceGraph::NodesOfType(NodeType type) const {
  std::vector<NodeId> out;
  for (NodeId id = 0; id < num_nodes(); ++id) {
    if (node_type(id) == type) out.push_back(id);
  }
  return out;
}

std::string TraceGraph::ToDot() const {
  std::string out = "digraph trace {\n  rankdir=LR;\n";
  for (NodeId id = 0; id < num_nodes(); ++id) {
    const TraceNode n = node(id);
    const char* shape = IsActivity(n.type) ? "box" : "ellipse";
    const char* color = SideOf(n.type) == ModelSide::kOs ? "lightblue"
                                                         : "lightyellow";
    out += StrFormat(
        "  n%d [label=\"%s\\n%s\", shape=%s, style=filled, fillcolor=%s];\n",
        id, std::string(NodeTypeName(n.type)).c_str(), n.label.c_str(), shape,
        color);
  }
  for (int32_t i = 0; i < num_edges(); ++i) {
    const TraceEdge e = edge(i);
    out += StrFormat("  n%d -> n%d [label=\"%s [%lld,%lld]\"];\n", e.from,
                     e.to, std::string(EdgeTypeName(e.type)).c_str(),
                     static_cast<long long>(e.t.begin),
                     static_cast<long long>(e.t.end));
  }
  for (NodeId id = 0; id < num_nodes(); ++id) {
    for (NodeId dep : TupleDependenciesOf(id)) {
      out += StrFormat("  n%d -> n%d [style=dashed, label=\"dep\"];\n",
                       id, dep);
    }
  }
  out += "}\n";
  return out;
}

}  // namespace ldv::trace
