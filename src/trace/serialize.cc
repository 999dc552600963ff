#include "trace/serialize.h"

#include <limits>

#include "util/serde.h"

namespace ldv::trace {

namespace {

// Format 2: explicit nodes and edges, then lineage blocks, each placed by
// the count of explicit nodes and edges since the previous block.
constexpr uint32_t kTraceMagic = 0x4C445632;  // "LDV2"

/// Reads a delta-encoded id: `prev + delta`, which must lie in [0, limit).
Result<int64_t> GetDelta(BufferReader& r, int64_t prev, int64_t limit,
                         const char* what) {
  LDV_ASSIGN_OR_RETURN(int64_t delta, r.GetVarint());
  if (delta < -limit || delta > limit || prev + delta < 0 ||
      prev + delta >= limit) {
    return Status::IOError(std::string(what) + " out of range in trace");
  }
  return prev + delta;
}

/// Fails unless `count` items of at least one byte each can follow.
Status CheckCount(const BufferReader& r, int64_t count, const char* what) {
  if (count < 0 || static_cast<uint64_t>(count) > r.remaining()) {
    return Status::IOError(std::string("bad ") + what + " count in trace");
  }
  return Status::Ok();
}

/// What dependency j (of row r) is delta-coded against: the dependency at
/// the same position in the previous row when it has one — the rows of a
/// scan or join advance through the inputs in step — else the one before
/// it in its own row, else 0. Needs deps[0, j) only.
int64_t DependencyBase(const LineageBlock& block, int64_t r, int32_t j) {
  const int32_t begin = block.row_offsets[r];
  if (r > 0 && j - begin < begin - block.row_offsets[r - 1]) {
    return block.deps[block.row_offsets[r - 1] + (j - begin)];
  }
  return j > begin ? block.deps[j - 1] : 0;
}

void PutBlock(BufferWriter& w, const LineageBlock& block) {
  w.PutVarint(block.stmt);
  w.PutVarint(block.proc);
  w.PutVarint(block.t.begin);
  w.PutVarint(block.t.end);
  w.PutString(block.row_label_prefix);
  w.PutVarint(static_cast<int64_t>(block.inputs.size()));
  int64_t prev = 0;
  for (NodeId input : block.inputs) {
    w.PutVarint(input - prev);
    prev = input;
  }
  w.PutVarint(block.num_rows());
  for (int64_t r = 0; r < block.num_rows(); ++r) {
    w.PutVarint(block.row_offsets[r + 1] - block.row_offsets[r]);
  }
  for (int64_t r = 0; r < block.num_rows(); ++r) {
    for (int32_t j = block.row_offsets[r]; j < block.row_offsets[r + 1]; ++j) {
      w.PutVarint(block.deps[j] - DependencyBase(block, r, j));
    }
  }
}

Result<LineageBlock> GetBlock(BufferReader& r, int64_t num_nodes) {
  LineageBlock block;
  LDV_ASSIGN_OR_RETURN(int64_t stmt, r.GetVarint());
  LDV_ASSIGN_OR_RETURN(int64_t proc, r.GetVarint());
  if (stmt < 0 || stmt >= num_nodes || proc < 0 || proc >= num_nodes) {
    return Status::IOError("lineage block node out of range in trace");
  }
  block.stmt = static_cast<NodeId>(stmt);
  block.proc = static_cast<NodeId>(proc);
  LDV_ASSIGN_OR_RETURN(block.t.begin, r.GetVarint());
  LDV_ASSIGN_OR_RETURN(block.t.end, r.GetVarint());
  LDV_ASSIGN_OR_RETURN(block.row_label_prefix, r.GetString());
  LDV_ASSIGN_OR_RETURN(int64_t num_inputs, r.GetVarint());
  LDV_RETURN_IF_ERROR(CheckCount(r, num_inputs, "block input"));
  block.inputs.reserve(static_cast<size_t>(num_inputs));
  int64_t prev = 0;
  for (int64_t i = 0; i < num_inputs; ++i) {
    LDV_ASSIGN_OR_RETURN(prev, GetDelta(r, prev, num_nodes, "block input"));
    block.inputs.push_back(static_cast<NodeId>(prev));
  }
  LDV_ASSIGN_OR_RETURN(int64_t num_rows, r.GetVarint());
  LDV_RETURN_IF_ERROR(CheckCount(r, num_rows, "block row"));
  block.row_offsets.reserve(static_cast<size_t>(num_rows) + 1);
  int64_t num_deps = 0;
  for (int64_t row = 0; row < num_rows; ++row) {
    LDV_ASSIGN_OR_RETURN(int64_t count, r.GetVarint());
    if (count < 0) {
      return Status::IOError("non-monotone row offsets in trace");
    }
    num_deps += count;
    LDV_RETURN_IF_ERROR(CheckCount(r, num_deps, "block dependency"));
    if (num_deps > std::numeric_limits<int32_t>::max()) {
      return Status::IOError("too many block dependencies in trace");
    }
    block.row_offsets.push_back(static_cast<int32_t>(num_deps));
  }
  block.deps.reserve(static_cast<size_t>(num_deps));
  for (int64_t row = 0; row < num_rows; ++row) {
    for (int32_t j = block.row_offsets[row]; j < block.row_offsets[row + 1];
         ++j) {
      LDV_ASSIGN_OR_RETURN(
          int64_t dep, GetDelta(r, DependencyBase(block, row, j), num_inputs,
                                "block dependency index"));
      block.deps.push_back(static_cast<int32_t>(dep));
    }
  }
  return block;
}

}  // namespace

std::string SerializeTrace(const TraceGraph& graph) {
  // The explicit nodes and edges are the ones outside every block's range.
  const std::vector<LineageBlock>& blocks = graph.blocks();
  std::vector<NodeId> explicit_nodes;
  std::vector<int32_t> explicit_edges;
  std::vector<std::pair<int64_t, int64_t>> gaps;  // per block
  NodeId node = 0;
  int32_t edge = 0;
  auto take_until = [&](NodeId node_end, int64_t edge_end) {
    std::pair<int64_t, int64_t> gap{node_end - node, edge_end - edge};
    for (; node < node_end; ++node) explicit_nodes.push_back(node);
    for (; edge < edge_end; ++edge) explicit_edges.push_back(edge);
    return gap;
  };
  for (const LineageBlock& block : blocks) {
    gaps.push_back(take_until(block.first_row, block.first_edge));
    node += static_cast<NodeId>(block.num_rows());
    edge += static_cast<int32_t>(block.num_edges());
  }
  take_until(static_cast<NodeId>(graph.num_nodes()), graph.num_edges());

  BufferWriter w;
  w.PutU32(kTraceMagic);
  w.PutVarint(static_cast<int64_t>(explicit_nodes.size()));
  for (NodeId id : explicit_nodes) {
    const TraceNode n = graph.node(id);
    w.PutU8(static_cast<uint8_t>(n.type));
    w.PutString(n.label);
  }
  w.PutVarint(static_cast<int64_t>(explicit_edges.size()));
  for (int32_t index : explicit_edges) {
    const TraceEdge e = graph.edge(index);
    w.PutVarint(e.from);
    w.PutVarint(e.to);
    w.PutU8(static_cast<uint8_t>(e.type));
    w.PutVarint(e.t.begin);
    w.PutVarint(e.t.end);
  }
  w.PutVarint(static_cast<int64_t>(blocks.size()));
  for (size_t b = 0; b < blocks.size(); ++b) {
    w.PutVarint(gaps[b].first);
    w.PutVarint(gaps[b].second);
    PutBlock(w, blocks[b]);
  }
  // Explicit tuple dependency pairs (block rows' are in their blocks).
  int64_t num_pairs = 0;
  for (NodeId id : explicit_nodes) {
    num_pairs += static_cast<int64_t>(graph.TupleDependenciesOf(id).size());
  }
  w.PutVarint(num_pairs);
  for (NodeId id : explicit_nodes) {
    for (NodeId dep : graph.TupleDependenciesOf(id)) {
      w.PutVarint(id);
      w.PutVarint(dep);
    }
  }
  return w.TakeData();
}

Result<TraceGraph> DeserializeTrace(std::string_view bytes) {
  BufferReader r(bytes);
  LDV_ASSIGN_OR_RETURN(uint32_t magic, r.GetU32());
  if (magic != kTraceMagic) {
    return Status::IOError("not an LDV trace file");
  }
  LDV_ASSIGN_OR_RETURN(int64_t num_nodes, r.GetVarint());
  LDV_RETURN_IF_ERROR(CheckCount(r, num_nodes, "node"));
  std::vector<TraceNode> nodes;
  nodes.reserve(static_cast<size_t>(num_nodes));
  for (int64_t i = 0; i < num_nodes; ++i) {
    LDV_ASSIGN_OR_RETURN(uint8_t type, r.GetU8());
    if (type >= kNumNodeTypes) {
      return Status::IOError("unknown node type in serialized trace");
    }
    LDV_ASSIGN_OR_RETURN(std::string label, r.GetString());
    nodes.push_back({static_cast<NodeType>(type), std::move(label)});
  }
  LDV_ASSIGN_OR_RETURN(int64_t num_edges, r.GetVarint());
  LDV_RETURN_IF_ERROR(CheckCount(r, num_edges, "edge"));
  std::vector<TraceEdge> edges;
  edges.reserve(static_cast<size_t>(num_edges));
  for (int64_t i = 0; i < num_edges; ++i) {
    LDV_ASSIGN_OR_RETURN(int64_t from, r.GetVarint());
    LDV_ASSIGN_OR_RETURN(int64_t to, r.GetVarint());
    if (from < 0 || from > std::numeric_limits<NodeId>::max() || to < 0 ||
        to > std::numeric_limits<NodeId>::max()) {
      return Status::IOError("edge endpoint out of range in trace");
    }
    LDV_ASSIGN_OR_RETURN(uint8_t type, r.GetU8());
    if (type >= kNumEdgeTypes) {
      return Status::IOError("unknown edge type in serialized trace");
    }
    os::Interval t;
    LDV_ASSIGN_OR_RETURN(t.begin, r.GetVarint());
    LDV_ASSIGN_OR_RETURN(t.end, r.GetVarint());
    edges.push_back({static_cast<NodeId>(from), static_cast<NodeId>(to),
                     static_cast<EdgeType>(type), t});
  }

  // Replays the explicit nodes and edges up to each block's position, then
  // the block, through the graph's own checks.
  TraceGraph graph;
  int64_t next_node = 0;
  int64_t next_edge = 0;
  auto replay = [&](int64_t node_count, int64_t edge_count) -> Status {
    if (node_count < 0 || node_count > num_nodes - next_node ||
        edge_count < 0 || edge_count > num_edges - next_edge) {
      return Status::IOError("lineage block position out of range in trace");
    }
    for (; node_count > 0; --node_count, ++next_node) {
      const TraceNode& n = nodes[static_cast<size_t>(next_node)];
      int64_t expected = graph.num_nodes();
      if (graph.GetOrAddNode(n.type, n.label) != expected) {
        return Status::IOError("duplicate node in serialized trace");
      }
    }
    for (; edge_count > 0; --edge_count, ++next_edge) {
      const TraceEdge& e = edges[static_cast<size_t>(next_edge)];
      Status s = graph.AddEdge(e.from, e.to, e.type, e.t);
      if (!s.ok()) return Status::IOError("bad edge in trace: " + s.message());
    }
    return Status::Ok();
  };
  LDV_ASSIGN_OR_RETURN(int64_t num_blocks, r.GetVarint());
  LDV_RETURN_IF_ERROR(CheckCount(r, num_blocks, "block"));
  for (int64_t b = 0; b < num_blocks; ++b) {
    LDV_ASSIGN_OR_RETURN(int64_t node_gap, r.GetVarint());
    LDV_ASSIGN_OR_RETURN(int64_t edge_gap, r.GetVarint());
    LDV_RETURN_IF_ERROR(replay(node_gap, edge_gap));
    LDV_ASSIGN_OR_RETURN(LineageBlock block, GetBlock(r, graph.num_nodes()));
    Status s = graph.AddLineageBlock(std::move(block));
    if (!s.ok()) {
      return Status::IOError("bad lineage block in trace: " + s.message());
    }
  }
  LDV_RETURN_IF_ERROR(
      replay(num_nodes - next_node, num_edges - next_edge));

  LDV_ASSIGN_OR_RETURN(int64_t num_pairs, r.GetVarint());
  LDV_RETURN_IF_ERROR(CheckCount(r, num_pairs, "tuple dependency"));
  for (int64_t i = 0; i < num_pairs; ++i) {
    LDV_ASSIGN_OR_RETURN(int64_t out_tuple, r.GetVarint());
    LDV_ASSIGN_OR_RETURN(int64_t in_tuple, r.GetVarint());
    if (out_tuple < 0 || out_tuple >= graph.num_nodes() || in_tuple < 0 ||
        in_tuple >= graph.num_nodes() ||
        graph.IsBlockRow(static_cast<NodeId>(out_tuple))) {
      return Status::IOError("tuple dependency out of range in trace");
    }
    graph.AddTupleDependency(static_cast<NodeId>(out_tuple),
                             static_cast<NodeId>(in_tuple));
  }
  return graph;
}

}  // namespace ldv::trace
