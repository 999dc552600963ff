#ifndef LDV_TRACE_GRAPH_H_
#define LDV_TRACE_GRAPH_H_

#include <array>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/logging.h"
#include "common/result.h"
#include "os/sim_process.h"
#include "trace/model.h"

namespace ldv::trace {

using NodeId = int32_t;
inline constexpr NodeId kInvalidNode = -1;

struct TraceNode {
  NodeType type = NodeType::kProcess;
  /// Human-readable identity: file path, "pid:<n>", "q:<id> <sql>",
  /// "<table>:<rowid>.v<version>".
  std::string label;
};

struct TraceEdge {
  NodeId from = kInvalidNode;
  NodeId to = kInvalidNode;
  EdgeType type = EdgeType::kReadFrom;
  os::Interval t;
};

/// The result rows of one statement, stored as one record instead of one
/// node and two edges per row (DESIGN.md §16). Attached with
/// TraceGraph::AddLineageBlock, the block stands for:
///   - `num_rows()` tuple nodes with consecutive ids from `first_row`, row r
///     labelled `<row_label_prefix><r>`;
///   - `num_edges()` edges with consecutive indexes from `first_edge`: first
///     one kHasRead edge `inputs[i] -> stmt` per input, then per row r a
///     kHasReturned edge `stmt -> row r` and a kReadFromDb edge
///     `row r -> proc`. Every edge carries the interval `t`;
///   - the D(G) dependencies of row r: `inputs[deps[j]]` for j in
///     [row_offsets[r], row_offsets[r + 1]).
struct LineageBlock {
  NodeId stmt = kInvalidNode;
  NodeId proc = kInvalidNode;
  os::Interval t;
  /// Ends in '#'.
  std::string row_label_prefix;
  /// Distinct tuple nodes the statement read, in first-seen order.
  std::vector<NodeId> inputs;
  /// CSR row boundaries into `deps`; always starts with 0.
  std::vector<int32_t> row_offsets = {0};
  /// Indexes into `inputs`.
  std::vector<int32_t> deps;
  /// Assigned by AddLineageBlock.
  NodeId first_row = kInvalidNode;
  int32_t first_edge = -1;

  int64_t num_rows() const {
    return static_cast<int64_t>(row_offsets.size()) - 1;
  }
  int64_t num_edges() const {
    return static_cast<int64_t>(inputs.size()) + 2 * num_rows();
  }
  /// Starts the next result row.
  void AddRow() { row_offsets.push_back(row_offsets.back()); }
  /// The last row depends on `inputs[input]`. Repeats are dropped when the
  /// block is attached.
  void AddDependency(int32_t input) {
    deps.push_back(input);
    ++row_offsets.back();
  }
};

/// A combined execution trace (paper Definition 6): a typed, temporally
/// annotated provenance graph plus the explicit P_Lin data-dependency pairs
/// D(G) (Definition 7). P_BB dependencies (Definition 8) are derivable from
/// the graph structure and are not stored.
///
/// Node ids and edge indexes are logical: nodes and edges added one by one
/// are stored explicitly, while a lineage block's rows and edges take a
/// contiguous id range each and are produced on demand. Every accessor
/// below answers for both kinds.
class TraceGraph {
 public:
  TraceGraph() = default;

  /// Adds a node; (type, label) pairs are unique — adding an existing pair,
  /// a lineage-block row's label included, returns the existing id.
  NodeId GetOrAddNode(NodeType type, const std::string& label);

  /// Finds a node by (type, label); kInvalidNode when absent.
  NodeId FindNode(NodeType type, const std::string& label) const;

  /// Adds a typed edge; fails when the combined model's type rules
  /// (Definition 5) forbid it, or when it would touch a lineage block's
  /// rows or add a kHasRead/kHasReturned edge to a block's statement.
  Status AddEdge(NodeId from, NodeId to, EdgeType type, os::Interval t);

  /// Like AddEdge but merges with the most recently added (from, to, type)
  /// edge by extending its interval — the PTU convention of annotating a
  /// process-file edge with [first open, last close] (§VII-A).
  Status MergeEdge(NodeId from, NodeId to, EdgeType type, os::Interval t);

  /// Records a direct P_Lin data dependency: `out_tuple` depends on
  /// `in_tuple` (Definition 7). `out_tuple` must not be a block row.
  void AddTupleDependency(NodeId out_tuple, NodeId in_tuple);
  bool HasTupleDependency(NodeId out_tuple, NodeId in_tuple) const;
  /// In the order they were added; each dependency once.
  std::vector<NodeId> TupleDependenciesOf(NodeId out_tuple) const;

  /// Attaches `block` to its statement: assigns its rows the next node ids
  /// and its edges the next edge indexes, and drops repeated dependencies
  /// within each row in linear time. Fails when the statement is not an
  /// explicit statement node without kHasRead/out edges or a block, `proc`
  /// is not an explicit process, an input is not a distinct explicit tuple,
  /// the CSR arrays are inconsistent, the row label prefix is taken, or the
  /// ids would overflow.
  Status AddLineageBlock(LineageBlock block);

  int64_t num_nodes() const {
    return static_cast<int64_t>(nodes_.size()) + implied_nodes_;
  }
  int64_t num_edges() const {
    return static_cast<int64_t>(edges_.size()) + implied_edges_;
  }
  TraceNode node(NodeId id) const;
  NodeType node_type(NodeId id) const;
  TraceEdge edge(int32_t index) const;
  /// True for the rows of a lineage block.
  bool IsBlockRow(NodeId id) const {
    return InRange(id) && LocateNode(id).block >= 0;
  }

  /// Indexes of edges entering / leaving `id`, ascending.
  std::vector<int32_t> InEdges(NodeId id) const;
  std::vector<int32_t> OutEdges(NodeId id) const;
  /// Calls `fn(index)` for each index InEdges(id) returns, in the same
  /// order, without building the vector (the inference search's loop).
  template <typename Fn>
  void ForEachInEdge(NodeId id, Fn&& fn) const;

  /// Lineage blocks in the order they were attached (ascending first_row
  /// and first_edge).
  const std::vector<LineageBlock>& blocks() const { return blocks_; }

  /// All node ids of a given type.
  std::vector<NodeId> NodesOfType(NodeType type) const;

  /// Graphviz rendering (used by examples and docs).
  std::string ToDot() const;

 private:
  /// Where a logical node id or edge index lives: row/edge `offset` of
  /// blocks_[block], or explicit entry `offset` when block < 0.
  struct Ref {
    int64_t block = -1;
    int64_t offset = 0;
  };
  Ref LocateNode(NodeId id) const;
  Ref LocateEdge(int32_t index) const;
  TraceEdge BlockEdge(const LineageBlock& block, int64_t offset) const;
  bool InRange(NodeId id) const { return id >= 0 && id < num_nodes(); }
  bool IsExplicit(NodeId id) const { return InRange(id) && !IsBlockRow(id); }
  /// Id of the block row labelled `label`, or kInvalidNode.
  NodeId FindBlockRow(std::string_view label) const;
  /// Index into blocks_ of the block on statement `stmt`, or -1.
  int64_t BlockOfStatement(NodeId stmt) const;

  /// Explicit nodes in id order, with their adjacency (logical edge
  /// indexes) at the same positions.
  std::vector<TraceNode> nodes_;
  std::vector<std::vector<int32_t>> in_edges_;
  std::vector<std::vector<int32_t>> out_edges_;
  /// Explicit edges in index order.
  std::vector<TraceEdge> edges_;
  /// label -> id of explicit nodes, one index per node type.
  std::array<std::unordered_map<std::string, NodeId>, kNumNodeTypes>
      node_index_;
  /// Explicit tuple dependencies, keyed by node id, plus every (out, in)
  /// pair for constant-time dedup.
  std::unordered_map<NodeId, std::vector<NodeId>> tuple_deps_;
  std::unordered_set<uint64_t> tuple_dep_pairs_;

  std::vector<LineageBlock> blocks_;
  /// Rows / edges of blocks_[0..b], for explicit-offset arithmetic.
  std::vector<int64_t> rows_through_;
  std::vector<int64_t> edges_through_;
  int64_t implied_nodes_ = 0;
  int64_t implied_edges_ = 0;
  std::unordered_map<NodeId, int64_t> block_of_stmt_;
  std::unordered_map<std::string, int64_t> block_of_prefix_;
  /// Prefixes of explicit tuple labels shaped like a block row label
  /// (`...#<digits>`); a block may not take one of them.
  std::unordered_set<std::string> row_shaped_prefixes_;
};

template <typename Fn>
void TraceGraph::ForEachInEdge(NodeId id, Fn&& fn) const {
  LDV_CHECK(InRange(id)) << "trace node out of range";
  const Ref ref = LocateNode(id);
  if (ref.block >= 0) {
    const LineageBlock& block = blocks_[ref.block];
    fn(static_cast<int32_t>(block.first_edge +
                            static_cast<int64_t>(block.inputs.size()) +
                            2 * ref.offset));
    return;
  }
  const std::vector<int32_t>& explicit_edges =
      in_edges_[static_cast<size_t>(ref.offset)];
  size_t next = 0;
  auto explicit_before = [&](int64_t limit) {
    while (next < explicit_edges.size() && explicit_edges[next] < limit) {
      fn(explicit_edges[next++]);
    }
  };
  // Interleave the explicit edges with the blocks' ranges by index: a
  // block statement's reads, a process's readFromDb edges.
  if (!blocks_.empty() &&
      (nodes_[static_cast<size_t>(ref.offset)].type == NodeType::kProcess ||
       BlockOfStatement(id) >= 0)) {
    for (const LineageBlock& block : blocks_) {
      const int32_t num_inputs = static_cast<int32_t>(block.inputs.size());
      if (block.stmt == id) {
        explicit_before(block.first_edge);
        for (int32_t i = 0; i < num_inputs; ++i) fn(block.first_edge + i);
      } else if (block.proc == id) {
        explicit_before(block.first_edge);
        for (int64_t r = 0; r < block.num_rows(); ++r) {
          fn(static_cast<int32_t>(block.first_edge + num_inputs + 2 * r + 1));
        }
      }
    }
  }
  explicit_before(std::numeric_limits<int64_t>::max());
}

}  // namespace ldv::trace

#endif  // LDV_TRACE_GRAPH_H_
