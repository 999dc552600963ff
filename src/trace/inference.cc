#include "trace/inference.h"

#include <algorithm>
#include <map>
#include <unordered_map>

namespace ldv::trace {

namespace {

/// Direct same-model data dependency D(G) between two entities where
/// `later` was reached from `earlier` through an activity-only path
/// (Definition 7 / 8). For P_Lin the explicit lineage pairs decide; for
/// P_BB any process path implies dependency (the graph's type rules
/// guarantee an activity-only OS path is a process chain).
bool DirectEntityDependency(const TraceGraph& graph, NodeId later,
                            NodeId earlier) {
  NodeType later_type = graph.node_type(later);
  NodeType earlier_type = graph.node_type(earlier);
  if (SideOf(later_type) != SideOf(earlier_type)) {
    return true;  // cross-model: no D(G) side condition (Definition 9.1.ii)
  }
  if (later_type == NodeType::kTuple) {
    return graph.HasTupleDependency(later, earlier);
  }
  return true;  // P_BB: conservative all-outputs-depend-on-all-inputs
}

}  // namespace

std::vector<NodeId> DependencyAnalyzer::Search(NodeId start, int64_t t,
                                               bool start_is_entity) const {
  const TraceGraph& g = *graph_;
  std::vector<NodeId> result;
  // Best (largest) bound with which each entity was expanded.
  std::unordered_map<NodeId, int64_t> entity_bound;
  // Work list of (entity-or-start node, bound).
  std::vector<std::pair<NodeId, int64_t>> frontier;
  frontier.emplace_back(start, t);
  if (start_is_entity) entity_bound[start] = t;

  while (!frontier.empty()) {
    const NodeId anchor = frontier.back().first;
    const int64_t anchor_bound = frontier.back().second;
    frontier.pop_back();
    const bool anchor_is_entity = IsEntity(g.node_type(anchor));

    // Explore activity-only backward paths from the anchor.
    std::unordered_map<NodeId, int64_t> activity_bound;
    std::vector<std::pair<NodeId, int64_t>> stack;
    stack.emplace_back(anchor, anchor_bound);
    while (!stack.empty()) {
      const NodeId v = stack.back().first;
      const int64_t bound = stack.back().second;
      stack.pop_back();
      g.ForEachInEdge(v, [&](int32_t edge_index) {
        const TraceEdge edge = g.edge(edge_index);
        if (use_temporal_ && edge.t.begin > bound) return;
        int64_t next_bound =
            use_temporal_ ? std::min(bound, edge.t.end) : kTimeMax;
        NodeId u = edge.from;
        if (IsActivity(g.node_type(u))) {
          auto it = activity_bound.find(u);
          if (it != activity_bound.end() && it->second >= next_bound) return;
          activity_bound[u] = next_bound;
          stack.emplace_back(u, next_bound);
        } else {
          // Reached the previous entity on the path.
          if (anchor_is_entity && !DirectEntityDependency(g, anchor, u)) {
            return;
          }
          auto it = entity_bound.find(u);
          if (it != entity_bound.end() && it->second >= next_bound) return;
          entity_bound[u] = next_bound;
          frontier.emplace_back(u, next_bound);
        }
      });
    }
  }

  for (const auto& [entity, bound] : entity_bound) {
    if (entity != start) result.push_back(entity);
  }
  std::sort(result.begin(), result.end());
  return result;
}

std::vector<NodeId> DependencyAnalyzer::DependenciesOf(NodeId entity,
                                                       int64_t t) const {
  return Search(entity, t, /*start_is_entity=*/true);
}

bool DependencyAnalyzer::Depends(NodeId entity, NodeId candidate,
                                 int64_t t) const {
  std::vector<NodeId> deps = DependenciesOf(entity, t);
  return std::binary_search(deps.begin(), deps.end(), candidate);
}

std::vector<NodeId> DependencyAnalyzer::StateDependenciesOfActivity(
    NodeId activity, int64_t t) const {
  return Search(activity, t, /*start_is_entity=*/false);
}

std::vector<NodeId> DependencyAnalyzer::RelevantPackageTuples() const {
  const TraceGraph& g = *graph_;
  // Union of state dependencies over all activities.
  std::vector<bool> needed(static_cast<size_t>(g.num_nodes()), false);
  for (NodeId id = 0; id < g.num_nodes(); ++id) {
    if (!IsActivity(g.node_type(id))) continue;
    for (NodeId dep : StateDependenciesOfActivity(id)) {
      needed[static_cast<size_t>(dep)] = true;
    }
  }
  std::vector<NodeId> out;
  for (NodeId id = 0; id < g.num_nodes(); ++id) {
    if (!needed[static_cast<size_t>(id)]) continue;
    if (g.node_type(id) != NodeType::kTuple) continue;
    // "Created by the application itself": any incoming edge (§VII-D).
    if (!g.InEdges(id).empty()) continue;
    out.push_back(id);
  }
  return out;
}

bool PathSatisfiesDefinition11(const TraceGraph& graph,
                               const std::vector<int32_t>& path_edges,
                               int64_t t) {
  if (path_edges.empty()) return false;
  // Check connectivity v1 -e1-> v2 -e2-> ... -e_{n-1}-> vn.
  for (size_t i = 1; i < path_edges.size(); ++i) {
    const TraceEdge prev = graph.edge(path_edges[i - 1]);
    const TraceEdge cur = graph.edge(path_edges[i]);
    if (prev.to != cur.from) return false;
  }
  // Condition 1: adjacent same-model entities on the path must be in D(G).
  std::vector<NodeId> nodes;
  nodes.push_back(graph.edge(path_edges[0]).from);
  for (int32_t e : path_edges) {
    nodes.push_back(graph.edge(e).to);
  }
  NodeId prev_entity = kInvalidNode;
  for (NodeId v : nodes) {
    if (!IsEntity(graph.node_type(v))) continue;
    if (prev_entity != kInvalidNode) {
      NodeType a = graph.node_type(prev_entity);
      NodeType b = graph.node_type(v);
      if (SideOf(a) == SideOf(b)) {
        if (b == NodeType::kTuple &&
            !graph.HasTupleDependency(v, prev_entity)) {
          return false;
        }
        // P_BB adjacent files: dependency holds via the process chain.
      }
    }
    prev_entity = v;
  }
  // Conditions 2+3: greedy forward assignment of minimal feasible times.
  // T_i >= max(T_{i-1}, begin(edge_{i-1})), T_i <= end(edge_i) for i < n,
  // T_n <= t.
  int64_t current = std::numeric_limits<int64_t>::min();
  for (size_t i = 0; i < path_edges.size(); ++i) {
    const TraceEdge edge = graph.edge(path_edges[i]);
    // Time at node v_{i+1} must be >= begin(edge_i); time at node v_i must
    // be <= end(edge_i).
    if (current > edge.t.end) return false;  // T_i <= end(edge_i) infeasible
    current = std::max(current, edge.t.begin);  // minimal T_{i+1}
  }
  return current <= t;
}

}  // namespace ldv::trace
