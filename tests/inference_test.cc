#include <gtest/gtest.h>

#include <functional>
#include <set>

#include "trace/inference.h"
#include "util/rng.h"
#include "util/strings.h"

namespace ldv::trace {
namespace {

/// Figure 6 of the paper: chain A -> P1 -> B -> P2 -> C with varying
/// temporal annotations.
struct ChainTrace {
  TraceGraph g;
  NodeId a, p1, b, p2, c;
};

ChainTrace MakeChain(os::Interval a_p1, os::Interval p1_b, os::Interval b_p2,
                     os::Interval p2_c) {
  ChainTrace t;
  t.a = t.g.GetOrAddNode(NodeType::kFile, "A");
  t.p1 = t.g.GetOrAddNode(NodeType::kProcess, "P1");
  t.b = t.g.GetOrAddNode(NodeType::kFile, "B");
  t.p2 = t.g.GetOrAddNode(NodeType::kProcess, "P2");
  t.c = t.g.GetOrAddNode(NodeType::kFile, "C");
  EXPECT_TRUE(t.g.AddEdge(t.a, t.p1, EdgeType::kReadFrom, a_p1).ok());
  EXPECT_TRUE(t.g.AddEdge(t.p1, t.b, EdgeType::kHasWritten, p1_b).ok());
  EXPECT_TRUE(t.g.AddEdge(t.b, t.p2, EdgeType::kReadFrom, b_p2).ok());
  EXPECT_TRUE(t.g.AddEdge(t.p2, t.c, EdgeType::kHasWritten, p2_c).ok());
  return t;
}

TEST(InferenceTest, Figure6aNoDependency) {
  // A -[2,3]-> P1 -[6,7]-> B -[1,5]-> P2 -[6,6]-> C.
  // P2 stopped reading B (at 5) before P1 wrote it (from 6): no dependency.
  ChainTrace t = MakeChain({2, 3}, {6, 7}, {1, 5}, {6, 6});
  DependencyAnalyzer analyzer(&t.g);
  EXPECT_FALSE(analyzer.Depends(t.c, t.a));
  // B itself is still a dependency of C (read before write of C completes).
  EXPECT_TRUE(analyzer.Depends(t.c, t.b));
}

TEST(InferenceTest, Figure6bDependsAtTime4) {
  // A -[1,1]-> P1 -[4,7]-> B -[2,5]-> P2 -[1,6]-> C: C depends on A at 4.
  ChainTrace t = MakeChain({1, 1}, {4, 7}, {2, 5}, {1, 6});
  DependencyAnalyzer analyzer(&t.g);
  EXPECT_TRUE(analyzer.Depends(t.c, t.a, 4));
  EXPECT_TRUE(analyzer.Depends(t.c, t.a));  // and at any later time
  // Before the information could have flowed (B readable only from 2, and
  // P1 writes B from 4), there is no dependency.
  EXPECT_FALSE(analyzer.Depends(t.c, t.a, 3));
}

TEST(InferenceTest, Figure6cBlockedByMissingDataDependency) {
  // Same temporal layout as 6b but B does not depend on A in D(G). For the
  // P_BB model that situation is expressed by *removing* the A->P1 read
  // (Definition 8 would otherwise force the dependency); the paper's trace
  // 6c marks the A-P1 interaction as carrying no data dependency.
  ChainTrace t = MakeChain({1, 1}, {4, 7}, {2, 5}, {1, 6});
  // Emulate by querying dependence of C on a file P1 never read:
  NodeId unread = t.g.GetOrAddNode(NodeType::kFile, "unread");
  DependencyAnalyzer analyzer(&t.g);
  EXPECT_FALSE(analyzer.Depends(t.c, unread));
}

TEST(InferenceTest, Example7WriteBeforeRead) {
  // Figure 4 variant: P1 reads A [1,5] and B [7,8]... wait — Example 7:
  // file C was written [2,3] by P1 before P1 read B [7,8]: C cannot depend
  // on B.
  TraceGraph g;
  NodeId a = g.GetOrAddNode(NodeType::kFile, "A");
  NodeId b = g.GetOrAddNode(NodeType::kFile, "B");
  NodeId c = g.GetOrAddNode(NodeType::kFile, "C");
  NodeId d = g.GetOrAddNode(NodeType::kFile, "D");
  NodeId p1 = g.GetOrAddNode(NodeType::kProcess, "P1");
  ASSERT_TRUE(g.AddEdge(a, p1, EdgeType::kReadFrom, {1, 5}).ok());
  ASSERT_TRUE(g.AddEdge(b, p1, EdgeType::kReadFrom, {7, 8}).ok());
  ASSERT_TRUE(g.AddEdge(p1, c, EdgeType::kHasWritten, {2, 3}).ok());
  ASSERT_TRUE(g.AddEdge(p1, d, EdgeType::kHasWritten, {8, 8}).ok());
  DependencyAnalyzer analyzer(&g);
  EXPECT_TRUE(analyzer.Depends(c, a));   // read [1,5] overlaps write [2,3]
  EXPECT_FALSE(analyzer.Depends(c, b));  // C written before B was read
  EXPECT_TRUE(analyzer.Depends(d, a));
  EXPECT_TRUE(analyzer.Depends(d, b));
}

TEST(InferenceTest, AblationWithoutTemporalConstraints) {
  // Disabling temporal pruning turns Figure 6a into a (spurious) dependency
  // — quantifying what the paper's temporal reasoning removes.
  ChainTrace t = MakeChain({2, 3}, {6, 7}, {1, 5}, {6, 6});
  DependencyAnalyzer analyzer(&t.g);
  analyzer.set_use_temporal_constraints(false);
  EXPECT_TRUE(analyzer.Depends(t.c, t.a));
}

TEST(InferenceTest, CrossModelDependencyThroughStatements) {
  // File -> process -> insert -> tuple -> query-result tuple -> process ->
  // file: the full combined-model chain of Figures 1/2.
  TraceGraph g;
  NodeId f1 = g.GetOrAddNode(NodeType::kFile, "f1");
  NodeId p1 = g.GetOrAddNode(NodeType::kProcess, "P1");
  NodeId insert = g.GetOrAddNode(NodeType::kInsert, "Insert");
  NodeId t1 = g.GetOrAddNode(NodeType::kTuple, "t1");
  NodeId query = g.GetOrAddNode(NodeType::kQuery, "Query");
  NodeId t4 = g.GetOrAddNode(NodeType::kTuple, "t4");
  NodeId p2 = g.GetOrAddNode(NodeType::kProcess, "P2");
  NodeId f2 = g.GetOrAddNode(NodeType::kFile, "f2");
  ASSERT_TRUE(g.AddEdge(f1, p1, EdgeType::kReadFrom, {1, 2}).ok());
  ASSERT_TRUE(g.AddEdge(p1, insert, EdgeType::kRun, {3, 3}).ok());
  ASSERT_TRUE(g.AddEdge(insert, t1, EdgeType::kHasReturned, {3, 3}).ok());
  ASSERT_TRUE(g.AddEdge(t1, query, EdgeType::kHasRead, {5, 5}).ok());
  ASSERT_TRUE(g.AddEdge(p2, query, EdgeType::kRun, {5, 5}).ok());
  ASSERT_TRUE(g.AddEdge(query, t4, EdgeType::kHasReturned, {5, 5}).ok());
  ASSERT_TRUE(g.AddEdge(t4, p2, EdgeType::kReadFromDb, {5, 5}).ok());
  ASSERT_TRUE(g.AddEdge(p2, f2, EdgeType::kHasWritten, {6, 7}).ok());
  g.AddTupleDependency(t4, t1);

  DependencyAnalyzer analyzer(&g);
  // Output file depends on the input file across both models.
  EXPECT_TRUE(analyzer.Depends(f2, f1));
  EXPECT_TRUE(analyzer.Depends(f2, t4));
  EXPECT_TRUE(analyzer.Depends(f2, t1));
  EXPECT_TRUE(analyzer.Depends(t4, t1));
  EXPECT_TRUE(analyzer.Depends(t4, f1));  // cross-model via P1/Insert
  // Without the lineage pair, the tuple-tuple link breaks the chain.
  TraceGraph g2 = g;
  // (Rebuild without the dependency pair.)
  TraceGraph h;
  NodeId h_t1 = h.GetOrAddNode(NodeType::kTuple, "t1");
  NodeId h_q = h.GetOrAddNode(NodeType::kQuery, "Query");
  NodeId h_t4 = h.GetOrAddNode(NodeType::kTuple, "t4");
  ASSERT_TRUE(h.AddEdge(h_t1, h_q, EdgeType::kHasRead, {5, 5}).ok());
  ASSERT_TRUE(h.AddEdge(h_q, h_t4, EdgeType::kHasReturned, {5, 5}).ok());
  DependencyAnalyzer analyzer_h(&h);
  EXPECT_FALSE(analyzer_h.Depends(h_t4, h_t1));  // not in Lineage
  h.AddTupleDependency(h_t4, h_t1);
  EXPECT_TRUE(analyzer_h.Depends(h_t4, h_t1));
}

TEST(InferenceTest, RelevantPackageTuplesMatchPaperFigure1) {
  // Figure 1: t1 inserted by the app; t2 untouched; t3 also created by the
  // app (Insert2); t4 is a query result. Pre-existing tuple read by the
  // query: we add one (t0) to stand for data that must be packaged.
  TraceGraph g;
  NodeId p1 = g.GetOrAddNode(NodeType::kProcess, "P1");
  NodeId insert = g.GetOrAddNode(NodeType::kInsert, "Insert1");
  NodeId t0 = g.GetOrAddNode(NodeType::kTuple, "t0");  // pre-existing
  NodeId t1 = g.GetOrAddNode(NodeType::kTuple, "t1");  // app-created
  NodeId t2 = g.GetOrAddNode(NodeType::kTuple, "t2");  // never accessed
  NodeId query = g.GetOrAddNode(NodeType::kQuery, "Query");
  NodeId t4 = g.GetOrAddNode(NodeType::kTuple, "t4");
  NodeId p2 = g.GetOrAddNode(NodeType::kProcess, "P2");
  ASSERT_TRUE(g.AddEdge(p1, insert, EdgeType::kRun, {2, 2}).ok());
  ASSERT_TRUE(g.AddEdge(insert, t1, EdgeType::kHasReturned, {2, 2}).ok());
  ASSERT_TRUE(g.AddEdge(t0, query, EdgeType::kHasRead, {4, 4}).ok());
  ASSERT_TRUE(g.AddEdge(t1, query, EdgeType::kHasRead, {4, 4}).ok());
  ASSERT_TRUE(g.AddEdge(p2, query, EdgeType::kRun, {4, 4}).ok());
  ASSERT_TRUE(g.AddEdge(query, t4, EdgeType::kHasReturned, {4, 4}).ok());
  ASSERT_TRUE(g.AddEdge(t4, p2, EdgeType::kReadFromDb, {4, 4}).ok());
  g.AddTupleDependency(t4, t0);
  g.AddTupleDependency(t4, t1);

  DependencyAnalyzer analyzer(&g);
  std::vector<NodeId> relevant = analyzer.RelevantPackageTuples();
  // Only t0: t1/t4 are app-created (incoming edges), t2 was never used.
  ASSERT_EQ(relevant.size(), 1u);
  EXPECT_EQ(relevant[0], t0);
  (void)t2;
}

// ---------------------------------------------------------------------------
// Property test: the analyzer agrees with brute-force path enumeration over
// randomized small traces (soundness + completeness w.r.t. Definition 11,
// Theorem 1).
// ---------------------------------------------------------------------------

struct RandomTrace {
  TraceGraph g;
  std::vector<NodeId> files;
  std::vector<NodeId> processes;
};

RandomTrace MakeRandomTrace(uint64_t seed) {
  RandomTrace t;
  Rng rng(seed);
  int num_files = static_cast<int>(rng.Uniform(3, 6));
  int num_procs = static_cast<int>(rng.Uniform(2, 4));
  for (int i = 0; i < num_files; ++i) {
    t.files.push_back(
        t.g.GetOrAddNode(NodeType::kFile, StrFormat("f%d", i)));
  }
  for (int i = 0; i < num_procs; ++i) {
    t.processes.push_back(
        t.g.GetOrAddNode(NodeType::kProcess, StrFormat("p%d", i)));
  }
  int num_edges = static_cast<int>(rng.Uniform(4, 12));
  for (int i = 0; i < num_edges; ++i) {
    NodeId file = t.files[static_cast<size_t>(
        rng.Uniform(0, static_cast<int64_t>(t.files.size()) - 1))];
    NodeId proc = t.processes[static_cast<size_t>(
        rng.Uniform(0, static_cast<int64_t>(t.processes.size()) - 1))];
    int64_t begin = rng.Uniform(1, 10);
    int64_t end = begin + rng.Uniform(0, 5);
    if (rng.Bernoulli(0.5)) {
      (void)t.g.MergeEdge(file, proc, EdgeType::kReadFrom, {begin, end});
    } else {
      (void)t.g.MergeEdge(proc, file, EdgeType::kHasWritten, {begin, end});
    }
  }
  return t;
}

/// Brute force: enumerate all edge-simple walks from candidate to target
/// (nodes may repeat — a process can read f, write g, re-read g, write h)
/// and check Definition 11 directly on each. Along a walk the feasible time
/// bound only tightens, so reusing an edge can never enable a dependency an
/// edge-simple walk misses.
bool BruteForceDepends(const TraceGraph& g, NodeId target, NodeId candidate,
                       int64_t t) {
  bool found = false;
  std::vector<int32_t> path;
  std::set<int32_t> used_edges;
  std::function<void(NodeId)> dfs = [&](NodeId v) {
    if (found) return;
    if (v == target && !path.empty()) {
      if (PathSatisfiesDefinition11(g, path, t)) found = true;
      // Keep exploring: a longer walk through `target` cannot help reach
      // `target` more feasibly, so returning here is fine.
      return;
    }
    for (int32_t edge_index : g.OutEdges(v)) {
      if (used_edges.contains(edge_index)) continue;
      const TraceEdge edge = g.edge(edge_index);
      used_edges.insert(edge_index);
      path.push_back(edge_index);
      dfs(edge.to);
      path.pop_back();
      used_edges.erase(edge_index);
    }
  };
  dfs(candidate);
  return found;
}

class InferencePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(InferencePropertyTest, AnalyzerMatchesBruteForce) {
  RandomTrace t = MakeRandomTrace(GetParam());
  DependencyAnalyzer analyzer(&t.g);
  for (int64_t query_time : {5, 8, 12, 100}) {
    for (NodeId target : t.files) {
      std::vector<NodeId> deps = analyzer.DependenciesOf(target, query_time);
      std::set<NodeId> dep_set(deps.begin(), deps.end());
      for (NodeId candidate : t.files) {
        if (candidate == target) continue;
        bool expected = BruteForceDepends(t.g, target, candidate, query_time);
        EXPECT_EQ(dep_set.contains(candidate), expected)
            << "seed=" << GetParam() << " time=" << query_time << " target=f"
            << target << " candidate=f" << candidate << "\n"
            << t.g.ToDot();
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomTraces, InferencePropertyTest,
                         ::testing::Range<uint64_t>(0, 25));

}  // namespace
}  // namespace ldv::trace
