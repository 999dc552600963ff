#include <gtest/gtest.h>

#include <tuple>

#include "trace/graph.h"
#include "trace/model.h"
#include "common/json.h"
#include "trace/prov_export.h"
#include "trace/serialize.h"
#include "util/rng.h"
#include "util/serde.h"

namespace ldv::trace {
namespace {

TEST(ModelTest, ActivityEntityClassification) {
  EXPECT_TRUE(IsActivity(NodeType::kProcess));
  EXPECT_TRUE(IsActivity(NodeType::kQuery));
  EXPECT_TRUE(IsActivity(NodeType::kInsert));
  EXPECT_TRUE(IsActivity(NodeType::kUpdate));
  EXPECT_TRUE(IsActivity(NodeType::kDelete));
  EXPECT_FALSE(IsActivity(NodeType::kFile));
  EXPECT_FALSE(IsActivity(NodeType::kTuple));
  EXPECT_TRUE(IsEntity(NodeType::kFile));
}

TEST(ModelTest, ModelSides) {
  EXPECT_EQ(SideOf(NodeType::kProcess), ModelSide::kOs);
  EXPECT_EQ(SideOf(NodeType::kFile), ModelSide::kOs);
  EXPECT_EQ(SideOf(NodeType::kQuery), ModelSide::kDb);
  EXPECT_EQ(SideOf(NodeType::kTuple), ModelSide::kDb);
}

TEST(ModelTest, EdgeTypeRulesMatchDefinition5) {
  // P_BB edges.
  EXPECT_TRUE(EdgeAllowed(EdgeType::kReadFrom, NodeType::kFile,
                          NodeType::kProcess));
  EXPECT_TRUE(EdgeAllowed(EdgeType::kHasWritten, NodeType::kProcess,
                          NodeType::kFile));
  EXPECT_TRUE(EdgeAllowed(EdgeType::kExecuted, NodeType::kProcess,
                          NodeType::kProcess));
  // P_Lin edges.
  EXPECT_TRUE(
      EdgeAllowed(EdgeType::kHasRead, NodeType::kTuple, NodeType::kQuery));
  EXPECT_TRUE(EdgeAllowed(EdgeType::kHasRead, NodeType::kTuple,
                          NodeType::kUpdate));
  EXPECT_TRUE(EdgeAllowed(EdgeType::kHasReturned, NodeType::kInsert,
                          NodeType::kTuple));
  // Cross-model edges of Definition 5.
  EXPECT_TRUE(
      EdgeAllowed(EdgeType::kRun, NodeType::kProcess, NodeType::kQuery));
  EXPECT_TRUE(EdgeAllowed(EdgeType::kReadFromDb, NodeType::kTuple,
                          NodeType::kProcess));
  // Forbidden combinations.
  EXPECT_FALSE(
      EdgeAllowed(EdgeType::kReadFrom, NodeType::kTuple, NodeType::kProcess));
  EXPECT_FALSE(
      EdgeAllowed(EdgeType::kHasWritten, NodeType::kQuery, NodeType::kFile));
  EXPECT_FALSE(
      EdgeAllowed(EdgeType::kRun, NodeType::kQuery, NodeType::kProcess));
  EXPECT_FALSE(EdgeAllowed(EdgeType::kExecuted, NodeType::kProcess,
                           NodeType::kQuery));
}

TEST(TraceGraphTest, NodeDeduplication) {
  TraceGraph g;
  NodeId a = g.GetOrAddNode(NodeType::kFile, "/data/a");
  NodeId a2 = g.GetOrAddNode(NodeType::kFile, "/data/a");
  NodeId b = g.GetOrAddNode(NodeType::kProcess, "/data/a");  // other type
  EXPECT_EQ(a, a2);
  EXPECT_NE(a, b);
  EXPECT_EQ(g.num_nodes(), 2);
  EXPECT_EQ(g.FindNode(NodeType::kFile, "/data/a"), a);
  EXPECT_EQ(g.FindNode(NodeType::kFile, "/nope"), kInvalidNode);
}

TEST(TraceGraphTest, EdgeValidation) {
  TraceGraph g;
  NodeId file = g.GetOrAddNode(NodeType::kFile, "f");
  NodeId proc = g.GetOrAddNode(NodeType::kProcess, "p");
  EXPECT_TRUE(g.AddEdge(file, proc, EdgeType::kReadFrom, {1, 2}).ok());
  EXPECT_FALSE(g.AddEdge(proc, file, EdgeType::kReadFrom, {1, 2}).ok());
  EXPECT_FALSE(g.AddEdge(file, proc, EdgeType::kReadFrom, {3, 2}).ok());
  EXPECT_FALSE(g.AddEdge(file, 99, EdgeType::kReadFrom, {1, 2}).ok());
  EXPECT_FALSE(g.MergeEdge(file, -1, EdgeType::kReadFrom, {1, 2}).ok());
  EXPECT_EQ(g.num_edges(), 1);
  EXPECT_EQ(g.OutEdges(file).size(), 1u);
  EXPECT_EQ(g.InEdges(proc).size(), 1u);
}

TEST(TraceGraphTest, MergeEdgeExtendsInterval) {
  // The PTU convention: one readFrom edge per (file, process) annotated
  // with [first open, last close].
  TraceGraph g;
  NodeId file = g.GetOrAddNode(NodeType::kFile, "f");
  NodeId proc = g.GetOrAddNode(NodeType::kProcess, "p");
  ASSERT_TRUE(g.MergeEdge(file, proc, EdgeType::kReadFrom, {5, 6}).ok());
  ASSERT_TRUE(g.MergeEdge(file, proc, EdgeType::kReadFrom, {1, 2}).ok());
  ASSERT_TRUE(g.MergeEdge(file, proc, EdgeType::kReadFrom, {9, 12}).ok());
  ASSERT_EQ(g.num_edges(), 1);
  EXPECT_EQ(g.edges()[0].t.begin, 1);
  EXPECT_EQ(g.edges()[0].t.end, 12);
}

TEST(TraceGraphTest, TupleDependencies) {
  TraceGraph g;
  NodeId t1 = g.GetOrAddNode(NodeType::kTuple, "t1");
  NodeId t4 = g.GetOrAddNode(NodeType::kTuple, "t4");
  NodeId t3 = g.GetOrAddNode(NodeType::kTuple, "t3");
  g.AddTupleDependency(t4, t1);
  g.AddTupleDependency(t4, t1);  // dedup
  g.AddTupleDependency(t4, t3);
  EXPECT_TRUE(g.HasTupleDependency(t4, t1));
  EXPECT_FALSE(g.HasTupleDependency(t1, t4));
  EXPECT_EQ(g.TupleDependenciesOf(t4).size(), 2u);
  EXPECT_TRUE(g.TupleDependenciesOf(t1).empty());
}

/// Builds the combined execution trace of paper Figure 2: P1 reads files A
/// and B and runs Insert1/Insert2 creating t1,t2,t3; P2 runs Query reading
/// t1,t3 and returning t4,t5, then writes file C.
TraceGraph BuildFigure2Trace() {
  TraceGraph g;
  NodeId file_a = g.GetOrAddNode(NodeType::kFile, "A");
  NodeId file_b = g.GetOrAddNode(NodeType::kFile, "B");
  NodeId file_c = g.GetOrAddNode(NodeType::kFile, "C");
  NodeId p1 = g.GetOrAddNode(NodeType::kProcess, "P1");
  NodeId p2 = g.GetOrAddNode(NodeType::kProcess, "P2");
  NodeId insert1 = g.GetOrAddNode(NodeType::kInsert, "Insert1");
  NodeId insert2 = g.GetOrAddNode(NodeType::kInsert, "Insert2");
  NodeId query = g.GetOrAddNode(NodeType::kQuery, "Query");
  NodeId t1 = g.GetOrAddNode(NodeType::kTuple, "t1");
  NodeId t2 = g.GetOrAddNode(NodeType::kTuple, "t2");
  NodeId t3 = g.GetOrAddNode(NodeType::kTuple, "t3");
  NodeId t4 = g.GetOrAddNode(NodeType::kTuple, "t4");
  NodeId t5 = g.GetOrAddNode(NodeType::kTuple, "t5");

  EXPECT_TRUE(g.AddEdge(file_a, p1, EdgeType::kReadFrom, {1, 6}).ok());
  EXPECT_TRUE(g.AddEdge(file_b, p1, EdgeType::kReadFrom, {7, 8}).ok());
  EXPECT_TRUE(g.AddEdge(p1, insert1, EdgeType::kRun, {5, 5}).ok());
  EXPECT_TRUE(g.AddEdge(p1, insert2, EdgeType::kRun, {8, 8}).ok());
  EXPECT_TRUE(g.AddEdge(insert1, t1, EdgeType::kHasReturned, {5, 5}).ok());
  EXPECT_TRUE(g.AddEdge(insert1, t2, EdgeType::kHasReturned, {5, 5}).ok());
  EXPECT_TRUE(g.AddEdge(insert2, t3, EdgeType::kHasReturned, {8, 8}).ok());
  EXPECT_TRUE(g.AddEdge(t1, query, EdgeType::kHasRead, {9, 9}).ok());
  EXPECT_TRUE(g.AddEdge(t3, query, EdgeType::kHasRead, {9, 9}).ok());
  EXPECT_TRUE(g.AddEdge(p2, query, EdgeType::kRun, {9, 9}).ok());
  EXPECT_TRUE(g.AddEdge(query, t4, EdgeType::kHasReturned, {9, 9}).ok());
  EXPECT_TRUE(g.AddEdge(query, t5, EdgeType::kHasReturned, {9, 9}).ok());
  EXPECT_TRUE(g.AddEdge(t4, p2, EdgeType::kReadFromDb, {9, 9}).ok());
  EXPECT_TRUE(g.AddEdge(t5, p2, EdgeType::kReadFromDb, {9, 9}).ok());
  EXPECT_TRUE(g.AddEdge(p2, file_c, EdgeType::kHasWritten, {7, 12}).ok());
  g.AddTupleDependency(t4, t1);
  g.AddTupleDependency(t4, t3);
  g.AddTupleDependency(t5, t1);
  g.AddTupleDependency(t5, t3);
  return g;
}

TEST(TraceGraphTest, Figure2TraceBuildsAndValidates) {
  TraceGraph g = BuildFigure2Trace();
  EXPECT_EQ(g.num_nodes(), 13);
  EXPECT_EQ(g.num_edges(), 15);
  EXPECT_EQ(g.NodesOfType(NodeType::kTuple).size(), 5u);
  EXPECT_EQ(g.NodesOfType(NodeType::kProcess).size(), 2u);
}

TEST(TraceGraphTest, DotRenderingMentionsEveryNode) {
  TraceGraph g = BuildFigure2Trace();
  std::string dot = g.ToDot();
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("Insert1"), std::string::npos);
  EXPECT_NE(dot.find("readFrom"), std::string::npos);
  EXPECT_NE(dot.find("dep"), std::string::npos);
}

TEST(TraceSerializeTest, RoundTrip) {
  TraceGraph g = BuildFigure2Trace();
  std::string bytes = SerializeTrace(g);
  auto restored = DeserializeTrace(bytes);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->num_nodes(), g.num_nodes());
  EXPECT_EQ(restored->num_edges(), g.num_edges());
  NodeId t4 = restored->FindNode(NodeType::kTuple, "t4");
  NodeId t1 = restored->FindNode(NodeType::kTuple, "t1");
  ASSERT_NE(t4, kInvalidNode);
  EXPECT_TRUE(restored->HasTupleDependency(t4, t1));
  // Edge intervals survive.
  NodeId file_a = restored->FindNode(NodeType::kFile, "A");
  ASSERT_EQ(restored->OutEdges(file_a).size(), 1u);
  const TraceEdge& edge =
      restored->edges()[static_cast<size_t>(restored->OutEdges(file_a)[0])];
  EXPECT_EQ(edge.t.begin, 1);
  EXPECT_EQ(edge.t.end, 6);
}

TEST(TraceSerializeTest, RejectsGarbage) {
  EXPECT_FALSE(DeserializeTrace("not a trace").ok());
  EXPECT_FALSE(DeserializeTrace("").ok());
}

/// A two-node trace (file A -readFrom-> process P) plus one tuple pair,
/// written field by field so single bytes can be corrupted.
struct TraceBytes {
  uint8_t file_type = static_cast<uint8_t>(NodeType::kFile);
  uint8_t proc_type = static_cast<uint8_t>(NodeType::kProcess);
  uint8_t edge_type = static_cast<uint8_t>(EdgeType::kReadFrom);
  int64_t edge_to = 1;
  int64_t dep_out = 0;
  bool with_dep = false;

  std::string Encode() const {
    BufferWriter w;
    w.PutU32(0x4C445654);  // "LDVT"
    w.PutVarint(2);
    w.PutU8(file_type);
    w.PutString("A");
    w.PutU8(proc_type);
    w.PutString("P");
    w.PutVarint(1);
    w.PutVarint(0);
    w.PutVarint(edge_to);
    w.PutU8(edge_type);
    w.PutVarint(1);
    w.PutVarint(2);
    w.PutVarint(with_dep ? 1 : 0);
    if (with_dep) {
      w.PutVarint(dep_out);
      w.PutVarint(0);
    }
    return w.TakeData();
  }
};

TEST(TraceSerializeTest, HandWrittenTraceMatchesSerializer) {
  TraceGraph g;
  NodeId a = g.GetOrAddNode(NodeType::kFile, "A");
  NodeId p = g.GetOrAddNode(NodeType::kProcess, "P");
  ASSERT_TRUE(g.AddEdge(a, p, EdgeType::kReadFrom, {1, 2}).ok());
  EXPECT_EQ(SerializeTrace(g), TraceBytes{}.Encode());
  EXPECT_TRUE(DeserializeTrace(TraceBytes{}.Encode()).ok());
}

TEST(TraceSerializeTest, RejectsOutOfRangeTypeBytes) {
  auto expect_io_error = [](const TraceBytes& bytes, const char* what) {
    auto graph = DeserializeTrace(bytes.Encode());
    ASSERT_FALSE(graph.ok()) << what;
    EXPECT_EQ(graph.status().code(), StatusCode::kIOError)
        << what << ": " << graph.status().ToString();
  };
  for (uint8_t bad : {uint8_t{kNumNodeTypes}, uint8_t{0x80}, uint8_t{0xFF}}) {
    TraceBytes bytes;
    bytes.file_type = bad;
    expect_io_error(bytes, "node type of A");
    bytes = TraceBytes{};
    bytes.proc_type = bad;
    expect_io_error(bytes, "node type of P");
  }
  for (uint8_t bad : {uint8_t{kNumEdgeTypes}, uint8_t{0x7F}, uint8_t{0xFF}}) {
    TraceBytes bytes;
    bytes.edge_type = bad;
    expect_io_error(bytes, "edge type");
  }
  TraceBytes endpoint;
  endpoint.edge_to = (int64_t{1} << 32) + 1;  // wraps to a valid id as int32
  expect_io_error(endpoint, "edge endpoint");
  TraceBytes dep;
  dep.with_dep = true;
  dep.dep_out = 2;
  expect_io_error(dep, "tuple dependency");
}

/// Naive model of AddEdge/MergeEdge: a flat edge list, merges scan it from
/// the newest edge back.
struct ReferenceEdges {
  using Edge = std::tuple<NodeId, NodeId, EdgeType, int64_t, int64_t>;
  std::vector<Edge> edges;

  void Add(NodeId from, NodeId to, EdgeType type, os::Interval t) {
    edges.emplace_back(from, to, type, t.begin, t.end);
  }
  void Merge(NodeId from, NodeId to, EdgeType type, os::Interval t) {
    for (auto it = edges.rbegin(); it != edges.rend(); ++it) {
      auto& [f, to_, ty, begin, end] = *it;
      if (f == from && to_ == to && ty == type) {
        begin = std::min(begin, t.begin);
        end = std::max(end, t.end);
        return;
      }
    }
    Add(from, to, type, t);
  }
};

TEST(TraceGraphTest, MergeEdgeMatchesReferenceModel) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    TraceGraph g;
    ReferenceEdges ref;
    // Few endpoints so triples repeat; one hub statement and one hub tuple
    // collect most edges, so both adjacency lists get long.
    std::vector<NodeId> tuples, stmts, files, procs;
    for (int i = 0; i < 6; ++i) {
      std::string n = std::to_string(i);
      tuples.push_back(g.GetOrAddNode(NodeType::kTuple, "t" + n));
      stmts.push_back(g.GetOrAddNode(
          i % 2 ? NodeType::kQuery : NodeType::kUpdate, "s" + n));
      if (i < 3) {
        files.push_back(g.GetOrAddNode(NodeType::kFile, "f" + n));
        procs.push_back(g.GetOrAddNode(NodeType::kProcess, "p" + n));
      }
    }
    auto pick = [&rng](const std::vector<NodeId>& pool) {
      return rng.Bernoulli(0.5)
                 ? pool[0]
                 : pool[static_cast<size_t>(
                       rng.Uniform(0, static_cast<int64_t>(pool.size()) - 1))];
    };
    for (int op = 0; op < 600; ++op) {
      NodeId from, to;
      EdgeType type;
      switch (rng.Uniform(0, 3)) {
        case 0:
          std::tie(from, to, type) =
              std::make_tuple(pick(tuples), pick(stmts), EdgeType::kHasRead);
          break;
        case 1:
          std::tie(from, to, type) = std::make_tuple(
              pick(stmts), pick(tuples), EdgeType::kHasReturned);
          break;
        case 2:
          std::tie(from, to, type) =
              std::make_tuple(pick(files), pick(procs), EdgeType::kReadFrom);
          break;
        default:
          std::tie(from, to, type) =
              std::make_tuple(pick(procs), pick(procs), EdgeType::kExecuted);
          break;
      }
      int64_t begin = rng.Uniform(0, 1000);
      os::Interval t{begin, begin + rng.Uniform(0, 50)};
      if (rng.Bernoulli(0.3)) {
        ASSERT_TRUE(g.AddEdge(from, to, type, t).ok());
        ref.Add(from, to, type, t);
      } else {
        ASSERT_TRUE(g.MergeEdge(from, to, type, t).ok());
        ref.Merge(from, to, type, t);
      }
    }
    ASSERT_EQ(g.edges().size(), ref.edges.size()) << "seed " << seed;
    std::vector<std::vector<int32_t>> in(g.num_nodes()), out(g.num_nodes());
    for (size_t i = 0; i < ref.edges.size(); ++i) {
      const TraceEdge& e = g.edges()[i];
      EXPECT_EQ(std::make_tuple(e.from, e.to, e.type, e.t.begin, e.t.end),
                ref.edges[i])
          << "seed " << seed << " edge " << i;
      out[static_cast<size_t>(e.from)].push_back(static_cast<int32_t>(i));
      in[static_cast<size_t>(e.to)].push_back(static_cast<int32_t>(i));
    }
    for (NodeId id = 0; id < g.num_nodes(); ++id) {
      const size_t i = static_cast<size_t>(id);
      EXPECT_EQ(g.OutEdges(id), out[i]) << "seed " << seed;
      EXPECT_EQ(g.InEdges(id), in[i]) << "seed " << seed;
    }
  }
}

TEST(ProvExportTest, Figure2ExportsAsValidProvJson) {
  TraceGraph g = BuildFigure2Trace();
  std::string text = ExportProvJson(g);
  auto doc = Json::Parse(text);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();

  // 2 processes + 3 statements = 5 activities; 3 files + 5 tuples = 8
  // entities.
  EXPECT_EQ(doc->Find("activity")->AsObject().size(), 5u);
  EXPECT_EQ(doc->Find("entity")->AsObject().size(), 8u);
  // used: 2 file reads + 2 hasRead + 2 readFromDb = 6.
  EXPECT_EQ(doc->Find("used")->AsObject().size(), 6u);
  // wasGeneratedBy: 3 insert-returns + 2 query-returns + 1 file write = 6.
  EXPECT_EQ(doc->Find("wasGeneratedBy")->AsObject().size(), 6u);
  // wasStartedBy: 3 run edges (no executed edges in Figure 2).
  EXPECT_EQ(doc->Find("wasStartedBy")->AsObject().size(), 3u);
  // wasDerivedFrom: the 4 Lineage pairs t4/t5 -> t1/t3.
  EXPECT_EQ(doc->Find("wasDerivedFrom")->AsObject().size(), 4u);

  // Every referenced qualified name resolves to a declared node, and time
  // intervals are preserved.
  const auto& activities = doc->Find("activity")->AsObject();
  const auto& entities = doc->Find("entity")->AsObject();
  for (const auto& [key, record] : doc->Find("used")->AsObject()) {
    EXPECT_TRUE(activities.contains(record.GetString("prov:activity", "")))
        << key;
    EXPECT_TRUE(entities.contains(record.GetString("prov:entity", "")))
        << key;
    EXPECT_LE(record.GetInt("ldv:begin", 99), record.GetInt("ldv:end", 0));
  }
  EXPECT_NE(text.find("\"prov:type\": \"ldv:query\""), std::string::npos);
}

}  // namespace
}  // namespace ldv::trace
