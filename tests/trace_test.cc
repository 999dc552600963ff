#include <gtest/gtest.h>

#include <limits>
#include <tuple>

#include "trace/graph.h"
#include "trace/model.h"
#include "common/json.h"
#include "trace/prov_export.h"
#include "trace/serialize.h"
#include "util/rng.h"
#include "util/serde.h"
#include "util/strings.h"

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
  EXPECT_EQ(g.edge(0).t.begin, 1);
  EXPECT_EQ(g.edge(0).t.end, 12);
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
  const TraceEdge edge = restored->edge(restored->OutEdges(file_a)[0]);
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
    w.PutU32(0x4C445632);  // "LDV2"
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
    w.PutVarint(0);  // no lineage blocks
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

void ExpectIOError(const std::string& bytes, const std::string& what) {
  auto graph = DeserializeTrace(bytes);
  ASSERT_FALSE(graph.ok()) << what;
  EXPECT_EQ(graph.status().code(), StatusCode::kIOError)
      << what << ": " << graph.status().ToString();
}

TEST(TraceSerializeTest, RejectsOutOfRangeTypeBytes) {
  auto expect_io_error = [](const TraceBytes& bytes, const char* what) {
    ExpectIOError(bytes.Encode(), what);
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

/// Process P runs query Q, which reads tuples t0 and t1 and returns two
/// rows: row 0 depends on t1 and t0, row 1 on t1. Nodes: P=0, Q=1, t0=2,
/// t1=3, rows 4 and 5; edges: run=0, block edges 1..6.
TraceGraph BuildBlockTrace() {
  TraceGraph g;
  NodeId p = g.GetOrAddNode(NodeType::kProcess, "P");
  NodeId q = g.GetOrAddNode(NodeType::kQuery, "Q");
  NodeId t0 = g.GetOrAddNode(NodeType::kTuple, "t0");
  NodeId t1 = g.GetOrAddNode(NodeType::kTuple, "t1");
  EXPECT_TRUE(g.AddEdge(p, q, EdgeType::kRun, {3, 4}).ok());
  LineageBlock block;
  block.stmt = q;
  block.proc = p;
  block.t = {3, 4};
  block.row_label_prefix = "q#";
  block.inputs = {t0, t1};
  block.AddRow();
  block.AddDependency(1);
  block.AddDependency(0);
  block.AddRow();
  block.AddDependency(1);
  EXPECT_TRUE(g.AddLineageBlock(std::move(block)).ok());
  return g;
}

/// BuildBlockTrace() written field by field, with the block's fields open
/// to corruption.
struct BlockTraceBytes {
  int64_t node_gap = 4;
  int64_t edge_gap = 1;
  int64_t stmt = 1;
  int64_t proc = 0;
  std::vector<int64_t> input_deltas = {2, 1};
  int64_t num_rows = 2;
  std::vector<int64_t> row_counts = {2, 1};
  std::vector<int64_t> dep_deltas = {1, -1, 0};

  std::string Encode() const {
    BufferWriter w;
    w.PutU32(0x4C445632);  // "LDV2"
    w.PutVarint(4);
    for (auto [type, label] : {std::pair{NodeType::kProcess, "P"},
                               std::pair{NodeType::kQuery, "Q"},
                               std::pair{NodeType::kTuple, "t0"},
                               std::pair{NodeType::kTuple, "t1"}}) {
      w.PutU8(static_cast<uint8_t>(type));
      w.PutString(label);
    }
    w.PutVarint(1);
    w.PutVarint(0);
    w.PutVarint(1);
    w.PutU8(static_cast<uint8_t>(EdgeType::kRun));
    w.PutVarint(3);
    w.PutVarint(4);
    w.PutVarint(1);  // one lineage block
    w.PutVarint(node_gap);
    w.PutVarint(edge_gap);
    w.PutVarint(stmt);
    w.PutVarint(proc);
    w.PutVarint(3);
    w.PutVarint(4);
    w.PutString("q#");
    w.PutVarint(static_cast<int64_t>(input_deltas.size()));
    for (int64_t d : input_deltas) w.PutVarint(d);
    w.PutVarint(num_rows);
    for (int64_t c : row_counts) w.PutVarint(c);
    for (int64_t d : dep_deltas) w.PutVarint(d);
    w.PutVarint(0);  // no explicit dependency pairs
    return w.TakeData();
  }
};

TEST(TraceSerializeTest, HandWrittenBlockTraceMatchesSerializer) {
  TraceGraph g = BuildBlockTrace();
  const std::string bytes = BlockTraceBytes{}.Encode();
  EXPECT_EQ(SerializeTrace(g), bytes);
  auto restored = DeserializeTrace(bytes);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(SerializeTrace(*restored), bytes);
  EXPECT_EQ(restored->node(4).label, "q#0");
  EXPECT_EQ(restored->TupleDependenciesOf(4), (std::vector<NodeId>{3, 2}));
}

TEST(TraceSerializeTest, RejectsCorruptLineageBlocks) {
  const std::string good = BlockTraceBytes{}.Encode();
  // Every truncation, and a varint whose continuation bit runs off the end.
  for (size_t n = 0; n < good.size(); ++n) {
    ExpectIOError(good.substr(0, n), "truncated to " + std::to_string(n));
    ExpectIOError(good.substr(0, n) + "\x80",
                  "unterminated varint at " + std::to_string(n));
  }
  auto corrupt = [](auto mutate) {
    BlockTraceBytes bytes;
    mutate(bytes);
    return bytes.Encode();
  };
  ExpectIOError(corrupt([](auto& b) { b.row_counts = {2, -1}; }),
                "non-monotone offsets");
  ExpectIOError(corrupt([](auto& b) { b.row_counts = {-2, 5}; }),
                "negative first row");
  ExpectIOError(corrupt([](auto& b) { b.dep_deltas = {1, -1, 1}; }),
                "dependency index == input count");
  ExpectIOError(corrupt([](auto& b) { b.dep_deltas = {1, -2, 1}; }),
                "negative dependency index");
  ExpectIOError(corrupt([](auto& b) { b.dep_deltas = {1, 1LL << 40, 1}; }),
                "huge dependency delta");
  for (int64_t rows : {int64_t{1} << 31, int64_t{1} << 62,
                       std::numeric_limits<int64_t>::max(), int64_t{-1}}) {
    ExpectIOError(corrupt([rows](auto& b) { b.num_rows = rows; }),
                  "row count " + std::to_string(rows));
  }
  ExpectIOError(corrupt([](auto& b) { b.stmt = 4; }), "statement id past end");
  ExpectIOError(corrupt([](auto& b) { b.stmt = -1; }), "negative statement");
  ExpectIOError(corrupt([](auto& b) { b.stmt = 2; }), "statement is a tuple");
  ExpectIOError(corrupt([](auto& b) { b.proc = 99; }), "process id past end");
  ExpectIOError(corrupt([](auto& b) { b.proc = 1; }), "process is a query");
  ExpectIOError(corrupt([](auto& b) { b.input_deltas = {2, 9}; }),
                "input id past end");
  ExpectIOError(corrupt([](auto& b) { b.input_deltas = {2, 0}; }),
                "repeated input");
  ExpectIOError(corrupt([](auto& b) { b.input_deltas = {0, 1}; }),
                "input is a process");
  ExpectIOError(corrupt([](auto& b) { b.node_gap = 5; }), "node gap past end");
  ExpectIOError(corrupt([](auto& b) { b.node_gap = -1; }), "negative gap");
  ExpectIOError(corrupt([](auto& b) { b.edge_gap = 2; }), "edge gap past end");
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
    ASSERT_EQ(g.num_edges(), static_cast<int64_t>(ref.edges.size()))
        << "seed " << seed;
    std::vector<std::vector<int32_t>> in(g.num_nodes()), out(g.num_nodes());
    for (size_t i = 0; i < ref.edges.size(); ++i) {
      const TraceEdge e = g.edge(static_cast<int32_t>(i));
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

TEST(LineageBlockTest, RowsAndEdgesAreLogicalNodesAndEdges) {
  TraceGraph g = BuildBlockTrace();
  ASSERT_EQ(g.num_nodes(), 6);
  ASSERT_EQ(g.num_edges(), 7);
  EXPECT_EQ(g.node(4).label, "q#0");
  EXPECT_EQ(g.node(5).type, NodeType::kTuple);
  EXPECT_EQ(g.FindNode(NodeType::kTuple, "q#1"), 5);
  EXPECT_EQ(g.FindNode(NodeType::kTuple, "q#2"), kInvalidNode);
  EXPECT_EQ(g.FindNode(NodeType::kTuple, "q#01"), kInvalidNode);
  EXPECT_EQ(g.GetOrAddNode(NodeType::kTuple, "q#0"), 4);
  EXPECT_EQ(g.num_nodes(), 6);
  // hasRead t0, hasRead t1, then per row hasReturned and readFromDb.
  const std::vector<std::tuple<NodeId, NodeId, EdgeType>> want = {
      {0, 1, EdgeType::kRun},         {2, 1, EdgeType::kHasRead},
      {3, 1, EdgeType::kHasRead},     {1, 4, EdgeType::kHasReturned},
      {4, 0, EdgeType::kReadFromDb},  {1, 5, EdgeType::kHasReturned},
      {5, 0, EdgeType::kReadFromDb}};
  for (int32_t i = 0; i < g.num_edges(); ++i) {
    const TraceEdge e = g.edge(i);
    EXPECT_EQ(std::make_tuple(e.from, e.to, e.type), want[i]) << i;
    EXPECT_EQ(e.t.begin, 3);
    EXPECT_EQ(e.t.end, 4);
  }
  EXPECT_EQ(g.InEdges(1), (std::vector<int32_t>{0, 1, 2}));
  EXPECT_EQ(g.OutEdges(1), (std::vector<int32_t>{3, 5}));
  EXPECT_EQ(g.InEdges(0), (std::vector<int32_t>{4, 6}));
  EXPECT_EQ(g.OutEdges(3), (std::vector<int32_t>{2}));
  EXPECT_EQ(g.InEdges(5), (std::vector<int32_t>{5}));
  EXPECT_EQ(g.OutEdges(5), (std::vector<int32_t>{6}));
  EXPECT_TRUE(g.HasTupleDependency(4, 2));
  EXPECT_FALSE(g.HasTupleDependency(5, 2));
  EXPECT_EQ(g.NodesOfType(NodeType::kTuple),
            (std::vector<NodeId>{2, 3, 4, 5}));

  // Nodes added after the block follow its rows.
  NodeId f = g.GetOrAddNode(NodeType::kFile, "f");
  EXPECT_EQ(f, 6);
  ASSERT_TRUE(g.AddEdge(0, f, EdgeType::kHasWritten, {5, 6}).ok());
  EXPECT_EQ(g.InEdges(0), (std::vector<int32_t>{4, 6}));
  EXPECT_EQ(g.OutEdges(0), (std::vector<int32_t>{0, 7}));
  EXPECT_EQ(g.node(f).label, "f");

  // A block's rows and its statement's reads and results take no explicit
  // edges.
  EXPECT_FALSE(g.AddEdge(4, 0, EdgeType::kReadFromDb, {3, 4}).ok());
  EXPECT_FALSE(g.MergeEdge(2, 1, EdgeType::kHasRead, {3, 4}).ok());
  NodeId t9 = g.GetOrAddNode(NodeType::kTuple, "t9");
  EXPECT_FALSE(g.AddEdge(1, t9, EdgeType::kHasReturned, {3, 4}).ok());
  EXPECT_EQ(g.num_edges(), 8);
}

TEST(LineageBlockTest, OneRowAggregateListsEachInputOnceInFirstSeenOrder) {
  // A one-row count(*) over n tuples, with every input listed three times in
  // a scrambled order. Dropping repeats is linear: quadratic dedup would
  // take ~10^9 steps here.
  constexpr int32_t kInputs = 50000;
  TraceGraph g;
  NodeId p = g.GetOrAddNode(NodeType::kProcess, "P");
  NodeId q = g.GetOrAddNode(NodeType::kQuery, "Q");
  LineageBlock block;
  block.stmt = q;
  block.proc = p;
  block.row_label_prefix = "q1#";
  for (int32_t i = 0; i < kInputs; ++i) {
    block.inputs.push_back(
        g.GetOrAddNode(NodeType::kTuple, StrFormat("t%d", i)));
  }
  block.AddRow();
  std::vector<NodeId> first_seen;
  for (int pass = 0; pass < 3; ++pass) {
    for (int32_t i = 0; i < kInputs; ++i) {
      const int32_t input =
          static_cast<int32_t>((int64_t{i} * 7919 + pass) % kInputs);
      block.AddDependency(input);
      if (pass == 0) first_seen.push_back(block.inputs[input]);
    }
  }
  block.AddRow();  // a second row that repeats one input of the first
  block.AddDependency(5);
  block.AddDependency(5);
  const NodeId fifth = block.inputs[5];
  ASSERT_TRUE(g.AddLineageBlock(std::move(block)).ok());
  const NodeId row = g.FindNode(NodeType::kTuple, "q1#0");
  ASSERT_NE(row, kInvalidNode);
  EXPECT_EQ(g.TupleDependenciesOf(row), first_seen);
  EXPECT_EQ(g.TupleDependenciesOf(row + 1), std::vector<NodeId>{fifth});
  EXPECT_EQ(g.blocks()[0].deps.size(), static_cast<size_t>(kInputs) + 1);
}

TEST(LineageBlockTest, AttachRejectsInconsistentBlocks) {
  TraceGraph g;
  NodeId p = g.GetOrAddNode(NodeType::kProcess, "P");
  NodeId q = g.GetOrAddNode(NodeType::kQuery, "Q");
  NodeId t0 = g.GetOrAddNode(NodeType::kTuple, "t0");
  NodeId row_shaped = g.GetOrAddNode(NodeType::kTuple, "x#3");
  auto valid = [&] {
    LineageBlock block;
    block.stmt = q;
    block.proc = p;
    block.row_label_prefix = "q#";
    block.inputs = {t0};
    block.AddRow();
    block.AddDependency(0);
    return block;
  };
  auto rejected = [&](auto mutate, const char* what) {
    LineageBlock block = valid();
    mutate(block);
    Status s = g.AddLineageBlock(std::move(block));
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << what;
  };
  rejected([](LineageBlock& b) { b.row_label_prefix = "q"; }, "prefix");
  rejected([](LineageBlock& b) { b.row_label_prefix = "x#"; },
           "prefix of an explicit tuple label");
  rejected([&](LineageBlock& b) { b.stmt = t0; }, "statement is a tuple");
  rejected([&](LineageBlock& b) { b.proc = q; }, "process is a query");
  rejected([&](LineageBlock& b) { b.inputs = {t0, t0}; }, "repeated input");
  rejected([&](LineageBlock& b) { b.inputs = {p}; }, "input is a process");
  rejected([](LineageBlock& b) { b.deps[0] = 1; }, "dependency index");
  rejected([](LineageBlock& b) { b.row_offsets = {0, 2}; }, "offsets");
  rejected([](LineageBlock& b) { b.t = {5, 4}; }, "interval");
  EXPECT_EQ(g.num_nodes(), 4);
  ASSERT_TRUE(g.AddLineageBlock(valid()).ok());
  EXPECT_EQ(g.FindNode(NodeType::kTuple, "x#3"), row_shaped);
  rejected([](LineageBlock&) {}, "second block on the statement");
  NodeId q2 = g.GetOrAddNode(NodeType::kQuery, "Q2");
  rejected([&](LineageBlock& b) { b.stmt = q2; }, "prefix taken");
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
