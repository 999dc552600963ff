// Differential oracle for the compact trace: TraceRecorder (one lineage
// block per SELECT) against LegacyTraceRecorder (one explicit node and two
// explicit edges per result row), driven with the same randomized audits —
// real provenance results from the engine interleaved with OS events.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "legacy_trace_recorder.h"
#include "ldv/trace_recorder.h"
#include "net/db_client.h"
#include "storage/database.h"
#include "trace/inference.h"
#include "trace/prov_export.h"
#include "trace/serialize.h"
#include "util/rng.h"
#include "util/strings.h"

namespace ldv {
namespace {

using storage::Value;
using storage::ValueType;
using trace::NodeId;
using trace::TraceGraph;

/// The logical graph rebuilt from explicit nodes and edges only.
TraceGraph Expand(const TraceGraph& g) {
  TraceGraph out;
  for (NodeId id = 0; id < g.num_nodes(); ++id) {
    const trace::TraceNode n = g.node(id);
    EXPECT_EQ(out.GetOrAddNode(n.type, n.label), id);
  }
  for (int32_t i = 0; i < g.num_edges(); ++i) {
    const trace::TraceEdge e = g.edge(i);
    EXPECT_TRUE(out.AddEdge(e.from, e.to, e.type, e.t).ok());
  }
  for (NodeId id = 0; id < g.num_nodes(); ++id) {
    for (NodeId dep : g.TupleDependenciesOf(id)) {
      out.AddTupleDependency(id, dep);
    }
  }
  return out;
}

/// Node ids, types, labels, edges in order with intervals, both adjacency
/// lists and the dependency lists of every node.
void ExpectSameGraph(const TraceGraph& got, const TraceGraph& want,
                     const std::string& what) {
  ASSERT_EQ(got.num_nodes(), want.num_nodes()) << what;
  ASSERT_EQ(got.num_edges(), want.num_edges()) << what;
  for (NodeId id = 0; id < want.num_nodes(); ++id) {
    const trace::TraceNode a = got.node(id);
    const trace::TraceNode b = want.node(id);
    ASSERT_EQ(a.type, b.type) << what << " node " << id;
    ASSERT_EQ(a.label, b.label) << what << " node " << id;
    ASSERT_EQ(got.node_type(id), b.type) << what << " node " << id;
    ASSERT_EQ(got.FindNode(b.type, b.label), id) << what << " " << b.label;
    ASSERT_EQ(got.InEdges(id), want.InEdges(id)) << what << " node " << id;
    ASSERT_EQ(got.OutEdges(id), want.OutEdges(id)) << what << " node " << id;
    ASSERT_EQ(got.TupleDependenciesOf(id), want.TupleDependenciesOf(id))
        << what << " node " << id;
    for (NodeId dep : want.TupleDependenciesOf(id)) {
      ASSERT_TRUE(got.HasTupleDependency(id, dep)) << what << " node " << id;
    }
  }
  for (int32_t i = 0; i < want.num_edges(); ++i) {
    const trace::TraceEdge a = got.edge(i);
    const trace::TraceEdge b = want.edge(i);
    ASSERT_EQ(std::make_tuple(a.from, a.to, a.type, a.t.begin, a.t.end),
              std::make_tuple(b.from, b.to, b.type, b.t.begin, b.t.end))
        << what << " edge " << i;
  }
}

void ExpectSameInference(const TraceGraph& got, const TraceGraph& want) {
  trace::DependencyAnalyzer a(&got);
  trace::DependencyAnalyzer b(&want);
  for (NodeId id = 0; id < want.num_nodes(); ++id) {
    if (trace::IsEntity(want.node_type(id))) {
      ASSERT_EQ(a.DependenciesOf(id), b.DependenciesOf(id)) << "entity " << id;
    } else {
      ASSERT_EQ(a.StateDependenciesOfActivity(id),
                b.StateDependenciesOfActivity(id))
          << "activity " << id;
    }
  }
  EXPECT_EQ(a.RelevantPackageTuples(), b.RelevantPackageTuples());
}

os::OsEvent Event(os::OsEvent::Kind kind, int64_t pid, int64_t parent_pid,
                  std::string path, os::Interval t) {
  os::OsEvent event;
  event.kind = kind;
  event.pid = pid;
  event.parent_pid = parent_pid;
  event.path = std::move(path);
  event.t = t;
  return event;
}

struct StatementTemplate {
  sql::StatementKind kind;
  std::string sql;
};

/// A random statement over items(id, val, tag) and owners(item, name):
/// empty, single-row, join and aggregate SELECTs, INSERT (plain and
/// ... SELECT, including an aggregate source), UPDATE and DELETE.
StatementTemplate RandomStatement(Rng& rng, int64_t* next_id) {
  using K = sql::StatementKind;
  const int64_t a = rng.Uniform(0, 120);
  const int64_t b = a + rng.Uniform(0, 60);
  const int64_t k = rng.Uniform(1, 25);
  switch (rng.Uniform(0, 13)) {
    case 0:
      return {K::kSelect, StrFormat("SELECT id, val FROM items WHERE val "
                                    "BETWEEN %lld AND %lld",
                                    static_cast<long long>(a),
                                    static_cast<long long>(b))};
    case 1:
      return {K::kSelect, StrFormat("SELECT id FROM items WHERE id = %lld",
                                    static_cast<long long>(k))};
    case 2:
      return {K::kSelect, "SELECT id FROM items WHERE val < 0"};
    case 3:
      return {K::kSelect,
              "SELECT a.id, b.id FROM items a JOIN items b ON a.val = b.val"};
    case 4:
      return {K::kSelect,
              "SELECT i.id, o.name FROM items i JOIN owners o "
              "ON i.id = o.item"};
    case 5:
      return {K::kSelect,
              StrFormat("SELECT count(*), sum(val) FROM items WHERE val > %lld",
                        static_cast<long long>(a))};
    case 6:
      return {K::kSelect, "SELECT tag, count(*) FROM items GROUP BY tag"};
    case 7:
      return {K::kSelect,
              "SELECT id FROM items WHERE val > (SELECT avg(val) FROM items)"};
    case 8: {
      const int64_t id = (*next_id)++;
      return {K::kInsert, StrFormat("INSERT INTO items VALUES (%lld, %lld, "
                                    "'new')",
                                    static_cast<long long>(id),
                                    static_cast<long long>(a))};
    }
    case 9: {
      const int64_t base = *next_id;
      *next_id += 200;
      return {K::kInsert,
              StrFormat("INSERT INTO items SELECT id + %lld, val, 'copy' "
                        "FROM items WHERE val < %lld",
                        static_cast<long long>(base),
                        static_cast<long long>(a / 4))};
    }
    case 10: {
      const int64_t id = (*next_id)++;
      return {K::kInsert,
              StrFormat("INSERT INTO items SELECT %lld, sum(val), 'agg' "
                        "FROM items",
                        static_cast<long long>(id))};
    }
    case 11:
      return {K::kUpdate, StrFormat("UPDATE items SET val = val + 1 WHERE "
                                    "id = %lld OR val < %lld",
                                    static_cast<long long>(k),
                                    static_cast<long long>(a / 10))};
    case 12:
      return {K::kUpdate, StrFormat("UPDATE items SET tag = 'hot' WHERE id IN "
                                    "(SELECT item FROM owners WHERE name = "
                                    "'bob') AND val > %lld",
                                    static_cast<long long>(a))};
    default:
      return {K::kDelete, StrFormat("DELETE FROM items WHERE id = %lld",
                                    static_cast<long long>(k))};
  }
}

std::unique_ptr<storage::Database> MakeDatabase(Rng& rng) {
  auto db = std::make_unique<storage::Database>();
  auto items = db->CreateTable("items", storage::Schema({
                                            {"id", ValueType::kInt64},
                                            {"val", ValueType::kInt64},
                                            {"tag", ValueType::kString},
                                        }));
  auto owners = db->CreateTable(
      "owners", storage::Schema({{"item", ValueType::kInt64},
                                 {"name", ValueType::kString}}));
  EXPECT_TRUE(items.ok() && owners.ok());
  const int64_t seq = db->NextStatementSeq();
  for (int i = 1; i <= 20; ++i) {
    EXPECT_TRUE((*items)
                    ->Insert({Value::Int(i), Value::Int(rng.Uniform(0, 100)),
                              Value::Str(i % 3 ? "pre" : "old")},
                             seq)
                    .ok());
    if (i % 2 == 0) {
      const char* name = i % 4 ? "bob" : "amy";
      EXPECT_TRUE(
          (*owners)->Insert({Value::Int(i), Value::Str(name)}, seq).ok());
    }
  }
  (*items)->set_provenance_tracking(true);
  (*owners)->set_provenance_tracking(true);
  return db;
}

TEST(TraceOracleTest, CompactTraceExpandsToLegacyTrace) {
  for (uint64_t seed = 1; seed <= 24; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    auto db = MakeDatabase(rng);
    net::EngineHandle engine(db.get());
    net::LocalDbClient client(&engine);
    // Every fourth run records statements only, as a server-excluded audit.
    const bool with_provenance = seed % 4 != 0;

    TraceRecorder compact;
    LegacyTraceRecorder legacy;
    auto both = [&](const os::OsEvent& event) {
      Status a = compact.OnOsEvent(event);
      Status b = legacy.OnOsEvent(event);
      ASSERT_EQ(a.ok(), b.ok()) << a.ToString() << " / " << b.ToString();
    };

    int64_t clock = 0;
    std::vector<int64_t> pids = {1};
    using Kind = os::OsEvent::Kind;
    both(Event(Kind::kProcessStart, 1, 0, "", {clock, clock}));
    int64_t next_id = 1000;
    int64_t query_id = 0;
    for (int op = 0; op < 40; ++op) {
      ++clock;
      const int64_t pid = pids[static_cast<size_t>(
          rng.Uniform(0, static_cast<int64_t>(pids.size()) - 1))];
      const std::string path =
          "/data/f" + std::to_string(rng.Uniform(0, 4));
      switch (rng.Uniform(0, 5)) {
        case 0: {
          const int64_t child = static_cast<int64_t>(pids.size()) + 1;
          pids.push_back(child);
          both(Event(Kind::kProcessStart, child, pid, "", {clock, clock}));
          break;
        }
        case 1:
          both(Event(Kind::kFileRead, pid, 0, path,
                     {clock, clock + rng.Uniform(0, 3)}));
          break;
        case 2:
          both(Event(Kind::kFileWrite, pid, 0, path,
                     {clock, clock + rng.Uniform(0, 3)}));
          break;
        default: {
          StatementTemplate stmt = RandomStatement(rng, &next_id);
          net::DbRequest request;
          request.sql = "PROVENANCE " + stmt.sql;
          auto result = client.Execute(request);
          ASSERT_TRUE(result.ok()) << stmt.sql << ": "
                                   << result.status().ToString();
          AuditedStatement audited{
              .process_id = pid,
              .query_id = ++query_id,
              .sql = stmt.sql,
              .kind = stmt.kind,
              .t = {clock, clock + 1},
              .provenance = with_provenance ? &*result : nullptr};
          ++clock;
          Status a = compact.OnStatement(audited);
          Status b = legacy.OnStatement(audited);
          ASSERT_TRUE(a.ok()) << stmt.sql << ": " << a.ToString();
          ASSERT_TRUE(b.ok()) << stmt.sql << ": " << b.ToString();
          break;
        }
      }
    }

    const TraceGraph& got = compact.graph();
    const TraceGraph& want = legacy.graph();
    EXPECT_EQ(got.blocks().empty(), !with_provenance);
    ExpectSameGraph(got, want, "compact");
    ExpectSameGraph(Expand(got), want, "expanded");
    auto restored = trace::DeserializeTrace(trace::SerializeTrace(got));
    ASSERT_TRUE(restored.ok()) << restored.status().ToString();
    ExpectSameGraph(*restored, want, "deserialized");
    EXPECT_EQ(trace::SerializeTrace(*restored), trace::SerializeTrace(got));
    ExpectSameInference(got, want);
    EXPECT_EQ(trace::ExportProvJson(got), trace::ExportProvJson(want));
    EXPECT_EQ(got.ToDot(), want.ToDot());
  }
}

}  // namespace
}  // namespace ldv
