#include <gtest/gtest.h>

#include <map>
#include <set>

#include "ldv/auditing_db_client.h"
#include "ldv/auditor.h"
#include "ldv/replayer.h"
#include "net/db_server.h"
#include "tpch/app.h"
#include "tpch/generator.h"
#include "tpch/queries.h"
#include "trace/inference.h"
#include "trace/serialize.h"
#include "util/csv.h"
#include "util/fsutil.h"
#include "util/rng.h"
#include "util/strings.h"

namespace ldv {
namespace {

using storage::Database;
using storage::Value;
using storage::ValueType;

/// Fixture: a small pre-existing "server" database plus a deterministic
/// application exercising files + inserts + selects + updates — a compact
/// version of the paper's Figure 1 scenario.
class AuditReplayTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto dir = MakeTempDir("ldv_e2e_");
    ASSERT_TRUE(dir.ok());
    base_ = *dir;
    PopulateDb();
    // Sandbox input file.
    ASSERT_TRUE(WriteStringToFile(base_ + "/sandbox/input/config.txt",
                                  "threshold=50\n")
                    .ok());
  }

  void TearDown() override { ASSERT_TRUE(RemoveAll(base_).ok()); }

  void PopulateDb() {
    db_ = std::make_unique<Database>();
    auto items = db_->CreateTable("items", storage::Schema({
                                               {"id", ValueType::kInt64},
                                               {"val", ValueType::kInt64},
                                               {"tag", ValueType::kString},
                                           }));
    ASSERT_TRUE(items.ok());
    int64_t seq = db_->NextStatementSeq();
    for (int i = 1; i <= 10; ++i) {
      ASSERT_TRUE((*items)
                      ->Insert({Value::Int(i), Value::Int(i * 10),
                                Value::Str("pre")},
                               seq)
                      .ok());
    }
  }

  /// The test application: reads config, inserts a row, queries twice,
  /// updates a row, queries the inserted row, writes an output digest.
  static AppFn TestApp(uint64_t* fingerprint_out) {
    return [fingerprint_out](AppEnv& env) -> Status {
      os::ProcessContext& proc = env.root_process();
      LDV_ASSIGN_OR_RETURN(std::string config,
                           proc.ReadFile("/input/config.txt"));
      LDV_ASSIGN_OR_RETURN(net::DbClient * db, env.OpenDbConnection(proc));
      LDV_RETURN_IF_ERROR(
          db->Query("INSERT INTO items VALUES (100, 1000, 'new')").status());
      uint64_t fp = 0;
      for (int i = 0; i < 2; ++i) {
        LDV_ASSIGN_OR_RETURN(
            exec::ResultSet r,
            db->Query(
                "SELECT id, val FROM items WHERE val BETWEEN 50 AND 80"));
        fp ^= r.Fingerprint();
      }
      LDV_RETURN_IF_ERROR(
          db->Query("UPDATE items SET val = val + 1 WHERE id = 3").status());
      LDV_ASSIGN_OR_RETURN(
          exec::ResultSet after,
          db->Query("SELECT val FROM items WHERE id = 3 OR id = 100"));
      fp ^= after.Fingerprint() << 1;
      LDV_RETURN_IF_ERROR(proc.WriteFile(
          "/output/result.txt",
          "config=" + std::string(Trim(config)) + " fp=" + std::to_string(fp)));
      if (fingerprint_out != nullptr) *fingerprint_out = fp;
      return Status::Ok();
    };
  }

  AuditOptions Options(PackageMode mode, const std::string& name) {
    AuditOptions options;
    options.mode = mode;
    options.package_dir = base_ + "/packages/" + name;
    options.sandbox_root = base_ + "/sandbox";
    options.vm_base_image_bytes = 1 << 20;
    return options;
  }

  Result<ReplayReport> ReplayPackage(const std::string& name,
                                     const AppFn& app,
                                     std::string* scratch_out = nullptr) {
    ReplayOptions options;
    options.package_dir = base_ + "/packages/" + name;
    options.scratch_dir = base_ + "/scratch/" + name;
    if (scratch_out != nullptr) *scratch_out = options.scratch_dir;
    LDV_ASSIGN_OR_RETURN(std::unique_ptr<Replayer> replayer,
                         Replayer::Open(options));
    return replayer->Run(app);
  }

  std::string base_;
  std::unique_ptr<Database> db_;
};

TEST_F(AuditReplayTest, ServerIncludedPackagesOnlyRelevantTuples) {
  uint64_t original_fp = 0;
  Auditor auditor(db_.get(), Options(PackageMode::kServerIncluded, "inc"));
  auto report = auditor.Run(TestApp(&original_fp));
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GT(report->statements_audited, 0);

  // Packaged tuples: rowids 5..8 (val 50..80), rowid 3 (update prior).
  auto csv = ReadFileToString(base_ + "/packages/inc/db/data/items.csv");
  ASSERT_TRUE(csv.ok());
  auto rows = ParseCsv(*csv);
  ASSERT_TRUE(rows.ok());
  std::set<int64_t> rowids;
  for (const auto& fields : *rows) rowids.insert(*ParseInt64(fields[0]));
  EXPECT_EQ(rowids, (std::set<int64_t>{3, 5, 6, 7, 8}));
  EXPECT_EQ(report->tuples_persisted, 5);

  // Exclusions (paper §II): untouched tuples (t2 analog: rowids 1,2,4,9,10)
  // and application-created tuples (t3 analog: the id=100 insert and the
  // new version of id=3) are not in the package.
  EXPECT_FALSE(rowids.contains(1));
  EXPECT_FALSE(rowids.contains(11));  // rowid of the id=100 insert

  // Input file packaged; app-written output not packaged.
  EXPECT_TRUE(
      FileExists(base_ + "/packages/inc/files/input/config.txt"));
  EXPECT_FALSE(
      FileExists(base_ + "/packages/inc/files/output/result.txt"));

  // Manifest sanity.
  auto manifest = PackageManifest::Load(base_ + "/packages/inc");
  ASSERT_TRUE(manifest.ok());
  EXPECT_EQ(manifest->mode, PackageMode::kServerIncluded);
  EXPECT_TRUE(manifest->has_server_binary);
  EXPECT_FALSE(manifest->has_full_data);
  ASSERT_EQ(manifest->tables.size(), 1u);
  EXPECT_EQ(manifest->tables[0].name, "items");
  EXPECT_EQ(manifest->tables[0].rows, 5);
}

TEST_F(AuditReplayTest, StreamingPackagerAgreesWithInferenceEngine) {
  // The §VII-D streaming persistence path and the Definition 11 inference
  // engine must select the same relevant tuple versions.
  Auditor auditor(db_.get(), Options(PackageMode::kServerIncluded, "agree"));
  ASSERT_TRUE(auditor.Run(TestApp(nullptr)).ok());

  trace::DependencyAnalyzer analyzer(&auditor.trace_graph());
  std::set<std::string> inferred;
  for (trace::NodeId id : analyzer.RelevantPackageTuples()) {
    inferred.insert(auditor.trace_graph().node(id).label);
  }
  auto csv = ReadFileToString(base_ + "/packages/agree/db/data/items.csv");
  ASSERT_TRUE(csv.ok());
  auto rows = ParseCsv(*csv);
  std::set<std::string> persisted;
  for (const auto& fields : *rows) {
    persisted.insert("items#" + fields[0] + ".v" + fields[1]);
  }
  EXPECT_EQ(inferred, persisted);
}

TEST_F(AuditReplayTest, ServerIncludedReplayIsFaithful) {
  uint64_t original_fp = 0;
  Auditor auditor(db_.get(), Options(PackageMode::kServerIncluded, "inc2"));
  ASSERT_TRUE(auditor.Run(TestApp(&original_fp)).ok());

  uint64_t replay_fp = 0;
  std::string scratch;
  auto report = ReplayPackage("inc2", TestApp(&replay_fp), &scratch);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->mode, PackageMode::kServerIncluded);
  EXPECT_EQ(report->restored_tuples, 5);
  EXPECT_EQ(replay_fp, original_fp);
  // The replayed app regenerated its output file in the scratch sandbox.
  auto out = ReadFileToString(scratch + "/output/result.txt");
  ASSERT_TRUE(out.ok());
  EXPECT_NE(out->find("threshold=50"), std::string::npos);
}

TEST_F(AuditReplayTest, ServerIncludedReplaysTablesReadOnlyInSubqueries) {
  // `tags` appears only inside an IN subquery; the package must still carry
  // its schema and the tuples the subquery read.
  auto tags = db_->CreateTable(
      "tags", storage::Schema({{"id", ValueType::kInt64}}));
  ASSERT_TRUE(tags.ok());
  const int64_t seq = db_->NextStatementSeq();
  for (int id : {2, 4, 7}) {
    ASSERT_TRUE((*tags)->Insert({Value::Int(id)}, seq).ok());
  }
  auto app = [](uint64_t* fingerprint_out) -> AppFn {
    return [fingerprint_out](AppEnv& env) -> Status {
      LDV_ASSIGN_OR_RETURN(net::DbClient * db,
                           env.OpenDbConnection(env.root_process()));
      LDV_ASSIGN_OR_RETURN(
          exec::ResultSet r,
          db->Query("SELECT id, val FROM items WHERE id IN "
                    "(SELECT id FROM tags)"));
      EXPECT_EQ(r.rows.size(), 3u);
      *fingerprint_out = r.Fingerprint();
      return Status::Ok();
    };
  };
  uint64_t original_fp = 0;
  Auditor auditor(db_.get(), Options(PackageMode::kServerIncluded, "sub"));
  ASSERT_TRUE(auditor.Run(app(&original_fp)).ok());

  uint64_t replay_fp = 0;
  auto report = ReplayPackage("sub", app(&replay_fp));
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(replay_fp, original_fp);
}

TEST_F(AuditReplayTest, ServerExcludedReplayNeedsNoDatabase) {
  uint64_t original_fp = 0;
  Auditor auditor(db_.get(), Options(PackageMode::kServerExcluded, "exc"));
  ASSERT_TRUE(auditor.Run(TestApp(&original_fp)).ok());

  auto manifest = PackageManifest::Load(base_ + "/packages/exc");
  ASSERT_TRUE(manifest.ok());
  EXPECT_FALSE(manifest->has_server_binary);
  EXPECT_EQ(manifest->statements_recorded, 5);
  EXPECT_FALSE(FileExists(base_ + "/packages/exc/db/schema.sql"));
  EXPECT_FALSE(DirExists(base_ + "/packages/exc/db/data"));
  EXPECT_TRUE(FileExists(base_ + "/packages/exc/db/replay.log"));

  uint64_t replay_fp = 0;
  auto report = ReplayPackage("exc", TestApp(&replay_fp));
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->statements_replayed, 5);
  EXPECT_EQ(replay_fp, original_fp);
}

TEST_F(AuditReplayTest, ServerExcludedReplayDetectsDivergence) {
  Auditor auditor(db_.get(), Options(PackageMode::kServerExcluded, "div"));
  ASSERT_TRUE(auditor.Run(TestApp(nullptr)).ok());

  AppFn divergent = [](AppEnv& env) -> Status {
    os::ProcessContext& proc = env.root_process();
    LDV_ASSIGN_OR_RETURN(net::DbClient * db, env.OpenDbConnection(proc));
    return db->Query("SELECT id FROM items WHERE id = 1").status();
  };
  auto report = ReplayPackage("div", divergent);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kReplayMismatch);
}

TEST_F(AuditReplayTest, PtuPackagesFullDatabase) {
  uint64_t original_fp = 0;
  Auditor auditor(db_.get(), Options(PackageMode::kPtu, "ptu"));
  ASSERT_TRUE(auditor.Run(TestApp(&original_fp)).ok());

  auto manifest = PackageManifest::Load(base_ + "/packages/ptu");
  ASSERT_TRUE(manifest.ok());
  EXPECT_TRUE(manifest->has_full_data);
  EXPECT_TRUE(manifest->has_server_binary);
  EXPECT_TRUE(
      FileExists(base_ + "/packages/ptu/db/data_full/items.tbl"));

  uint64_t replay_fp = 0;
  auto report = ReplayPackage("ptu", TestApp(&replay_fp));
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->restored_tuples, 10);  // the whole pre-state
  EXPECT_EQ(replay_fp, original_fp);
}

TEST_F(AuditReplayTest, PtuPackageIsLargerThanServerIncluded) {
  Auditor inc(db_.get(), Options(PackageMode::kServerIncluded, "size_inc"));
  ASSERT_TRUE(inc.Run(TestApp(nullptr)).ok());
  PopulateDb();  // fresh DB (previous app mutated it)
  Auditor ptu(db_.get(), Options(PackageMode::kPtu, "size_ptu"));
  ASSERT_TRUE(ptu.Run(TestApp(nullptr)).ok());

  auto inc_info = InspectPackage(base_ + "/packages/size_inc");
  auto ptu_info = InspectPackage(base_ + "/packages/size_ptu");
  ASSERT_TRUE(inc_info.ok());
  ASSERT_TRUE(ptu_info.ok());
  EXPECT_GT(ptu_info->full_data_bytes, inc_info->tuple_data_bytes);
  EXPECT_EQ(inc_info->full_data_bytes, 0);
  EXPECT_EQ(ptu_info->tuple_data_bytes, 0);
  EXPECT_EQ(inc_info->packaged_tuples, 5);
}

TEST_F(AuditReplayTest, VmImagePackageAndReplay) {
  uint64_t original_fp = 0;
  Auditor auditor(db_.get(), Options(PackageMode::kVmImage, "vmi"));
  ASSERT_TRUE(auditor.Run(TestApp(&original_fp)).ok());
  auto info = InspectPackage(base_ + "/packages/vmi");
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->vm_image_bytes, 1 << 20);
  EXPECT_GT(info->full_data_bytes, 0);

  uint64_t replay_fp = 0;
  auto report = ReplayPackage("vmi", TestApp(&replay_fp));
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(replay_fp, original_fp);
}

TEST_F(AuditReplayTest, PackagedTraceDeserializesAndLinksModels) {
  Auditor auditor(db_.get(), Options(PackageMode::kServerIncluded, "trace"));
  ASSERT_TRUE(auditor.Run(TestApp(nullptr)).ok());
  auto bytes = ReadFileToString(base_ + "/packages/trace/trace.ldv");
  ASSERT_TRUE(bytes.ok());
  auto graph = trace::DeserializeTrace(*bytes);
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();
  // Combined trace: OS side (process, files) and DB side (statements,
  // tuples) connected by run edges.
  EXPECT_FALSE(graph->NodesOfType(trace::NodeType::kProcess).empty());
  EXPECT_FALSE(graph->NodesOfType(trace::NodeType::kFile).empty());
  EXPECT_FALSE(graph->NodesOfType(trace::NodeType::kQuery).empty());
  EXPECT_FALSE(graph->NodesOfType(trace::NodeType::kInsert).empty());
  EXPECT_FALSE(graph->NodesOfType(trace::NodeType::kUpdate).empty());
  EXPECT_FALSE(graph->NodesOfType(trace::NodeType::kTuple).empty());
  bool has_run_edge = false;
  for (int32_t i = 0; i < graph->num_edges(); ++i) {
    has_run_edge |= graph->edge(i).type == trace::EdgeType::kRun;
  }
  EXPECT_TRUE(has_run_edge);

  // The output file depends (Definition 11) on the input file and on the
  // packaged tuples, across model boundaries.
  trace::NodeId output =
      graph->FindNode(trace::NodeType::kFile, "/output/result.txt");
  trace::NodeId input =
      graph->FindNode(trace::NodeType::kFile, "/input/config.txt");
  ASSERT_NE(output, trace::kInvalidNode);
  ASSERT_NE(input, trace::kInvalidNode);
  trace::DependencyAnalyzer analyzer(graph.operator->());
  EXPECT_TRUE(analyzer.Depends(output, input));
}

TEST_F(AuditReplayTest, SocketBackedAuditMatchesInProcessAudit) {
  // The paper's deployment: the application talks to the DB server over a
  // socket; the instrumented client library sits in between. Auditing over
  // the real wire must produce the same package as the in-process path.
  net::EngineHandle engine(db_.get());
  net::DbServer server(&engine, base_ + "/ldv.sock");
  ASSERT_TRUE(server.Start().ok());

  uint64_t socket_fp = 0;
  AuditOptions options = Options(PackageMode::kServerIncluded, "sock");
  options.db_socket_path = server.socket_path();
  {
    Auditor auditor(db_.get(), options);
    auto report = auditor.Run(TestApp(&socket_fp));
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ(report->tuples_persisted, 5);
  }
  server.Stop();

  // Replay the socket-audited package (in-process, as Bob would).
  uint64_t replay_fp = 0;
  auto replay = ReplayPackage("sock", TestApp(&replay_fp));
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  EXPECT_EQ(replay_fp, socket_fp);
}

/// Hands requests to `backend`; once the first one returns, another session
/// updates the row with id 3 — a concurrent writer on a shared server.
class InterferingDbClient final : public net::DbClient {
 public:
  InterferingDbClient(net::DbClient* backend, net::DbClient* writer)
      : backend_(backend), writer_(writer) {}

  Result<exec::ResultSet> Execute(const net::DbRequest& request) override {
    Result<exec::ResultSet> result = backend_->Execute(request);
    if (!interfered_) {
      interfered_ = true;
      EXPECT_TRUE(
          writer_->Query("UPDATE items SET val = val + 100 WHERE id = 3").ok());
    }
    return result;
  }

 private:
  net::DbClient* backend_;
  net::DbClient* writer_;
  bool interfered_ = false;
};

TEST_F(AuditReplayTest, AuditedUpdateCapturesThePreStateItReplaced) {
  // Another session updates the same row right after the audited
  // statement's first request returns. The persisted pre-state must still
  // be the version the audited UPDATE replaced: its DmlRecord's prior.
  net::EngineHandle engine(db_.get());
  net::LocalDbClient session(&engine);
  net::LocalDbClient writer(&engine);
  InterferingDbClient backend(&session, &writer);
  Auditor auditor(db_.get(), Options(PackageMode::kServerIncluded, "race"));
  storage::TupleVid prior;
  auto report = auditor.Run([&](AppEnv& env) -> Status {
    AuditingDbClient client(&backend, &auditor, env.root_process().pid());
    LDV_ASSIGN_OR_RETURN(
        exec::ResultSet r,
        client.Query("UPDATE items SET val = val + 1 WHERE id = 3"));
    if (r.dml.size() != 1) return Status::Internal("expected one DmlRecord");
    prior = r.dml[0].prior;
    return Status::Ok();
  });
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  auto csv = ReadFileToString(base_ + "/packages/race/db/data/items.csv");
  ASSERT_TRUE(csv.ok());
  auto rows = ParseCsv(*csv);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_EQ(*ParseInt64((*rows)[0][0]), prior.rowid);
  EXPECT_EQ(*ParseInt64((*rows)[0][1]), prior.version);
}

// ---------------------------------------------------------------------------
// Package-byte goldens: FNV-1a hashes of trace.ldv and of every packaged
// tuple CSV of a server-included audit. Trace-graph indexing and provenance
// capture are implementation details; the bytes they produce are not.
// ---------------------------------------------------------------------------

/// Relative path -> FNV-1a of the trace and the tuple CSVs of `package`.
std::map<std::string, uint64_t> PackageHashes(const std::string& package) {
  std::map<std::string, uint64_t> out;
  std::vector<std::string> files = {std::string(kTraceFile)};
  auto data = ListTree(JoinPath(package, std::string(kTupleDataDir)));
  EXPECT_TRUE(data.ok()) << data.status().ToString();
  if (data.ok()) {
    for (const std::string& f : *data) {
      files.push_back(std::string(kTupleDataDir) + "/" + f);
    }
  }
  for (const std::string& f : files) {
    auto bytes = ReadFileToString(JoinPath(package, f));
    EXPECT_TRUE(bytes.ok()) << f;
    if (bytes.ok()) out[f] = Fnv1a(*bytes);
  }
  return out;
}

/// Two processes over two tables: repeated reads of the same versions
/// (hasRead merges), a self-join, a scalar subquery, INSERT ... SELECT,
/// UPDATE and DELETE with subqueries, and an aggregate with wide lineage.
AppFn GoldenApp() {
  return [](AppEnv& env) -> Status {
    os::ProcessContext& proc = env.root_process();
    LDV_ASSIGN_OR_RETURN(std::string config,
                         proc.ReadFile("/input/config.txt"));
    LDV_ASSIGN_OR_RETURN(net::DbClient * db, env.OpenDbConnection(proc));
    const char* statements[] = {
        "INSERT INTO items VALUES (100, 1000, 'new')",
        "SELECT id, val FROM items WHERE val BETWEEN 30 AND 80",
        "SELECT id, val FROM items WHERE val BETWEEN 30 AND 80",
        "SELECT a.id, b.id FROM items a JOIN items b ON a.val = b.val",
        "SELECT i.id, o.name FROM items i JOIN owners o ON i.id = o.item",
        "SELECT id FROM items WHERE val > (SELECT avg(val) FROM items)",
        "INSERT INTO items SELECT id + 200, val, 'copy' FROM items "
        "WHERE val < 40",
        "UPDATE items SET val = val + 1 WHERE id = 3",
        "UPDATE items SET tag = 'hot' WHERE id IN "
        "(SELECT item FROM owners WHERE name = 'bob')",
        "DELETE FROM items WHERE id = 9",
        "SELECT tag, count(*), sum(val) FROM items GROUP BY tag",
        "SELECT val FROM items WHERE id = 3 OR id = 100",
    };
    for (const char* sql : statements) {
      LDV_RETURN_IF_ERROR(db->Query(sql).status());
    }
    LDV_ASSIGN_OR_RETURN(os::ProcessContext * child, proc.Spawn("worker"));
    LDV_ASSIGN_OR_RETURN(net::DbClient * child_db,
                         env.OpenDbConnection(*child));
    LDV_RETURN_IF_ERROR(
        child_db->Query("SELECT id, val FROM items WHERE val BETWEEN 30 AND 80")
            .status());
    LDV_RETURN_IF_ERROR(
        child_db->Query("SELECT name FROM owners WHERE item < 5").status());
    LDV_RETURN_IF_ERROR(child->WriteFile("/output/worker.txt", config));
    return proc.WriteFile("/output/result.txt", "done");
  };
}

TEST_F(AuditReplayTest, ServerIncludedPackageBytesAreStable) {
  auto owners = db_->CreateTable(
      "owners", storage::Schema({{"item", ValueType::kInt64},
                                 {"name", ValueType::kString}}));
  ASSERT_TRUE(owners.ok());
  int64_t seq = db_->NextStatementSeq();
  for (int i = 1; i <= 6; ++i) {
    ASSERT_TRUE((*owners)
                    ->Insert({Value::Int(i), Value::Str(i % 2 ? "bob" : "amy")},
                             seq)
                    .ok());
  }
  Auditor auditor(db_.get(), Options(PackageMode::kServerIncluded, "golden"));
  auto report = auditor.Run(GoldenApp());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  const std::map<std::string, uint64_t> want = {
      {"db/data/items.csv", 5787671253521273809ULL},
      {"db/data/owners.csv", 3471006902172656373ULL},
      {"trace.ldv", 12201449682637684201ULL},
  };
  EXPECT_EQ(PackageHashes(base_ + "/packages/golden"), want);
}

TEST(TpchPackageGoldenTest, ServerIncludedQ24PackageBytesAreStable) {
  auto base = MakeTempDir("ldv_golden_");
  ASSERT_TRUE(base.ok());
  Database db;
  tpch::GenOptions gen;
  gen.scale_factor = 0.001;
  ASSERT_TRUE(tpch::Generate(&db, gen).ok());
  tpch::TpchSizes sizes = tpch::SizesFor(gen.scale_factor);
  auto q = tpch::FindQuery("Q2-4");
  ASSERT_TRUE(q.ok());
  tpch::AppOptions app;
  app.query_sql = q->sql;
  app.num_inserts = 20;
  app.num_selects = 3;
  app.num_updates = 10;
  app.insert_orderkey_base = sizes.orders;
  app.update_orderkey_max = sizes.orders;
  app.customer_max = sizes.customers;

  AuditOptions options;
  options.mode = PackageMode::kServerIncluded;
  options.package_dir = *base + "/pkg";
  options.sandbox_root = *base + "/sandbox";
  ASSERT_TRUE(MakeDirs(options.sandbox_root).ok());
  Auditor auditor(&db, options);
  auto report = auditor.Run(tpch::MakeExperimentApp(app, nullptr));
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  const std::map<std::string, uint64_t> want = {
      {"db/data/customer.csv", 5518013481422717261ULL},
      {"db/data/lineitem.csv", 9715307445969532529ULL},
      {"db/data/orders.csv", 16565191337405988250ULL},
      {"trace.ldv", 2710369173293247770ULL},
  };
  EXPECT_EQ(PackageHashes(options.package_dir), want);
  ASSERT_TRUE(RemoveAll(*base).ok());
}

TEST_F(AuditReplayTest, AuditRefusesToOverwritePackage) {
  Auditor first(db_.get(), Options(PackageMode::kServerExcluded, "dup"));
  ASSERT_TRUE(first.Run(TestApp(nullptr)).ok());
  Auditor second(db_.get(), Options(PackageMode::kServerExcluded, "dup"));
  auto report = second.Run(TestApp(nullptr));
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kAlreadyExists);
}

TEST_F(AuditReplayTest, FailingAppSurfacesError) {
  AppFn bad = [](AppEnv& env) -> Status {
    os::ProcessContext& proc = env.root_process();
    LDV_ASSIGN_OR_RETURN(net::DbClient * db, env.OpenDbConnection(proc));
    return db->Query("SELECT * FROM no_such_table").status();
  };
  Auditor auditor(db_.get(), Options(PackageMode::kServerIncluded, "bad"));
  EXPECT_FALSE(auditor.Run(bad).ok());
}

// ---------------------------------------------------------------------------
// The §VII-D trade-off: a server-included package supports *modified*
// re-execution (Bob can change queries, as long as they touch the packaged
// subset), while a server-excluded package only supports faithful replay.
// ---------------------------------------------------------------------------

TEST_F(AuditReplayTest, ServerIncludedSupportsModifiedReExecution) {
  Auditor auditor(db_.get(), Options(PackageMode::kServerIncluded, "mod"));
  ASSERT_TRUE(auditor.Run(TestApp(nullptr)).ok());

  // Bob's variant: a different aggregate over the same packaged subset
  // (tuples with val in [50,80] plus the update's prior).
  AppFn bobs_variant = [](AppEnv& env) -> Status {
    os::ProcessContext& proc = env.root_process();
    LDV_ASSIGN_OR_RETURN(net::DbClient * db, env.OpenDbConnection(proc));
    LDV_ASSIGN_OR_RETURN(
        exec::ResultSet r,
        db->Query("SELECT count(*), sum(val) FROM items "
                  "WHERE val BETWEEN 50 AND 80"));
    if (r.rows[0][0].AsInt() != 4) {
      return Status::Internal("expected the 4 packaged tuples, got " +
                              r.rows[0][0].ToText());
    }
    return Status::Ok();
  };
  auto report = ReplayPackage("mod", bobs_variant);
  EXPECT_TRUE(report.ok()) << report.status().ToString();
}

TEST_F(AuditReplayTest, ServerExcludedRejectsModifiedReExecution) {
  Auditor auditor(db_.get(), Options(PackageMode::kServerExcluded, "mod2"));
  ASSERT_TRUE(auditor.Run(TestApp(nullptr)).ok());

  AppFn bobs_variant = [](AppEnv& env) -> Status {
    os::ProcessContext& proc = env.root_process();
    LDV_ASSIGN_OR_RETURN(net::DbClient * db, env.OpenDbConnection(proc));
    return db->Query("SELECT count(*) FROM items").status();
  };
  auto report = ReplayPackage("mod2", bobs_variant);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kReplayMismatch);
}

TEST_F(AuditReplayTest, PartialReExecutionReplaysAPrefix) {
  // §VIII: partial re-execution is supported as long as requests follow the
  // recorded order — a prefix of the original application.
  Auditor auditor(db_.get(), Options(PackageMode::kServerExcluded, "part"));
  ASSERT_TRUE(auditor.Run(TestApp(nullptr)).ok());

  AppFn prefix = [](AppEnv& env) -> Status {
    os::ProcessContext& proc = env.root_process();
    LDV_ASSIGN_OR_RETURN(net::DbClient * db, env.OpenDbConnection(proc));
    LDV_RETURN_IF_ERROR(
        db->Query("INSERT INTO items VALUES (100, 1000, 'new')").status());
    LDV_ASSIGN_OR_RETURN(
        exec::ResultSet r,
        db->Query("SELECT id, val FROM items WHERE val BETWEEN 50 AND 80"));
    return r.rows.size() == 4 ? Status::Ok()
                              : Status::Internal("wrong replayed result");
  };
  auto report = ReplayPackage("part", prefix);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->statements_replayed, 2);
}

// ---------------------------------------------------------------------------
// Property: for randomized applications, both package types replay to the
// exact original results (package sufficiency, the paper's core guarantee).
// ---------------------------------------------------------------------------

class RandomizedReplayTest : public ::testing::TestWithParam<uint64_t> {};

AppFn RandomApp(uint64_t seed, uint64_t* fingerprint_out) {
  return [seed, fingerprint_out](AppEnv& env) -> Status {
    os::ProcessContext& proc = env.root_process();
    LDV_ASSIGN_OR_RETURN(net::DbClient * db, env.OpenDbConnection(proc));
    Rng rng(seed);
    uint64_t fp = 0;
    int steps = 8 + static_cast<int>(rng.Uniform(0, 8));
    for (int i = 0; i < steps; ++i) {
      int64_t choice = rng.Uniform(0, 3);
      if (choice == 0) {
        LDV_RETURN_IF_ERROR(
            db->Query(StrFormat("INSERT INTO items VALUES (%lld, %lld, 'r')",
                                static_cast<long long>(1000 + i),
                                static_cast<long long>(rng.Uniform(0, 500))))
                .status());
      } else if (choice == 1) {
        int64_t lo = rng.Uniform(0, 100);
        LDV_ASSIGN_OR_RETURN(
            exec::ResultSet r,
            db->Query(StrFormat(
                "SELECT id, val, tag FROM items WHERE val BETWEEN %lld AND "
                "%lld",
                static_cast<long long>(lo), static_cast<long long>(lo + 40))));
        fp ^= r.Fingerprint() + i;
      } else if (choice == 2) {
        LDV_RETURN_IF_ERROR(
            db->Query(StrFormat(
                          "UPDATE items SET val = val + 7 WHERE id = %lld",
                          static_cast<long long>(rng.Uniform(1, 10))))
                .status());
      } else {
        LDV_ASSIGN_OR_RETURN(
            exec::ResultSet r,
            db->Query("SELECT count(*), sum(val) FROM items"));
        fp ^= r.Fingerprint() * 3 + i;
      }
    }
    if (fingerprint_out != nullptr) *fingerprint_out = fp;
    return Status::Ok();
  };
}

TEST_P(RandomizedReplayTest, BothPackageTypesReplayFaithfully) {
  const uint64_t seed = GetParam();
  auto base = MakeTempDir("ldv_prop_");
  ASSERT_TRUE(base.ok());

  for (PackageMode mode :
       {PackageMode::kServerIncluded, PackageMode::kServerExcluded}) {
    Database db;
    auto items = db.CreateTable("items",
                                storage::Schema({{"id", ValueType::kInt64},
                                                 {"val", ValueType::kInt64},
                                                 {"tag", ValueType::kString}}));
    ASSERT_TRUE(items.ok());
    Rng data_rng(seed ^ 0xD474ULL);
    int64_t seq = db.NextStatementSeq();
    for (int i = 1; i <= 30; ++i) {
      ASSERT_TRUE((*items)
                      ->Insert({Value::Int(i),
                                Value::Int(data_rng.Uniform(0, 120)),
                                Value::Str("pre")},
                               seq)
                      .ok());
    }
    std::string name = std::string(PackageModeName(mode));
    AuditOptions options;
    options.mode = mode;
    options.package_dir = *base + "/pkg_" + name;
    options.sandbox_root = *base + "/sandbox_" + name;
    ASSERT_TRUE(MakeDirs(options.sandbox_root).ok());

    uint64_t original_fp = 1;
    Auditor auditor(&db, options);
    auto audit = auditor.Run(RandomApp(seed, &original_fp));
    ASSERT_TRUE(audit.ok()) << audit.status().ToString();

    ReplayOptions replay_options;
    replay_options.package_dir = options.package_dir;
    replay_options.scratch_dir = *base + "/scratch_" + name;
    auto replayer = Replayer::Open(replay_options);
    ASSERT_TRUE(replayer.ok()) << replayer.status().ToString();
    uint64_t replay_fp = 2;
    auto report = (*replayer)->Run(RandomApp(seed, &replay_fp));
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ(replay_fp, original_fp)
        << "mode=" << name << " seed=" << seed;
  }
  ASSERT_TRUE(RemoveAll(*base).ok());
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomizedReplayTest,
                         ::testing::Range<uint64_t>(1, 13));

}  // namespace
}  // namespace ldv
