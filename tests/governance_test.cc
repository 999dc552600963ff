// Resource governance (DESIGN.md §11): cooperative cancellation, statement
// deadlines, per-query memory budgets, and the unwind invariants — open
// transactions roll back, worker slots come back, the response-dedup cache
// is never poisoned by a governance kill.

#include <gtest/gtest.h>

#include <string.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/fault.h"
#include "exec/governor.h"
#include "net/db_client.h"
#include "net/db_server.h"
#include "net/protocol.h"
#include "obs/metrics.h"
#include "util/fsutil.h"
#include "util/thread_pool.h"
#include "util/strings.h"

namespace ldv::net {
namespace {

using exec::InflightQuery;
using exec::MemoryBudget;
using exec::QueryGovernor;
using exec::QueryRegistry;
using storage::Database;

/// A cross join whose predicate never matches: kRows^2 predicate
/// evaluations, zero output rows — long-running but allocation-free, the
/// ideal cancellation target.
constexpr char kHeavySql[] =
    "SELECT count(*) FROM big a, big b WHERE a.val + b.val < -1";

constexpr int kRows = 5000;

/// CREATE + batched INSERTs of the `big` table (id, grp, val >= 0).
void FillBigTable(DbClient* client) {
  ASSERT_TRUE(
      client->Query("CREATE TABLE big (id INT, grp INT, val INT)").ok());
  constexpr int kBatch = 500;
  for (int base = 0; base < kRows; base += kBatch) {
    std::string sql = "INSERT INTO big VALUES ";
    for (int i = base; i < base + kBatch; ++i) {
      if (i != base) sql += ",";
      sql += StrFormat("(%d,%d,%d)", i, i % 97, i % 7);
    }
    ASSERT_TRUE(client->Query(sql).ok());
  }
}

// ---------------------------------------------------------------------------
// MemoryBudget / QueryGovernor / QueryRegistry units.
// ---------------------------------------------------------------------------

TEST(MemoryBudgetTest, ChargesAccumulateAndCapFails) {
  MemoryBudget budget(1000);
  EXPECT_TRUE(budget.Charge(400).ok());
  EXPECT_TRUE(budget.Charge(600).ok());  // exactly at the cap: still fine
  Status over = budget.Charge(1);
  EXPECT_EQ(over.code(), StatusCode::kResourceExhausted);
  // The charge sticks (the statement is unwinding); peak tracks the total.
  EXPECT_EQ(budget.used(), 1001u);
  EXPECT_EQ(budget.peak(), 1001u);
}

TEST(MemoryBudgetTest, ZeroLimitDisablesTheCapButStillAccounts) {
  MemoryBudget budget;
  EXPECT_TRUE(budget.Charge(1u << 30).ok());
  EXPECT_EQ(budget.used(), 1u << 30);
}

TEST(QueryGovernorTest, CancelFlipsCheckAndFirstCancelWins) {
  QueryGovernor governor;
  EXPECT_TRUE(governor.Check().ok());
  EXPECT_FALSE(governor.cancelled());
  EXPECT_TRUE(governor.Cancel(StatusCode::kCancelled, "first"));
  EXPECT_FALSE(governor.Cancel(StatusCode::kDeadlineExceeded, "second"));
  Status verdict = governor.Check();
  EXPECT_EQ(verdict.code(), StatusCode::kCancelled);
  EXPECT_NE(verdict.message().find("first"), std::string::npos);
}

TEST(QueryGovernorTest, ExpiredDeadlineTripsOnCheck) {
  QueryGovernor governor;
  governor.set_deadline_nanos(NowNanos() - 1);
  EXPECT_EQ(governor.Check().code(), StatusCode::kDeadlineExceeded);
  // Future deadlines do not trip.
  QueryGovernor patient;
  patient.set_deadline_nanos(NowNanos() + 60'000'000'000LL);
  EXPECT_TRUE(patient.Check().ok());
}

TEST(QueryGovernorTest, ChargeMemoryFailsPastTheLimit) {
  QueryGovernor governor;
  governor.set_mem_limit_bytes(100);
  EXPECT_TRUE(governor.ChargeMemory(50).ok());
  EXPECT_EQ(governor.ChargeMemory(60).code(),
            StatusCode::kResourceExhausted);
}

TEST(QueryRegistryTest, CancelTargetsPidQidAndSession) {
  QueryRegistry& registry = QueryRegistry::Global();
  const int64_t baseline = registry.inflight();
  QueryGovernor g1, g2, g3;
  InflightQuery q1;
  q1.process_id = 100;
  q1.query_id = 1;
  q1.session_id = 11;
  InflightQuery q2;
  q2.process_id = 100;
  q2.query_id = 2;
  q2.session_id = 12;
  InflightQuery q3;
  q3.process_id = 200;
  q3.query_id = 1;
  q3.session_id = 13;
  {
    auto r1 = registry.Register(&g1, q1);
    auto r2 = registry.Register(&g2, q2);
    auto r3 = registry.Register(&g3, q3);
    EXPECT_EQ(registry.inflight(), baseline + 3);

    // (pid, qid) hits exactly one statement.
    EXPECT_EQ(registry.CancelQuery(100, 2, StatusCode::kCancelled, "x"), 1);
    EXPECT_FALSE(g1.cancelled());
    EXPECT_TRUE(g2.cancelled());
    EXPECT_FALSE(g3.cancelled());

    // qid == 0 sweeps the whole process; already-cancelled statements are
    // not signalled twice.
    EXPECT_EQ(registry.CancelQuery(100, 0, StatusCode::kCancelled, "x"), 1);
    EXPECT_TRUE(g1.cancelled());
    EXPECT_FALSE(g3.cancelled());

    // Session targeting (the disconnect watcher's path).
    EXPECT_EQ(registry.CancelSession(13, StatusCode::kCancelled, "gone"), 1);
    EXPECT_TRUE(g3.cancelled());

    // A cancel that matches nothing cancels nothing.
    EXPECT_EQ(registry.CancelQuery(999, 0, StatusCode::kCancelled, "x"), 0);
  }
  // RAII: registrations vanish with their scope.
  EXPECT_EQ(registry.inflight(), baseline);
}

// ---------------------------------------------------------------------------
// Engine-level governance: cancel mid-statement, deadlines, budgets.
// ---------------------------------------------------------------------------

class GovernanceEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    engine_ = std::make_unique<EngineHandle>(&db_);
    client_ = std::make_unique<LocalDbClient>(engine_.get());
    FillBigTable(client_.get());
  }

  Database db_;
  std::unique_ptr<EngineHandle> engine_;
  std::unique_ptr<LocalDbClient> client_;
};

TEST_F(GovernanceEngineTest, CancelMidScanUnwindsPromptly) {
  DbRequest request;
  request.sql = kHeavySql;
  request.process_id = 7;
  request.query_id = 1;
  Result<exec::ResultSet> result = Status::Internal("not run");
  std::atomic<int64_t> finished_nanos{0};
  std::thread worker([&] {
    result = client_->Execute(request);
    finished_nanos.store(NowNanos());
  });
  // Wait until the statement is visibly in flight, then kill it.
  QueryRegistry& registry = QueryRegistry::Global();
  bool seen = false;
  const int64_t spin_deadline = NowNanos() + 10'000'000'000LL;
  while (NowNanos() < spin_deadline) {
    for (const InflightQuery& q : registry.Snapshot()) {
      if (q.process_id == 7 && q.query_id == 1) seen = true;
    }
    if (seen) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(seen);
  const int64_t cancel_nanos = NowNanos();
  EXPECT_GE(
      registry.CancelQuery(7, 1, StatusCode::kCancelled, "test cancel"), 0);
  worker.join();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
  // Cooperative checks run at every morsel boundary and inner-loop stride;
  // the unwind is near-immediate (bound kept generous for loaded CI).
  EXPECT_LT(finished_nanos.load() - cancel_nanos, 2'000'000'000LL);
}

TEST_F(GovernanceEngineTest, ServerDefaultDeadlineKillsLongStatements) {
  engine_->set_statement_timeout_millis(25);
  auto result = client_->Query(kHeavySql);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  // Quick statements pass untouched.
  EXPECT_TRUE(client_->Query("SELECT count(*) FROM big").ok());
}

TEST_F(GovernanceEngineTest, PerRequestTimeoutOverridesServerDefault) {
  // No server default: the request's own field arms the deadline.
  DbRequest request;
  request.sql = kHeavySql;
  request.timeout_millis = 10;
  auto result = client_->Execute(request);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);

  // A generous per-request override outlives a tight server default.
  engine_->set_statement_timeout_millis(1);
  DbRequest relaxed;
  relaxed.sql = "SELECT count(*) FROM big";
  relaxed.timeout_millis = 60'000;
  EXPECT_TRUE(client_->Execute(relaxed).ok());
}

TEST_F(GovernanceEngineTest, MemLimitFailsHashJoinWithResourceExhausted) {
  engine_->set_mem_limit_bytes(64 << 10);
  // The equi-join's build side (5000 materialized rows + hash arrays) blows
  // a 64 KiB budget at the charge, long before any allocation hurts.
  auto result =
      client_->Query("SELECT count(*) FROM big a, big b WHERE a.id = b.id");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
  // The engine keeps serving; small statements fit the budget.
  auto ok = client_->Query("SELECT count(*) FROM big WHERE val = 3");
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
}

TEST_F(GovernanceEngineTest, DeadlineInsideTxnAbortsTheTransaction) {
  engine_->set_statement_timeout_millis(25);
  ASSERT_TRUE(client_->Query("BEGIN").ok());
  ASSERT_TRUE(client_->Query("INSERT INTO big VALUES (-1, -1, 0)").ok());
  auto killed = client_->Query(kHeavySql);
  ASSERT_FALSE(killed.ok());
  EXPECT_EQ(killed.status().code(), StatusCode::kDeadlineExceeded);
  // Lift the deadline before verifying: under TSan even the small probe
  // queries below can blow a 25 ms budget, and the bound under test is the
  // kill above, not their latency.
  engine_->set_statement_timeout_millis(0);
  // The statement failure aborted the whole transaction (TxnScope undo):
  // the INSERT is gone and no transaction is open.
  auto count = client_->Query("SELECT count(*) FROM big WHERE id = -1");
  ASSERT_TRUE(count.ok()) << count.status().ToString();
  EXPECT_EQ(count->rows[0][0].AsInt(), 0);
  EXPECT_FALSE(client_->Query("COMMIT").ok());  // nothing to commit
}

TEST_F(GovernanceEngineTest, ParallelMorselsUnwindOnCancel) {
  const int saved_dop = ThreadPool::default_dop();
  ThreadPool::SetDefaultDop(8);
  DbRequest request;
  request.sql = kHeavySql;
  request.process_id = 8;
  request.query_id = 2;
  request.timeout_millis = 20;
  auto result = client_->Execute(request);
  ThreadPool::SetDefaultDop(saved_dop);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  // Pool slots were reclaimed: a follow-up parallel statement still runs.
  ThreadPool::SetDefaultDop(8);
  auto again = client_->Query("SELECT grp, count(*) FROM big GROUP BY grp");
  ThreadPool::SetDefaultDop(saved_dop);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(again->rows.size(), 97u);
}

// ---------------------------------------------------------------------------
// Fault-injection coverage of the new points.
// ---------------------------------------------------------------------------

class GovernanceFaultTest : public GovernanceEngineTest {
 protected:
  void TearDown() override { FaultInjector::Instance().Reset(); }
};

TEST_F(GovernanceFaultTest, CancelCheckFaultPointFires) {
  FaultInjector& injector = FaultInjector::Instance();
  ASSERT_TRUE(
      injector.ConfigureFromSpec("exec.cancel_check=p:1.0").ok());
  injector.Enable(7);
  EXPECT_FALSE(client_->Query("SELECT count(*) FROM big").ok());
  EXPECT_GE(injector.InjectedCount("exec.cancel_check"), 1);
}

TEST_F(GovernanceFaultTest, MemChargeFaultPointFires) {
  FaultInjector& injector = FaultInjector::Instance();
  ASSERT_TRUE(
      injector.ConfigureFromSpec("governor.mem_charge=p:1.0").ok());
  injector.Enable(7);
  // Aggregation charges its partial tables, so the point is on the path.
  EXPECT_FALSE(
      client_->Query("SELECT grp, count(*) FROM big GROUP BY grp").ok());
  EXPECT_GE(injector.InjectedCount("governor.mem_charge"), 1);
}

// ---------------------------------------------------------------------------
// Server-level governance: CANCEL verb, stats, dedup, disconnects.
// ---------------------------------------------------------------------------

class GovernanceServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto dir = MakeTempDir("ldv_gov_");
    ASSERT_TRUE(dir.ok());
    dir_ = *dir;
    engine_ = std::make_unique<EngineHandle>(&db_);
    server_ = std::make_unique<DbServer>(engine_.get(), dir_ + "/db.sock");
    ASSERT_TRUE(server_->Start().ok());
    auto client = SocketDbClient::Connect(server_->socket_path());
    ASSERT_TRUE(client.ok());
    FillBigTable(client->get());
  }

  void TearDown() override {
    server_->Stop();
    ASSERT_TRUE(RemoveAll(dir_).ok());
  }

  /// Raw protocol connection (bypasses SocketDbClient teardown semantics).
  int RawConnect() {
    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) return -1;
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    strcpy(addr.sun_path, server_->socket_path().c_str());
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      ::close(fd);
      return -1;
    }
    return fd;
  }

  std::string dir_;
  Database db_;
  std::unique_ptr<EngineHandle> engine_;
  std::unique_ptr<DbServer> server_;
};

TEST_F(GovernanceServerTest, CancelVerbKillsInflightQueryAndStatsListIt) {
  auto runner = SocketDbClient::Connect(server_->socket_path());
  ASSERT_TRUE(runner.ok());
  Result<exec::ResultSet> result = Status::Internal("not run");
  std::thread worker([&] {
    DbRequest request;
    request.sql = kHeavySql;
    request.process_id = 77;
    request.query_id = 5;
    result = (*runner)->Execute(request);
  });

  auto control = SocketDbClient::Connect(server_->socket_path());
  ASSERT_TRUE(control.ok());
  // Spin until the stats in-flight listing shows the statement.
  bool listed = false;
  const int64_t spin_deadline = NowNanos() + 10'000'000'000LL;
  while (!listed && NowNanos() < spin_deadline) {
    auto stats = FetchServerStats(control->get());
    ASSERT_TRUE(stats.ok());
    const Json* inflight = stats->Find("inflight_queries");
    ASSERT_NE(inflight, nullptr);
    for (const Json& q : inflight->AsArray()) {
      if (q.GetInt("process_id", -1) == 77) {
        listed = true;
        EXPECT_NE(q.GetString("sql", "").find("FROM big"),
                  std::string::npos);
        EXPECT_GE(q.GetInt("elapsed_micros", -1), 0);
      }
    }
    if (!listed) std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_TRUE(listed);

  // The CANCEL protocol verb (qid = 0 sweeps the process).
  auto cancelled = CancelServerQuery(control->get(), 77, 0);
  ASSERT_TRUE(cancelled.ok()) << cancelled.status().ToString();
  EXPECT_EQ(*cancelled, 1);
  worker.join();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);

  // The kill shows up in the metrics snapshot, and the listing drains.
  auto after = FetchServerStats(control->get());
  ASSERT_TRUE(after.ok());
  std::string dump = after->Dump();
  EXPECT_NE(dump.find("exec.cancelled"), std::string::npos);
  EXPECT_EQ(after->Find("inflight_queries")->AsArray().size(), 0u);
}

TEST_F(GovernanceServerTest, GovernanceKillDoesNotPoisonTheDedupCache) {
  auto client = SocketDbClient::Connect(server_->socket_path());
  ASSERT_TRUE(client.ok());
  DbRequest request;
  request.sql = kHeavySql;
  request.process_id = 5;
  request.query_id = 9;
  request.timeout_millis = 1;
  auto killed = (*client)->Execute(request);
  ASSERT_FALSE(killed.ok());
  EXPECT_EQ(killed.status().code(), StatusCode::kDeadlineExceeded);

  // Same (pid, qid, sql): were the kill recorded in the dedup cache, this
  // would instantly replay DeadlineExceeded. It must run afresh instead.
  request.timeout_millis = 600'000;
  auto retried = (*client)->Execute(request);
  ASSERT_TRUE(retried.ok()) << retried.status().ToString();
  EXPECT_EQ(retried->rows[0][0].AsInt(), 0);
  EXPECT_EQ(server_->deduped_requests(), 0);
}

TEST_F(GovernanceServerTest, MemLimitOverSocketLeavesServerServing) {
  engine_->set_mem_limit_bytes(64 << 10);
  auto first = SocketDbClient::Connect(server_->socket_path());
  auto second = SocketDbClient::Connect(server_->socket_path());
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  auto blown =
      (*first)->Query("SELECT count(*) FROM big a, big b WHERE a.id = b.id");
  ASSERT_FALSE(blown.ok());
  EXPECT_EQ(blown.status().code(), StatusCode::kResourceExhausted);
  // Both the killing connection and an independent one keep working.
  EXPECT_TRUE((*first)->Query("SELECT count(*) FROM big").ok());
  EXPECT_TRUE((*second)->Query("SELECT count(*) FROM big").ok());
  auto stats = FetchServerStats(second->get());
  ASSERT_TRUE(stats.ok());
  EXPECT_NE(stats->Dump().find("exec.mem_rejected"), std::string::npos);
}

TEST_F(GovernanceServerTest, DisconnectMidQueryCancelsAndRollsBackTxn) {
  // Torture at dop 8: the killed statement holds pool slots that must come
  // back, and its open transaction must roll back on teardown.
  const int saved_dop = ThreadPool::default_dop();
  ThreadPool::SetDefaultDop(8);

  int fd = RawConnect();
  ASSERT_GE(fd, 0);
  auto roundtrip = [&](const std::string& sql) {
    DbRequest request;
    request.sql = sql;
    ASSERT_TRUE(SendFrame(fd, EncodeRequest(request)).ok());
    auto frame = RecvFrame(fd);
    ASSERT_TRUE(frame.ok());
    auto decoded = DecodeResponse(*frame);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  };
  roundtrip("BEGIN");
  roundtrip("INSERT INTO big VALUES (-1, -1, 0)");
  // Fire the heavy statement and hang up without reading the response: the
  // disconnect watcher must cancel it and teardown must roll the txn back.
  DbRequest heavy;
  heavy.sql = kHeavySql;
  ASSERT_TRUE(SendFrame(fd, EncodeRequest(heavy)).ok());
  ::close(fd);

  // A second session can take the engine over as soon as the kill lands and
  // the transaction unwinds (well inside the 10 s engine-busy limit).
  auto client = SocketDbClient::Connect(server_->socket_path());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE((*client)->Query("BEGIN").ok());
  ASSERT_TRUE((*client)->Query("COMMIT").ok());
  // The torn session's INSERT rolled back.
  auto count = (*client)->Query("SELECT count(*) FROM big WHERE id = -1");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count->rows[0][0].AsInt(), 0);
  // Worker slots were reclaimed: a parallel statement completes.
  auto grouped = (*client)->Query("SELECT grp, count(*) FROM big GROUP BY grp");
  ASSERT_TRUE(grouped.ok()) << grouped.status().ToString();
  EXPECT_EQ(grouped->rows.size(), 97u);
  ThreadPool::SetDefaultDop(saved_dop);

  // The engine recorded the rollback; the cancel is attributed to the
  // disconnect watcher (poll cadence ~20 ms, so give it a moment to be
  // counted even though the query is already dead).
  auto stats = FetchServerStats(client->get());
  ASSERT_TRUE(stats.ok());
  EXPECT_NE(stats->Dump().find("engine.txns_rolled_back"), std::string::npos);
  const int64_t spin_deadline = NowNanos() + 5'000'000'000LL;
  while (server_->disconnect_cancels() == 0 && NowNanos() < spin_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GE(server_->disconnect_cancels(), 1);
  // And the in-flight listing drains once the killed statement unwinds
  // (the watcher counts the signal; the statement needs a few more morsel
  // checks to observe it and unregister, so poll).
  size_t still_inflight = 1;
  const int64_t drain_deadline = NowNanos() + 5'000'000'000LL;
  while (still_inflight != 0 && NowNanos() < drain_deadline) {
    auto after = FetchServerStats(client->get());
    ASSERT_TRUE(after.ok());
    still_inflight = after->Find("inflight_queries")->AsArray().size();
    if (still_inflight != 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  EXPECT_EQ(still_inflight, 0u);
}

}  // namespace
}  // namespace ldv::net
