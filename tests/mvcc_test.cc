// MVCC concurrency subsystem (DESIGN.md §12): snapshot-isolated reads over
// the row-version archive, the catalog/table lock hierarchy, snapshot GC,
// inter-query parallelism of independent SELECTs, and the server-side
// satellites (dedup TTL/LRU, disconnect-watcher poll).
//
// The multi-threaded suites here are the read/write stress gate and run
// under ThreadSanitizer via tools/check.sh --tsan.

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "net/db_client.h"
#include "net/db_server.h"
#include "net/protocol.h"
#include "obs/metrics.h"
#include "storage/database.h"
#include "storage/table.h"
#include "txn/lock_registry.h"
#include "txn/rwlock.h"
#include "txn/snapshot.h"
#include "util/fsutil.h"
#include "util/strings.h"

namespace ldv::net {
namespace {

using storage::Database;
using storage::Table;

Result<exec::ResultSet> Exec(EngineHandle* engine, int64_t session,
                             const std::string& sql) {
  DbRequest request;
  request.sql = sql;
  return engine->ExecuteSession(request, session);
}

int64_t SingleInt(const Result<exec::ResultSet>& result) {
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  if (!result.ok() || result->rows.empty()) return -1;
  return result->rows[0][0].AsInt();
}

// ---------------------------------------------------------------------------
// SharedMutex
// ---------------------------------------------------------------------------

TEST(SharedMutexTest, ReadersCoexist) {
  txn::SharedMutex mu;
  ASSERT_TRUE(mu.LockShared().ok());
  std::atomic<bool> second_got{false};
  std::thread t([&] {
    ASSERT_TRUE(mu.LockShared().ok());
    second_got.store(true);
    mu.UnlockShared();
  });
  t.join();
  EXPECT_TRUE(second_got.load());
  mu.UnlockShared();
}

TEST(SharedMutexTest, WriterExcludesReadersAndIsPreferred) {
  txn::SharedMutex mu;
  ASSERT_TRUE(mu.LockShared().ok());

  std::atomic<int> order{0};
  std::atomic<int> writer_at{-1};
  std::atomic<int> reader_at{-1};
  std::thread writer([&] {
    ASSERT_TRUE(mu.LockExclusive().ok());
    writer_at.store(order.fetch_add(1));
    mu.UnlockExclusive();
  });
  // Give the writer time to queue, then start a reader: writer preference
  // must admit the writer first even though the reader could share with the
  // lock's current holder.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  std::thread reader([&] {
    ASSERT_TRUE(mu.LockShared().ok());
    reader_at.store(order.fetch_add(1));
    mu.UnlockShared();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  mu.UnlockShared();
  writer.join();
  reader.join();
  EXPECT_LT(writer_at.load(), reader_at.load());
}

TEST(SharedMutexTest, WriterReentersAndReadsWithinWrite) {
  txn::SharedMutex mu;
  ASSERT_TRUE(mu.LockExclusive().ok());
  ASSERT_TRUE(mu.LockExclusive().ok());  // re-entry by the owner
  ASSERT_TRUE(mu.LockShared().ok());     // read within write
  mu.UnlockShared();
  mu.UnlockExclusive();
  // Still exclusively held once: another thread must not get in.
  std::atomic<bool> got{false};
  std::thread t([&] {
    ASSERT_TRUE(mu.LockShared().ok());
    got.store(true);
    mu.UnlockShared();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(got.load());
  mu.UnlockExclusive();
  t.join();
  EXPECT_TRUE(got.load());
}

TEST(SharedMutexTest, PollCancelsWaitingWriter) {
  txn::SharedMutex mu;
  ASSERT_TRUE(mu.LockShared().ok());
  std::atomic<bool> cancel{false};
  Status status = Status::Ok();
  std::thread writer([&] {
    status = mu.LockExclusive([&]() -> Status {
      return cancel.load() ? Status::Cancelled("stop waiting") : Status::Ok();
    });
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  cancel.store(true);
  writer.join();
  EXPECT_EQ(status.code(), StatusCode::kCancelled);
  // The cancelled waiter must not leave writer-preference debris behind:
  // new readers are admitted again.
  std::thread reader([&] {
    ASSERT_TRUE(mu.LockShared().ok());
    mu.UnlockShared();
  });
  reader.join();
  mu.UnlockShared();
}

// ---------------------------------------------------------------------------
// SnapshotManager
// ---------------------------------------------------------------------------

TEST(SnapshotManagerTest, WatermarkTracksOldestLiveSnapshot) {
  txn::SnapshotManager mgr;
  mgr.AdvanceCommitted(10);
  EXPECT_EQ(mgr.committed_epoch(), 10);
  EXPECT_EQ(mgr.OldestLiveEpoch(), 10);

  const int64_t a = mgr.AcquireSnapshot();
  EXPECT_EQ(a, 10);
  mgr.AdvanceCommitted(20);
  const int64_t b = mgr.AcquireSnapshot();
  EXPECT_EQ(b, 20);
  EXPECT_EQ(mgr.OldestLiveEpoch(), 10);
  EXPECT_EQ(mgr.live_snapshots(), 2);

  mgr.ReleaseSnapshot(a);
  EXPECT_EQ(mgr.OldestLiveEpoch(), 20);
  mgr.ReleaseSnapshot(b);
  EXPECT_EQ(mgr.OldestLiveEpoch(), 20);
  EXPECT_EQ(mgr.live_snapshots(), 0);

  mgr.AdvanceCommitted(5);  // lower values never regress the epoch
  EXPECT_EQ(mgr.committed_epoch(), 20);
}

TEST(SnapshotManagerTest, SnapshotRefReleasesOnScopeExit) {
  txn::SnapshotManager mgr;
  mgr.AdvanceCommitted(3);
  {
    txn::SnapshotRef ref(&mgr);
    EXPECT_TRUE(ref.active());
    EXPECT_EQ(ref.epoch(), 3);
    EXPECT_EQ(mgr.live_snapshots(), 1);
  }
  EXPECT_EQ(mgr.live_snapshots(), 0);
}

// ---------------------------------------------------------------------------
// Table visibility + GC
// ---------------------------------------------------------------------------

TEST(TableMvccTest, VisibleVersionResolvesThroughArchive) {
  Database db;
  db.SetMvccRetention(true);
  auto created = db.CreateTable(
      "t", storage::Schema({storage::Column{"x", storage::ValueType::kInt64}}));
  ASSERT_TRUE(created.ok());
  Table* t = *created;
  auto inserted = t->Insert({storage::Value::Int(1)}, db.NextStatementSeq());
  ASSERT_TRUE(inserted.ok());
  const storage::RowId rowid = *inserted;
  const int64_t epoch_v1 = db.current_statement_seq();
  ASSERT_TRUE(
      t->Update(rowid, {storage::Value::Int(2)}, db.NextStatementSeq()).ok());
  const int64_t epoch_v2 = db.current_statement_seq();

  const storage::RowVersion& live = t->rows()[0];
  const storage::RowVersion* v1 = t->VisibleVersion(live, epoch_v1);
  ASSERT_NE(v1, nullptr);
  EXPECT_EQ(v1->values[0].AsInt(), 1);
  const storage::RowVersion* v2 = t->VisibleVersion(live, epoch_v2);
  ASSERT_NE(v2, nullptr);
  EXPECT_EQ(v2->values[0].AsInt(), 2);
  // Before the insert, the row does not exist.
  EXPECT_EQ(t->VisibleVersion(live, epoch_v1 - 1), nullptr);

  // A deleted row is invisible at later epochs, visible at earlier ones.
  ASSERT_TRUE(t->Delete(rowid, db.NextStatementSeq()).ok());
  const int64_t epoch_v3 = db.current_statement_seq();
  const storage::RowVersion& tomb = t->rows()[0];
  EXPECT_EQ(t->VisibleVersion(tomb, epoch_v3), nullptr);
  const storage::RowVersion* before_delete = t->VisibleVersion(tomb, epoch_v2);
  ASSERT_NE(before_delete, nullptr);
  EXPECT_EQ(before_delete->values[0].AsInt(), 2);
}

TEST(TableMvccTest, GcDropsOnlyVersionsNoSnapshotNeeds) {
  Database db;
  db.SetMvccRetention(true);
  auto created = db.CreateTable(
      "t", storage::Schema({storage::Column{"x", storage::ValueType::kInt64}}));
  ASSERT_TRUE(created.ok());
  Table* t = *created;
  auto inserted = t->Insert({storage::Value::Int(0)}, db.NextStatementSeq());
  ASSERT_TRUE(inserted.ok());
  const int64_t pinned = db.current_statement_seq();
  for (int i = 1; i <= 5; ++i) {
    ASSERT_TRUE(
        t->Update(*inserted, {storage::Value::Int(i)}, db.NextStatementSeq())
            .ok());
  }
  ASSERT_EQ(t->archive().size(), 5u);

  // A snapshot at `pinned` still needs every pre-image archived after it.
  EXPECT_EQ(t->GcArchive(pinned), 0u);
  EXPECT_EQ(t->archive().size(), 5u);

  // With the watermark at the latest epoch everything is reclaimable.
  EXPECT_EQ(t->GcArchive(db.current_statement_seq()), 5u);
  EXPECT_EQ(t->archive().size(), 0u);
}

TEST(TableMvccTest, TrackedTablesAreNeverGced) {
  Database db;
  auto created = db.CreateTable(
      "t", storage::Schema({storage::Column{"x", storage::ValueType::kInt64}}));
  ASSERT_TRUE(created.ok());
  Table* t = *created;
  t->set_provenance_tracking(true);
  auto inserted = t->Insert({storage::Value::Int(0)}, db.NextStatementSeq());
  ASSERT_TRUE(inserted.ok());
  ASSERT_TRUE(
      t->Update(*inserted, {storage::Value::Int(1)}, db.NextStatementSeq())
          .ok());
  ASSERT_EQ(t->archive().size(), 1u);
  // Reenactment needs the full archive; GC must refuse.
  EXPECT_EQ(t->GcArchive(db.current_statement_seq()), 0u);
  EXPECT_EQ(t->archive().size(), 1u);
}

// ---------------------------------------------------------------------------
// EngineHandle: snapshot-isolated reads
// ---------------------------------------------------------------------------

TEST(MvccEngineTest, SnapshotReadDoesNotWaitForOpenTransaction) {
  Database db;
  EngineHandle engine(&db);
  // Make "waited for the transaction" loud: the old serialized path would
  // time out after 100 ms with an engine-busy error.
  engine.set_txn_wait_millis(100);
  ASSERT_TRUE(Exec(&engine, 0, "CREATE TABLE t (x INT)").ok());
  ASSERT_TRUE(Exec(&engine, 0, "INSERT INTO t VALUES (1), (2), (3)").ok());

  ASSERT_TRUE(Exec(&engine, 1, "BEGIN").ok());
  ASSERT_TRUE(Exec(&engine, 1, "INSERT INTO t VALUES (99)").ok());

  // Another session reads concurrently: committed state, immediately.
  const int64_t t0 = NowNanos();
  EXPECT_EQ(SingleInt(Exec(&engine, 2, "SELECT count(*) FROM t")), 3);
  EXPECT_LT((NowNanos() - t0) / 1'000'000, 100);

  // The owner reads its own uncommitted write.
  EXPECT_EQ(SingleInt(Exec(&engine, 1, "SELECT count(*) FROM t")), 4);

  ASSERT_TRUE(Exec(&engine, 1, "COMMIT").ok());
  EXPECT_EQ(SingleInt(Exec(&engine, 2, "SELECT count(*) FROM t")), 4);
}

TEST(MvccEngineTest, RolledBackWritesNeverBecomeVisible) {
  Database db;
  EngineHandle engine(&db);
  ASSERT_TRUE(Exec(&engine, 0, "CREATE TABLE t (x INT)").ok());
  ASSERT_TRUE(Exec(&engine, 0, "INSERT INTO t VALUES (10), (20)").ok());

  ASSERT_TRUE(Exec(&engine, 1, "BEGIN").ok());
  ASSERT_TRUE(Exec(&engine, 1, "UPDATE t SET x = x + 100").ok());
  EXPECT_EQ(SingleInt(Exec(&engine, 2, "SELECT sum(x) FROM t")), 30);
  ASSERT_TRUE(Exec(&engine, 1, "ROLLBACK").ok());
  EXPECT_EQ(SingleInt(Exec(&engine, 2, "SELECT sum(x) FROM t")), 30);
  EXPECT_EQ(SingleInt(Exec(&engine, 2, "SELECT count(*) FROM t")), 2);
}

TEST(MvccEngineTest, ConcurrentReadsMatchSerialResultsBitForBit) {
  Database db;
  EngineHandle engine(&db);
  ASSERT_TRUE(Exec(&engine, 0, "CREATE TABLE big (id INT, grp INT, val INT)")
                  .ok());
  for (int base = 0; base < 2000; base += 500) {
    std::string sql = "INSERT INTO big VALUES ";
    for (int i = base; i < base + 500; ++i) {
      if (i != base) sql += ",";
      sql += StrFormat("(%d,%d,%d)", i, i % 13, i % 7);
    }
    ASSERT_TRUE(Exec(&engine, 0, sql).ok());
  }
  const std::string query =
      "SELECT grp, count(*), sum(val) FROM big GROUP BY grp ORDER BY grp";
  Result<exec::ResultSet> serial = Exec(&engine, 0, query);
  ASSERT_TRUE(serial.ok());
  const uint64_t expected = serial->Fingerprint();

  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      for (int iter = 0; iter < 5; ++iter) {
        Result<exec::ResultSet> result = Exec(&engine, 10 + i, query);
        if (!result.ok()) {
          ++failures;
          return;
        }
        if (result->Fingerprint() != expected) ++mismatches;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(MvccEngineTest, ReadersObserveMonotonicCountsUnderAWriter) {
  Database db;
  EngineHandle engine(&db);
  ASSERT_TRUE(Exec(&engine, 0, "CREATE TABLE t (x INT)").ok());

  constexpr int kInserts = 150;
  std::atomic<bool> done{false};
  std::atomic<int> violations{0};
  std::atomic<int> failures{0};
  std::thread writer([&] {
    for (int i = 0; i < kInserts; ++i) {
      if (!Exec(&engine, 1, "INSERT INTO t VALUES (" + std::to_string(i) + ")")
               .ok()) {
        ++failures;
        break;
      }
    }
    done.store(true);
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&, r] {
      int64_t last = 0;
      while (!done.load()) {
        Result<exec::ResultSet> result =
            Exec(&engine, 10 + r, "SELECT count(*) FROM t");
        if (!result.ok()) {
          ++failures;
          return;
        }
        const int64_t count = result->rows[0][0].AsInt();
        // Committed state only ever grows here; a shrinking count would
        // mean a reader saw a half-applied statement.
        if (count < last || count > kInserts) ++violations;
        last = count;
      }
    });
  }
  writer.join();
  for (auto& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(violations.load(), 0);
  EXPECT_EQ(SingleInt(Exec(&engine, 0, "SELECT count(*) FROM t")), kInserts);
}

TEST(MvccEngineTest, ProvenanceStampingExcludesSnapshotReaders) {
  // A PROVENANCE SELECT stamps the used-by fields of every row it reads;
  // snapshot readers project them as prov_usedby. The stamping statement
  // holds the table exclusively, so a reader sees every row stamped by the
  // same (last completed) provenance query — never a torn mix, and never a
  // data race (this suite runs under ThreadSanitizer).
  Database db;
  EngineHandle engine(&db);
  ASSERT_TRUE(Exec(&engine, 0, "CREATE TABLE t (id INT)").ok());
  std::string insert = "INSERT INTO t VALUES (0)";
  for (int i = 1; i < 3000; ++i) insert += ", (" + std::to_string(i) + ")";
  ASSERT_TRUE(Exec(&engine, 0, insert).ok());

  constexpr int kStamps = 40;
  std::atomic<bool> done{false};
  std::atomic<int> failures{0};
  std::atomic<int> torn{0};
  std::thread stamper([&] {
    for (int q = 1; q <= kStamps; ++q) {
      DbRequest request;
      request.sql = "PROVENANCE SELECT id FROM t";
      request.query_id = q;
      request.process_id = 1;
      if (!engine.ExecuteSession(request, 1).ok()) ++failures;
    }
    done.store(true);
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&, r] {
      while (!done.load()) {
        Result<exec::ResultSet> result =
            Exec(&engine, 10 + r, "SELECT id, prov_usedby FROM t");
        if (!result.ok() || result->rows.size() != 3000) {
          ++failures;
          return;
        }
        const int64_t first = result->rows[0][1].AsInt();
        for (const storage::Tuple& row : result->rows) {
          if (row[1].AsInt() != first) {
            ++torn;
            break;
          }
        }
      }
    });
  }
  stamper.join();
  for (auto& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(torn.load(), 0);
  Result<exec::ResultSet> final_stamps =
      Exec(&engine, 0, "SELECT DISTINCT prov_usedby FROM t");
  ASSERT_TRUE(final_stamps.ok());
  ASSERT_EQ(final_stamps->rows.size(), 1u);
  EXPECT_EQ(final_stamps->rows[0][0].AsInt(), kStamps);
}

TEST(MvccEngineTest, TransfersPreserveTheSumUnderSnapshotReads) {
  Database db;
  EngineHandle engine(&db);
  ASSERT_TRUE(Exec(&engine, 0, "CREATE TABLE accounts (id INT, bal INT)").ok());
  constexpr int kAccounts = 8;
  constexpr int64_t kTotal = kAccounts * 100;
  {
    std::string sql = "INSERT INTO accounts VALUES ";
    for (int i = 0; i < kAccounts; ++i) {
      if (i != 0) sql += ",";
      sql += StrFormat("(%d,100)", i);
    }
    ASSERT_TRUE(Exec(&engine, 0, sql).ok());
  }

  std::atomic<bool> done{false};
  std::atomic<int> violations{0};
  std::atomic<int> failures{0};
  std::thread writer([&] {
    for (int i = 0; i < 40; ++i) {
      const int from = i % kAccounts;
      const int to = (i + 3) % kAccounts;
      if (!Exec(&engine, 1, "BEGIN").ok()) ++failures;
      (void)Exec(&engine, 1,
                 "UPDATE accounts SET bal = bal - 5 WHERE id = " +
                     std::to_string(from));
      (void)Exec(&engine, 1,
                 "UPDATE accounts SET bal = bal + 5 WHERE id = " +
                     std::to_string(to));
      // Every third transfer aborts: rolled-back halves must never be seen.
      const char* end = (i % 3 == 2) ? "ROLLBACK" : "COMMIT";
      if (!Exec(&engine, 1, end).ok()) ++failures;
    }
    done.store(true);
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&, r] {
      while (!done.load()) {
        Result<exec::ResultSet> result =
            Exec(&engine, 10 + r, "SELECT sum(bal) FROM accounts");
        if (!result.ok()) {
          ++failures;
          return;
        }
        // Snapshot isolation: a reader sees whole transactions or nothing —
        // the invariant SUM(bal) == kTotal holds at every epoch.
        if (result->rows[0][0].AsInt() != kTotal) ++violations;
      }
    });
  }
  writer.join();
  for (auto& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(violations.load(), 0);
  EXPECT_EQ(SingleInt(Exec(&engine, 0, "SELECT sum(bal) FROM accounts")),
            kTotal);
}

TEST(MvccEngineTest, DdlExcludesButNeverCorruptsConcurrentReaders) {
  Database db;
  EngineHandle engine(&db);
  ASSERT_TRUE(Exec(&engine, 0, "CREATE TABLE stable (x INT)").ok());
  ASSERT_TRUE(Exec(&engine, 0, "INSERT INTO stable VALUES (1), (2)").ok());

  std::atomic<bool> done{false};
  std::atomic<int> failures{0};
  std::thread ddl([&] {
    for (int i = 0; i < 25; ++i) {
      const std::string name = "tmp_" + std::to_string(i);
      if (!Exec(&engine, 1, "CREATE TABLE " + name + " (y INT)").ok()) {
        ++failures;
      }
      if (!Exec(&engine, 1, "DROP TABLE " + name).ok()) ++failures;
    }
    done.store(true);
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&, r] {
      while (!done.load()) {
        Result<exec::ResultSet> result =
            Exec(&engine, 10 + r, "SELECT count(*) FROM stable");
        if (!result.ok() || result->rows[0][0].AsInt() != 2) ++failures;
      }
    });
  }
  ddl.join();
  for (auto& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0);
}

// ---------------------------------------------------------------------------
// Snapshot GC
// ---------------------------------------------------------------------------

TEST(MvccEngineTest, ArchiveStaysBoundedUnderAutocommitUpdates) {
  Database db;
  EngineHandle engine(&db);
  ASSERT_TRUE(Exec(&engine, 0, "CREATE TABLE t (x INT)").ok());
  ASSERT_TRUE(Exec(&engine, 0, "INSERT INTO t VALUES (0)").ok());
  for (int i = 1; i <= 50; ++i) {
    ASSERT_TRUE(
        Exec(&engine, 0, "UPDATE t SET x = " + std::to_string(i)).ok());
  }
  // With no live snapshot, every statement's GC reclaims the pre-images the
  // statement archived; the archive never accumulates.
  Table* t = db.FindTable("t");
  ASSERT_NE(t, nullptr);
  EXPECT_LE(t->archive().size(), 1u);
}

TEST(MvccEngineTest, LiveSnapshotPinsArchiveUntilReleased) {
  Database db;
  EngineHandle engine(&db);
  ASSERT_TRUE(Exec(&engine, 0, "CREATE TABLE t (x INT)").ok());
  ASSERT_TRUE(Exec(&engine, 0, "INSERT INTO t VALUES (0)").ok());

  const int64_t pinned = engine.snapshots()->AcquireSnapshot();
  for (int i = 1; i <= 20; ++i) {
    ASSERT_TRUE(
        Exec(&engine, 0, "UPDATE t SET x = " + std::to_string(i)).ok());
  }
  Table* t = db.FindTable("t");
  ASSERT_NE(t, nullptr);
  // The pinned snapshot may still need every one of those pre-images.
  EXPECT_GE(t->archive().size(), 19u);

  engine.snapshots()->ReleaseSnapshot(pinned);
  ASSERT_TRUE(Exec(&engine, 0, "UPDATE t SET x = 21").ok());
  EXPECT_LE(t->archive().size(), 1u);
}

// ---------------------------------------------------------------------------
// Socket server: inter-query parallelism + stress
// ---------------------------------------------------------------------------

class MvccSocketTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto dir = MakeTempDir("mvcc_socket");
    ASSERT_TRUE(dir.ok());
    dir_ = *dir;
  }
  void TearDown() override { (void)RemoveAll(dir_); }

  std::string dir_;
};

TEST_F(MvccSocketTest, LongSelectsOverlapAcrossConnections) {
  Database db;
  EngineHandle engine(&db);
  LocalDbClient local(&engine);
  ASSERT_TRUE(local.Query("CREATE TABLE big (id INT, val INT)").ok());
  for (int base = 0; base < 2000; base += 500) {
    std::string sql = "INSERT INTO big VALUES ";
    for (int i = base; i < base + 500; ++i) {
      if (i != base) sql += ",";
      sql += StrFormat("(%d,%d)", i, i % 7);
    }
    ASSERT_TRUE(local.Query(sql).ok());
  }

  const std::string path = dir_ + "/db.sock";
  DbServer server(&engine, path, DbServerOptions{});
  ASSERT_TRUE(server.Start().ok());

  // A cross join with an unsatisfiable predicate: long-running, zero rows.
  const std::string heavy =
      "SELECT count(*) FROM big a, big b WHERE a.val + b.val < -1";
  obs::Counter* concurrent =
      obs::MetricsRegistry::Global().counter("engine.concurrent_reads");
  const int64_t reads_before = concurrent->Value();

  struct Interval {
    int64_t start = 0;
    int64_t end = 0;
  };
  Interval intervals[2];
  std::atomic<bool> go{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < 2; ++i) {
    threads.emplace_back([&, i] {
      auto client = SocketDbClient::Connect(path);
      if (!client.ok()) {
        ++failures;
        return;
      }
      while (!go.load()) std::this_thread::yield();
      intervals[i].start = NowNanos();
      Result<exec::ResultSet> result = (*client)->Query(heavy);
      intervals[i].end = NowNanos();
      if (!result.ok() || result->rows[0][0].AsInt() != 0) ++failures;
    });
  }
  go.store(true);
  for (auto& t : threads) t.join();
  server.Stop();

  ASSERT_EQ(failures.load(), 0);
  // Verified wall-clock overlap: each statement started before the other
  // finished. A serialized engine cannot produce this.
  EXPECT_LT(intervals[0].start, intervals[1].end);
  EXPECT_LT(intervals[1].start, intervals[0].end);
  EXPECT_GE(concurrent->Value() - reads_before, 2);
}

TEST_F(MvccSocketTest, MixedReadWriteStressOverSockets) {
  Database db;
  EngineHandle engine(&db);
  LocalDbClient local(&engine);
  ASSERT_TRUE(local.Query("CREATE TABLE t (x INT)").ok());

  const std::string path = dir_ + "/db.sock";
  DbServer server(&engine, path, DbServerOptions{});
  ASSERT_TRUE(server.Start().ok());

  constexpr int kWriters = 2;
  constexpr int kPerWriter = 40;
  std::atomic<int> writers_done{0};
  std::atomic<int> failures{0};
  std::atomic<int> violations{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      auto client = SocketDbClient::Connect(path);
      if (!client.ok()) {
        ++failures;
        ++writers_done;
        return;
      }
      for (int i = 0; i < kPerWriter; ++i) {
        if (!(*client)
                 ->Query("INSERT INTO t VALUES (" +
                         std::to_string(w * kPerWriter + i) + ")")
                 .ok()) {
          ++failures;
          break;
        }
      }
      ++writers_done;
    });
  }
  for (int r = 0; r < 4; ++r) {
    threads.emplace_back([&] {
      auto client = SocketDbClient::Connect(path);
      if (!client.ok()) {
        ++failures;
        return;
      }
      int64_t last = 0;
      while (writers_done.load() < kWriters) {
        Result<exec::ResultSet> result =
            (*client)->Query("SELECT count(*) FROM t");
        if (!result.ok()) {
          ++failures;
          return;
        }
        const int64_t count = result->rows[0][0].AsInt();
        if (count < last || count > kWriters * kPerWriter) ++violations;
        last = count;
      }
    });
  }
  for (auto& t : threads) t.join();
  Result<exec::ResultSet> final_count = local.Query("SELECT count(*) FROM t");
  server.Stop();
  ASSERT_TRUE(final_count.ok());
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(violations.load(), 0);
  EXPECT_EQ(final_count->rows[0][0].AsInt(), kWriters * kPerWriter);
}

// ---------------------------------------------------------------------------
// DbServer satellites: dedup TTL/LRU, disconnect poll interval
// ---------------------------------------------------------------------------

TEST_F(MvccSocketTest, DedupCacheIsLruBounded) {
  Database db;
  EngineHandle engine(&db);
  LocalDbClient local(&engine);
  ASSERT_TRUE(local.Query("CREATE TABLE t (x INT)").ok());

  const std::string path = dir_ + "/db.sock";
  DbServerOptions options;
  options.dedup_capacity = 2;
  options.dedup_ttl_millis = 0;  // LRU only
  DbServer server(&engine, path, options);
  ASSERT_TRUE(server.Start().ok());
  auto client = SocketDbClient::Connect(path);
  ASSERT_TRUE(client.ok());

  auto insert = [&](int64_t qid) {
    DbRequest request;
    request.process_id = 7;
    request.query_id = qid;
    request.sql = "INSERT INTO t VALUES (" + std::to_string(qid) + ")";
    return (*client)->Execute(request);
  };
  ASSERT_TRUE(insert(1).ok());
  ASSERT_TRUE(insert(2).ok());
  EXPECT_EQ(server.dedup_entries(), 2);

  // Replaying qid=1 refreshes it (LRU), so qid=3 evicts qid=2 instead.
  ASSERT_TRUE(insert(1).ok());
  EXPECT_EQ(server.deduped_requests(), 1);
  ASSERT_TRUE(insert(3).ok());
  EXPECT_EQ(server.dedup_entries(), 2);

  // qid=1 still cached: its retry is answered, no double insert.
  ASSERT_TRUE(insert(1).ok());
  EXPECT_EQ(server.deduped_requests(), 2);
  // qid=2 was evicted: its retry re-executes (a second row appears).
  ASSERT_TRUE(insert(2).ok());
  EXPECT_EQ(server.deduped_requests(), 2);
  Result<exec::ResultSet> count = local.Query("SELECT count(*) FROM t");
  server.Stop();
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count->rows[0][0].AsInt(), 4);  // qids 1,2,3 + re-executed 2
}

TEST_F(MvccSocketTest, DedupEntriesExpireAfterIdleTtl) {
  Database db;
  EngineHandle engine(&db);
  LocalDbClient local(&engine);
  ASSERT_TRUE(local.Query("CREATE TABLE t (x INT)").ok());

  const std::string path = dir_ + "/db.sock";
  DbServerOptions options;
  options.dedup_ttl_millis = 50;
  DbServer server(&engine, path, options);
  ASSERT_TRUE(server.Start().ok());
  auto client = SocketDbClient::Connect(path);
  ASSERT_TRUE(client.ok());

  DbRequest request;
  request.process_id = 9;
  request.query_id = 1;
  request.sql = "INSERT INTO t VALUES (1)";
  ASSERT_TRUE((*client)->Execute(request).ok());
  EXPECT_EQ(server.dedup_entries(), 1);

  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  // Past the idle TTL the entry is purged, so the retry executes afresh.
  ASSERT_TRUE((*client)->Execute(request).ok());
  EXPECT_EQ(server.deduped_requests(), 0);
  Result<exec::ResultSet> count = local.Query("SELECT count(*) FROM t");
  server.Stop();
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count->rows[0][0].AsInt(), 2);
}

TEST_F(MvccSocketTest, DisconnectWatcherHonorsConfiguredPollInterval) {
  Database db;
  EngineHandle engine(&db);
  LocalDbClient local(&engine);
  ASSERT_TRUE(local.Query("CREATE TABLE big (id INT, val INT)").ok());
  for (int base = 0; base < 2000; base += 500) {
    std::string sql = "INSERT INTO big VALUES ";
    for (int i = base; i < base + 500; ++i) {
      if (i != base) sql += ",";
      sql += StrFormat("(%d,%d)", i, i % 7);
    }
    ASSERT_TRUE(local.Query(sql).ok());
  }

  const std::string path = dir_ + "/db.sock";
  DbServerOptions options;
  options.disconnect_poll_millis = 5;
  DbServer server(&engine, path, options);
  ASSERT_TRUE(server.Start().ok());

  // Fire a heavy statement over a raw connection and hang up without
  // reading the response: the watcher (polling every 5 ms here) must cancel
  // the orphaned statement.
  int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  strcpy(addr.sun_path, path.c_str());
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  DbRequest heavy;
  heavy.sql = "SELECT count(*) FROM big a, big b WHERE a.val + b.val < -1";
  ASSERT_TRUE(SendFrame(fd, EncodeRequest(heavy)).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ::close(fd);

  const int64_t deadline = NowNanos() + 5'000'000'000;
  while (server.disconnect_cancels() == 0 && NowNanos() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  server.Stop();
  EXPECT_GE(server.disconnect_cancels(), 1);
}

}  // namespace
}  // namespace ldv::net
