// WAL streaming replication benchmark (DESIGN.md §14): an in-process
// primary + hot standby pair under semi-synchronous commit acks. Three
// quantities are measured:
//
//   1. Steady-state replication lag under write load — LSNs the standby
//      trails the primary by, sampled between commits (semi-sync keeps it
//      near zero at commit boundaries).
//   2. Standby read QPS vs primary read QPS — the standby serves SELECTs
//      from MVCC snapshots and must not tax reads; the hot-standby promise
//      is a usable read replica, not a cold spare.
//   3. Failover time — from killing the primary's server to the first
//      successful write through a RetryingDbClient::ForEndpoints client
//      configured [primary, standby], with the standby promoted in between.
//
// Writes the smoke record (bench/record.h) to argv[1], default
// "BENCH_REPL.json"; tools/bench_smoke_check.py enforces
// failover <= 2 s and standby reads >= 0.8x primary on boxes with >= 4
// hardware threads, a loud SKIP plus relaxed floors otherwise.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "record.h"
#include "exec/wal_redo.h"
#include "net/db_client.h"
#include "net/db_server.h"
#include "net/retrying_db_client.h"
#include "repl/primary.h"
#include "repl/replication.h"
#include "repl/standby.h"
#include "storage/recovery.h"
#include "storage/wal.h"
#include "util/fsutil.h"

namespace {

using ldv::Result;
using ldv::Status;

constexpr int kLoadRows = 2000;              // semi-sync write-load phase
constexpr int64_t kReadNanos = 300'000'000;  // per read-QPS side

/// One in-process server: engine with WAL, replication manager, socket
/// server with the repl verbs wired, optional standby replicator — the same
/// hookup ldv_server_main does.
struct Node {
  ldv::storage::Database db;
  std::unique_ptr<ldv::net::EngineHandle> engine;
  std::unique_ptr<ldv::repl::ReplicationManager> manager;
  std::unique_ptr<ldv::net::DbServer> server;
  std::unique_ptr<ldv::repl::StandbyReplicator> replicator;

  ~Node() {
    if (manager != nullptr) manager->Shutdown();
    if (server != nullptr) server->Stop();
    if (replicator != nullptr) replicator->Stop();
  }
};

Status OpenNode(const std::string& root, const std::string& name,
                const std::string& replicate_from, Node* node) {
  const std::string data_dir = ldv::JoinPath(root, name + "-data");
  const std::string wal_dir = ldv::JoinPath(root, name + "-wal");
  ldv::storage::RecoveryStats stats;
  LDV_RETURN_IF_ERROR(
      ldv::exec::RecoverWithWal(&node->db, data_dir, wal_dir, &stats));
  LDV_ASSIGN_OR_RETURN(
      std::unique_ptr<ldv::storage::Wal> wal,
      ldv::storage::Wal::Open(wal_dir, ldv::storage::WalOptions{},
                              stats.next_lsn));
  node->engine = std::make_unique<ldv::net::EngineHandle>(&node->db);
  ldv::net::EngineDurabilityOptions durability;
  durability.data_dir = data_dir;
  node->engine->AttachWal(std::move(wal), durability);
  node->manager =
      std::make_unique<ldv::repl::ReplicationManager>(node->engine->wal());
  ldv::repl::ReplicationManager* manager = node->manager.get();
  node->engine->set_commit_ack_barrier(
      [manager](uint64_t lsn) { return manager->WaitDurable(lsn); });
  node->engine->set_wal_retire_floor(
      [manager] { return manager->RetireFloor(); });
  node->server = std::make_unique<ldv::net::DbServer>(
      node->engine.get(), ldv::JoinPath(root, name + ".sock"));
  if (!replicate_from.empty()) {
    ldv::repl::StandbyReplicator::Options options;
    options.standby_name = name;
    node->replicator = std::make_unique<ldv::repl::StandbyReplicator>(
        node->engine.get(), replicate_from, options);
    node->manager->set_role("standby");
  }
  ldv::repl::StandbyReplicator* replicator = node->replicator.get();
  node->server->set_repl_handler(
      [manager, replicator](const ldv::net::DbRequest& request)
          -> Result<ldv::exec::ResultSet> {
        if (request.kind == ldv::net::RequestKind::kPromote &&
            replicator != nullptr) {
          const uint64_t applied = replicator->Promote();
          manager->set_role("primary");
          return ldv::repl::MakePromoteResult("primary", applied);
        }
        return manager->HandleRequest(request);
      });
  LDV_RETURN_IF_ERROR(node->server->Start());
  if (node->replicator != nullptr) node->replicator->Start();
  return Status::Ok();
}

Result<ldv::exec::ResultSet> Run(Node* node, const std::string& sql) {
  ldv::net::DbRequest request;
  request.sql = sql;
  return node->engine->Execute(request);
}

/// Aggregating SELECT over the replicated table — identical text on both
/// sides so the ratio isolates the standby's snapshot read path.
double MeasureReadQps(Node* node) {
  const std::string sql =
      "SELECT count(*), sum(v), min(v), max(v) FROM t "
      "WHERE id >= 100 AND v < 1000000";
  const int64_t start = ldv::NowNanos();
  int64_t completed = 0;
  while (ldv::NowNanos() - start < kReadNanos) {
    for (int burst = 0; burst < 20; ++burst) {
      Result<ldv::exec::ResultSet> rows = Run(node, sql);
      if (!rows.ok()) {
        std::fprintf(stderr, "bench_repl: read failed: %s\n",
                     rows.status().ToString().c_str());
        std::exit(1);
      }
      ++completed;
    }
  }
  const double seconds = static_cast<double>(ldv::NowNanos() - start) / 1e9;
  return static_cast<double>(completed) / seconds;
}

int Fail(const char* what, const Status& status) {
  std::fprintf(stderr, "bench_repl: %s: %s\n", what, status.ToString().c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out = argc > 1 ? argv[1] : "BENCH_REPL.json";

  Result<std::string> root = ldv::MakeTempDir("bench_repl");
  if (!root.ok()) return Fail("mktemp", root.status());

  Node primary;
  Status up = OpenNode(*root, "primary", "", &primary);
  if (!up.ok()) return Fail("primary open", up);
  Node standby;
  up = OpenNode(*root, "standby", primary.server->socket_path(), &standby);
  if (!up.ok()) return Fail("standby open", up);

  for (int waited = 0; primary.manager->standby_count() < 1; waited += 10) {
    if (waited >= 10'000) {
      std::fprintf(stderr, "bench_repl: standby never subscribed\n");
      return 1;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }

  Result<ldv::exec::ResultSet> created =
      Run(&primary, "CREATE TABLE t (id INT, v INT)");
  if (!created.ok()) return Fail("create", created.status());

  // Phase 1: semi-sync write load with lag sampling.
  int64_t lag_sum = 0;
  uint64_t lag_max = 0;
  int64_t lag_samples = 0;
  const int64_t load_start = ldv::NowNanos();
  for (int i = 0; i < kLoadRows; ++i) {
    Result<ldv::exec::ResultSet> inserted =
        Run(&primary, "INSERT INTO t VALUES (" + std::to_string(i) + ", " +
                          std::to_string(i * 7 % 9973) + ")");
    if (!inserted.ok()) return Fail("insert", inserted.status());
    if (i % 16 == 0) {
      const uint64_t head = primary.engine->wal()->last_appended_lsn();
      const uint64_t applied = standby.replicator->applied_lsn();
      const uint64_t lag = head > applied ? head - applied : 0;
      lag_sum += static_cast<int64_t>(lag);
      lag_max = std::max(lag_max, lag);
      ++lag_samples;
    }
  }
  const double load_seconds =
      static_cast<double>(ldv::NowNanos() - load_start) / 1e9;
  const double write_qps = static_cast<double>(kLoadRows) / load_seconds;
  const double lag_mean =
      static_cast<double>(lag_sum) / static_cast<double>(lag_samples);

  // Phase 2: read QPS on both sides (the standby reads MVCC snapshots while
  // its replicator keeps long-polling an idle stream).
  const double primary_read_qps = MeasureReadQps(&primary);
  const double standby_read_qps = MeasureReadQps(&standby);
  const double read_ratio = standby_read_qps / primary_read_qps;

  // Phase 3: failover. The client is configured [primary, standby] and
  // already routed one write; then the primary dies, the standby is
  // promoted, and the clock runs until the client's next write lands.
  std::unique_ptr<ldv::net::RetryingDbClient> client =
      ldv::net::RetryingDbClient::ForEndpoints(
          {primary.server->socket_path(), standby.server->socket_path()});
  ldv::net::DbRequest write;
  write.sql = "INSERT INTO t VALUES (-1, -1)";
  Result<ldv::exec::ResultSet> routed = client->Execute(write);
  if (!routed.ok()) return Fail("pre-failover write", routed.status());

  primary.manager->Shutdown();
  primary.server->Stop();
  const int64_t failover_start = ldv::NowNanos();
  standby.replicator->Promote();
  standby.manager->set_role("primary");
  double failover_ms = -1;
  write.sql = "INSERT INTO t VALUES (-2, -2)";
  for (int attempt = 0; attempt < 1000; ++attempt) {
    if (client->Execute(write).ok()) {
      failover_ms =
          static_cast<double>(ldv::NowNanos() - failover_start) / 1e6;
      break;
    }
  }
  if (failover_ms < 0) {
    std::fprintf(stderr, "bench_repl: no write succeeded after failover\n");
    return 1;
  }

  std::printf(
      "bench_repl: %.0f writes/s semi-sync (lag mean %.2f max %llu lsn), "
      "reads %.0f qps primary vs %.0f qps standby = %.2fx, failover %.1f ms "
      "(%lld endpoint rotations)\n",
      write_qps, lag_mean, static_cast<unsigned long long>(lag_max),
      primary_read_qps, standby_read_qps, read_ratio, failover_ms,
      static_cast<long long>(client->failovers()));

  (void)ldv::RemoveAll(*root);
  return ldv::bench::WriteRecord(
      out, "repl",
      {{"write_qps", write_qps},
       {"steady_lag_mean_lsn", lag_mean},
       {"steady_lag_max_lsn", static_cast<double>(lag_max)},
       {"primary_read_qps", primary_read_qps},
       {"standby_read_qps", standby_read_qps},
       {"failover_ms", failover_ms}});
}
