// crash_torture: kill-at-faultpoint durability torture for the WAL +
// recovery path.
//
// Each iteration forks a writer child that runs a random DML workload
// through the engine (explicit transactions, rollbacks, concurrent writer
// threads, periodic checkpoints) with one fault point armed in crash mode
// (`wal.append`, `wal.tear`, `wal.fsync`, `fs.write`, `fs.rename`), so the
// child _exit(2)s at exactly the chosen call — mid-commit, mid-group-write,
// or mid-checkpoint. The parent then recovers the database from snapshot +
// WAL and checks:
//
//   1. Committed-prefix invariant. Before issuing each commit unit the
//      child appends a durable intent line; after the engine acknowledges
//      it appends an ack line. Every writer thread owns one table, so the
//      recovered content of thread t's table must equal its carried-forward
//      baseline plus a *prefix* of this iteration's intents, and every
//      acknowledged unit must be inside that prefix (an ack means durable).
//   2. Recovery idempotence. Recovering the same snapshot + log twice must
//      produce identical state (recovery never appends to the log, and
//      torn-tail truncation is durable the first time).
//
// A torn final WAL record must be truncated, never fatal; recovery failure
// or a lost acknowledged unit fails the run.
//
// --repl switches to the replication chaos campaign: the parent hosts a hot
// standby streaming from a forked primary (semi-sync commit acks), kills the
// primary at `wal.append` / `wal.fsync` / `net.send` mid-load, randomly
// severs the stream (`repl.stream`), promotes the standby, and verifies zero
// committed-data loss at failover plus bit-identical standby restart.
// Every fifth iteration forces catch-up from the WAL segment files (1-byte
// live ring + severed stream) and asserts it actually happened.
//
// Usage:
//   crash_torture [--repl] [--iters N] [--threads K] [--units M] [--seed S]
//                 [--workdir DIR] [--checkpoint-every C] [--keep]

#include <sys/types.h>
#include <sys/wait.h>
#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/fault.h"
#include "exec/wal_redo.h"
#include "net/db_client.h"
#include "net/db_server.h"
#include "obs/metrics.h"
#include "repl/primary.h"
#include "repl/standby.h"
#include "storage/recovery.h"
#include "storage/wal.h"
#include "util/fsutil.h"
#include "util/rng.h"
#include "util/strings.h"

namespace {

using ldv::Result;
using ldv::Status;

// ---------------------------------------------------------------------------
// Workload model and oracle
// ---------------------------------------------------------------------------

// One DML against the thread's own table. Duplicate ids are allowed (no
// primary keys), so the oracle keeps a multiset of values per id: UPDATE
// rewrites every copy, DELETE removes every copy.
struct Op {
  enum class Kind { kInsert, kUpdate, kDelete } kind = Kind::kInsert;
  int64_t id = 0;
  int64_t v = 0;

  std::string Sql(const std::string& table) const {
    switch (kind) {
      case Kind::kInsert:
        return ldv::StrFormat("INSERT INTO %s VALUES (%lld, %lld)",
                              table.c_str(), static_cast<long long>(id),
                              static_cast<long long>(v));
      case Kind::kUpdate:
        return ldv::StrFormat("UPDATE %s SET v = %lld WHERE id = %lld",
                              table.c_str(), static_cast<long long>(v),
                              static_cast<long long>(id));
      case Kind::kDelete:
        return ldv::StrFormat("DELETE FROM %s WHERE id = %lld", table.c_str(),
                              static_cast<long long>(id));
    }
    return "";
  }

  std::string Encode() const {
    const char* k = kind == Kind::kInsert   ? "ins"
                    : kind == Kind::kUpdate ? "upd"
                                            : "del";
    return ldv::StrFormat("%s:%lld:%lld", k, static_cast<long long>(id),
                          static_cast<long long>(v));
  }
};

// One commit unit: a single autocommit statement or an explicit
// BEGIN..COMMIT group. Atomic either way — fully in the recovered state or
// fully absent.
struct Unit {
  std::vector<Op> ops;
};

// id -> values of the live copies.
using TableOracle = std::map<int64_t, std::vector<int64_t>>;

void ApplyToOracle(const Unit& unit, TableOracle* oracle) {
  for (const Op& op : unit.ops) {
    switch (op.kind) {
      case Op::Kind::kInsert:
        (*oracle)[op.id].push_back(op.v);
        break;
      case Op::Kind::kUpdate: {
        auto it = oracle->find(op.id);
        if (it != oracle->end()) {
          for (int64_t& v : it->second) v = op.v;
        }
        break;
      }
      case Op::Kind::kDelete:
        oracle->erase(op.id);
        break;
    }
  }
}

// Canonical "id=v;" listing, sorted by (id, v) — comparable against a
// table scan.
std::string OracleToString(const TableOracle& oracle) {
  std::string out;
  for (const auto& [id, values] : oracle) {
    std::vector<int64_t> sorted = values;
    std::sort(sorted.begin(), sorted.end());
    for (int64_t v : sorted) {
      out += ldv::StrFormat("%lld=%lld;", static_cast<long long>(id),
                            static_cast<long long>(v));
    }
  }
  return out;
}

Op RandomOp(ldv::Rng* rng) {
  Op op;
  int64_t dice = rng->Uniform(0, 9);
  op.kind = dice < 5   ? Op::Kind::kInsert
            : dice < 8 ? Op::Kind::kUpdate
                       : Op::Kind::kDelete;
  op.id = rng->Uniform(0, 255);
  op.v = rng->Uniform(0, 999'999);
  return op;
}

std::string EncodeUnit(const Unit& unit) {
  std::string out;
  for (size_t i = 0; i < unit.ops.size(); ++i) {
    if (i > 0) out += ",";
    out += unit.ops[i].Encode();
  }
  return out;
}

bool DecodeUnit(const std::string& text, Unit* unit) {
  unit->ops.clear();
  for (const std::string& part : ldv::Split(text, ',')) {
    std::vector<std::string> fields = ldv::Split(part, ':');
    if (fields.size() != 3) return false;
    Op op;
    if (fields[0] == "ins") {
      op.kind = Op::Kind::kInsert;
    } else if (fields[0] == "upd") {
      op.kind = Op::Kind::kUpdate;
    } else if (fields[0] == "del") {
      op.kind = Op::Kind::kDelete;
    } else {
      return false;
    }
    op.id = std::atoll(fields[1].c_str());
    op.v = std::atoll(fields[2].c_str());
    unit->ops.push_back(op);
  }
  return true;
}

// ---------------------------------------------------------------------------
// Durable intent log (the verifier's source of truth)
// ---------------------------------------------------------------------------

class IntentLog {
 public:
  bool OpenForAppend(const std::string& path) {
    fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    return fd_ >= 0;
  }

  // Intent lines must be durable *before* the unit is issued: a committed
  // unit whose intent line was lost would look like corruption to the
  // verifier.
  bool AppendDurable(const std::string& line) {
    return Append(line) && ::fsync(fd_) == 0;
  }

  // Ack lines tolerate loss (a lost ack only weakens the check).
  bool Append(const std::string& line) {
    std::string data = line + "\n";
    return ::write(fd_, data.data(), data.size()) ==
           static_cast<ssize_t>(data.size());
  }

  ~IntentLog() {
    if (fd_ >= 0) ::close(fd_);
  }

 private:
  int fd_ = -1;
};

// ---------------------------------------------------------------------------
// Writer child
// ---------------------------------------------------------------------------

struct TortureConfig {
  int iters = 25;
  int threads = 4;
  int units = 40;  // commit units per thread per iteration
  uint64_t seed = 42;
  std::string workdir;
  int64_t checkpoint_every = 8;
  bool keep = false;
  bool repl = false;  // replication chaos campaign (kill + promote)
};

std::string TableName(int thread) { return "t" + std::to_string(thread); }

const char* const kCrashPoints[] = {
    "wal.append", "wal.tear", "wal.fsync", "fs.write", "fs.rename",
};

// Opens the recovered database for writing: recovery, a fresh WAL handle
// continuing the LSN sequence, engine with checkpointing armed.
Status OpenEngine(const std::string& data_dir, const std::string& wal_dir,
                  int64_t checkpoint_every, ldv::storage::Database* db,
                  std::unique_ptr<ldv::net::EngineHandle>* engine) {
  ldv::storage::RecoveryStats stats;
  LDV_RETURN_IF_ERROR(ldv::exec::RecoverWithWal(db, data_dir, wal_dir, &stats));
  LDV_ASSIGN_OR_RETURN(
      std::unique_ptr<ldv::storage::Wal> wal,
      ldv::storage::Wal::Open(wal_dir, ldv::storage::WalOptions{},
                              stats.next_lsn));
  *engine = std::make_unique<ldv::net::EngineHandle>(db);
  ldv::net::EngineDurabilityOptions durability;
  durability.data_dir = data_dir;
  durability.checkpoint_every = checkpoint_every;
  (*engine)->AttachWal(std::move(wal), durability);
  return Status::Ok();
}

// Creates every writer thread's table and makes them durable. Tables must
// exist before any fault is armed: their CREATE belongs to the baseline,
// not to an intent prefix.
Status CreateTables(const TortureConfig& config,
                    ldv::net::EngineHandle* engine) {
  for (int t = 0; t < config.threads; ++t) {
    ldv::net::DbRequest create;
    create.sql = "CREATE TABLE IF NOT EXISTS " + TableName(t) +
                 " (id INT, v INT)";
    Result<ldv::exec::ResultSet> created = engine->Execute(create);
    if (!created.ok()) return created.status();
  }
  return engine->FlushWal();
}

// The writer workload: one thread per table, intent-log discipline as
// documented at the top of the file. Shared by the plain and --repl
// children.
void RunWriterThreads(const TortureConfig& config,
                      ldv::net::EngineHandle* engine,
                      const std::string& intent_dir, uint64_t iter_seed) {
  std::vector<std::thread> writers;
  for (int t = 0; t < config.threads; ++t) {
    writers.emplace_back([&, t] {
      ldv::Rng rng(iter_seed * 0x9E3779B9ULL + static_cast<uint64_t>(t));
      IntentLog log;
      if (!log.OpenForAppend(
              ldv::JoinPath(intent_dir, "intent-" + std::to_string(t) +
                                            ".log"))) {
        return;
      }
      const std::string table = TableName(t);
      const int64_t session = t + 1;
      for (int u = 0; u < config.units; ++u) {
        // Occasionally open a transaction just to roll it back: aborted
        // work must never reach the log nor disturb redo determinism.
        if (rng.Bernoulli(0.1)) {
          ldv::net::DbRequest req;
          req.sql = "BEGIN";
          if (engine->ExecuteSession(req, session).ok()) {
            req.sql = RandomOp(&rng).Sql(table);
            (void)engine->ExecuteSession(req, session);
            req.sql = "ROLLBACK";
            (void)engine->ExecuteSession(req, session);
          }
        }

        Unit unit;
        const bool txn = rng.Bernoulli(0.3);
        const int64_t ops = txn ? rng.Uniform(2, 4) : 1;
        for (int64_t i = 0; i < ops; ++i) unit.ops.push_back(RandomOp(&rng));

        if (!log.AppendDurable("I " + EncodeUnit(unit))) return;
        // A failed unit ends this writer's stream: the verifier's oracle
        // needs the committed units to be a *prefix* of the intent log, so
        // pressing on past a failure (leaving a hole) would make a correct
        // recovery look corrupt. The failure itself is loud — an engine
        // that refuses writes mid-campaign is worth investigating.
        Status failed = Status::Ok();
        if (txn) {
          ldv::net::DbRequest req;
          req.sql = "BEGIN";
          failed = engine->ExecuteSession(req, session).status();
          for (const Op& op : unit.ops) {
            if (!failed.ok()) break;
            req.sql = op.Sql(table);
            failed = engine->ExecuteSession(req, session).status();
          }
          if (failed.ok()) {
            req.sql = "COMMIT";
            failed = engine->ExecuteSession(req, session).status();
          } else {
            req.sql = "ROLLBACK";
            (void)engine->ExecuteSession(req, session);
          }
        } else {
          ldv::net::DbRequest req;
          req.sql = unit.ops[0].Sql(table);
          failed = engine->ExecuteSession(req, session).status();
        }
        if (!failed.ok()) {
          std::fprintf(stderr,
                       "crash_torture: writer %s unit %d failed (stopping "
                       "this writer): %s\n",
                       table.c_str(), u, failed.ToString().c_str());
          return;
        }
        if (!log.Append("A")) return;
      }
    });
  }
  for (std::thread& w : writers) w.join();
}

// Runs in the forked child: recover, arm the crash fault, hammer the engine
// until the fault kills the process (or the workload completes and the
// child exits 0). Exit code 3 = setup failure (always fails the run).
int RunWriterChild(const TortureConfig& config, const std::string& data_dir,
                   const std::string& wal_dir, const std::string& intent_dir,
                   uint64_t iter_seed, const std::string& fault_spec) {
  ldv::storage::Database db;
  std::unique_ptr<ldv::net::EngineHandle> engine;
  Status opened = OpenEngine(data_dir, wal_dir, config.checkpoint_every, &db,
                             &engine);
  if (!opened.ok()) {
    std::fprintf(stderr, "child: open failed: %s\n",
                 opened.ToString().c_str());
    return 3;
  }

  Status created = CreateTables(config, engine.get());
  if (!created.ok()) {
    std::fprintf(stderr, "child: create failed: %s\n",
                 created.ToString().c_str());
    return 3;
  }

  if (!fault_spec.empty()) {
    ldv::FaultInjector& injector = ldv::FaultInjector::Instance();
    Status configured = injector.ConfigureFromSpec(fault_spec);
    if (!configured.ok()) {
      std::fprintf(stderr, "child: bad fault spec: %s\n",
                   configured.ToString().c_str());
      return 3;
    }
    injector.Enable(iter_seed);
  }

  RunWriterThreads(config, engine.get(), intent_dir, iter_seed);
  ldv::FaultInjector::Instance().Disable();
  return 0;
}

// The forked primary of a --repl iteration: a full replicating server
// (engine + ReplicationManager + DbServer) under semi-sync commit acks with
// eviction disabled, so a commit acknowledgement *proves* the standby holds
// the unit — the invariant the failover check rides on. No commit happens
// before the parent's standby subscribes: from the first unit on, the ack
// barrier vouches for it and the retire floor protects the segments it may
// still need.
int RunReplPrimaryChild(const TortureConfig& config,
                        const std::string& data_dir,
                        const std::string& wal_dir,
                        const std::string& intent_dir,
                        const std::string& socket_path,
                        const std::string& stats_path, uint64_t iter_seed,
                        const std::string& fault_spec,
                        size_t ring_capacity_bytes) {
  ldv::storage::Database db;
  std::unique_ptr<ldv::net::EngineHandle> engine;
  Status opened = OpenEngine(data_dir, wal_dir, config.checkpoint_every, &db,
                             &engine);
  if (!opened.ok()) {
    std::fprintf(stderr, "child: open failed: %s\n",
                 opened.ToString().c_str());
    return 3;
  }

  ldv::repl::ReplicationManager::Options manager_options;
  manager_options.ack_timeout_millis = 0;  // commits wait for the standby
  manager_options.ring_capacity_bytes = ring_capacity_bytes;
  ldv::repl::ReplicationManager manager(engine->wal(), manager_options);
  engine->set_commit_ack_barrier(
      [&manager](uint64_t lsn) { return manager.WaitDurable(lsn); });
  engine->set_wal_retire_floor([&manager] { return manager.RetireFloor(); });

  ldv::net::DbServer server(engine.get(), socket_path);
  server.set_repl_handler([&manager](const ldv::net::DbRequest& request) {
    return manager.HandleRequest(request);
  });
  Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "child: server start failed: %s\n",
                 started.ToString().c_str());
    return 3;
  }

  for (int waited = 0; manager.standby_count() < 1; waited += 10) {
    if (waited >= 30'000) {
      std::fprintf(stderr, "child: standby never subscribed\n");
      return 3;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }

  Status created = CreateTables(config, engine.get());
  if (!created.ok()) {
    std::fprintf(stderr, "child: create failed: %s\n",
                 created.ToString().c_str());
    return 3;
  }

  if (!fault_spec.empty()) {
    ldv::FaultInjector& injector = ldv::FaultInjector::Instance();
    Status configured = injector.ConfigureFromSpec(fault_spec);
    if (!configured.ok()) {
      std::fprintf(stderr, "child: bad fault spec: %s\n",
                   configured.ToString().c_str());
      return 3;
    }
    injector.Enable(iter_seed);
  }

  RunWriterThreads(config, engine.get(), intent_dir, iter_seed);
  ldv::FaultInjector::Instance().Disable();

  if (!stats_path.empty()) {
    // Forced catch-up iterations run clean so this report survives: the
    // parent asserts the segment-file path actually served batches.
    const long long catchups = ldv::obs::MetricsRegistry::Global()
                                   .counter("repl.disk_catchup_batches")
                                   ->Value();
    FILE* stats = std::fopen(stats_path.c_str(), "w");
    if (stats != nullptr) {
      std::fprintf(stats, "%lld\n", catchups);
      std::fclose(stats);
    }
  }
  manager.Shutdown();
  server.Stop();
  return 0;
}

// ---------------------------------------------------------------------------
// Parent-side verification
// ---------------------------------------------------------------------------

struct ThreadIntents {
  std::vector<Unit> units;
  size_t acked = 0;  // acks are a prefix: the writer issues sequentially
};

bool LoadIntents(const std::string& path, ThreadIntents* out) {
  *out = ThreadIntents{};
  if (!ldv::FileExists(path)) return true;  // thread never got started
  Result<std::string> text = ldv::ReadFileToString(path);
  if (!text.ok()) return false;
  for (const std::string& line : ldv::Split(*text, '\n')) {
    if (line.empty()) continue;
    if (line == "A") {
      ++out->acked;
    } else if (line.rfind("I ", 0) == 0) {
      Unit unit;
      if (!DecodeUnit(line.substr(2), &unit)) return false;
      out->units.push_back(std::move(unit));
    } else {
      return false;
    }
  }
  return out->acked <= out->units.size();
}

// Scans one recovered table into the oracle's canonical string form.
Result<std::string> ScanTable(ldv::exec::Executor* executor,
                              const std::string& table) {
  Result<ldv::exec::ResultSet> rows = executor->Execute(
      "SELECT id, v FROM " + table + " ORDER BY id, v", {});
  if (!rows.ok()) return rows.status();
  std::string out;
  for (const auto& row : rows->rows) {
    out += ldv::StrFormat("%lld=%lld;",
                          static_cast<long long>(row[0].AsInt()),
                          static_cast<long long>(row[1].AsInt()));
  }
  return out;
}

int Fail(const char* what, const Status& status) {
  std::fprintf(stderr, "crash_torture: %s: %s\n", what,
               status.ToString().c_str());
  return 1;
}

struct TortureTotals {
  int64_t crashes = 0;
  int64_t clean_exits = 0;
  int64_t torn_tails = 0;
  int64_t units_committed = 0;
  int64_t txns_replayed = 0;
  int64_t failovers = 0;
  int64_t disk_catchup_batches = 0;
  std::map<std::string, int64_t> crashes_by_point;
};

// ---------------------------------------------------------------------------
// Replication chaos (--repl)
// ---------------------------------------------------------------------------

// Kill points for the replicating primary: mid-WAL-append, mid-fsync, and
// mid-response-send (dying with a replication batch on the wire).
const char* const kReplCrashPoints[] = {"wal.append", "wal.fsync", "net.send"};

// The parent-side hot standby — the survivor of every kill. It lives in the
// parent process so a primary crash never takes it down.
struct StandbyNode {
  ldv::storage::Database db;
  std::unique_ptr<ldv::net::EngineHandle> engine;
  std::unique_ptr<ldv::repl::StandbyReplicator> replicator;
};

Status OpenStandby(const std::string& data_dir, const std::string& wal_dir,
                   const std::string& primary_socket, StandbyNode* node) {
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
  ldv::repl::StandbyReplicator::Options options;
  options.standby_name = "torture-standby";
  options.retry_backoff_millis = 50;  // reconnect fast after a severance
  node->replicator = std::make_unique<ldv::repl::StandbyReplicator>(
      node->engine.get(), primary_socket, options);
  node->replicator->Start();
  return Status::Ok();
}

// Scans through the engine (the MVCC read path the standby serves clients
// from); "" when the table never reached this node.
Result<std::string> ScanStandby(StandbyNode* node, const std::string& table) {
  if (node->db.FindTable(table) == nullptr) return std::string();
  ldv::net::DbRequest request;
  request.sql = "SELECT id, v FROM " + table + " ORDER BY id, v";
  Result<ldv::exec::ResultSet> rows = node->engine->Execute(request);
  if (!rows.ok()) return rows.status();
  std::string out;
  for (const auto& row : rows->rows) {
    out += ldv::StrFormat("%lld=%lld;",
                          static_cast<long long>(row[0].AsInt()),
                          static_cast<long long>(row[1].AsInt()));
  }
  return out;
}

// The replication campaign. Each iteration: re-seed the standby from a base
// backup of the primary's verified durable state, start it streaming, fork
// a primary under load, kill it at a fault point (or let it finish), then
// promote the standby and verify:
//
//   1. Zero committed-data loss at failover: every acknowledged unit
//      (semi-sync — acknowledged implies standby-durable) is in the
//      promoted standby's tables.
//   2. The promoted state is an intent prefix on top of the baseline (the
//      stream never invents, drops, or reorders writes).
//   3. Standby restart determinism: recovering the standby's own data dir +
//      WAL from scratch reproduces the promoted tables exactly.
//   4. The primary's own recovery stays idempotent and retains at least
//      every acknowledged unit (same oracle as the plain campaign).
//
// Every fifth iteration runs clean with a 1-byte live ring and the stream
// severed at random (`repl.stream`), so every batch must come off the WAL
// segment files — the child's disk-catch-up counter proves the path ran.
int RunReplTorture(const TortureConfig& config) {
  const std::string primary_data =
      ldv::JoinPath(config.workdir, "primary-data");
  const std::string primary_wal = ldv::JoinPath(config.workdir, "primary-wal");
  const std::string standby_data =
      ldv::JoinPath(config.workdir, "standby-data");
  const std::string standby_wal = ldv::JoinPath(config.workdir, "standby-wal");
  const std::string intent_dir = ldv::JoinPath(config.workdir, "intents");
  const std::string socket_path = ldv::JoinPath(config.workdir, "primary.sock");
  const std::string stats_path = ldv::JoinPath(config.workdir, "child-stats");
  Status made = ldv::MakeDirs(intent_dir);
  if (!made.ok()) return Fail("mkdir", made);

  std::vector<TableOracle> baseline(static_cast<size_t>(config.threads));
  TortureTotals totals;

  for (int iter = 0; iter < config.iters; ++iter) {
    const uint64_t iter_seed =
        config.seed * 1000003ULL + static_cast<uint64_t>(iter);
    ldv::Rng plan_rng(iter_seed ^ 0xD1B54A32D192ED03ULL);

    // Every fifth iteration forces catch-up-from-segments; the rest mix
    // random kills, random severance, and occasionally a small ring.
    const bool catchup_iter = iter % 5 == 1;
    std::string fault_spec;
    std::string point;
    size_t ring_capacity = 4u << 20;
    bool sever = true;
    if (catchup_iter) {
      ring_capacity = 1;  // the ring retains nothing: live serving impossible
    } else {
      sever = plan_rng.Bernoulli(0.5);
      if (plan_rng.Bernoulli(0.3)) ring_capacity = 4096;
      if (!plan_rng.Bernoulli(0.15)) {
        point = kReplCrashPoints[plan_rng.Uniform(
            0, static_cast<int64_t>(std::size(kReplCrashPoints)) - 1)];
        const int64_t commits =
            static_cast<int64_t>(config.threads) * config.units;
        // net.send also fires on long-poll responses; give it headroom.
        const int64_t after = point == "net.send"
                                  ? plan_rng.Uniform(0, commits * 3)
                                  : plan_rng.Uniform(0, commits);
        fault_spec = ldv::StrFormat("%s=after:%lld,crash:1", point.c_str(),
                                    static_cast<long long>(after));
      }
    }

    for (int t = 0; t < config.threads; ++t) {
      (void)ldv::RemoveAll(
          ldv::JoinPath(intent_dir, "intent-" + std::to_string(t) + ".log"));
    }
    (void)ldv::RemoveAll(stats_path);

    // Base backup: each iteration's standby starts from a copy of the
    // primary's verified durable state — a promoted standby never rejoins
    // the stream.
    (void)ldv::RemoveAll(standby_data);
    (void)ldv::RemoveAll(standby_wal);
    if (ldv::DirExists(primary_data)) {
      Status copied = ldv::CopyTree(primary_data, standby_data);
      if (!copied.ok()) return Fail("base backup (data)", copied);
    }
    if (ldv::DirExists(primary_wal)) {
      Status copied = ldv::CopyTree(primary_wal, standby_wal);
      if (!copied.ok()) return Fail("base backup (wal)", copied);
    }

    // Fork first. Invariant: no other parent thread runs at fork time (the
    // shared pool's workers, if any, are parked on their condition
    // variable). A thread caught holding a lock — under ASan, an allocator
    // region mutex — leaves it locked forever in the child, whose first
    // allocating thread then hangs. So the standby's streaming thread
    // starts, and the parent-side sever spec is armed, only after the fork;
    // the child waits for the standby to subscribe before it commits.
    pid_t pid = fork();
    if (pid < 0) return Fail("fork", Status::IOError(strerror(errno)));
    if (pid == 0) {
      _exit(RunReplPrimaryChild(config, primary_data, primary_wal, intent_dir,
                                socket_path, catchup_iter ? stats_path : "",
                                iter_seed, fault_spec, ring_capacity));
    }

    auto fail_reaping_child = [pid](const char* what, const Status& status) {
      (void)kill(pid, SIGKILL);
      (void)waitpid(pid, nullptr, 0);
      return Fail(what, status);
    };
    StandbyNode standby;
    Status standby_up =
        OpenStandby(standby_data, standby_wal, socket_path, &standby);
    if (!standby_up.ok()) return fail_reaping_child("standby open", standby_up);

    ldv::FaultInjector& injector = ldv::FaultInjector::Instance();
    if (sever) {
      // Parent-side: randomly cut the stream mid-load; the standby must
      // reconnect, resubscribe, and close the gap without losing an ack.
      injector.Reset();
      Status armed = injector.ConfigureFromSpec("repl.stream=p:0.2");
      if (!armed.ok()) return fail_reaping_child("sever spec", armed);
      injector.Enable(iter_seed ^ 0x5DEECE66DULL);
    }
    // Bounded wait: a deadlocked stream must fail the run, not hang it.
    int wstatus = 0;
    bool exited = false;
    for (int waited = 0; waited < 180'000; waited += 10) {
      pid_t done = waitpid(pid, &wstatus, WNOHANG);
      if (done < 0) return Fail("waitpid", Status::IOError(strerror(errno)));
      if (done == pid) {
        exited = true;
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    injector.Reset();
    if (!exited) {
      (void)kill(pid, SIGKILL);
      (void)waitpid(pid, &wstatus, 0);
      std::fprintf(stderr,
                   "crash_torture: iter %d (%s): child hung (deadlocked "
                   "replication?)\n",
                   iter, fault_spec.c_str());
      return 1;
    }
    const bool clean = WIFEXITED(wstatus) && WEXITSTATUS(wstatus) == 0;
    if (WIFEXITED(wstatus) && WEXITSTATUS(wstatus) == 3) {
      std::fprintf(stderr, "crash_torture: iter %d: child setup failed\n",
                   iter);
      return 1;
    }
    if (clean) {
      ++totals.clean_exits;
    } else {
      ++totals.crashes;
      ++totals.crashes_by_point[point.empty() ? "(exit)" : point];
    }

    // Failover. A fatal stream error (LSN gap, failed apply) means
    // replication corrupted itself — never acceptable.
    if (standby.replicator->fatal()) {
      std::fprintf(stderr, "crash_torture: iter %d (%s): standby fatal: %s\n",
                   iter, fault_spec.c_str(),
                   standby.replicator->last_error().c_str());
      return 1;
    }
    (void)standby.replicator->Promote();
    ++totals.failovers;

    if (catchup_iter && clean) {
      Result<std::string> reported = ldv::ReadFileToString(stats_path);
      const long long catchups =
          reported.ok() ? std::atoll(reported->c_str()) : 0;
      if (catchups <= 0) {
        std::fprintf(stderr,
                     "crash_torture: iter %d: forced catch-up served no "
                     "batches from segment files\n",
                     iter);
        return 1;
      }
      totals.disk_catchup_batches += catchups;
    }

    // Primary-side recovery, twice (idempotence), as in the plain campaign.
    ldv::storage::Database db;
    ldv::storage::RecoveryStats stats;
    Status recovered =
        ldv::exec::RecoverWithWal(&db, primary_data, primary_wal, &stats);
    if (!recovered.ok()) {
      std::fprintf(stderr,
                   "crash_torture: iter %d (%s): RECOVERY FAILED: %s\n", iter,
                   fault_spec.c_str(), recovered.ToString().c_str());
      return 1;
    }
    if (stats.truncated_torn_tail) ++totals.torn_tails;
    totals.txns_replayed += stats.txns_applied;

    ldv::storage::Database db2;
    ldv::storage::RecoveryStats stats2;
    Status recovered2 =
        ldv::exec::RecoverWithWal(&db2, primary_data, primary_wal, &stats2);
    if (!recovered2.ok()) {
      std::fprintf(stderr,
                   "crash_torture: iter %d: second recovery failed: %s\n",
                   iter, recovered2.ToString().c_str());
      return 1;
    }
    if (stats2.truncated_torn_tail) {
      std::fprintf(stderr,
                   "crash_torture: iter %d: second recovery saw a torn tail "
                   "(truncation was not durable)\n",
                   iter);
      return 1;
    }

    // Standby restart determinism: a fresh recovery of the standby's own
    // dirs must reproduce the promoted in-memory tables exactly.
    ldv::storage::Database standby_rebuilt;
    ldv::storage::RecoveryStats standby_stats;
    Status standby_recovered = ldv::exec::RecoverWithWal(
        &standby_rebuilt, standby_data, standby_wal, &standby_stats);
    if (!standby_recovered.ok()) {
      std::fprintf(stderr,
                   "crash_torture: iter %d: standby recovery failed: %s\n",
                   iter, standby_recovered.ToString().c_str());
      return 1;
    }

    ldv::exec::Executor executor(&db);
    ldv::exec::Executor executor2(&db2);
    ldv::exec::Executor standby_executor(&standby_rebuilt);
    for (int t = 0; t < config.threads; ++t) {
      const std::string table = TableName(t);
      if (db.FindTable(table) == nullptr) continue;
      Result<std::string> got = ScanTable(&executor, table);
      if (!got.ok()) return Fail("scan", got.status());
      Result<std::string> again = ScanTable(&executor2, table);
      if (!again.ok()) return Fail("rescan", again.status());
      if (*got != *again) {
        std::fprintf(stderr,
                     "crash_torture: iter %d: recovery not idempotent for "
                     "%s\n  first : %s\n  second: %s\n",
                     iter, table.c_str(), got->c_str(), again->c_str());
        return 1;
      }

      Result<std::string> standby_got = ScanStandby(&standby, table);
      if (!standby_got.ok()) {
        return Fail("standby scan", standby_got.status());
      }
      if (standby.db.FindTable(table) != nullptr) {
        if (standby_rebuilt.FindTable(table) == nullptr) {
          std::fprintf(stderr,
                       "crash_torture: iter %d: %s missing after standby "
                       "restart\n",
                       iter, table.c_str());
          return 1;
        }
        Result<std::string> standby_again =
            ScanTable(&standby_executor, table);
        if (!standby_again.ok()) {
          return Fail("standby rescan", standby_again.status());
        }
        if (*standby_got != *standby_again) {
          std::fprintf(stderr,
                       "crash_torture: iter %d: standby restart not "
                       "identical for %s\n  promoted : %s\n  recovered: %s\n",
                       iter, table.c_str(), standby_got->c_str(),
                       standby_again->c_str());
          return 1;
        }
      }

      ThreadIntents intents;
      if (!LoadIntents(ldv::JoinPath(intent_dir,
                                     "intent-" + std::to_string(t) + ".log"),
                       &intents)) {
        std::fprintf(stderr,
                     "crash_torture: iter %d: intent log for %s unreadable\n",
                     iter, table.c_str());
        return 1;
      }

      // Prefix walks over the same intents: once for the primary's
      // recovered state, once for the promoted standby.
      TableOracle oracle = baseline[static_cast<size_t>(t)];
      size_t matched_primary = SIZE_MAX;
      size_t matched_standby = SIZE_MAX;
      std::string state = OracleToString(oracle);
      if (state == *got) matched_primary = 0;
      if (state == *standby_got) matched_standby = 0;
      for (size_t k = 0; k < intents.units.size(); ++k) {
        ApplyToOracle(intents.units[k], &oracle);
        state = OracleToString(oracle);
        if (state == *got) matched_primary = k + 1;
        if (state == *standby_got) matched_standby = k + 1;
      }
      if (matched_primary == SIZE_MAX) {
        std::fprintf(stderr,
                     "crash_torture: iter %d (%s): %s matches no intent "
                     "prefix (%zu units, %zu acked)\n  recovered: %s\n",
                     iter, fault_spec.c_str(), table.c_str(),
                     intents.units.size(), intents.acked, got->c_str());
        return 1;
      }
      if (matched_standby == SIZE_MAX) {
        std::fprintf(stderr,
                     "crash_torture: iter %d (%s): promoted standby's %s "
                     "matches no intent prefix (%zu units, %zu acked)\n"
                     "  standby: %s\n",
                     iter, fault_spec.c_str(), table.c_str(),
                     intents.units.size(), intents.acked,
                     standby_got->c_str());
        return 1;
      }
      if (matched_standby < intents.acked) {
        std::fprintf(stderr,
                     "crash_torture: iter %d (%s): COMMITTED DATA LOST AT "
                     "FAILOVER on %s: %zu units acknowledged, promoted "
                     "standby has %zu\n",
                     iter, fault_spec.c_str(), table.c_str(), intents.acked,
                     matched_standby);
        return 1;
      }
      if (matched_primary < intents.acked) {
        std::fprintf(stderr,
                     "crash_torture: iter %d (%s): COMMITTED DATA LOST on "
                     "%s: %zu units acknowledged, only %zu recovered\n",
                     iter, fault_spec.c_str(), table.c_str(), intents.acked,
                     matched_primary);
        return 1;
      }

      // The next iteration's primary continues from its own recovered
      // state, so the baseline folds the primary's surviving prefix.
      TableOracle next = baseline[static_cast<size_t>(t)];
      for (size_t k = 0; k < matched_primary; ++k) {
        ApplyToOracle(intents.units[k], &next);
      }
      baseline[static_cast<size_t>(t)] = std::move(next);
      totals.units_committed += static_cast<int64_t>(matched_primary);
    }
  }

  std::printf(
      "crash_torture --repl: OK — %d iterations, %lld primary kills (%lld "
      "clean), %lld failovers verified, %lld catch-up batches from segment "
      "files, %lld torn tails truncated, %lld units committed, %lld txns "
      "replayed\n",
      config.iters, static_cast<long long>(totals.crashes),
      static_cast<long long>(totals.clean_exits),
      static_cast<long long>(totals.failovers),
      static_cast<long long>(totals.disk_catchup_batches),
      static_cast<long long>(totals.torn_tails),
      static_cast<long long>(totals.units_committed),
      static_cast<long long>(totals.txns_replayed));
  for (const auto& [crash_point, count] : totals.crashes_by_point) {
    std::printf("  kills at %-12s %lld\n", crash_point.c_str(),
                static_cast<long long>(count));
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  TortureConfig config;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : ""; };
    if (arg == "--iters") {
      config.iters = std::atoi(next());
    } else if (arg == "--threads") {
      config.threads = std::atoi(next());
    } else if (arg == "--units") {
      config.units = std::atoi(next());
    } else if (arg == "--seed") {
      config.seed = static_cast<uint64_t>(std::atoll(next()));
    } else if (arg == "--workdir") {
      config.workdir = next();
    } else if (arg == "--checkpoint-every") {
      config.checkpoint_every = std::atoll(next());
    } else if (arg == "--keep") {
      config.keep = true;
    } else if (arg == "--repl") {
      config.repl = true;
    } else if (arg == "--help" || arg == "-h") {
      std::printf(
          "usage: crash_torture [--repl] [--iters N] [--threads K] "
          "[--units M] [--seed S] [--workdir DIR] [--checkpoint-every C] "
          "[--keep]\n");
      return 0;
    } else {
      std::fprintf(stderr, "crash_torture: unknown flag %s\n", arg.c_str());
      return 2;
    }
  }

  bool temp_workdir = config.workdir.empty();
  if (temp_workdir) {
    Result<std::string> made = ldv::MakeTempDir("crash_torture");
    if (!made.ok()) return Fail("mktemp", made.status());
    config.workdir = *made;
  }

  if (config.repl) {
    int rc = RunReplTorture(config);
    if (rc == 0 && temp_workdir && !config.keep) {
      (void)ldv::RemoveAll(config.workdir);
    }
    return rc;
  }

  const std::string data_dir = ldv::JoinPath(config.workdir, "data");
  const std::string wal_dir = ldv::JoinPath(config.workdir, "wal");
  const std::string intent_dir = ldv::JoinPath(config.workdir, "intents");
  Status made = ldv::MakeDirs(intent_dir);
  if (!made.ok()) return Fail("mkdir", made);

  // Per-table expected state, carried across iterations (each iteration's
  // verified prefix folds into the baseline the next iteration builds on).
  std::vector<TableOracle> baseline(static_cast<size_t>(config.threads));
  TortureTotals totals;

  for (int iter = 0; iter < config.iters; ++iter) {
    const uint64_t iter_seed = config.seed * 1000003ULL +
                               static_cast<uint64_t>(iter);
    ldv::Rng plan_rng(iter_seed ^ 0xD1B54A32D192ED03ULL);

    // Fault plan: most iterations crash at a random point after a random
    // number of calls; some run to completion (clean path must stay clean).
    std::string fault_spec;
    std::string point;
    if (!plan_rng.Bernoulli(0.15)) {
      point = kCrashPoints[plan_rng.Uniform(
          0, static_cast<int64_t>(std::size(kCrashPoints)) - 1)];
      // Scale the trigger to how often the point actually fires so most
      // iterations die mid-run: wal.* points fire roughly once per commit
      // unit, fs.* only during checkpoints (one call per table + catalog).
      const int64_t commits = static_cast<int64_t>(config.threads) *
                              config.units;
      int64_t after =
          point.rfind("fs.", 0) == 0
              ? plan_rng.Uniform(
                    0, std::max<int64_t>(
                           4, commits / std::max<int64_t>(
                                            1, config.checkpoint_every) *
                                  (config.threads + 1)))
              : plan_rng.Uniform(0, commits);
      fault_spec = ldv::StrFormat("%s=after:%lld,crash:1", point.c_str(),
                                  static_cast<long long>(after));
    }

    // Fresh intent logs: verified prefixes of earlier iterations already
    // live in `baseline`.
    for (int t = 0; t < config.threads; ++t) {
      (void)ldv::RemoveAll(
          ldv::JoinPath(intent_dir, "intent-" + std::to_string(t) + ".log"));
    }

    pid_t pid = fork();
    if (pid < 0) {
      return Fail("fork", Status::IOError(strerror(errno)));
    }
    if (pid == 0) {
      _exit(RunWriterChild(config, data_dir, wal_dir, intent_dir, iter_seed,
                           fault_spec));
    }
    int wstatus = 0;
    if (waitpid(pid, &wstatus, 0) < 0) {
      return Fail("waitpid", Status::IOError(strerror(errno)));
    }
    const bool clean = WIFEXITED(wstatus) && WEXITSTATUS(wstatus) == 0;
    if (WIFEXITED(wstatus) && WEXITSTATUS(wstatus) == 3) {
      std::fprintf(stderr, "crash_torture: iter %d: child setup failed\n",
                   iter);
      return 1;
    }
    if (clean) {
      ++totals.clean_exits;
    } else {
      ++totals.crashes;
      ++totals.crashes_by_point[point.empty() ? "(exit)" : point];
    }

    // Recover twice into independent databases: the second run checks
    // idempotence (the first may durably truncate a torn tail; the second
    // must find a clean log and rebuild identical state).
    ldv::storage::Database db;
    ldv::storage::RecoveryStats stats;
    Status recovered =
        ldv::exec::RecoverWithWal(&db, data_dir, wal_dir, &stats);
    if (!recovered.ok()) {
      std::fprintf(stderr,
                   "crash_torture: iter %d (%s): RECOVERY FAILED: %s\n", iter,
                   fault_spec.c_str(), recovered.ToString().c_str());
      return 1;
    }
    if (stats.truncated_torn_tail) ++totals.torn_tails;
    totals.txns_replayed += stats.txns_applied;

    ldv::storage::Database db2;
    ldv::storage::RecoveryStats stats2;
    Status recovered2 =
        ldv::exec::RecoverWithWal(&db2, data_dir, wal_dir, &stats2);
    if (!recovered2.ok()) {
      std::fprintf(stderr,
                   "crash_torture: iter %d: second recovery failed: %s\n",
                   iter, recovered2.ToString().c_str());
      return 1;
    }
    if (stats2.truncated_torn_tail) {
      std::fprintf(stderr,
                   "crash_torture: iter %d: second recovery saw a torn tail "
                   "(truncation was not durable)\n",
                   iter);
      return 1;
    }

    ldv::exec::Executor executor(&db);
    ldv::exec::Executor executor2(&db2);
    for (int t = 0; t < config.threads; ++t) {
      const std::string table = TableName(t);
      if (db.FindTable(table) == nullptr) {
        // The child died before CREATE TABLE became durable; nothing can
        // have committed into it.
        continue;
      }
      Result<std::string> got = ScanTable(&executor, table);
      if (!got.ok()) return Fail("scan", got.status());
      Result<std::string> again = ScanTable(&executor2, table);
      if (!again.ok()) return Fail("rescan", again.status());
      if (*got != *again) {
        std::fprintf(stderr,
                     "crash_torture: iter %d: recovery not idempotent for "
                     "%s\n  first : %s\n  second: %s\n",
                     iter, table.c_str(), got->c_str(), again->c_str());
        return 1;
      }

      ThreadIntents intents;
      if (!LoadIntents(ldv::JoinPath(intent_dir,
                                     "intent-" + std::to_string(t) + ".log"),
                       &intents)) {
        std::fprintf(stderr,
                     "crash_torture: iter %d: intent log for %s unreadable\n",
                     iter, table.c_str());
        return 1;
      }

      // Committed-prefix check: walk every prefix of this iteration's
      // intents on top of the baseline. The *largest* matching prefix is
      // the committed one — no-op units (UPDATE/DELETE of an absent id)
      // leave the state unchanged, so shorter prefixes can coincide.
      TableOracle oracle = baseline[static_cast<size_t>(t)];
      size_t matched = SIZE_MAX;
      if (OracleToString(oracle) == *got) matched = 0;
      for (size_t k = 0; k < intents.units.size(); ++k) {
        ApplyToOracle(intents.units[k], &oracle);
        if (OracleToString(oracle) == *got) matched = k + 1;
      }
      if (matched == SIZE_MAX) {
        std::fprintf(stderr,
                     "crash_torture: iter %d (%s): %s matches no intent "
                     "prefix (%zu units, %zu acked)\n  recovered: %s\n",
                     iter, fault_spec.c_str(), table.c_str(),
                     intents.units.size(), intents.acked, got->c_str());
        return 1;
      }
      if (matched < intents.acked) {
        std::fprintf(stderr,
                     "crash_torture: iter %d (%s): COMMITTED DATA LOST on "
                     "%s: %zu units acknowledged, only %zu recovered\n",
                     iter, fault_spec.c_str(), table.c_str(), intents.acked,
                     matched);
        return 1;
      }

      // Fold the surviving prefix into the baseline for the next iteration.
      TableOracle next = baseline[static_cast<size_t>(t)];
      for (size_t k = 0; k < matched; ++k) {
        ApplyToOracle(intents.units[k], &next);
      }
      baseline[static_cast<size_t>(t)] = std::move(next);
      totals.units_committed += static_cast<int64_t>(matched);
    }
  }

  std::printf(
      "crash_torture: OK — %d iterations, %lld crashes (%lld clean), "
      "%lld torn tails truncated, %lld units committed, %lld txns "
      "replayed\n",
      config.iters, static_cast<long long>(totals.crashes),
      static_cast<long long>(totals.clean_exits),
      static_cast<long long>(totals.torn_tails),
      static_cast<long long>(totals.units_committed),
      static_cast<long long>(totals.txns_replayed));
  for (const auto& [point, count] : totals.crashes_by_point) {
    std::printf("  crashes at %-12s %lld\n", point.c_str(),
                static_cast<long long>(count));
  }
  if (temp_workdir && !config.keep) (void)ldv::RemoveAll(config.workdir);
  return 0;
}
