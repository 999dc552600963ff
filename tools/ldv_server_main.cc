// ldv_server: the standalone DB server binary. This is the artifact that
// server-included and PTU packages embed as "the DB server binaries"
// (paper Table III) — it genuinely serves the LDV engine over a Unix-domain
// socket.
//
// Usage:
//   ldv_server --socket /tmp/ldv.sock [--data DIR] [--tpch SF] [--seed N]
//              [--wal-dir DIR] [--checkpoint-every N] [--sync-mode MODE]
//              [--max-conns N] [--io-timeout-ms N]
//              [--disconnect-poll-ms N] [--dedup-ttl-ms N]
//              [--fault SPEC] [--fault-seed N]
//              [--metrics-out FILE] [--trace-out FILE]
//
//   --data DIR        load (and on shutdown save) the native data files in DIR
//   --wal-dir DIR     write-ahead log directory: every committed transaction
//                     is fsynced there before the client sees success, and
//                     startup recovers snapshot + WAL tail instead of a bare
//                     load
//   --checkpoint-every N  checkpoint (snapshot + WAL segment retirement)
//                     after N committed transactions (0 = only on shutdown)
//   --sync-mode MODE  fsync | fdatasync | none (default fsync)
//   --tpch SF         populate a fresh TPC-H database at scale factor SF
//   --max-conns N     refuse connections past N with a protocol error
//   --io-timeout-ms N per-connection socket send/recv timeout
//   --disconnect-poll-ms N  how often the disconnect watcher polls sessions
//                     with a statement in flight (idle sessions are skipped;
//                     an idle server does not poll at all)
//   --dedup-ttl-ms N  idle lifetime of response-dedup cache entries
//                     (omit the flag for no TTL; capacity still bounds the
//                     cache)
//   --fault SPEC      arm the fault injector, e.g. "net.send=p:0.1;net.recv=p:0.1"
//   --fault-seed N    seed of the injector's deterministic streams
//   --metrics-out F   write a metrics snapshot (JSON) to F on shutdown
//   --trace-out F     record spans for the whole run; write a Chrome
//                     trace_event file to F on shutdown (clients can still
//                     collect spans mid-run via TraceStart/TraceDump)
//   --threads N       query degree of parallelism (morsel-driven execution;
//                     default hardware concurrency, 1 disables). Results are
//                     bit-identical at any value.
//   --statement-timeout-ms N  default per-statement deadline; a statement
//                     running past it is cooperatively cancelled with
//                     DeadlineExceeded (0 = no default; a request's own
//                     timeout field overrides)
//   --mem-limit-mb N  per-query memory budget: a statement materializing
//                     more than N MiB fails with ResourceExhausted instead
//                     of OOMing the server (0 = unlimited)
//   --plan-cache-entries N  bound on the shared prepared-statement plan
//                     cache (statements; default 256, 0 disables caching so
//                     every EXECUTE replans)
//   --replicate-from SOCKET  run as a hot standby of the primary listening
//                     on SOCKET: stream its WAL, apply it continuously,
//                     serve reads, reject writes until promoted
//                     (`ldv promote`). Requires --wal-dir.
//   --standby-name NAME  name this standby registers under on the primary
//
// The duration flags (--io-timeout-ms, --disconnect-poll-ms, --dedup-ttl-ms)
// require positive values; zero or negative is a usage error (exit 2).

#include <signal.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/fault.h"
#include "common/logging.h"
#include "exec/executor.h"
#include "exec/plan_cache.h"
#include "exec/wal_redo.h"
#include "net/db_server.h"
#include "obs/metrics.h"
#include "repl/primary.h"
#include "repl/standby.h"
#include "obs/span.h"
#include "storage/persistence.h"
#include "storage/recovery.h"
#include "storage/wal.h"
#include "tpch/generator.h"
#include "util/fsutil.h"
#include "util/thread_pool.h"

namespace {

std::atomic<bool> g_stop{false};

void HandleSignal(int) { g_stop.store(true); }

int Fail(const ldv::Status& status) {
  std::fprintf(stderr, "ldv_server: %s\n", status.ToString().c_str());
  return 1;
}

int FailUsage(const char* flag, int64_t value) {
  std::fprintf(stderr,
               "ldv_server: %s requires a positive value (got %lld)\n", flag,
               static_cast<long long>(value));
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string socket_path = "/tmp/ldv.sock";
  std::string data_dir;
  std::string wal_dir;
  std::string sync_mode = "fsync";
  int64_t checkpoint_every = 0;
  std::string replicate_from;
  std::string standby_name = "standby";
  std::string fault_spec;
  std::string metrics_out;
  std::string trace_out;
  double tpch_sf = 0;
  uint64_t seed = 42;
  uint64_t fault_seed = 42;
  int64_t statement_timeout_ms = 0;
  int64_t mem_limit_mb = 0;
  ldv::net::DbServerOptions server_options;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : "";
    };
    if (arg == "--socket") {
      socket_path = next();
    } else if (arg == "--data") {
      data_dir = next();
    } else if (arg == "--wal-dir") {
      wal_dir = next();
    } else if (arg == "--checkpoint-every") {
      checkpoint_every = std::atoll(next());
    } else if (arg == "--sync-mode") {
      sync_mode = next();
    } else if (arg == "--tpch") {
      tpch_sf = std::atof(next());
    } else if (arg == "--seed") {
      seed = static_cast<uint64_t>(std::atoll(next()));
    } else if (arg == "--max-conns") {
      server_options.max_connections = std::atoi(next());
    } else if (arg == "--io-timeout-ms") {
      const int64_t millis = std::atoll(next());
      if (millis <= 0) return FailUsage("--io-timeout-ms", millis);
      server_options.io_timeout_micros = millis * 1000;
    } else if (arg == "--disconnect-poll-ms") {
      const int64_t millis = std::atoll(next());
      if (millis <= 0) return FailUsage("--disconnect-poll-ms", millis);
      server_options.disconnect_poll_millis = millis;
    } else if (arg == "--dedup-ttl-ms") {
      const int64_t millis = std::atoll(next());
      if (millis <= 0) return FailUsage("--dedup-ttl-ms", millis);
      server_options.dedup_ttl_millis = millis;
    } else if (arg == "--replicate-from") {
      replicate_from = next();
    } else if (arg == "--standby-name") {
      standby_name = next();
    } else if (arg == "--fault") {
      fault_spec = next();
    } else if (arg == "--fault-seed") {
      fault_seed = static_cast<uint64_t>(std::atoll(next()));
    } else if (arg == "--metrics-out") {
      metrics_out = next();
    } else if (arg == "--trace-out") {
      trace_out = next();
    } else if (arg == "--threads") {
      ldv::ThreadPool::SetDefaultDop(std::atoi(next()));
    } else if (arg == "--statement-timeout-ms") {
      statement_timeout_ms = std::atoll(next());
    } else if (arg == "--mem-limit-mb") {
      mem_limit_mb = std::atoll(next());
    } else if (arg == "--plan-cache-entries") {
      const int64_t entries = std::atoll(next());
      if (entries < 0) {
        std::fprintf(stderr,
                     "ldv_server: --plan-cache-entries must be >= 0 (got "
                     "%lld); 0 disables caching\n",
                     static_cast<long long>(entries));
        return 2;
      }
      ldv::exec::PlanCache::Global().set_capacity(
          static_cast<size_t>(entries));
    } else if (arg == "--help" || arg == "-h") {
      std::printf(
          "usage: ldv_server --socket PATH [--data DIR] [--tpch SF] "
          "[--seed N] [--wal-dir DIR] [--checkpoint-every N] "
          "[--sync-mode fsync|fdatasync|none] [--max-conns N] "
          "[--io-timeout-ms N] [--disconnect-poll-ms N] [--dedup-ttl-ms N] "
          "[--fault SPEC] [--fault-seed N] "
          "[--metrics-out FILE] [--trace-out FILE] [--threads N] "
          "[--statement-timeout-ms N] [--mem-limit-mb N] "
          "[--plan-cache-entries N] "
          "[--replicate-from SOCKET] [--standby-name NAME]\n");
      return 0;
    } else {
      std::fprintf(stderr, "ldv_server: unknown flag %s\n", arg.c_str());
      return 2;
    }
  }

  if (!fault_spec.empty()) {
    ldv::FaultInjector& injector = ldv::FaultInjector::Instance();
    ldv::Status configured = injector.ConfigureFromSpec(fault_spec);
    if (!configured.ok()) return Fail(configured);
    injector.Enable(fault_seed);
    std::printf("ldv_server: fault injection armed (%s, seed=%llu)\n",
                fault_spec.c_str(),
                static_cast<unsigned long long>(fault_seed));
  }

  ldv::Result<ldv::storage::WalSyncMode> parsed_sync =
      ldv::storage::ParseWalSyncMode(sync_mode);
  if (!parsed_sync.ok()) return Fail(parsed_sync.status());

  ldv::storage::Database db;
  ldv::storage::RecoveryStats recovery_stats;
  const bool has_snapshot =
      !data_dir.empty() && ldv::FileExists(data_dir + "/catalog.json");
  if (!wal_dir.empty()) {
    // Snapshot + redo of the committed WAL tail; a torn final record is
    // truncated, mid-log corruption aborts startup with file + offset.
    ldv::Status recovered =
        ldv::exec::RecoverWithWal(&db, data_dir, wal_dir, &recovery_stats);
    if (!recovered.ok()) return Fail(recovered);
    std::printf("ldv_server: recovered %lld rows (%s)\n",
                static_cast<long long>(db.TotalLiveRows()),
                recovery_stats.ToString().c_str());
    if (tpch_sf > 0 && db.TableNames().empty()) {
      if (data_dir.empty()) {
        return Fail(ldv::Status::InvalidArgument(
            "--tpch with --wal-dir needs --data: generated rows are not "
            "WAL-logged, so they must live in a snapshot"));
      }
      ldv::tpch::GenOptions options;
      options.scale_factor = tpch_sf;
      options.seed = seed;
      ldv::Status generated = ldv::tpch::Generate(&db, options);
      if (!generated.ok()) return Fail(generated);
      ldv::Status saved = ldv::storage::SaveDatabase(db, data_dir);
      if (!saved.ok()) return Fail(saved);
      std::printf("ldv_server: generated TPC-H sf=%.4f (%lld rows, snapshot "
                  "saved)\n",
                  tpch_sf, static_cast<long long>(db.TotalLiveRows()));
    }
  } else if (has_snapshot) {
    ldv::Status loaded = ldv::storage::LoadDatabase(&db, data_dir);
    if (!loaded.ok()) return Fail(loaded);
    std::printf("ldv_server: loaded %lld rows from %s\n",
                static_cast<long long>(db.TotalLiveRows()), data_dir.c_str());
  } else if (tpch_sf > 0) {
    ldv::tpch::GenOptions options;
    options.scale_factor = tpch_sf;
    options.seed = seed;
    ldv::Status generated = ldv::tpch::Generate(&db, options);
    if (!generated.ok()) return Fail(generated);
    std::printf("ldv_server: generated TPC-H sf=%.4f (%lld rows)\n", tpch_sf,
                static_cast<long long>(db.TotalLiveRows()));
  }

  if (!trace_out.empty()) ldv::obs::TraceRecorder::Enable();

  ldv::net::EngineHandle engine(&db);
  if (statement_timeout_ms > 0) {
    engine.set_statement_timeout_millis(statement_timeout_ms);
    std::printf("ldv_server: statement timeout %lld ms\n",
                static_cast<long long>(statement_timeout_ms));
  }
  if (mem_limit_mb > 0) {
    engine.set_mem_limit_bytes(static_cast<size_t>(mem_limit_mb) << 20);
    std::printf("ldv_server: per-query memory limit %lld MiB\n",
                static_cast<long long>(mem_limit_mb));
  }
  if (!wal_dir.empty()) {
    ldv::storage::WalOptions wal_options;
    wal_options.sync_mode = *parsed_sync;
    ldv::Result<std::unique_ptr<ldv::storage::Wal>> wal =
        ldv::storage::Wal::Open(wal_dir, wal_options, recovery_stats.next_lsn);
    if (!wal.ok()) return Fail(wal.status());
    ldv::net::EngineDurabilityOptions durability;
    durability.data_dir = data_dir;
    durability.checkpoint_every = checkpoint_every;
    engine.AttachWal(std::move(*wal), durability);
    std::printf("ldv_server: wal at %s (sync=%s, checkpoint-every=%lld)\n",
                wal_dir.c_str(), sync_mode.c_str(),
                static_cast<long long>(checkpoint_every));
  }

  // Replication (DESIGN.md §14). Any server with a WAL can feed standbys;
  // --replicate-from additionally makes this server a hot standby of the
  // named primary (read-only until promoted).
  std::unique_ptr<ldv::repl::ReplicationManager> repl_manager;
  std::unique_ptr<ldv::repl::StandbyReplicator> replicator;
  if (!replicate_from.empty() && wal_dir.empty()) {
    std::fprintf(stderr,
                 "ldv_server: --replicate-from requires --wal-dir (the "
                 "standby streams into its own durable log)\n");
    return 2;
  }
  if (engine.wal() != nullptr) {
    repl_manager =
        std::make_unique<ldv::repl::ReplicationManager>(engine.wal());
    engine.set_commit_ack_barrier([&repl_manager](uint64_t lsn) {
      return repl_manager->WaitDurable(lsn);
    });
    engine.set_wal_retire_floor(
        [&repl_manager] { return repl_manager->RetireFloor(); });
  }
  if (!replicate_from.empty()) {
    ldv::repl::StandbyReplicator::Options standby_options;
    standby_options.standby_name = standby_name;
    replicator = std::make_unique<ldv::repl::StandbyReplicator>(
        &engine, replicate_from, standby_options);
    repl_manager->set_role("standby");
  }

  // Handlers go in before the listener opens: a SIGTERM racing startup must
  // still drain instead of killing a half-started server.
  signal(SIGINT, HandleSignal);
  signal(SIGTERM, HandleSignal);

  ldv::net::DbServer server(&engine, socket_path, server_options);
  if (repl_manager != nullptr) {
    server.set_repl_handler(
        [&repl_manager, &replicator](const ldv::net::DbRequest& request)
            -> ldv::Result<ldv::exec::ResultSet> {
          if (request.kind == ldv::net::RequestKind::kPromote &&
              replicator != nullptr) {
            // Drain the apply loop, flip writable; idempotent on repeat.
            const uint64_t applied = replicator->Promote();
            repl_manager->set_role("primary");
            return ldv::repl::MakePromoteResult("primary", applied);
          }
          return repl_manager->HandleRequest(request);
        });
    server.set_stats_augmenter([&repl_manager, &replicator](ldv::Json* stats) {
      if (replicator != nullptr && !replicator->promoted()) {
        replicator->AugmentStats(stats);
      } else {
        repl_manager->AugmentStats(stats);
      }
    });
  }
  ldv::Status started = server.Start();
  if (!started.ok()) return Fail(started);
  std::printf("ldv_server: listening on %s\n", socket_path.c_str());
  if (replicator != nullptr) {
    replicator->Start();
    std::printf("ldv_server: hot standby of %s (read-only until promoted)\n",
                replicate_from.c_str());
  }

  while (!g_stop.load()) {
    struct timespec ts = {0, 100 * 1000 * 1000};
    nanosleep(&ts, nullptr);
  }
  // Graceful drain: stop accepting, finish in-flight requests, then make
  // the log durable before any snapshotting. The replication manager shuts
  // down first so committers blocked on standby acks wake up instead of
  // pinning the drain.
  if (repl_manager != nullptr) repl_manager->Shutdown();
  server.Stop();
  if (replicator != nullptr) replicator->Stop();
  ldv::Status flushed = engine.FlushWal();
  if (!flushed.ok()) return Fail(flushed);
  // Saves must not be sabotaged by an armed injector: the data files and
  // observability dumps are the run's durable outputs. Disabling keeps the
  // per-point call/injection counts, so fault.* metrics still come out.
  ldv::FaultInjector::Instance().Disable();
  if (!metrics_out.empty()) {
    ldv::Status written = ldv::obs::WriteGlobalMetrics(metrics_out);
    if (!written.ok()) return Fail(written);
    std::printf("ldv_server: wrote metrics to %s\n", metrics_out.c_str());
  }
  if (!trace_out.empty()) {
    ldv::Status written = ldv::obs::TraceRecorder::WriteTo(trace_out);
    if (!written.ok()) return Fail(written);
    std::printf("ldv_server: wrote trace to %s\n", trace_out.c_str());
  }
  if (!wal_dir.empty() && !data_dir.empty()) {
    // Final checkpoint: snapshot + retire covered segments, so the next
    // start replays an empty tail.
    ldv::Status checkpointed = engine.Checkpoint();
    if (!checkpointed.ok()) return Fail(checkpointed);
    std::printf("ldv_server: checkpointed to %s\n", data_dir.c_str());
  } else if (!data_dir.empty()) {
    ldv::Status saved = ldv::storage::SaveDatabase(db, data_dir);
    if (!saved.ok()) return Fail(saved);
    std::printf("ldv_server: saved data files to %s\n", data_dir.c_str());
  }
  return 0;
}
