#ifndef LDV_NET_DB_SERVER_H_
#define LDV_NET_DB_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "common/status.h"
#include "net/db_client.h"
#include "obs/metrics.h"

namespace ldv::net {

/// Operational knobs of DbServer.
struct DbServerOptions {
  /// Connections served concurrently; further ones get a clean
  /// "server overloaded" protocol error response instead of a hang.
  int max_connections = 64;
  /// SO_RCVTIMEO/SO_SNDTIMEO applied to every connection fd, so a hung or
  /// vanished peer cannot pin a connection thread forever. 0 disables.
  int64_t io_timeout_micros = 30'000'000;
  /// Entries of the at-most-once response cache keyed by
  /// (process_id, query_id, sql). A retried request that already executed gets
  /// its recorded response instead of executing twice — this is what makes
  /// client retries of DML safe for audited workloads. 0 disables.
  size_t dedup_capacity = 4096;
  /// Idle lifetime of a recorded dedup response: an entry untouched (neither
  /// recorded nor replayed) for this long is evicted even when the cache is
  /// under capacity, so a long-lived server's cache shrinks back after a
  /// burst. 0 disables the TTL (capacity still bounds the cache).
  int64_t dedup_ttl_millis = 60'000;
  /// How often the disconnect watcher polls the fds of sessions executing a
  /// statement (--disconnect-poll-ms). With no statement in flight the
  /// watcher sleeps until one starts instead of polling.
  int64_t disconnect_poll_millis = 20;
  int listen_backlog = 16;
};

/// The DB server process analog: accepts connections on a Unix-domain
/// socket, decodes requests, executes them against the shared engine, and
/// streams back encoded responses. One thread per connection, reaped as
/// connections finish; the engine handle serializes execution.
///
/// Resilience behavior (see DESIGN.md "Failure model & recovery"):
///   - per-connection send/recv timeouts,
///   - max-connections cap with an explicit overload error response,
///   - (process_id, query_id) response dedup for exactly-once retries,
///   - graceful drain on Stop(): in-flight requests finish, subsequent
///     requests get a "server draining" error, then threads are joined.
class DbServer {
 public:
  DbServer(EngineHandle* engine, std::string socket_path,
           DbServerOptions options = {});
  ~DbServer();

  DbServer(const DbServer&) = delete;
  DbServer& operator=(const DbServer&) = delete;

  /// Binds, listens and spawns the accept loop.
  Status Start();

  /// Answers the replication verbs (kReplSubscribe / kReplFrames /
  /// kReplHeartbeat / kPromote). The server stays replication-agnostic:
  /// src/repl installs this at startup, before Start(); unset verbs get a
  /// "replication is not configured" error.
  using ReplHandler = std::function<Result<exec::ResultSet>(const DbRequest&)>;
  void set_repl_handler(ReplHandler handler) {
    repl_handler_ = std::move(handler);
  }

  /// Lets a subsystem merge extra keys into the kStats snapshot document
  /// (replication role, standby lag). Set before Start().
  void set_stats_augmenter(std::function<void(Json*)> augmenter) {
    stats_augmenter_ = std::move(augmenter);
  }

  /// Stops accepting, drains in-flight requests, joins all threads.
  void Stop();

  const std::string& socket_path() const { return socket_path_; }

  /// Connections currently being served.
  int64_t active_connections() const;
  /// Connections accepted since Start().
  int64_t total_connections() const { return total_connections_.load(); }
  /// Connections refused with the overload error since Start().
  int64_t rejected_connections() const {
    return rejected_connections_.load();
  }
  /// Requests answered from the dedup cache instead of re-executing.
  int64_t deduped_requests() const { return deduped_requests_.load(); }
  /// Completed dedup responses currently cached (TTL/LRU bounded).
  int64_t dedup_entries() const;
  /// Statements cancelled because their client disconnected mid-execution.
  int64_t disconnect_cancels() const { return disconnect_cancels_.load(); }

 private:
  struct Connection {
    std::thread thread;
    int fd = -1;
  };

  /// (process_id, query_id, sql): the statement text keeps two different
  /// statements a client tagged with the same ids apart. A retry resends
  /// identical text and still hits the cache.
  using DedupKey = std::tuple<int64_t, int64_t, std::string>;
  /// Dedup cache entry; `done` flips once the response is recorded, so a
  /// concurrent duplicate waits instead of double-executing. Completed
  /// entries sit in dedup_lru_ ordered by last touch (record or replay);
  /// in-progress markers are not evictable and carry no list position.
  struct DedupEntry {
    bool done = false;
    std::string response;
    int64_t touched_nanos = 0;
    std::list<DedupKey>::iterator lru_it;
  };

  void AcceptLoop();
  void ServeConnection(int64_t id, int fd);
  /// Polls the fds of connections that are executing a statement; a peer
  /// that hung up gets its in-flight statements cancelled through the
  /// QueryRegistry (abort-on-client-disconnect, DESIGN.md §11).
  void DisconnectWatchLoop();
  /// Joins threads of connections that finished serving.
  void ReapFinished();
  void ApplyIoTimeouts(int fd);
  /// Executes `request`, deduplicating on (process_id, query_id, sql) when
  /// the request carries ids; returns the encoded response frame.
  std::string ExecuteDeduped(const DbRequest& request, int64_t session_id);
  /// Drops completed dedup entries idle past the TTL. Caller holds
  /// dedup_mu_.
  void PurgeExpiredDedupLocked(int64_t now_nanos);
  /// Answers the non-query request kinds (Stats / TraceStart / TraceDump);
  /// returns the encoded response frame.
  std::string HandleControl(const DbRequest& request);

  EngineHandle* engine_;
  std::string socket_path_;
  DbServerOptions options_;
  ReplHandler repl_handler_;
  std::function<void(Json*)> stats_augmenter_;
  // Atomic: Stop() invalidates the fd while AcceptLoop blocks in accept().
  std::atomic<int> listen_fd_{-1};
  std::atomic<bool> running_{false};
  std::atomic<bool> draining_{false};
  std::thread accept_thread_;
  std::thread disconnect_watch_thread_;

  /// session id -> connection fd, present only while that session executes
  /// a query — the watch set of DisconnectWatchLoop.
  std::mutex exec_mu_;
  std::condition_variable exec_cv_;
  std::map<int64_t, int> executing_;

  mutable std::mutex conn_mu_;
  std::map<int64_t, Connection> connections_;
  std::vector<int64_t> finished_;  // ids whose thread is ready to join
  /// Connection ids double as engine session ids, and the embedding
  /// process may drive EngineHandle::ExecuteSession with its own (small)
  /// ids concurrently. Socket sessions therefore live in a disjoint high
  /// range: a disconnect's AbortSession must never roll back an
  /// in-process caller's transaction that happens to share the id.
  int64_t next_connection_id_ = int64_t{1} << 32;

  mutable std::mutex dedup_mu_;
  std::condition_variable dedup_cv_;
  std::map<DedupKey, DedupEntry> dedup_;
  /// Completed entries, least recently touched first. Capacity evicts from
  /// the front; the TTL purge walks the front until it meets a fresh entry.
  std::list<DedupKey> dedup_lru_;

  std::atomic<int64_t> total_connections_{0};
  std::atomic<int64_t> rejected_connections_{0};
  std::atomic<int64_t> deduped_requests_{0};
  std::atomic<int64_t> disconnect_cancels_{0};

  // Pointers into MetricsRegistry::Global(), resolved once in the
  // constructor (registry lookups take a mutex; observations are relaxed
  // atomics).
  obs::Histogram* request_latency_ = nullptr;
  obs::Counter* requests_total_ = nullptr;
};

}  // namespace ldv::net

#endif  // LDV_NET_DB_SERVER_H_
