// ldv_perfbench: one run of one workload of the LDV benchmark.
//
//   ldv_perfbench --workload audit_included|audit_excluded|serve_mixed
//                 --seed N --seconds S --trace 0|1 --workdir DIR
//
// The workloads (perfbench/METRICS.md has the full description):
//   audit_included  the §IX-A application (1000 inserts, 10 runs of Table II
//                   Q2-4, 100 point updates of orders) on TPC-H SF 0.01: each
//                   cycle runs it unaudited on a fresh DB, then under a
//                   server-included audit, then replays the package.
//   audit_excluded  the same cycle with a server-excluded audit.
//   serve_mixed     an open-loop Poisson mix (200/s prepared point reads,
//                   20/s inserts, 20/s point updates of orders) over 4 socket
//                   connections to a DbServer with a WAL; afterwards audit
//                   cycles of a smaller application whose database sits
//                   behind a DbServer socket.
//
// Every statement text, key and arrival time comes from --seed; the engine
// only sees the generated statements. Each layer is timed from outside, by
// calls into its public functions. With --trace 1 the benchmark opens an
// obs::Span around each of those calls, records the program's own spans
// alongside, and reports the per-layer metrics instead of the end-to-end
// ones.
//
// Progress goes to stderr. The last line of stdout is one JSON object:
//   {"workload": W, "attempted": n, "failed": n, "errors": [...],
//    "stamp": {...}, "metrics": {"name": value, ...}}
// perfbench/run.py builds this binary, runs it and prints the benchmark's
// result line.

#include <sys/resource.h>
#include <sys/vfs.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <set>
#include <thread>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "common/clock.h"
#include "common/json.h"
#include "ldv/auditor.h"
#include "ldv/manifest.h"
#include "ldv/replayer.h"
#include "net/db_client.h"
#include "net/db_server.h"
#include "obs/span.h"
#include "sql/parser.h"
#include "storage/database.h"
#include "storage/wal.h"
#include "tpch/generator.h"
#include "tpch/queries.h"
#include "util/fsutil.h"
#include "util/rng.h"
#include "util/strings.h"
#include "util/thread_pool.h"

namespace ldv::perfbench {
namespace {

// ---------------------------------------------------------------------------
// Fixed workload parameters.

constexpr double kScaleFactor = 0.01;
constexpr const char* kAuditQuery = "Q2-4";
constexpr int kAppInserts = 1000;
constexpr int kAppSelects = 10;
constexpr int kAppUpdates = 100;

// serve_mixed: offered load, connections, warm-up.
constexpr double kReadRate = 200;
constexpr double kInsertRate = 20;
constexpr double kUpdateRate = 20;
constexpr int kConnections = 4;
constexpr double kWarmupSeconds = 2;
constexpr int kServeSetups = 5;
// Latency percentiles are taken per window of at least this length and the
// median over windows is reported, so one disturbed window does not decide
// the run's tail.
constexpr double kServeWindowSeconds = 10;
// The application audited over sockets after the open loop.
constexpr const char* kSocketAppQuery = "Q1-1";
constexpr int kSocketAppInserts = 500;
constexpr int kSocketAppSelects = 10;
constexpr int kSocketAppUpdates = 50;
constexpr int kSocketAppCycles = 10;
constexpr int kSocketAppReplays = 5;
// Requests not sent this long after the schedule ends count as failed.
constexpr double kBacklogGraceSeconds = 30;

constexpr const char* kReadStatement = "pb_read";
constexpr const char* kReadSql = "SELECT * FROM orders WHERE o_orderkey = $1";

double OfferedRate() { return kReadRate + kInsertRate + kUpdateRate; }

// Measured and printed beside the end-to-end metrics, but left out of
// BENCHMARK.json: across seeds on a shared 4-core VM they swing with machine
// load by more than the largest bound the benchmark may set. plain_s is
// mostly 100 point updates that each copy the table, replay_s on
// audit_included mostly a 50k-tuple restore, and write_p50_ms on the audit
// workloads a ~10 us INSERT. The per-layer plain.* and replay.* metrics and
// write_p99_ms cover the same work.
const std::set<std::string, std::less<>> kReferenceMetrics = {
    "plain_s", "replay_s", "write_p50_ms"};

// ---------------------------------------------------------------------------
// Results of one run.

using Metrics = std::map<std::string, double>;

struct Run {
  Metrics metrics;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> errors;

  void Fail(const std::string& what) {
    ++failed;
    if (errors.size() < 20) errors.push_back(what);
    std::fprintf(stderr, "perfbench: FAILED: %s\n", what.c_str());
  }
};

double Seconds(int64_t nanos) { return static_cast<double>(nanos) / 1e9; }

/// Linear interpolation between closest ranks (numpy's default).
double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const double frac = pos - static_cast<double>(lo);
  if (frac == 0 || lo + 1 >= values.size()) return values[lo];
  return values[lo] + (values[lo + 1] - values[lo]) * frac;
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

/// Counter and histogram deltas between two metrics documents shaped like
/// obs::MetricsSnapshot::ToJson() (the local registry, or a server's
/// FetchServerStats answer).
class StatsDelta {
 public:
  StatsDelta(Json before, Json after)
      : before_(std::move(before)), after_(std::move(after)) {}

  int64_t Counter(const std::string& name) const {
    return CounterIn(after_, name) - CounterIn(before_, name);
  }

  /// Quantile of the observations made between the two documents,
  /// interpolated linearly inside the bucket it falls in; 0 without any.
  double HistogramQuantile(const std::string& name, double q) const {
    std::vector<double> bounds;
    std::vector<int64_t> after = Buckets(after_, name, &bounds);
    std::vector<int64_t> before = Buckets(before_, name, nullptr);
    int64_t total = 0;
    for (size_t i = 0; i < after.size(); ++i) {
      if (i < before.size()) after[i] -= before[i];
      total += after[i];
    }
    if (total == 0) return 0;
    const double target = q * static_cast<double>(total);
    double cumulative = 0;
    for (size_t i = 0; i < after.size(); ++i) {
      const double count = static_cast<double>(after[i]);
      if (count > 0 && cumulative + count >= target) {
        const double lower = i == 0 ? 0 : bounds[i - 1];
        if (i >= bounds.size()) return lower;  // overflow bucket
        return lower + (bounds[i] - lower) * (target - cumulative) / count;
      }
      cumulative += count;
    }
    return bounds.empty() ? 0 : bounds.back();
  }

  /// Mean of the observations made between the two documents; 0 without
  /// any.
  double HistogramMean(const std::string& name) const {
    const double count = static_cast<double>(HistogramField(after_, name, "count") -
                                             HistogramField(before_, name, "count"));
    if (count == 0) return 0;
    return static_cast<double>(HistogramField(after_, name, "sum") -
                               HistogramField(before_, name, "sum")) /
           count;
  }

 private:
  static int64_t HistogramField(const Json& doc, const std::string& name,
                                const char* field) {
    const Json* histograms = doc.Find("histograms");
    const Json* hist = histograms == nullptr ? nullptr : histograms->Find(name);
    return hist == nullptr ? 0 : hist->GetInt(field, 0);
  }

  static int64_t CounterIn(const Json& doc, const std::string& name) {
    const Json* counters = doc.Find("counters");
    return counters == nullptr ? 0 : counters->GetInt(name, 0);
  }

  static std::vector<int64_t> Buckets(const Json& doc, const std::string& name,
                                      std::vector<double>* bounds) {
    std::vector<int64_t> counts;
    const Json* histograms = doc.Find("histograms");
    const Json* hist = histograms == nullptr ? nullptr : histograms->Find(name);
    const Json* buckets = hist == nullptr ? nullptr : hist->Find("buckets");
    if (buckets == nullptr || !buckets->is_array()) return counts;
    for (const Json& bucket : buckets->AsArray()) {
      counts.push_back(bucket.GetInt("count", 0));
      const Json* le = bucket.Find("le");
      if (bounds != nullptr && le != nullptr &&
          le->type() == Json::Type::kInt) {
        bounds->push_back(static_cast<double>(le->AsInt()));
      }
    }
    return counts;
  }

  Json before_;
  Json after_;
};

// ---------------------------------------------------------------------------
// Statement scripts, all drawn from the workload seed.

/// One execution of the §IX-A application: its statement texts in order.
struct AppScript {
  std::vector<std::string> inserts;
  std::string query;
  int selects = 0;
  std::vector<std::string> updates;
  std::vector<int64_t> update_keys;

  int64_t statements() const {
    return static_cast<int64_t>(inserts.size() + updates.size()) + selects;
  }
};

std::string InsertOrderSql(int64_t orderkey, int64_t custkey, int64_t price,
                           int64_t index) {
  return StrFormat(
      "INSERT INTO orders VALUES (%lld, %lld, 'O', %lld.00, '1998-09-01', "
      "'3-MEDIUM', 'Clerk#%09lld', 0, 'perfbench order %lld')",
      static_cast<long long>(orderkey), static_cast<long long>(custkey),
      static_cast<long long>(price), static_cast<long long>(index % 1000 + 1),
      static_cast<long long>(index));
}

std::string UpdateOrderSql(int64_t orderkey, const std::string& tag) {
  return StrFormat(
      "UPDATE orders SET o_comment = 'perfbench update %s' "
      "WHERE o_orderkey = %lld",
      tag.c_str(), static_cast<long long>(orderkey));
}

/// The §IX-A application's statements: new orders above the generated
/// keys, `selects` runs of `query`, point updates of generated orders.
AppScript MakeAppScript(uint64_t seed, const std::string& query, int inserts,
                        int selects, int updates) {
  const tpch::TpchSizes sizes = tpch::SizesFor(kScaleFactor);
  Rng rng(seed);
  AppScript script;
  script.query = query;
  script.selects = selects;
  for (int i = 0; i < inserts; ++i) {
    const int64_t custkey = rng.Uniform(1, sizes.customers);
    const int64_t price = rng.Uniform(1000, 400000);
    script.inserts.push_back(
        InsertOrderSql(sizes.orders + i + 1, custkey, price, i));
  }
  for (int i = 0; i < updates; ++i) {
    const int64_t key = rng.Uniform(1, sizes.orders);
    script.update_keys.push_back(key);
    script.updates.push_back(UpdateOrderSql(key, "a" + std::to_string(i)));
  }
  return script;
}

// ---------------------------------------------------------------------------
// The application and the environments it runs in.

enum class StatementKind { kSelect, kInsert, kUpdate };

StatementKind KindOf(const std::string& sql) {
  if (sql.rfind("INSERT", 0) == 0) return StatementKind::kInsert;
  if (sql.rfind("UPDATE", 0) == 0) return StatementKind::kUpdate;
  return StatementKind::kSelect;
}

struct StatementSample {
  StatementKind kind = StatementKind::kSelect;
  double ms = 0;
};

/// Times every statement sent through one connection; under tracing, each
/// is a "client" span.
class TimingClient final : public net::DbClient {
 public:
  TimingClient(net::DbClient* inner, std::vector<StatementSample>* samples)
      : inner_(inner), samples_(samples) {}

  Result<exec::ResultSet> Execute(const net::DbRequest& request) override {
    obs::Span span("client.statement", "client");
    const int64_t start = NowNanos();
    Result<exec::ResultSet> result = inner_->Execute(request);
    samples_->push_back(
        {KindOf(request.sql), static_cast<double>(NowNanos() - start) / 1e6});
    return result;
  }

 private:
  net::DbClient* inner_;
  std::vector<StatementSample>* samples_;
};

/// Delegates to the environment the application was given (the Auditor,
/// the Replayer or a plain one) and wraps each connection in a TimingClient.
class TimingEnv final : public AppEnv {
 public:
  TimingEnv(AppEnv* inner, std::vector<StatementSample>* samples)
      : inner_(inner), samples_(samples) {}

  os::ProcessContext& root_process() override {
    return inner_->root_process();
  }

  Result<net::DbClient*> OpenDbConnection(os::ProcessContext& proc) override {
    LDV_ASSIGN_OR_RETURN(net::DbClient * db, inner_->OpenDbConnection(proc));
    clients_.push_back(std::make_unique<TimingClient>(db, samples_));
    return clients_.back().get();
  }

 private:
  AppEnv* inner_;
  std::vector<StatementSample>* samples_;
  std::vector<std::unique_ptr<TimingClient>> clients_;
};

AppFn Timed(AppFn app, std::vector<StatementSample>* samples) {
  return [app = std::move(app), samples](AppEnv& env) -> Status {
    TimingEnv timed(&env, samples);
    return app(timed);
  };
}

/// The unaudited environment: a sandbox and plain connections.
class PlainEnv final : public AppEnv {
 public:
  using Connect = std::function<Result<std::unique_ptr<net::DbClient>>()>;

  PlainEnv(const std::string& sandbox, Connect connect)
      : vfs_(sandbox),
        sim_os_(&vfs_, &clock_, nullptr),
        connect_(std::move(connect)) {}

  os::ProcessContext& root_process() override { return *sim_os_.root(); }

  Result<net::DbClient*> OpenDbConnection(os::ProcessContext&) override {
    LDV_ASSIGN_OR_RETURN(std::unique_ptr<net::DbClient> client, connect_());
    clients_.push_back(std::move(client));
    return clients_.back().get();
  }

 private:
  LogicalClock clock_;
  os::Vfs vfs_;
  os::SimOs sim_os_;
  Connect connect_;
  std::vector<std::unique_ptr<net::DbClient>> clients_;
};

/// What one execution of the application measured.
struct AppTimes {
  double inserts_s = 0;
  double first_select_s = 0;
  double other_selects_s = 0;
  double updates_s = 0;
  double app_s = 0;
  uint64_t fingerprint = 0;
  int64_t dml_mismatches = 0;
};

/// The §IX-A application over a script: inserts, the query `selects` times
/// (fingerprinting every answer), point updates, then a result file in the
/// sandbox. Every DML statement must affect exactly one row.
AppFn MakeApp(const AppScript* script, AppTimes* out) {
  return [script, out](AppEnv& env) -> Status {
    WallTimer total;
    os::ProcessContext& proc = env.root_process();
    LDV_ASSIGN_OR_RETURN(net::DbClient * db, env.OpenDbConnection(proc));
    AppTimes t;
    WallTimer timer;
    for (const std::string& sql : script->inserts) {
      LDV_ASSIGN_OR_RETURN(exec::ResultSet result, db->Query(sql));
      if (result.affected != 1) ++t.dml_mismatches;
    }
    t.inserts_s = timer.Seconds();
    uint64_t fingerprint = 1469598103934665603ULL;
    for (int i = 0; i < script->selects; ++i) {
      timer.Restart();
      LDV_ASSIGN_OR_RETURN(exec::ResultSet result, db->Query(script->query));
      (i == 0 ? t.first_select_s : t.other_selects_s) += timer.Seconds();
      fingerprint ^= result.Fingerprint() + 0x9E3779B97F4A7C15ULL +
                     (fingerprint << 6) + (fingerprint >> 2);
    }
    t.fingerprint = fingerprint;
    timer.Restart();
    for (const std::string& sql : script->updates) {
      LDV_ASSIGN_OR_RETURN(exec::ResultSet result, db->Query(sql));
      if (result.affected != 1) ++t.dml_mismatches;
    }
    t.updates_s = timer.Seconds();
    LDV_RETURN_IF_ERROR(proc.WriteFile(
        "/output/results.txt",
        StrFormat("query_fingerprint=%llu\n",
                  static_cast<unsigned long long>(fingerprint))));
    t.app_s = total.Seconds();
    *out = t;
    return Status::Ok();
  };
}

Result<std::unique_ptr<storage::Database>> GenerateTpch(double* seconds) {
  auto db = std::make_unique<storage::Database>();
  obs::Span span("tpch.generate", "tpch");
  WallTimer timer;
  tpch::GenOptions gen;
  gen.scale_factor = kScaleFactor;
  LDV_RETURN_IF_ERROR(tpch::Generate(db.get(), gen));
  *seconds = timer.Seconds();
  return db;
}

/// A freshly generated TPC-H database behind an engine, served over a Unix
/// socket by a DbServer when it has a socket path.
struct Engine {
  std::unique_ptr<storage::Database> db;
  std::unique_ptr<net::EngineHandle> handle;
  std::unique_ptr<net::DbServer> server;
  std::string socket_path;
  double generate_s = 0;

  ~Engine() {
    if (server != nullptr) server->Stop();
  }

  /// A connection as an application opens one: over the socket when there
  /// is a server, in-process otherwise.
  Result<std::unique_ptr<net::DbClient>> Connect() {
    if (server == nullptr) {
      return std::unique_ptr<net::DbClient>(
          std::make_unique<net::LocalDbClient>(handle.get()));
    }
    LDV_ASSIGN_OR_RETURN(std::unique_ptr<net::SocketDbClient> client,
                         net::SocketDbClient::Connect(socket_path));
    return std::unique_ptr<net::DbClient>(std::move(client));
  }
};

/// Generates a database and starts its engine; with `socket_path`, also a
/// DbServer there, and with `wal_dir`, a WAL in the default sync mode
/// (fsync).
Result<std::unique_ptr<Engine>> StartEngine(const std::string& socket_path,
                                            const std::string& wal_dir) {
  auto engine = std::make_unique<Engine>();
  LDV_ASSIGN_OR_RETURN(engine->db, GenerateTpch(&engine->generate_s));
  engine->handle = std::make_unique<net::EngineHandle>(engine->db.get());
  if (!wal_dir.empty()) {
    LDV_RETURN_IF_ERROR(MakeDirs(wal_dir));
    LDV_ASSIGN_OR_RETURN(
        std::unique_ptr<storage::Wal> wal,
        storage::Wal::Open(wal_dir, storage::WalOptions{}, 1));
    engine->handle->AttachWal(std::move(wal), net::EngineDurabilityOptions{});
  }
  if (!socket_path.empty()) {
    engine->socket_path = socket_path;
    engine->server =
        std::make_unique<net::DbServer>(engine->handle.get(), socket_path);
    LDV_RETURN_IF_ERROR(engine->server->Start());
  }
  return engine;
}

// ---------------------------------------------------------------------------
// One audit → package → replay cycle.

struct CycleResult {
  std::vector<double> setup_s;  // TPC-H generations
  double plain_s = 0;
  double audit_s = 0;
  double replay_s = 0;
  AppTimes plain;
  AppTimes audit;
  AppTimes replay;
  AuditReport audit_report;
  ReplayReport replay_report;
  PackageInfo package;
  std::vector<StatementSample> audit_samples;

  double package_mb() const {
    return static_cast<double>(package.total_bytes -
                               package.server_binary_bytes) /
           1e6;
  }
  double end_to_end_s() const { return plain_s + audit_s + replay_s; }
};

/// How a cycle runs. Every unaudited run and every audit gets a freshly
/// generated database, so all cycles start from identical state.
struct CycleTarget {
  PackageMode mode = PackageMode::kServerIncluded;
  /// The application reaches its database through a DbServer socket (the
  /// paper's client/server deployment) instead of in-process.
  bool over_socket = false;
  /// Unaudited runs and replays per cycle; plain_s and replay_s are their
  /// medians. Repeating the cheap parts steadies them without repeating
  /// the audit.
  int plains = 1;
  int replays = 1;
};

Result<CycleResult> RunCycle(const CycleTarget& target,
                             const AppScript& script, const std::string& dir) {
  LDV_RETURN_IF_ERROR(RemoveAll(dir));
  CycleResult cycle;
  std::vector<StatementSample> ignored;

  auto socket_for = [&](const std::string& name) {
    return target.over_socket ? dir + "/" + name + ".sock" : std::string();
  };

  // 1. The application unaudited; every run must give the same answers.
  std::vector<double> plain_s;
  for (int i = 0; i < target.plains; ++i) {
    const std::string name = "plain" + std::to_string(i);
    const std::string sandbox = dir + "/" + name;
    LDV_RETURN_IF_ERROR(MakeDirs(sandbox));
    LDV_ASSIGN_OR_RETURN(std::unique_ptr<Engine> engine,
                         StartEngine(socket_for(name), ""));
    cycle.setup_s.push_back(engine->generate_s);
    PlainEnv env(sandbox, [&engine] { return engine->Connect(); });
    const uint64_t previous = cycle.plain.fingerprint;
    WallTimer timer;
    LDV_RETURN_IF_ERROR(Timed(MakeApp(&script, &cycle.plain), &ignored)(env));
    plain_s.push_back(timer.Seconds());
    if (i > 0 && cycle.plain.fingerprint != previous) {
      return Status::ReplayMismatch("unaudited runs gave different answers");
    }
  }
  cycle.plain_s = Median(plain_s);

  // 2. The same application under audit.
  const std::string package_dir = dir + "/package";
  {
    LDV_ASSIGN_OR_RETURN(std::unique_ptr<Engine> engine,
                         StartEngine(socket_for("audit"), ""));
    cycle.setup_s.push_back(engine->generate_s);
    AuditOptions options;  // per-tuple trace nodes on, as `ldv audit` runs
    options.mode = target.mode;
    options.package_dir = package_dir;
    options.sandbox_root = dir + "/audit_sandbox";
    options.db_socket_path = engine->socket_path;
    LDV_RETURN_IF_ERROR(MakeDirs(options.sandbox_root));
    Auditor auditor(engine->db.get(), options);
    obs::Span span("auditor.run", "audit");
    WallTimer timer;
    LDV_ASSIGN_OR_RETURN(
        cycle.audit_report,
        auditor.Run(Timed(MakeApp(&script, &cycle.audit),
                          &cycle.audit_samples)));
    cycle.audit_s = timer.Seconds();
  }
  {
    obs::Span span("package.inspect", "package");
    LDV_ASSIGN_OR_RETURN(cycle.package, InspectPackage(package_dir));
  }

  // 3. Replay of the package; every replay must reproduce the audit.
  std::vector<double> replay_s;
  for (int i = 0; i < target.replays; ++i) {
    ReplayOptions options;
    options.package_dir = package_dir;
    options.scratch_dir = dir + "/replay" + std::to_string(i);
    WallTimer timer;
    std::unique_ptr<Replayer> replayer;
    {
      obs::Span span("replayer.open", "replay");
      LDV_ASSIGN_OR_RETURN(replayer, Replayer::Open(options));
    }
    obs::Span span("replayer.run", "replay");
    LDV_ASSIGN_OR_RETURN(
        cycle.replay_report,
        replayer->Run(Timed(MakeApp(&script, &cycle.replay), &ignored)));
    replay_s.push_back(timer.Seconds());
    if (cycle.replay.fingerprint != cycle.audit.fingerprint) {
      return Status::ReplayMismatch("replay diverged from the audit");
    }
  }
  cycle.replay_s = Median(replay_s);
  LDV_RETURN_IF_ERROR(RemoveAll(dir));
  return cycle;
}

/// Runs cycles until `seconds` have passed (at least `min_cycles`; the last
/// cycle may run past `seconds`), checking each: plain, audit and replay
/// fingerprints agree, every DML statement hit one row, and every cycle's
/// package has the same size.
std::vector<CycleResult> RunCycles(const CycleTarget& target,
                                   const AppScript& script,
                                   const std::string& dir, double seconds,
                                   int min_cycles, Run* run) {
  std::vector<CycleResult> cycles;
  WallTimer elapsed;
  while (static_cast<int>(cycles.size()) < min_cycles ||
         elapsed.Seconds() < seconds) {
    const int index = static_cast<int>(cycles.size());
    run->attempted +=
        (target.plains + 1 + target.replays) * script.statements();
    Result<CycleResult> cycle =
        RunCycle(target, script, dir + "/cycle" + std::to_string(index));
    if (!cycle.ok()) {
      run->Fail("cycle " + std::to_string(index) + ": " +
                cycle.status().ToString());
      break;
    }
    const CycleResult& c = *cycle;
    if (c.plain.fingerprint != c.audit.fingerprint ||
        c.audit.fingerprint != c.replay.fingerprint) {
      run->Fail(StrFormat("cycle %d: fingerprints differ (plain %llu, audit "
                          "%llu, replay %llu)",
                          index,
                          static_cast<unsigned long long>(c.plain.fingerprint),
                          static_cast<unsigned long long>(c.audit.fingerprint),
                          static_cast<unsigned long long>(
                              c.replay.fingerprint)));
    }
    const int64_t bad_dml = c.plain.dml_mismatches + c.audit.dml_mismatches +
                            c.replay.dml_mismatches;
    if (bad_dml > 0) {
      run->Fail(StrFormat("cycle %d: %lld DML statements did not affect "
                          "exactly one row",
                          index, static_cast<long long>(bad_dml)));
    }
    if (!cycles.empty() &&
        c.package.total_bytes != cycles.front().package.total_bytes) {
      run->Fail(StrFormat("cycle %d: package is %lld bytes, cycle 0's %lld",
                          index, static_cast<long long>(c.package.total_bytes),
                          static_cast<long long>(
                              cycles.front().package.total_bytes)));
    }
    std::fprintf(stderr,
                 "perfbench: cycle %d plain=%.3fs audit=%.3fs replay=%.3fs "
                 "package=%.3fMB\n",
                 index, c.plain_s, c.audit_s, c.replay_s, c.package_mb());
    cycles.push_back(std::move(*cycle));
  }
  return cycles;
}

template <typename F>
double MedianOf(const std::vector<CycleResult>& cycles, F field) {
  std::vector<double> values;
  for (const CycleResult& c : cycles) values.push_back(field(c));
  return Median(std::move(values));
}

/// Quantile `q` of the audited statements of one cycle, reads or writes.
double CycleLatency(const CycleResult& cycle, bool reads, double q) {
  std::vector<double> ms;
  for (const StatementSample& s : cycle.audit_samples) {
    if ((s.kind == StatementKind::kSelect) == reads) ms.push_back(s.ms);
  }
  return Quantile(std::move(ms), q);
}

/// End-to-end metrics of audit cycles, each the median over cycles. Read
/// and write latencies are those of the audited application's statements
/// as it sees them; served_qps is its statements per second of app time.
void CycleEndToEnd(const std::vector<CycleResult>& cycles, Metrics* m) {
  std::vector<double> setup;
  for (const CycleResult& c : cycles) {
    setup.insert(setup.end(), c.setup_s.begin(), c.setup_s.end());
  }
  (*m)["setup_s"] = Median(setup);
  (*m)["plain_s"] = MedianOf(cycles, [](auto& c) { return c.plain_s; });
  (*m)["audit_s"] = MedianOf(cycles, [](auto& c) { return c.audit_s; });
  (*m)["replay_s"] = MedianOf(cycles, [](auto& c) { return c.replay_s; });
  (*m)["package_mb"] = MedianOf(cycles, [](auto& c) { return c.package_mb(); });
  for (const auto& [name, reads, q] :
       {std::tuple{"read_p50_ms", true, 0.5}, {"read_p99_ms", true, 0.99},
        {"write_p50_ms", false, 0.5}, {"write_p99_ms", false, 0.99}}) {
    (*m)[name] = MedianOf(cycles, [reads = reads, q = q](auto& c) {
      return CycleLatency(c, reads, q);
    });
  }
  (*m)["served_qps"] = MedianOf(cycles, [](auto& c) {
    return static_cast<double>(c.audit_samples.size()) / c.audit.app_s;
  });
}

/// Per-layer metrics of traced audit cycles.
void CyclePerLayer(const std::vector<CycleResult>& cycles, Metrics* m) {
  std::vector<double> setup;
  std::vector<double> selects;
  std::vector<double> updates;
  for (const CycleResult& c : cycles) {
    setup.insert(setup.end(), c.setup_s.begin(), c.setup_s.end());
    for (const StatementSample& s : c.audit_samples) {
      if (s.kind == StatementKind::kSelect) selects.push_back(s.ms);
      if (s.kind == StatementKind::kUpdate) updates.push_back(s.ms);
    }
  }
  auto mb = [](int64_t bytes) { return static_cast<double>(bytes) / 1e6; };
  if (!setup.empty()) (*m)["tpch.generate_s"] = Median(setup);
  (*m)["plain.inserts_s"] =
      MedianOf(cycles, [](auto& c) { return c.plain.inserts_s; });
  (*m)["plain.selects_s"] = MedianOf(cycles, [](auto& c) {
    return c.plain.first_select_s + c.plain.other_selects_s;
  });
  (*m)["plain.updates_s"] =
      MedianOf(cycles, [](auto& c) { return c.plain.updates_s; });
  (*m)["audit.inserts_s"] =
      MedianOf(cycles, [](auto& c) { return c.audit.inserts_s; });
  (*m)["audit.first_select_s"] =
      MedianOf(cycles, [](auto& c) { return c.audit.first_select_s; });
  (*m)["audit.other_selects_s"] =
      MedianOf(cycles, [](auto& c) { return c.audit.other_selects_s; });
  (*m)["audit.updates_s"] =
      MedianOf(cycles, [](auto& c) { return c.audit.updates_s; });
  (*m)["audit.finalize_s"] =
      MedianOf(cycles, [](auto& c) { return c.audit_s - c.audit.app_s; });
  (*m)["audit.select_p50_ms"] = Quantile(selects, 0.5);
  (*m)["audit.update_p50_ms"] = Quantile(updates, 0.5);
  const CycleResult& last = cycles.back();
  (*m)["audit.statements"] =
      static_cast<double>(last.audit_report.statements_audited);
  (*m)["audit.tuples_persisted"] =
      static_cast<double>(last.audit_report.tuples_persisted);
  (*m)["audit.trace_nodes"] = static_cast<double>(last.audit_report.trace_nodes);
  (*m)["audit.trace_edges"] = static_cast<double>(last.audit_report.trace_edges);
  (*m)["package.tuple_data_mb"] = mb(last.package.tuple_data_bytes);
  (*m)["package.trace_mb"] = mb(last.package.trace_bytes);
  (*m)["package.replay_log_mb"] = mb(last.package.replay_log_bytes);
  (*m)["package.app_files_mb"] = mb(last.package.app_files_bytes);
  (*m)["replay.init_s"] =
      MedianOf(cycles, [](auto& c) { return c.replay_report.init_seconds; });
  (*m)["replay.selects_s"] = MedianOf(cycles, [](auto& c) {
    return c.replay.first_select_s + c.replay.other_selects_s;
  });
  (*m)["replay.updates_s"] =
      MedianOf(cycles, [](auto& c) { return c.replay.updates_s; });
  (*m)["replay.restored_tuples"] =
      static_cast<double>(last.replay_report.restored_tuples);
  (*m)["replay.statements_replayed"] =
      static_cast<double>(last.replay_report.statements_replayed);
}

// ---------------------------------------------------------------------------
// serve_mixed: an open loop against a socket DbServer.

struct ServeRequest {
  int64_t due_ns = 0;  // relative to the start of the schedule
  StatementKind kind = StatementKind::kSelect;
  int64_t key = 0;
  std::string sql;         // writes only
  int insert_index = -1;   // reads of an inserted key: which insert
};

struct ServeOutcome {
  int64_t sent_ns = 0;
  int64_t done_ns = 0;
  bool ok = false;
  std::string error;
  std::vector<storage::Tuple> rows;  // reads only
};

/// Seeded Poisson arrivals of the three request kinds over `seconds`. A
/// tenth of the reads target a key inserted at least half a second earlier.
/// `phase` keeps inserted keys and update texts distinct between phases run
/// against the same server.
std::vector<ServeRequest> MakeSchedule(uint64_t seed, double seconds,
                                       int phase) {
  const tpch::TpchSizes sizes = tpch::SizesFor(kScaleFactor);
  Rng rng(seed * 1000003ULL + static_cast<uint64_t>(phase) + 17);
  std::vector<ServeRequest> schedule;
  std::vector<int> inserts;  // schedule indexes of inserts
  const int64_t insert_base = sizes.orders + (phase + 1) * int64_t{1000000};
  double t = 0;
  while (true) {
    t += -std::log(1.0 - rng.NextDouble()) / OfferedRate();
    if (t >= seconds) break;
    ServeRequest request;
    request.due_ns = static_cast<int64_t>(t * 1e9);
    const double pick = rng.NextDouble() * OfferedRate();
    if (pick < kReadRate) {
      request.kind = StatementKind::kSelect;
      request.key = rng.Uniform(1, sizes.orders);
      if (rng.Bernoulli(0.1)) {
        // Inserts due at least 0.5 s before this read.
        size_t eligible = 0;
        while (eligible < inserts.size() &&
               schedule[static_cast<size_t>(inserts[eligible])].due_ns <=
                   request.due_ns - 500'000'000) {
          ++eligible;
        }
        if (eligible > 0) {
          const int pick_insert = inserts[static_cast<size_t>(
              rng.Uniform(0, static_cast<int64_t>(eligible) - 1))];
          request.insert_index = pick_insert;
          request.key = schedule[static_cast<size_t>(pick_insert)].key;
        }
      }
    } else if (pick < kReadRate + kInsertRate) {
      const int64_t index = static_cast<int64_t>(inserts.size());
      request.kind = StatementKind::kInsert;
      request.key = insert_base + index + 1;
      request.sql =
          InsertOrderSql(request.key, rng.Uniform(1, sizes.customers),
                         rng.Uniform(1000, 400000), index);
      inserts.push_back(static_cast<int>(schedule.size()));
    } else {
      request.kind = StatementKind::kUpdate;
      request.key = rng.Uniform(1, sizes.orders);
      request.sql = UpdateOrderSql(
          request.key, StrFormat("p%d-%zu", phase, schedule.size()));
    }
    schedule.push_back(std::move(request));
  }
  return schedule;
}

/// The served engine (with a WAL) and the load generator's connections,
/// each with the read statement prepared.
struct ServeSetup {
  std::unique_ptr<Engine> engine;
  std::vector<std::unique_ptr<net::SocketDbClient>> connections;
  double setup_s = 0;
};

Result<std::unique_ptr<ServeSetup>> StartServer(const std::string& dir) {
  LDV_RETURN_IF_ERROR(RemoveAll(dir));
  LDV_RETURN_IF_ERROR(MakeDirs(dir));
  auto setup = std::make_unique<ServeSetup>();
  WallTimer timer;
  LDV_ASSIGN_OR_RETURN(setup->engine,
                       StartEngine(dir + "/db.sock", dir + "/wal"));
  for (int i = 0; i < kConnections; ++i) {
    LDV_ASSIGN_OR_RETURN(std::unique_ptr<net::SocketDbClient> client,
                         net::SocketDbClient::Connect(setup->engine->socket_path));
    LDV_RETURN_IF_ERROR(
        net::PrepareStatement(client.get(), kReadStatement, kReadSql));
    setup->connections.push_back(std::move(client));
  }
  setup->setup_s = timer.Seconds();
  return setup;
}

/// The orders table before a phase's first request, as the read check
/// compares against it: rows by key, and where o_comment sits.
struct OrdersSnapshot {
  std::unordered_map<int64_t, storage::Tuple> rows;
  int comment_column = -1;
};

Result<OrdersSnapshot> SnapshotOrders(net::EngineHandle* engine) {
  net::LocalDbClient local(engine);
  LDV_ASSIGN_OR_RETURN(exec::ResultSet orders,
                       local.Query("SELECT * FROM orders"));
  OrdersSnapshot snapshot;
  for (int i = 0; i < orders.schema.num_columns(); ++i) {
    if (orders.schema.column(i).name == "o_comment") snapshot.comment_column = i;
  }
  for (storage::Tuple& row : orders.rows) {
    const int64_t key = row[0].AsInt();
    snapshot.rows.emplace(key, std::move(row));
  }
  return snapshot;
}

/// Checks every read against the writes around it. A read of an original
/// key must return that row, with an o_comment some update could have left
/// there: the original if no update of the key was acknowledged before the
/// read was sent, else an update sent before the read finished and not
/// overwritten by an update that both started after it was acknowledged
/// and was acknowledged before the read was sent. A read of an inserted key
/// acknowledged before the read was sent must return exactly the inserted
/// row.
void CheckReads(net::EngineHandle* engine, const OrdersSnapshot& before,
                const std::vector<ServeRequest>& schedule,
                const std::vector<ServeOutcome>& outcomes, Run* run) {
  struct Write {
    int64_t sent_ns, done_ns;
    std::string comment;
  };
  std::unordered_map<int64_t, std::vector<Write>> updates;
  for (size_t i = 0; i < schedule.size(); ++i) {
    if (schedule[i].kind != StatementKind::kUpdate || !outcomes[i].ok) continue;
    const std::string& sql = schedule[i].sql;
    const size_t open = sql.find('\'');
    const size_t close = sql.find('\'', open + 1);
    updates[schedule[i].key].push_back(
        {outcomes[i].sent_ns, outcomes[i].done_ns,
         sql.substr(open + 1, close - open - 1)});
  }
  net::LocalDbClient local(engine);
  std::unordered_map<int64_t, std::string> inserted_rows;
  const int comment = before.comment_column;
  for (size_t i = 0; i < schedule.size(); ++i) {
    const ServeRequest& read = schedule[i];
    const ServeOutcome& got = outcomes[i];
    if (read.kind != StatementKind::kSelect || !got.ok) continue;
    const std::string where = StrFormat("read of key %lld at %.3fs",
                                        static_cast<long long>(read.key),
                                        Seconds(read.due_ns));
    if (read.insert_index >= 0) {
      const ServeOutcome& insert =
          outcomes[static_cast<size_t>(read.insert_index)];
      const bool acknowledged = insert.ok && insert.done_ns < got.sent_ns;
      if (!acknowledged && got.rows.empty()) continue;
      auto it = inserted_rows.find(read.key);
      if (it == inserted_rows.end()) {
        Result<exec::ResultSet> row = local.Query(
            StrFormat("SELECT * FROM orders WHERE o_orderkey = %lld",
                      static_cast<long long>(read.key)));
        std::string text = row.ok() && row->rows.size() == 1
                               ? storage::TupleToText(row->rows[0])
                               : std::string("<missing>");
        it = inserted_rows.emplace(read.key, std::move(text)).first;
      }
      if (got.rows.size() != 1 || storage::TupleToText(got.rows[0]) != it->second) {
        run->Fail(where + ": inserted row not returned exactly");
      }
      continue;
    }
    auto original = before.rows.find(read.key);
    if (original == before.rows.end() || got.rows.size() != 1 ||
        got.rows[0].size() != original->second.size()) {
      run->Fail(where + StrFormat(": %zu rows", got.rows.size()));
      continue;
    }
    const storage::Tuple& row = got.rows[0];
    bool same = true;
    for (size_t c = 0; c < row.size(); ++c) {
      if (static_cast<int>(c) != comment &&
          row[c].ToText() != original->second[c].ToText()) {
        same = false;
      }
    }
    const std::string seen = row[static_cast<size_t>(comment)].ToText();
    const std::vector<Write>& writes = updates[read.key];
    auto overwritten_before_read = [&](const Write& w) {
      for (const Write& later : writes) {
        if (later.sent_ns > w.done_ns && later.done_ns < got.sent_ns) {
          return true;
        }
      }
      return false;
    };
    bool valid = false;
    if (seen == original->second[static_cast<size_t>(comment)].ToText()) {
      valid = std::none_of(writes.begin(), writes.end(), [&](const Write& w) {
        return w.done_ns < got.sent_ns;
      });
    }
    for (const Write& w : writes) {
      if (seen == w.comment && w.sent_ns < got.done_ns &&
          !overwritten_before_read(w)) {
        valid = true;
      }
    }
    if (!same || !valid) {
      run->Fail(where + ": returned " + storage::TupleToText(row));
    }
  }
}

struct ServePhase {
  Metrics end_to_end;
  Metrics per_layer;
};

/// Runs one schedule: kConnections workers take requests in due order,
/// wait until each is due, send it and time it from its due time. Requests
/// due in the first `warmup` seconds are checked but not measured.
ServePhase RunServePhase(ServeSetup* setup, uint64_t seed, double warmup,
                         double seconds, int phase, Run* run) {
  const std::vector<ServeRequest> schedule =
      MakeSchedule(seed, warmup + seconds, phase);
  std::vector<ServeOutcome> outcomes(schedule.size());
  run->attempted += static_cast<int64_t>(schedule.size());
  // A fresh control connection each time: the server drops connections
  // idle past its I/O timeout.
  auto fetch_stats = [setup]() -> Result<Json> {
    LDV_ASSIGN_OR_RETURN(std::unique_ptr<net::DbClient> control,
                         setup->engine->Connect());
    return net::FetchServerStats(control.get());
  };
  Result<OrdersSnapshot> orders = SnapshotOrders(setup->engine->handle.get());
  Result<Json> stats_before = fetch_stats();

  const int64_t start_ns = NowNanos() + 50'000'000;
  const int64_t give_up_ns =
      start_ns + static_cast<int64_t>((warmup + seconds + kBacklogGraceSeconds) *
                                      1e9);
  std::atomic<size_t> next{0};
  auto worker = [&](net::SocketDbClient* connection) {
    for (size_t i = next.fetch_add(1); i < schedule.size();
         i = next.fetch_add(1)) {
      const ServeRequest& request = schedule[i];
      ServeOutcome& out = outcomes[i];
      const int64_t due = start_ns + request.due_ns;
      std::this_thread::sleep_until(
          std::chrono::steady_clock::time_point(std::chrono::nanoseconds(due)));
      out.sent_ns = NowNanos();
      if (out.sent_ns > give_up_ns) {
        out.done_ns = out.sent_ns;
        out.error = "not sent: backlog";
        continue;
      }
      obs::Span span("client.request", "client");
      Result<exec::ResultSet> result =
          request.kind == StatementKind::kSelect
              ? net::ExecutePrepared(connection, kReadStatement,
                                     {storage::Value::Int(request.key)})
              : connection->Query(request.sql);
      out.done_ns = NowNanos();
      if (span.recording()) {
        span.AddArg("due_ns", std::to_string(due));
        span.AddArg("sent_ns", std::to_string(out.sent_ns));
        span.AddArg("done_ns", std::to_string(out.done_ns));
      }
      out.ok = result.ok();
      if (!result.ok()) {
        out.error = result.status().ToString();
      } else if (request.kind == StatementKind::kSelect) {
        out.rows = std::move(result->rows);
      } else if (result->affected != 1) {
        out.ok = false;
        out.error = StrFormat("affected %lld rows",
                              static_cast<long long>(result->affected));
      }
    }
  };
  std::vector<std::thread> workers;
  for (auto& connection : setup->connections) {
    workers.emplace_back(worker, connection.get());
  }
  for (std::thread& t : workers) t.join();
  Result<Json> stats_after = fetch_stats();

  for (size_t i = 0; i < schedule.size(); ++i) {
    if (!outcomes[i].ok) {
      run->Fail(StrFormat("request %zu (%s): %s", i,
                          schedule[i].kind == StatementKind::kSelect ? "read"
                                                                     : "write",
                          outcomes[i].error.c_str()));
    }
  }
  if (orders.ok()) {
    CheckReads(setup->engine->handle.get(), *orders, schedule, outcomes, run);
  } else {
    run->Fail("orders snapshot: " + orders.status().ToString());
  }

  // Latency from the due time; a failure counts as infinitely late.
  const int64_t measure_from = static_cast<int64_t>(warmup * 1e9);
  const int windows =
      std::max(1, static_cast<int>(seconds / kServeWindowSeconds));
  const double window_ns = seconds * 1e9 / windows;
  std::vector<std::vector<double>> reads(windows), writes(windows);
  std::vector<double> late_ms;
  double client_us = 0;  // summed over every request, as the server's
                         // latency histogram counts every request
  int64_t measured = 0;
  int64_t reads_sent = 0;
  int64_t writes_sent = 0;
  int64_t last_done = start_ns + measure_from;
  for (size_t i = 0; i < schedule.size(); ++i) {
    const ServeRequest& request = schedule[i];
    const ServeOutcome& out = outcomes[i];
    (request.kind == StatementKind::kSelect ? reads_sent : writes_sent) += 1;
    client_us += static_cast<double>(out.done_ns - out.sent_ns) / 1e3;
    if (request.due_ns < measure_from) continue;
    ++measured;
    const int64_t due = start_ns + request.due_ns;
    const double latency =
        out.ok ? static_cast<double>(out.done_ns - due) / 1e6 : INFINITY;
    const int window = std::min(
        windows - 1,
        static_cast<int>(static_cast<double>(request.due_ns - measure_from) /
                         window_ns));
    (request.kind == StatementKind::kSelect ? reads : writes)[window]
        .push_back(latency);
    late_ms.push_back(static_cast<double>(out.sent_ns - due) / 1e6);
    last_done = std::max(last_done, out.done_ns);
  }
  ServePhase result;
  Metrics& e = result.end_to_end;
  auto windowed = [](const std::vector<std::vector<double>>& samples,
                     double q) {
    std::vector<double> per_window;
    for (const std::vector<double>& window : samples) {
      per_window.push_back(Quantile(window, q));
    }
    return Median(per_window);
  };
  e["read_p50_ms"] = windowed(reads, 0.5);
  e["read_p99_ms"] = windowed(reads, 0.99);
  e["write_p50_ms"] = windowed(writes, 0.5);
  e["write_p99_ms"] = windowed(writes, 0.99);
  e["served_qps"] = static_cast<double>(measured) /
                    Seconds(last_done - (start_ns + measure_from));
  std::fprintf(stderr,
               "perfbench: serve phase %d: %zu requests, read p50 %.3f ms "
               "p99 %.3f ms, write p50 %.3f ms p99 %.3f ms, %.1f/s\n",
               phase, schedule.size(), e["read_p50_ms"], e["read_p99_ms"],
               e["write_p50_ms"], e["write_p99_ms"], e["served_qps"]);

  Metrics& l = result.per_layer;
  l["loadgen.late_p99_ms"] = Quantile(late_ms, 0.99);
  if (!stats_before.ok() || !stats_after.ok()) {
    run->Fail("server stats: " + (stats_before.ok() ? stats_after.status()
                                                    : stats_before.status())
                                     .ToString());
    return result;
  }
  const StatsDelta delta(std::move(*stats_before), std::move(*stats_after));
  l["net.server_p50_us"] =
      delta.HistogramQuantile("server.request_latency_micros", 0.5);
  // Means, not medians: a difference of medians taken from a bucketed
  // histogram and from raw samples can come out negative.
  l["net.client_overhead_mean_us"] =
      client_us / static_cast<double>(schedule.size()) -
      delta.HistogramMean("server.request_latency_micros");
  const double hits = static_cast<double>(delta.Counter("plan_cache.hit"));
  const double misses = static_cast<double>(delta.Counter("plan_cache.miss"));
  l["plan_cache.hit_ratio"] = hits + misses > 0 ? hits / (hits + misses) : 0;
  l["txn.snapshot_read_share"] =
      reads_sent > 0 ? static_cast<double>(
                           delta.Counter("engine.concurrent_reads")) /
                           static_cast<double>(reads_sent)
                     : 0;
  l["txn.lock_wait_p99_us"] =
      delta.HistogramQuantile("txn.lock_wait_micros", 0.99);
  l["txn.lock_contentions"] =
      static_cast<double>(delta.Counter("txn.lock_contentions"));
  const double commits = static_cast<double>(delta.Counter("wal.commits"));
  l["wal.syncs_per_commit"] =
      commits > 0 ? static_cast<double>(delta.Counter("wal.syncs")) / commits
                  : 0;
  l["wal.bytes_per_write"] =
      writes_sent > 0 ? static_cast<double>(delta.Counter("wal.append_bytes")) /
                            static_cast<double>(writes_sent)
                      : 0;
  l["engine.statement_p50_us"] =
      delta.HistogramQuantile("engine.statement_micros", 0.5);
  return result;
}

// ---------------------------------------------------------------------------
// Probes and trace analysis (traced runs only).

/// Engine-side costs of the audited statements, on a fresh plain engine:
/// Q2-4 plain and with PROVENANCE, a point update, and the auditor's
/// reenactment query for it. Also the parser's cost per statement text.
void RunProbes(const AppScript& script,
               const std::vector<std::string>& extra_texts, Run* run,
               Metrics* m) {
  double gen_s = 0;
  Result<std::unique_ptr<storage::Database>> db = GenerateTpch(&gen_s);
  if (!db.ok()) {
    run->Fail("probe database: " + db.status().ToString());
    return;
  }
  net::EngineHandle engine(db->get());
  net::LocalDbClient client(&engine);
  Result<tpch::QuerySpec> query = tpch::FindQuery(kAuditQuery);
  auto time_ms = [&](const std::string& sql, int reps) {
    std::vector<double> ms;
    for (int i = 0; i < reps; ++i) {
      const int64_t start = NowNanos();
      Result<exec::ResultSet> result = client.Query(sql);
      ms.push_back(static_cast<double>(NowNanos() - start) / 1e6);
      if (!result.ok()) run->Fail("probe: " + result.status().ToString());
    }
    return Median(ms);
  };
  (*m)["exec.select_ms"] = time_ms(query->sql, 3);
  (*m)["exec.prov_select_ms"] = time_ms("PROVENANCE " + query->sql, 3);
  std::vector<double> update_ms;
  std::vector<double> reenact_ms;
  for (size_t i = 0; i < script.updates.size() && i < 20; ++i) {
    reenact_ms.push_back(time_ms(
        StrFormat("PROVENANCE SELECT * FROM orders WHERE o_orderkey = %lld",
                  static_cast<long long>(script.update_keys[i])),
        1));
    update_ms.push_back(time_ms(script.updates[i], 1));
  }
  (*m)["exec.update_ms"] = Median(update_ms);
  (*m)["exec.reenact_ms"] = Median(reenact_ms);

  std::vector<std::string> texts = script.inserts;
  texts.insert(texts.end(), script.updates.begin(), script.updates.end());
  texts.push_back(script.query);
  texts.insert(texts.end(), extra_texts.begin(), extra_texts.end());
  int64_t parsed = 0;
  WallTimer timer;
  while (timer.Seconds() < 0.2) {
    for (const std::string& text : texts) {
      if (!sql::Parse(text).ok()) run->Fail("parse: " + text);
      ++parsed;
    }
  }
  (*m)["sql.parse_us"] = timer.Seconds() * 1e6 / static_cast<double>(parsed);
}

/// Self time per span category: a span's duration minus the part of it its
/// child spans cover, summed per category.
void SelfTimes(const std::vector<obs::SpanEvent>& events, Metrics* m) {
  std::unordered_map<int64_t, std::vector<std::pair<int64_t, int64_t>>>
      children;
  for (const obs::SpanEvent& e : events) {
    if (e.parent_id != 0) {
      children[e.parent_id].emplace_back(e.start_micros,
                                         e.start_micros + e.duration_micros);
    }
  }
  const std::map<std::string, std::string> layers = {
      {"tpch", "self.tpch_s"},       {"client", "self.client_s"},
      {"audit", "self.audit_s"},     {"replay", "self.replay_s"},
      {"package", "self.package_s"}, {"engine", "self.engine_s"},
      {"exec", "self.exec_s"}};
  for (const auto& [category, name] : layers) (*m)[name] = 0;
  for (const obs::SpanEvent& e : events) {
    auto layer = layers.find(e.category);
    if (layer == layers.end()) continue;
    const int64_t begin = e.start_micros;
    const int64_t end = e.start_micros + e.duration_micros;
    auto kids = children.find(e.span_id);
    int64_t covered = 0;
    if (kids != children.end()) {
      std::vector<std::pair<int64_t, int64_t>>& spans = kids->second;
      std::sort(spans.begin(), spans.end());
      int64_t reach = begin;
      for (const auto& [kid_begin, kid_end] : spans) {
        const int64_t from = std::max(reach, kid_begin);
        const int64_t to = std::min(end, kid_end);
        if (to > from) covered += to - from;
        reach = std::max(reach, to);
      }
    }
    (*m)[layer->second] += static_cast<double>(e.duration_micros - covered) / 1e6;
  }
}

void StartTracing() {
  obs::TraceRecorder::Clear();
  obs::TraceRecorder::Enable();
}

// ---------------------------------------------------------------------------
// Workloads.

struct Config {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string workdir;
};

/// A short open-loop phase so the serve-side layer metrics exist on the
/// audit workloads' traced runs too; it does not touch their end-to-end
/// numbers.
void ServeLayerProbe(const Config& config, Run* run, Metrics* m) {
  Result<std::unique_ptr<ServeSetup>> setup =
      StartServer(config.workdir + "/serve_probe");
  if (!setup.ok()) {
    run->Fail("serve probe set-up: " + setup.status().ToString());
    return;
  }
  ServePhase phase = RunServePhase(setup->get(), config.seed, 0.5, 2, 0, run);
  for (const auto& [name, value] : phase.per_layer) (*m)[name] = value;
}

void RunAuditWorkload(const Config& config, PackageMode mode, Run* run) {
  Result<tpch::QuerySpec> query = tpch::FindQuery(kAuditQuery);
  const AppScript script = MakeAppScript(config.seed, query->sql, kAppInserts,
                                         kAppSelects, kAppUpdates);
  CycleTarget target;
  target.mode = mode;
  const std::string dir = config.workdir + "/cycles";
  // One warm-up cycle first: the allocator's heap and the thread pool grow
  // in it, so the measured cycles see a warm process.
  RunCycles(target, script, dir, 0, 1, run);
  if (mode == PackageMode::kServerIncluded) {
    // The audit takes most of a cycle here; run the cheap parts thrice.
    target.plains = 3;
    target.replays = 3;
  }
  if (!config.trace) {
    std::vector<CycleResult> cycles =
        RunCycles(target, script, dir, config.seconds, 2, run);
    if (!cycles.empty()) CycleEndToEnd(cycles, &run->metrics);
    return;
  }
  // Traced run: a quarter of the run length untraced, a quarter traced (at
  // least a cycle each); the difference of the two is the tracing
  // overhead. The probes fill the rest.
  std::vector<CycleResult> untraced =
      RunCycles(target, script, dir, config.seconds / 4, 1, run);
  StartTracing();
  std::vector<CycleResult> traced =
      RunCycles(target, script, dir, config.seconds / 4, 1, run);
  obs::TraceRecorder::Disable();
  if (untraced.empty() || traced.empty()) return;
  Metrics& m = run->metrics;
  CyclePerLayer(traced, &m);
  SelfTimes(obs::TraceRecorder::Events(), &m);
  obs::TraceRecorder::Clear();
  const double base = MedianOf(untraced, [](auto& c) { return c.end_to_end_s(); });
  m["trace.overhead_pct"] =
      100 * (MedianOf(traced, [](auto& c) { return c.end_to_end_s(); }) - base) /
      base;
  RunProbes(script, {kReadSql}, run, &m);
  ServeLayerProbe(config, run, &m);
}

void RunServeWorkload(const Config& config, Run* run) {
  // Set up several times; the last set-up serves the run.
  std::vector<double> setup_s;
  std::unique_ptr<ServeSetup> setup;
  for (int i = 0; i < kServeSetups; ++i) {
    setup.reset();
    Result<std::unique_ptr<ServeSetup>> started =
        StartServer(config.workdir + "/serve" + std::to_string(i));
    if (!started.ok()) {
      run->Fail("set-up: " + started.status().ToString());
      return;
    }
    setup = std::move(*started);
    setup_s.push_back(setup->setup_s);
  }
  Metrics& m = run->metrics;
  ServePhase phase;
  double untraced_read_p50 = 0;
  if (!config.trace) {
    phase = RunServePhase(setup.get(), config.seed, kWarmupSeconds,
                          config.seconds, 0, run);
  } else {
    untraced_read_p50 =
        RunServePhase(setup.get(), config.seed, kWarmupSeconds / 2,
                      config.seconds / 2, 0, run)
            .end_to_end["read_p50_ms"];
    StartTracing();
    phase = RunServePhase(setup.get(), config.seed, kWarmupSeconds / 2,
                          config.seconds / 2, 1, run);
  }
  setup.reset();

  // The audited application, each run against its own WAL-less DbServer.
  Result<tpch::QuerySpec> query = tpch::FindQuery(kSocketAppQuery);
  const AppScript script =
      MakeAppScript(config.seed, query->sql, kSocketAppInserts,
                    kSocketAppSelects, kSocketAppUpdates);
  CycleTarget target;
  target.mode = PackageMode::kServerIncluded;
  target.over_socket = true;
  target.replays = kSocketAppReplays;
  std::vector<CycleResult> cycles =
      RunCycles(target, script, config.workdir + "/cycles", 0,
                kSocketAppCycles, run);
  obs::TraceRecorder::Disable();
  if (cycles.empty()) return;

  if (!config.trace) {
    Metrics cycle_metrics;
    CycleEndToEnd(cycles, &cycle_metrics);
    for (const char* name : {"plain_s", "audit_s", "replay_s", "package_mb"}) {
      m[name] = cycle_metrics[name];
    }
    for (const auto& [name, value] : phase.end_to_end) m[name] = value;
    m["setup_s"] = Median(setup_s);
    return;
  }
  CyclePerLayer(cycles, &m);
  for (const auto& [name, value] : phase.per_layer) m[name] = value;
  SelfTimes(obs::TraceRecorder::Events(), &m);
  obs::TraceRecorder::Clear();
  m["trace.overhead_pct"] =
      100 * (phase.end_to_end["read_p50_ms"] - untraced_read_p50) /
      untraced_read_p50;
  std::vector<std::string> serve_texts = {kReadSql};
  for (const ServeRequest& r : MakeSchedule(config.seed, 1, 0)) {
    if (!r.sql.empty()) serve_texts.push_back(r.sql);
  }
  Result<tpch::QuerySpec> audit_query = tpch::FindQuery(kAuditQuery);
  AppScript probe_script = script;
  probe_script.query = audit_query->sql;
  RunProbes(probe_script, serve_texts, run, &m);
}

// ---------------------------------------------------------------------------
// Stamp and output.

std::string FilesystemOf(const std::string& path) {
  struct statfs info {};
  if (statfs(path.c_str(), &info) != 0) return "unknown";
  switch (static_cast<uint64_t>(info.f_type)) {
    case 0xEF53: return "ext4";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlayfs";
    case 0x6969: return "nfs";
    case 0x65735546: return "fuse";
    case 0x01021997: return "9p";
    case 0x6A656A63: return "virtiofs";
    default:
      return StrFormat("0x%llx", static_cast<unsigned long long>(info.f_type));
  }
}

Json Stamp(const Config& config) {
  Json stamp = Json::MakeObject();
  const unsigned hw = std::thread::hardware_concurrency();
  stamp.Set("hw_threads", Json::MakeInt(hw == 0 ? 1 : hw));
  stamp.Set("dop", Json::MakeInt(ThreadPool::default_dop()));
  stamp.Set("build_type", Json::MakeString(PERFBENCH_BUILD_TYPE));
  stamp.Set("scale_factor", Json::MakeDouble(kScaleFactor));
  stamp.Set("seed", Json::MakeInt(static_cast<int64_t>(config.seed)));
  stamp.Set("seconds", Json::MakeDouble(config.seconds));
  stamp.Set("wal_filesystem", Json::MakeString(FilesystemOf(config.workdir)));
  stamp.Set("sync_mode", Json::MakeString("fsync"));
  stamp.Set("offered_rate_per_s", Json::MakeDouble(OfferedRate()));
  stamp.Set("connections", Json::MakeInt(kConnections));
  return stamp;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024 / 1e6;
}

int Main(int argc, char** argv) {
  Config config;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      config.trace = value == "1";
    } else if (flag == "--workdir") {
      config.workdir = value;
    } else {
      std::fprintf(stderr, "ldv_perfbench: unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (config.workdir.empty() || config.seconds <= 0) {
    std::fprintf(stderr,
                 "usage: ldv_perfbench --workload W --seed N --seconds S "
                 "--trace 0|1 --workdir DIR\n");
    return 2;
  }
  if (Status made = MakeDirs(config.workdir); !made.ok()) {
    std::fprintf(stderr, "ldv_perfbench: %s\n", made.ToString().c_str());
    return 1;
  }
  Run run;
  if (config.workload == "audit_included") {
    RunAuditWorkload(config, PackageMode::kServerIncluded, &run);
  } else if (config.workload == "audit_excluded") {
    RunAuditWorkload(config, PackageMode::kServerExcluded, &run);
  } else if (config.workload == "serve_mixed") {
    RunServeWorkload(config, &run);
  } else {
    std::fprintf(stderr, "ldv_perfbench: unknown workload '%s'\n",
                 config.workload.c_str());
    return 2;
  }
  if (!config.trace) run.metrics["peak_rss_mb"] = PeakRssMb();

  Json out = Json::MakeObject();
  out.Set("workload", Json::MakeString(config.workload));
  out.Set("attempted", Json::MakeInt(run.attempted));
  out.Set("failed", Json::MakeInt(run.failed));
  Json errors = Json::MakeArray();
  for (const std::string& e : run.errors) errors.Append(Json::MakeString(e));
  out.Set("errors", std::move(errors));
  out.Set("stamp", Stamp(config));
  Json metrics = Json::MakeObject();
  Json reference = Json::MakeObject();
  for (const auto& [name, value] : run.metrics) {
    // JSON has no infinity; a failed request's latency prints as 1e12.
    (kReferenceMetrics.contains(name) ? reference : metrics)
        .Set(name, Json::MakeDouble(std::isfinite(value) ? value : 1e12));
  }
  out.Set("metrics", std::move(metrics));
  out.Set("reference", std::move(reference));
  std::printf("%s\n", out.Dump().c_str());
  return 0;
}

}  // namespace
}  // namespace ldv::perfbench

int main(int argc, char** argv) { return ldv::perfbench::Main(argc, argv); }
