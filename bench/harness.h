#ifndef LDV_BENCH_HARNESS_H_
#define LDV_BENCH_HARNESS_H_

// Shared setup for the paper-reproduction benchmark binaries: generates the
// TPC-H database, runs the §IX-A experiment application under one of the
// four sharing configurations, replays the resulting package, and reports
// per-step timings and package sizes.

#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>
#include <string>
#include <thread>

#include "common/json.h"
#include "common/logging.h"
#include "ldv/auditor.h"
#include "ldv/replayer.h"
#include "ldv/vm_image_model.h"
#include "obs/metrics.h"
#include "tpch/app.h"
#include "tpch/generator.h"
#include "tpch/queries.h"
#include "util/fsutil.h"

namespace ldv::bench {

/// Workload knobs; environment variables override the defaults so the whole
/// suite can be scaled up (LDV_BENCH_SF=0.05 ./bench_fig9_package_size).
struct BenchConfig {
  double scale_factor = 0.01;
  uint64_t seed = 7;
  int num_inserts = 1000;
  int num_selects = 10;
  int num_updates = 100;

  static BenchConfig FromEnv() {
    BenchConfig config;
    if (const char* sf = std::getenv("LDV_BENCH_SF")) {
      config.scale_factor = std::atof(sf);
    }
    if (const char* seed = std::getenv("LDV_BENCH_SEED")) {
      config.seed = static_cast<uint64_t>(std::atoll(seed));
    }
    if (const char* n = std::getenv("LDV_BENCH_INSERTS")) {
      config.num_inserts = std::atoi(n);
    }
    if (const char* n = std::getenv("LDV_BENCH_UPDATES")) {
      config.num_updates = std::atoi(n);
    }
    return config;
  }
};

/// Everything measured for one (query, mode) cell.
struct RunResult {
  tpch::StepTimings audit_times;
  tpch::StepTimings replay_times;
  AuditReport audit_report;
  ReplayReport replay_report;
  PackageInfo package;
  double replay_total_seconds = 0;
};

inline tpch::AppOptions MakeAppOptions(const tpch::QuerySpec& query,
                                       const BenchConfig& config) {
  tpch::AppOptions options;
  options.query_sql = query.sql;
  options.num_inserts = config.num_inserts;
  options.num_selects = config.num_selects;
  options.num_updates = config.num_updates;
  tpch::TpchSizes sizes = tpch::SizesFor(config.scale_factor);
  options.insert_orderkey_base = sizes.orders;
  options.update_orderkey_max = sizes.orders;
  options.customer_max = sizes.customers;
  options.seed = config.seed;
  return options;
}

inline std::string BenchServerBinary(const std::string& workdir);

/// RAII: snapshots the global metrics registry on construction and prints
/// the per-metric delta on destruction, so every benchmark cell reports what
/// the run actually did (statements audited, retries, fault injections, ...).
class MetricsDelta {
 public:
  explicit MetricsDelta(std::string label)
      : label_(std::move(label)),
        before_(obs::MetricsRegistry::Global().Snapshot()) {}

  MetricsDelta(const MetricsDelta&) = delete;
  MetricsDelta& operator=(const MetricsDelta&) = delete;

  ~MetricsDelta() {
    std::string report =
        obs::MetricsRegistry::Global().Snapshot().DeltaReport(before_);
    if (!report.empty()) {
      std::printf("metrics delta [%s]:\n%s", label_.c_str(), report.c_str());
    }
  }

 private:
  std::string label_;
  obs::MetricsSnapshot before_;
};

/// Collects (benchmark, threads) -> throughput points from the parallel
/// execution benchmarks and writes the scaling trajectory as JSON
/// (BENCH_PARALLEL.json), so runs across commits can be compared:
///   {"hardware_threads": H, "curves": {"scan": [{"threads": 1,
///    "items_per_second": ...}, ...], ...}}
class ParallelCurve {
 public:
  static ParallelCurve& Global() {
    static ParallelCurve* instance = new ParallelCurve();
    return *instance;
  }

  void Record(const std::string& bench, int threads,
              double items_per_second) {
    std::lock_guard<std::mutex> lock(mu_);
    // Keep the best of repeated runs: benchmark frameworks re-enter with
    // growing iteration counts, and the cold first pass is not the curve.
    double& cell = points_[bench][threads];
    cell = cell > items_per_second ? cell : items_per_second;
  }

  bool empty() const {
    std::lock_guard<std::mutex> lock(mu_);
    return points_.empty();
  }

  Status WriteTo(const std::string& path) const {
    std::lock_guard<std::mutex> lock(mu_);
    Json root = Json::MakeObject();
    unsigned hw = std::thread::hardware_concurrency();
    root.Set("hardware_threads", Json::MakeInt(hw == 0 ? 1 : hw));
    Json curves = Json::MakeObject();
    for (const auto& [bench, curve] : points_) {
      Json arr = Json::MakeArray();
      for (const auto& [threads, throughput] : curve) {
        Json point = Json::MakeObject();
        point.Set("threads", Json::MakeInt(threads));
        point.Set("items_per_second", Json::MakeDouble(throughput));
        arr.Append(std::move(point));
      }
      curves.Set(bench, std::move(arr));
    }
    root.Set("curves", std::move(curves));
    return WriteStringToFile(path, root.Dump(true) + "\n");
  }

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::map<int, double>> points_;
};

/// Runs audit + replay of the experiment app for one query under one mode.
/// Fails loudly (aborts) on any error or on replay divergence — a benchmark
/// must not silently measure a broken pipeline.
inline RunResult RunExperiment(PackageMode mode, const tpch::QuerySpec& query,
                               const BenchConfig& config,
                               const std::string& workdir) {
  auto fail = [&](const Status& status) {
    std::fprintf(stderr, "bench: %s [%s %s]\n", status.ToString().c_str(),
                 std::string(PackageModeName(mode)).c_str(),
                 query.id.c_str());
    std::abort();
  };

  storage::Database db;
  tpch::GenOptions gen;
  gen.scale_factor = config.scale_factor;
  if (Status s = tpch::Generate(&db, gen); !s.ok()) fail(s);

  std::string name =
      query.id + "_" + std::string(PackageModeName(mode));
  MetricsDelta metrics_delta(name);
  AuditOptions audit;
  audit.mode = mode;
  audit.package_dir = workdir + "/pkg_" + name;
  audit.sandbox_root = workdir + "/sandbox_" + name;
  audit.server_binary_path = BenchServerBinary(workdir);
  VmImageModel vm({.scale = config.scale_factor});
  audit.vm_base_image_bytes = vm.ScaledBaseImageBytes();
  if (Status s = MakeDirs(audit.sandbox_root); !s.ok()) fail(s);

  RunResult result;
  tpch::AppOptions app = MakeAppOptions(query, config);
  {
    Auditor auditor(&db, audit);
    auto report = auditor.Run(tpch::MakeExperimentApp(app, &result.audit_times));
    if (!report.ok()) fail(report.status());
    result.audit_report = *report;
  }
  {
    ReplayOptions replay;
    replay.package_dir = audit.package_dir;
    replay.scratch_dir = workdir + "/scratch_" + name;
    WallTimer timer;
    auto replayer = Replayer::Open(replay);
    if (!replayer.ok()) fail(replayer.status());
    auto report =
        (*replayer)->Run(tpch::MakeExperimentApp(app, &result.replay_times));
    if (!report.ok()) fail(report.status());
    result.replay_report = *report;
    result.replay_total_seconds = timer.Seconds();
  }
  if (result.replay_times.result_fingerprint !=
      result.audit_times.result_fingerprint) {
    fail(Status::ReplayMismatch("replay fingerprint diverged"));
  }
  auto info = InspectPackage(audit.package_dir);
  if (!info.ok()) fail(info.status());
  result.package = *info;
  return result;
}

/// Baseline: the same application against a plain server with NO monitoring
/// (the paper's "standard PostgreSQL server" reference measurement).
inline tpch::StepTimings RunUnaudited(const tpch::QuerySpec& query,
                                      const BenchConfig& config,
                                      const std::string& workdir) {
  storage::Database db;
  tpch::GenOptions gen;
  gen.scale_factor = config.scale_factor;
  LDV_CHECK_OK(tpch::Generate(&db, gen));
  net::EngineHandle engine(&db);

  /// Minimal un-instrumented environment.
  class PlainEnv final : public AppEnv {
   public:
    PlainEnv(net::EngineHandle* engine, const std::string& sandbox)
        : vfs_(sandbox), sim_os_(&vfs_, &clock_, nullptr), engine_(engine) {}
    os::ProcessContext& root_process() override { return *sim_os_.root(); }
    Result<net::DbClient*> OpenDbConnection(os::ProcessContext&) override {
      clients_.push_back(std::make_unique<net::LocalDbClient>(engine_));
      return clients_.back().get();
    }

   private:
    LogicalClock clock_;
    os::Vfs vfs_;
    os::SimOs sim_os_;
    net::EngineHandle* engine_;
    std::vector<std::unique_ptr<net::DbClient>> clients_;
  };

  std::string sandbox = workdir + "/plain_" + query.id;
  MetricsDelta metrics_delta("plain_" + query.id);
  LDV_CHECK_OK(MakeDirs(sandbox));
  PlainEnv env(&engine, sandbox);
  tpch::StepTimings timings;
  tpch::AppOptions app = MakeAppOptions(query, config);
  LDV_CHECK_OK(tpch::MakeExperimentApp(app, &timings)(env));
  return timings;
}

inline std::string BenchWorkdir(const char* name) {
  auto dir = MakeTempDir(std::string("ldv_bench_") + name + "_");
  LDV_CHECK(dir.ok());
  return *dir;
}

/// The DB server binary embedded into packages. Debug builds carry tens of
/// MB of debug info that would dwarf the data in Fig. 9's size comparison, so
/// benchmarks embed a stripped copy (what a release package would ship).
inline std::string BenchServerBinary(const std::string& workdir) {
  static std::string cached;
  if (!cached.empty()) return cached;
  std::string source = FindLdvServerBinary();
  if (source.empty()) return source;
  std::string stripped = workdir + "/ldv_server.stripped";
  if (!CopyFile(source, stripped).ok()) return source;
  std::string cmd = "strip -s '" + stripped + "' 2>/dev/null";
  if (std::system(cmd.c_str()) != 0) return source;
  cached = stripped;
  return cached;
}

}  // namespace ldv::bench

#endif  // LDV_BENCH_HARNESS_H_
