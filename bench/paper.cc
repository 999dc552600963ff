#include "paper.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <utility>

#include "common/clock.h"
#include "common/logging.h"
#include "exec/executor.h"
#include "ldv/auditor.h"
#include "ldv/replayer.h"
#include "ldv/vm_image_model.h"
#include "net/db_client.h"
#include "os/sim_process.h"
#include "tpch/generator.h"
#include "tpch/queries.h"
#include "trace/inference.h"
#include "util/fsutil.h"
#include "util/rng.h"
#include "util/strings.h"

namespace ldv::bench {
namespace {

constexpr int kSelects = 10;
constexpr uint64_t kAppSeed = 7;
/// Timed claims and Table II's are asserted at SF 0.01 and above: below it
/// the '%0000000%' customer variant matches no row, and the per-query
/// timings shrink into the scheduler's noise.
constexpr double kClaimScaleFactor = 0.01;
/// perfbench's audit_included / audit_excluded `package_mb` (Q2-4, §IX-A
/// load, SF 0.01), which this sweep's same cells must reproduce.
constexpr double kPerfbenchIncludedMb = 9.63;
constexpr double kPerfbenchExcludedMb = 33.27;
/// Queries of ablation A1 (the Q1 selectivity sweep plus Q3-4 at 66%).
const char* const kSlicingQueries[] = {"Q1-1", "Q1-2", "Q1-3",
                                       "Q1-4", "Q1-5", "Q3-4"};

const char* ConfigName(Config config) {
  switch (config) {
    case Config::kNoAudit: return "no audit";
    case Config::kPtu: return "PTU";
    case Config::kIncluded: return "server-included";
    case Config::kExcluded: return "server-excluded";
    case Config::kVmImage: return "VM image";
  }
  return "?";
}

const char* LoadName(Load load) {
  switch (load) {
    case Load::kPaper: return "paper";
    case Load::kPaperIndexed: return "indexed";
    case Load::kSweep: return "sweep";
  }
  return "?";
}

PackageMode ModeOf(Config config) {
  switch (config) {
    case Config::kPtu: return PackageMode::kPtu;
    case Config::kExcluded: return PackageMode::kServerExcluded;
    case Config::kVmImage: return PackageMode::kVmImage;
    default: return PackageMode::kServerIncluded;
  }
}

/// The cells every view reads.
std::vector<CellKey> SweepCells() {
  std::vector<CellKey> keys;
  for (Config c : {Config::kNoAudit, Config::kPtu, Config::kIncluded,
                   Config::kExcluded, Config::kVmImage}) {
    keys.push_back({"Q1-1", c, Load::kPaper});
  }
  keys.push_back({"Q1-1", Config::kNoAudit, Load::kPaperIndexed});
  keys.push_back({"Q1-1", Config::kIncluded, Load::kPaperIndexed});
  keys.push_back({"Q2-4", Config::kIncluded, Load::kPaper});
  keys.push_back({"Q2-4", Config::kExcluded, Load::kPaper});
  for (const tpch::QuerySpec& query : tpch::ExperimentQueries()) {
    for (Config c : {Config::kNoAudit, Config::kPtu, Config::kIncluded,
                     Config::kExcluded}) {
      keys.push_back({query.id, c, Load::kSweep});
    }
  }
  return keys;
}

tpch::AppOptions AppFor(const tpch::QuerySpec& query, double scale_factor,
                        Load load) {
  tpch::AppOptions app;
  app.query_sql = query.sql;
  app.num_selects = kSelects;
  if (load == Load::kSweep) {
    app.num_inserts = 100;
    app.num_updates = 20;
  }
  tpch::TpchSizes sizes = tpch::SizesFor(scale_factor);
  app.insert_orderkey_base = sizes.orders;
  app.update_orderkey_max = sizes.orders;
  app.customer_max = sizes.customers;
  app.seed = kAppSeed;
  return app;
}

/// The application against the engine with no monitoring: the paper's
/// "standard PostgreSQL server" reference.
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

/// One repeat of one cell, run in `dir`.
Result<Cell> RunCell(const CellKey& key, double scale_factor,
                     const std::string& dir) {
  LDV_ASSIGN_OR_RETURN(tpch::QuerySpec query, tpch::FindQuery(key.query));
  storage::Database db;
  tpch::GenOptions gen;
  gen.scale_factor = scale_factor;
  LDV_RETURN_IF_ERROR(tpch::Generate(&db, gen));
  if (key.load == Load::kPaperIndexed) {
    exec::Executor executor(&db);
    LDV_RETURN_IF_ERROR(
        executor.Execute("CREATE INDEX idx_orders_key ON orders (o_orderkey)",
                         {})
            .status());
  }
  const tpch::AppOptions app = AppFor(query, scale_factor, key.load);
  Cell cell;
  if (key.config == Config::kNoAudit) {
    net::EngineHandle engine(&db);
    const std::string sandbox = JoinPath(dir, "sandbox");
    LDV_RETURN_IF_ERROR(MakeDirs(sandbox));
    PlainEnv env(&engine, sandbox);
    LDV_RETURN_IF_ERROR(tpch::MakeExperimentApp(app, &cell.audit)(env));
    return cell;
  }

  AuditOptions audit;
  audit.mode = ModeOf(key.config);
  audit.package_dir = JoinPath(dir, "pkg");
  audit.sandbox_root = JoinPath(dir, "sandbox");
  audit.server_binary_path = FindPackagedServerBinary();
  audit.vm_base_image_bytes =
      VmImageModel({.scale = scale_factor}).ScaledBaseImageBytes();
  LDV_RETURN_IF_ERROR(MakeDirs(audit.sandbox_root));
  {
    Auditor auditor(&db, audit);
    LDV_RETURN_IF_ERROR(
        auditor.Run(tpch::MakeExperimentApp(app, &cell.audit)).status());
  }
  ReplayOptions replay;
  replay.package_dir = audit.package_dir;
  replay.scratch_dir = JoinPath(dir, "scratch");
  LDV_ASSIGN_OR_RETURN(auto replayer, Replayer::Open(replay));
  LDV_ASSIGN_OR_RETURN(
      ReplayReport report,
      replayer->Run(tpch::MakeExperimentApp(app, &cell.replay)));
  cell.replay_init_seconds = report.init_seconds;
  cell.replay_faithful =
      cell.replay.result_fingerprint == cell.audit.result_fingerprint;
  LDV_ASSIGN_OR_RETURN(cell.package, InspectPackage(audit.package_dir));
  return cell;
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

tpch::StepTimings MedianTimings(const std::vector<Cell>& runs,
                                tpch::StepTimings Cell::*side) {
  tpch::StepTimings timings = runs.front().*side;
  auto median = [&](double tpch::StepTimings::*field) {
    std::vector<double> values;
    for (const Cell& run : runs) values.push_back((run.*side).*field);
    return Median(std::move(values));
  };
  timings.inserts_seconds = median(&tpch::StepTimings::inserts_seconds);
  timings.first_select_seconds =
      median(&tpch::StepTimings::first_select_seconds);
  timings.other_selects_seconds =
      median(&tpch::StepTimings::other_selects_seconds);
  timings.updates_seconds = median(&tpch::StepTimings::updates_seconds);
  return timings;
}

/// Per-field medians of the repeats' timings; everything else from the
/// first repeat.
Cell MedianCell(const std::vector<Cell>& runs) {
  Cell cell = runs.front();
  cell.audit = MedianTimings(runs, &Cell::audit);
  cell.replay = MedianTimings(runs, &Cell::replay);
  std::vector<double> inits;
  for (const Cell& run : runs) {
    inits.push_back(run.replay_init_seconds);
    cell.replay_faithful =
        cell.replay_faithful && run.replay_faithful &&
        run.audit.result_fingerprint == cell.audit.result_fingerprint;
  }
  cell.replay_init_seconds = Median(std::move(inits));
  return cell;
}

std::vector<TemporalRow> MeasureTemporalPruning() {
  std::vector<TemporalRow> rows;
  Rng rng(1234);
  for (int files : {10, 20, 40, 80}) {
    trace::TraceGraph g;
    std::vector<trace::NodeId> file_nodes;
    std::vector<trace::NodeId> proc_nodes;
    for (int i = 0; i < files; ++i) {
      file_nodes.push_back(
          g.GetOrAddNode(trace::NodeType::kFile, StrFormat("f%d", i)));
    }
    for (int i = 0; i < files / 3 + 1; ++i) {
      proc_nodes.push_back(
          g.GetOrAddNode(trace::NodeType::kProcess, StrFormat("p%d", i)));
    }
    TemporalRow row;
    row.files = files;
    row.events = files * 4;
    for (int i = 0; i < row.events; ++i) {
      auto file = file_nodes[static_cast<size_t>(
          rng.Uniform(0, static_cast<int64_t>(file_nodes.size()) - 1))];
      auto proc = proc_nodes[static_cast<size_t>(
          rng.Uniform(0, static_cast<int64_t>(proc_nodes.size()) - 1))];
      int64_t begin = rng.Uniform(1, 200);
      int64_t end = begin + rng.Uniform(0, 10);
      if (rng.Bernoulli(0.5)) {
        (void)g.MergeEdge(file, proc, trace::EdgeType::kReadFrom,
                          {begin, end});
      } else {
        (void)g.MergeEdge(proc, file, trace::EdgeType::kHasWritten,
                          {begin, end});
      }
    }
    trace::DependencyAnalyzer analyzer(&g);
    for (auto f : file_nodes) {
      row.temporal += static_cast<int64_t>(analyzer.DependenciesOf(f).size());
    }
    analyzer.set_use_temporal_constraints(false);
    for (auto f : file_nodes) {
      row.naive += static_cast<int64_t>(analyzer.DependenciesOf(f).size());
    }
    rows.push_back(row);
  }
  return rows;
}

double SelectStep(const tpch::StepTimings& t) {
  return t.first_select_seconds + t.other_selects_seconds;
}

double PrunedShare(const TemporalRow& row) {
  return static_cast<double>(row.naive - row.temporal) /
         static_cast<double>(std::max<int64_t>(row.naive, 1));
}

/// A1: full data files over the server-included tuple subset.
double SlicingReduction(const Sweep& sweep, const std::string& id) {
  return static_cast<double>(
             sweep.at(id, Config::kPtu, Load::kSweep).package.full_data_bytes) /
         static_cast<double>(std::max<int64_t>(
             sweep.at(id, Config::kIncluded, Load::kSweep)
                 .package.tuple_data_bytes,
             1));
}

/// §IX-F: the average LDV package over the sweep's 36 LDV cells, data MB.
double AverageLdvDataMb(const Sweep& sweep) {
  const auto& queries = tpch::ExperimentQueries();
  double sum = 0;
  for (const auto& q : queries) {
    sum += sweep.at(q.id, Config::kIncluded, Load::kSweep).data_mb() +
           sweep.at(q.id, Config::kExcluded, Load::kSweep).data_mb();
  }
  return sum / (2.0 * static_cast<double>(queries.size()));
}

}  // namespace

double Cell::data_mb() const {
  return static_cast<double>(package.total_bytes -
                             package.server_binary_bytes) /
         1e6;
}

double Cell::server_mb() const {
  return static_cast<double>(package.server_binary_bytes) / 1e6;
}

double Cell::audit_query_seconds() const {
  return SelectStep(audit) / kSelects;
}

double Cell::replay_query_seconds() const {
  return SelectStep(replay) / kSelects;
}

const Cell& Sweep::at(const std::string& query, Config config,
                      Load load) const {
  auto it = cells.find({query, config, load});
  LDV_CHECK(it != cells.end());
  return it->second;
}

std::vector<SelectivityRow> MeasureSelectivity(double scale_factor) {
  storage::Database db;
  tpch::GenOptions gen;
  gen.scale_factor = scale_factor;
  LDV_CHECK_OK(tpch::Generate(&db, gen));
  net::EngineHandle engine(&db);
  net::LocalDbClient client(&engine);
  const int64_t lineitems = db.FindTable("lineitem")->live_row_count();

  std::vector<SelectivityRow> rows;
  for (const tpch::QuerySpec& query : tpch::ExperimentQueries()) {
    auto result = client.Query(query.sql);
    LDV_CHECK(result.ok());
    // Qualifying lineitem rows: Q3 returns count(*) itself; Q4 groups, so
    // it is re-measured through Q2's flat join shape.
    SelectivityRow row;
    row.query = query.id;
    row.param = query.param;
    if (query.family == 3) {
      row.qualifying = result->rows[0][0].AsInt();
    } else if (query.family == 4) {
      auto flat = client.Query(
          "SELECT count(*) FROM lineitem l, orders o WHERE l.l_orderkey = "
          "o.o_orderkey AND l_suppkey BETWEEN 1 AND " +
          query.param);
      LDV_CHECK(flat.ok());
      row.qualifying = flat->rows[0][0].AsInt();
    } else {
      row.qualifying = static_cast<int64_t>(result->rows.size());
    }
    row.paper_pct = query.selectivity * 100.0;
    row.measured_pct = 100.0 * static_cast<double>(row.qualifying) /
                       static_cast<double>(lineitems);
    rows.push_back(row);
  }
  return rows;
}

Result<Sweep> RunSweep(double scale_factor, int repeats,
                       const std::string& workdir) {
  Sweep sweep;
  sweep.scale_factor = scale_factor;
  sweep.repeats = repeats;
  const std::vector<CellKey> keys = SweepCells();
  std::map<CellKey, std::vector<Cell>> runs;
  for (int repeat = 0; repeat < repeats; ++repeat) {
    std::fprintf(stderr, "bench_paper: repeat %d/%d, %zu cells, sf=%.4f\n",
                 repeat + 1, repeats, keys.size(), scale_factor);
    for (const CellKey& key : keys) {
      const std::string dir = JoinPath(
          workdir, StrFormat("%s_%s_%s_%d", key.query.c_str(),
                             ConfigName(key.config), LoadName(key.load),
                             repeat));
      Result<Cell> cell = RunCell(key, scale_factor, dir);
      if (!cell.ok()) {
        return Status::Internal("cell " + dir + ": " +
                                cell.status().ToString());
      }
      LDV_RETURN_IF_ERROR(RemoveAll(dir));
      runs[key].push_back(std::move(*cell));
    }
  }
  for (auto& [key, cell_runs] : runs) {
    sweep.cells.emplace(key, MedianCell(cell_runs));
  }
  sweep.table2 = MeasureSelectivity(scale_factor);
  sweep.a2 = MeasureTemporalPruning();
  return sweep;
}

// ---------------------------------------------------------------------------
// Claims.

Claim CheckSelectivity(double scale_factor,
                       const std::vector<SelectivityRow>& rows) {
  Claim claim;
  claim.name = "table2.selectivity";
  claim.statement =
      "every variant's selectivity is within 10% relative of the paper's "
      "Sel. column, and every variant but Q2-1/Q3-1 within 5%";
  claim.applies = scale_factor >= kClaimScaleFactor;
  claim.holds = !rows.empty();
  double worst = 0;
  std::string worst_query;
  double worst_other = 0;
  for (const SelectivityRow& row : rows) {
    const double error =
        std::abs(row.measured_pct - row.paper_pct) / row.paper_pct;
    if (error > worst) {
      worst = error;
      worst_query = row.query;
    }
    const bool q_1 = row.query == "Q2-1" || row.query == "Q3-1";
    if (!q_1) worst_other = std::max(worst_other, error);
    claim.holds = claim.holds && error <= 0.10 && (q_1 || error <= 0.05);
  }
  claim.measured =
      StrFormat("worst %.1f%% (%s); worst other than Q2-1/Q3-1 %.1f%%",
                worst * 100, worst_query.c_str(), worst_other * 100);
  return claim;
}

std::vector<Claim> CheckClaims(const Sweep& sweep) {
  const auto& queries = tpch::ExperimentQueries();
  const bool timed_range = sweep.scale_factor >= kClaimScaleFactor;
  std::vector<Claim> claims;
  claims.push_back(CheckSelectivity(sweep.scale_factor, sweep.table2));
  // Appends a claim; the pointer is valid until the next add.
  auto add = [&](std::string name, std::string statement, bool timed) {
    Claim claim;
    claim.name = std::move(name);
    claim.statement = std::move(statement);
    claim.timed = timed;
    claim.applies = !timed || timed_range;
    claims.push_back(std::move(claim));
    return &claims.back();
  };
  auto sweep_cell = [&](const std::string& id, Config config) -> const Cell& {
    return sweep.at(id, config, Load::kSweep);
  };
  auto paper_cell = [&](const std::string& id, Config config) -> const Cell& {
    return sweep.at(id, config, Load::kPaper);
  };
  auto family = [&](int f) {
    std::vector<std::string> ids;
    for (const auto& q : queries) {
      if (q.family == f) ids.push_back(q.id);
    }
    return ids;
  };

  {
    Claim* c = add("rows.faithful",
                   "at each load every configuration of a query returns the "
                   "same rows, and every replay returns its audit's rows",
                   false);
    c->holds = true;
    std::map<std::pair<std::string, Load>, const Cell*> first;
    for (const auto& [key, cell] : sweep.cells) {
      const Cell* reference =
          first.emplace(std::pair{key.query, key.load}, &cell).first->second;
      if (!cell.replay_faithful ||
          cell.audit.result_fingerprint !=
              reference->audit.result_fingerprint ||
          cell.audit.rows_returned != reference->audit.rows_returned) {
        c->holds = false;
        c->measured += key.query + " " + ConfigName(key.config) + " " +
                       LoadName(key.load) + " differs; ";
      }
    }
    if (c->holds) {
      c->measured = StrFormat("%zu cells agree", sweep.cells.size());
    }
  }

  {
    Claim* c = add("fig7a.no_update_overhead",
                   "at Q1-1 (§IX-A load) no audited configuration's Update "
                   "step takes more than 1.5x the unaudited one",
                   true);
    const double plain = paper_cell("Q1-1", Config::kNoAudit)
                             .audit.updates_seconds;
    double worst = 0;
    for (Config config : {Config::kPtu, Config::kIncluded, Config::kExcluded}) {
      worst = std::max(
          worst, paper_cell("Q1-1", config).audit.updates_seconds / plain);
    }
    c->holds = worst <= 1.5;
    c->measured = StrFormat("worst %.2fx of %.3f s", worst, plain);
  }

  {
    Claim* c = add("fig7b.included_selects",
                   "at Q1-1 server-included replay runs the Select step at "
                   "least 10x faster than PTU replay (the smaller relevant "
                   "subset)",
                   true);
    const double ptu = SelectStep(paper_cell("Q1-1", Config::kPtu).replay);
    const double inc =
        SelectStep(paper_cell("Q1-1", Config::kIncluded).replay);
    c->holds = inc * 10 <= ptu;
    c->measured = StrFormat("%.1fx (%.4f vs %.4f s)", ptu / inc, inc, ptu);
  }

  {
    Claim* c = add("fig7b.excluded_fastest",
                   "at Q1-1 server-excluded replay is the fastest "
                   "configuration in total and in every step but Other "
                   "Selects",
                   true);
    auto steps = [](const Cell& cell) {
      return std::vector<double>{
          cell.replay_init_seconds, cell.replay.inserts_seconds,
          cell.replay.first_select_seconds, cell.replay.updates_seconds,
          cell.replay_init_seconds + cell.replay.inserts_seconds +
              SelectStep(cell.replay) + cell.replay.updates_seconds};
    };
    const std::vector<double> exc = steps(paper_cell("Q1-1", Config::kExcluded));
    const std::vector<double> inc = steps(paper_cell("Q1-1", Config::kIncluded));
    const std::vector<double> ptu = steps(paper_cell("Q1-1", Config::kPtu));
    const char* names[] = {"Initialization", "Inserts", "First Select",
                           "Updates", "total"};
    c->holds = true;
    for (size_t i = 0; i < exc.size(); ++i) {
      const double rival = std::min(inc[i], ptu[i]);
      if (exc[i] >= rival) {
        c->holds = false;
        c->measured += StrFormat("%s %.4f vs %.4f s; ", names[i], exc[i],
                                 rival);
      }
    }
    const Cell& other = paper_cell("Q1-1", Config::kExcluded);
    c->measured += StrFormat(
        "Other Selects %.4f vs included %.4f s",
        other.replay.other_selects_seconds,
        paper_cell("Q1-1", Config::kIncluded).replay.other_selects_seconds);
  }

  {
    Claim* c = add("fig7b.init_order",
                   "server-included replay Initialization is cheaper than "
                   "PTU's at Q1-1 (1% selectivity) and dearer at Q2-4 (66%)",
                   true);
    const double inc_low = paper_cell("Q1-1", Config::kIncluded)
                               .replay_init_seconds;
    const double ptu_low = paper_cell("Q1-1", Config::kPtu).replay_init_seconds;
    const double inc_high =
        sweep_cell("Q2-4", Config::kIncluded).replay_init_seconds;
    const double ptu_high = sweep_cell("Q2-4", Config::kPtu).replay_init_seconds;
    c->holds = inc_low < ptu_low && inc_high > ptu_high;
    c->measured = StrFormat("Q1-1 %.4f vs %.4f s; Q2-4 %.4f vs %.4f s",
                            inc_low, ptu_low, inc_high, ptu_high);
  }

  {
    Claim* c = add("fig8a.included_overhead",
                   "server-included audit is slower than PTU and "
                   "server-excluded audit in all 18 cells",
                   true);
    c->holds = true;
    double lowest = 1e9;
    std::string lowest_query;
    for (const auto& q : queries) {
      const double inc = sweep_cell(q.id, Config::kIncluded).audit_query_seconds();
      const double other =
          std::max(sweep_cell(q.id, Config::kPtu).audit_query_seconds(),
                   sweep_cell(q.id, Config::kExcluded).audit_query_seconds());
      if (inc / other < lowest) {
        lowest = inc / other;
        lowest_query = q.id;
      }
      c->holds = c->holds && inc > other;
    }
    c->measured = StrFormat("smallest margin %.2fx (%s)", lowest,
                            lowest_query.c_str());
  }

  {
    Claim* c = add("fig8a.grows_with_selectivity",
                   "in every family server-included audit time at the "
                   "highest-selectivity variant exceeds the lowest's",
                   true);
    c->holds = true;
    for (int f = 1; f <= 4; ++f) {
      const auto ids = family(f);
      const double low =
          sweep_cell(ids.front(), Config::kIncluded).audit_query_seconds();
      const double high =
          sweep_cell(ids.back(), Config::kIncluded).audit_query_seconds();
      c->holds = c->holds && high > low;
      c->measured += StrFormat("Q%d %.1fx; ", f, high / low);
    }
  }

  {
    Claim* c = add("fig8b.ldv_replay_beats_full_db",
                   "server-included and server-excluded replay are each "
                   "faster than PTU replay in all 18 cells",
                   true);
    c->holds = true;
    double closest = 0;
    for (const auto& q : queries) {
      const double ptu = sweep_cell(q.id, Config::kPtu).replay_query_seconds();
      for (Config config : {Config::kIncluded, Config::kExcluded}) {
        const double ldv = sweep_cell(q.id, config).replay_query_seconds();
        closest = std::max(closest, ldv / ptu);
        c->holds = c->holds && ldv < ptu;
      }
    }
    c->measured = StrFormat("closest cell at %.2fx of PTU", closest);
  }

  {
    Claim* c = add("fig8b.excluded_fastest",
                   "server-excluded replay is the fastest configuration in "
                   "every Q2, Q3 and Q4 cell",
                   true);
    c->holds = true;
    for (const auto& q : queries) {
      if (q.family == 1) continue;
      const double exc = sweep_cell(q.id, Config::kExcluded).replay_query_seconds();
      const double rival =
          std::min(sweep_cell(q.id, Config::kIncluded).replay_query_seconds(),
                   sweep_cell(q.id, Config::kPtu).replay_query_seconds());
      if (exc < rival) continue;
      c->holds = false;
      c->measured +=
          StrFormat("%s %.5f vs %.5f s; ", q.id.c_str(), exc, rival);
    }
    if (c->holds) c->measured = "all 13 cells";
  }

  {
    Claim* c = add("fig8b.q3_extreme",
                   "server-excluded replay of every Q3 query (one result "
                   "row) takes under 0.1 ms per execution",
                   true);
    double worst = 0;
    for (const std::string& id : family(3)) {
      worst = std::max(
          worst, sweep_cell(id, Config::kExcluded).replay_query_seconds());
    }
    c->holds = worst < 1e-4;
    c->measured = StrFormat("slowest %.1f us", worst * 1e6);
  }

  {
    Claim* c = add("fig9.ptu_largest_data",
                   "PTU's data bytes exceed server-included's in all 18 "
                   "cells",
                   false);
    c->holds = true;
    double lowest = 1e9;
    for (const auto& q : queries) {
      const double ratio = sweep_cell(q.id, Config::kPtu).data_mb() /
                           sweep_cell(q.id, Config::kIncluded).data_mb();
      lowest = std::min(lowest, ratio);
      c->holds = c->holds && ratio > 1;
    }
    c->measured = StrFormat("smallest PTU / included %.2fx", lowest);
  }

  {
    Claim* c = add("fig9.answers_vs_subset",
                   "server-excluded data bytes exceed server-included's in "
                   "every Q1 and Q2 cell (ten copies of every result row "
                   "outweigh the rows' inputs) and fall below them in every "
                   "Q4 cell and in Q3-2 to Q3-4 (one aggregate row per "
                   "execution)",
                   false);
    c->holds = true;
    for (const auto& q : queries) {
      const double inc = sweep_cell(q.id, Config::kIncluded).data_mb();
      const double exc = sweep_cell(q.id, Config::kExcluded).data_mb();
      const bool larger = q.family <= 2;
      if (q.id == "Q3-1" || larger == (exc > inc)) continue;
      c->holds = false;
      c->measured += StrFormat("%s %.3f vs %.3f MB; ", q.id.c_str(), exc, inc);
    }
    if (c->holds) c->measured = "every cell as stated";
  }

  {
    Claim* c = add("fig9.q2_4_vs_q3_4",
                   "at 66% selectivity Q2-4's server-excluded package is the "
                   "largest of the sweep, above PTU's, while Q3-4's "
                   "(count(*)) is under 1% of it",
                   false);
    const double q24 = sweep_cell("Q2-4", Config::kExcluded).data_mb();
    const double q34 = sweep_cell("Q3-4", Config::kExcluded).data_mb();
    c->holds = q34 * 100 < q24;
    for (const auto& [key, cell] : sweep.cells) {
      if (key.load == Load::kSweep) c->holds = c->holds && cell.data_mb() <= q24;
    }
    c->measured = StrFormat("Q2-4 %.3f MB (PTU %.3f), Q3-4 %.3f MB", q24,
                            sweep_cell("Q2-4", Config::kPtu).data_mb(), q34);
  }

  {
    Claim* c = add("table3.matrix",
                   "PTU ships server and full data; server-included ships "
                   "server, relevant tuples and trace but no data files; "
                   "server-excluded ships the answer log and neither server "
                   "nor data; the VM image ships server, full data and image",
                   false);
    const PackageInfo& ptu = paper_cell("Q1-1", Config::kPtu).package;
    const PackageInfo& inc = paper_cell("Q1-1", Config::kIncluded).package;
    const PackageInfo& exc = paper_cell("Q1-1", Config::kExcluded).package;
    const PackageInfo& vm = paper_cell("Q1-1", Config::kVmImage).package;
    c->holds = ptu.server_binary_bytes > 0 && ptu.full_data_bytes > 0 &&
               ptu.tuple_data_bytes == 0 && ptu.replay_log_bytes == 0 &&
               inc.server_binary_bytes > 0 && inc.full_data_bytes == 0 &&
               inc.tuple_data_bytes > 0 && inc.trace_bytes > 0 &&
               inc.replay_log_bytes == 0 && exc.server_binary_bytes == 0 &&
               exc.full_data_bytes == 0 && exc.tuple_data_bytes == 0 &&
               exc.replay_log_bytes > 0 && vm.server_binary_bytes > 0 &&
               vm.full_data_bytes > 0 && vm.vm_image_bytes > 0;
    c->measured = c->holds ? "matrix as stated" : "a row differs";
  }

  {
    Claim* c = add("ix_f.vmi_ratio",
                   "the VM image's data bytes are over 10x the average LDV "
                   "package's (server-included and server-excluded, all 18 "
                   "queries)",
                   false);
    const double average = AverageLdvDataMb(sweep);
    const double vmi = paper_cell("Q1-1", Config::kVmImage).data_mb();
    c->holds = vmi > 10 * average;
    c->measured = StrFormat("%.1fx (%.2f vs %.2f MB)", vmi / average, vmi,
                            average);
  }

  {
    Claim* c = add("ix_f.replay_speed",
                   "at Q1-1 the modeled VM runs the Select step slower than "
                   "native, and server-included replay runs it faster than "
                   "native",
                   true);
    const double native =
        SelectStep(paper_cell("Q1-1", Config::kNoAudit).audit);
    const double vm =
        VmImageModel({.scale = sweep.scale_factor}).ReplaySeconds(native);
    const double inc =
        SelectStep(paper_cell("Q1-1", Config::kIncluded).replay);
    c->holds = vm > native && inc < native;
    c->measured =
        StrFormat("VM %.4f, native %.4f, included %.4f s", vm, native, inc);
  }

  {
    Claim* c = add("a1.slicing",
                   "the server-included tuple subset is smaller than the "
                   "full data files in every A1 cell, and the reduction "
                   "shrinks as Q1's selectivity grows",
                   false);
    c->holds = true;
    double previous = 1e18;
    for (const char* id : kSlicingQueries) {
      const double reduction = SlicingReduction(sweep, id);
      c->holds = c->holds && reduction > 1;
      if (id[1] == '1') {
        c->holds = c->holds && reduction < previous;
        previous = reduction;
      }
      c->measured += StrFormat("%s %.1fx; ", id, reduction);
    }
  }

  {
    Claim* c = add("a2.temporal_pruning",
                   "temporal constraints never add a dependency and remove "
                   "at least half of the naive ones on every trace",
                   false);
    c->holds = !sweep.a2.empty();
    for (const TemporalRow& row : sweep.a2) {
      c->holds = c->holds && row.temporal <= row.naive &&
                 2 * (row.naive - row.temporal) >= row.naive;
      c->measured +=
          StrFormat("%d files %.0f%%; ", row.files, 100 * PrunedShare(row));
    }
  }

  {
    Claim* c = add("a3.index",
                   "with an index on orders(o_orderkey) the Update step "
                   "takes under a tenth of the unindexed time, audited or "
                   "not",
                   true);
    c->holds = true;
    for (Config config : {Config::kNoAudit, Config::kIncluded}) {
      const double plain = paper_cell("Q1-1", config).audit.updates_seconds;
      const double indexed =
          sweep.at("Q1-1", config, Load::kPaperIndexed).audit.updates_seconds;
      c->holds = c->holds && indexed * 10 < plain;
      c->measured += StrFormat("%s %.1fx; ", ConfigName(config),
                               plain / indexed);
    }
  }

  {
    Claim* c = add("perfbench.package_mb",
                   "the Q2-4 cells at the §IX-A load report package_mb "
                   "within 5% of perfbench's (9.63 MB included, 33.27 MB "
                   "excluded)",
                   false);
    c->applies = sweep.scale_factor == kClaimScaleFactor;
    const double inc = paper_cell("Q2-4", Config::kIncluded).data_mb();
    const double exc = paper_cell("Q2-4", Config::kExcluded).data_mb();
    c->holds =
        std::abs(inc - kPerfbenchIncludedMb) <= 0.05 * kPerfbenchIncludedMb &&
        std::abs(exc - kPerfbenchExcludedMb) <= 0.05 * kPerfbenchExcludedMb;
    c->measured = StrFormat("%.2f / %.2f MB", inc, exc);
  }
  return claims;
}

// ---------------------------------------------------------------------------
// Markdown views.

std::string RenderMarkdown(const Sweep& sweep,
                           const std::vector<Claim>& claims) {
  const auto& queries = tpch::ExperimentQueries();
  const VmImageModel vm({.scale = sweep.scale_factor});
  auto f = [](const char* format, double value) {
    return StrFormat(format, value);
  };
  auto n = [](int64_t value) {
    return StrFormat("%lld", static_cast<long long>(value));
  };
  std::string md =
      StrFormat("bench_paper: TPC-H sf=%.4f, timings are medians of %d "
                "repeat(s)\n",
                sweep.scale_factor, sweep.repeats);
  auto row = [&](const std::vector<std::string>& cells) {
    md += "|";
    for (const std::string& cell : cells) md += " " + cell + " |";
    md += "\n";
  };
  auto table = [&](const std::string& title,
                   const std::vector<std::string>& header) {
    md += "\n### " + title + "\n\n";
    row(header);
    row(std::vector<std::string>(header.size(), "---"));
  };
  auto paper = [&](const std::string& id, Config config) -> const Cell& {
    return sweep.at(id, config, Load::kPaper);
  };

  table("Table II — selectivity",
        {"query", "param", "rows", "paper Sel. %", "measured %"});
  for (const SelectivityRow& r : sweep.table2) {
    row({r.query, r.param, n(r.qualifying), f("%.3f", r.paper_pct),
         f("%.3f", r.measured_pct)});
  }

  table("Fig. 7a — audit, seconds per step (Q1-1, §IX-A load)",
        {"configuration", "Inserts", "First Select", "Other Selects",
         "Updates"});
  for (Config config : {Config::kNoAudit, Config::kPtu, Config::kIncluded,
                        Config::kExcluded}) {
    const tpch::StepTimings& t = paper("Q1-1", config).audit;
    row({ConfigName(config), f("%.4f", t.inserts_seconds),
         f("%.4f", t.first_select_seconds), f("%.4f", t.other_selects_seconds),
         f("%.4f", t.updates_seconds)});
  }

  table("Fig. 7b — replay, seconds per step (Q1-1, §IX-A load)",
        {"configuration", "Initialization", "Inserts", "First Select",
         "Other Selects", "Updates"});
  for (Config config : {Config::kPtu, Config::kIncluded, Config::kExcluded}) {
    const Cell& cell = paper("Q1-1", config);
    row({ConfigName(config), f("%.4f", cell.replay_init_seconds),
         f("%.4f", cell.replay.inserts_seconds),
         f("%.4f", cell.replay.first_select_seconds),
         f("%.4f", cell.replay.other_selects_seconds),
         f("%.4f", cell.replay.updates_seconds)});
  }

  table("Fig. 8 — seconds per query execution (sweep load)",
        {"query", "audit: no audit", "audit: PTU", "audit: included",
         "audit: excluded", "replay: PTU", "replay: included",
         "replay: excluded", "replay: VM (model)"});
  for (const auto& q : queries) {
    std::vector<std::string> cells = {q.id};
    for (Config config : {Config::kNoAudit, Config::kPtu, Config::kIncluded,
                          Config::kExcluded}) {
      cells.push_back(f("%.5f", sweep.at(q.id, config, Load::kSweep)
                                    .audit_query_seconds()));
    }
    for (Config config : {Config::kPtu, Config::kIncluded, Config::kExcluded}) {
      cells.push_back(f("%.5f", sweep.at(q.id, config, Load::kSweep)
                                    .replay_query_seconds()));
    }
    cells.push_back(f("%.5f", vm.ReplaySeconds(
                                  sweep.at(q.id, Config::kPtu, Load::kSweep)
                                      .replay_query_seconds())));
    row(cells);
  }

  table("Fig. 9 — package data MB (sweep load; server binary apart)",
        {"query", "PTU", "included", "excluded", "included tuples",
         "server binary MB"});
  for (const auto& q : queries) {
    const Cell& inc = sweep.at(q.id, Config::kIncluded, Load::kSweep);
    row({q.id, f("%.3f", sweep.at(q.id, Config::kPtu, Load::kSweep).data_mb()),
         f("%.3f", inc.data_mb()),
         f("%.3f", sweep.at(q.id, Config::kExcluded, Load::kSweep).data_mb()),
         n(inc.package.packaged_tuples), f("%.3f", inc.server_mb())});
  }

  table("Table III — package contents (Q1-1, §IX-A load)",
        {"package type", "DB server", "data files", "DB provenance",
         "data MB", "server binary MB"});
  for (Config config :
       {Config::kPtu, Config::kIncluded, Config::kExcluded, Config::kVmImage}) {
    const Cell& cell = paper("Q1-1", config);
    const PackageInfo& p = cell.package;
    row({ConfigName(config), p.server_binary_bytes > 0 ? "yes" : "no",
         p.full_data_bytes > 0    ? "full"
         : p.tuple_data_bytes > 0 ? "empty + relevant tuples"
                                  : "none",
         p.tuple_data_bytes > 0   ? "yes (tuples)"
         : p.replay_log_bytes > 0 ? "yes (answers)"
                                  : "no",
         f("%.3f", cell.data_mb()), f("%.3f", cell.server_mb())});
  }

  const double vmi = paper("Q1-1", Config::kVmImage).data_mb();
  const double native = SelectStep(paper("Q1-1", Config::kNoAudit).audit);
  table("§IX-F — VM image vs LDV packages", {"measure", "value"});
  row({"VM image data MB", f("%.3f", vmi)});
  row({"average LDV package data MB (36 sweep cells)",
       f("%.3f", AverageLdvDataMb(sweep))});
  row({"ratio", f("%.1fx", vmi / AverageLdvDataMb(sweep))});
  row({"native Select step s (Q1-1)", f("%.4f", native)});
  row({"modeled VM Select step s",
       StrFormat("%.4f (+ %.2f s boot)", vm.ReplaySeconds(native),
                 vm.BootSeconds())});
  row({"server-included replay Select step s",
       f("%.4f", SelectStep(paper("Q1-1", Config::kIncluded).replay))});

  table("A1 — slicing: tuple subset vs full data files (sweep load)",
        {"query", "subset MB", "full data MB", "subset tuples", "reduction"});
  for (const char* id : kSlicingQueries) {
    const PackageInfo& inc = sweep.at(id, Config::kIncluded, Load::kSweep).package;
    const PackageInfo& ptu = sweep.at(id, Config::kPtu, Load::kSweep).package;
    row({id, f("%.3f", static_cast<double>(inc.tuple_data_bytes) / 1e6),
         f("%.3f", static_cast<double>(ptu.full_data_bytes) / 1e6),
         n(inc.packaged_tuples), f("%.1fx", SlicingReduction(sweep, id))});
  }

  table("A2 — temporal pruning on randomized traces",
        {"files", "events", "deps (temporal)", "deps (naive)", "pruned"});
  for (const TemporalRow& r : sweep.a2) {
    row({n(r.files), n(r.events), n(r.temporal), n(r.naive),
         f("%.1f%%", 100 * PrunedShare(r))});
  }

  // The §IX-A load runs 100 updates.
  table("A3 — Update step with and without an index (Q1-1, §IX-A load)",
        {"configuration", "unindexed ms/update", "indexed ms/update"});
  for (Config config : {Config::kNoAudit, Config::kIncluded}) {
    row({ConfigName(config),
         f("%.4f", paper("Q1-1", config).audit.updates_seconds * 1000 / 100),
         f("%.4f", sweep.at("Q1-1", config, Load::kPaperIndexed)
                           .audit.updates_seconds *
                       1000 / 100)});
  }

  table("perfbench cross-check — Q2-4, §IX-A load",
        {"configuration", "package_mb", "perfbench"});
  row({"server-included", f("%.3f", paper("Q2-4", Config::kIncluded).data_mb()),
       f("%.2f", kPerfbenchIncludedMb)});
  row({"server-excluded", f("%.3f", paper("Q2-4", Config::kExcluded).data_mb()),
       f("%.2f", kPerfbenchExcludedMb)});

  table("Claims", {"claim", "statement", "timed", "verdict", "measured"});
  for (const Claim& claim : claims) {
    row({"`" + claim.name + "`", claim.statement, claim.timed ? "yes" : "no",
         !claim.applies ? "n/a at this SF"
                        : (claim.holds ? "holds" : "**FAILS**"),
         claim.measured});
  }
  return md;
}

}  // namespace ldv::bench
