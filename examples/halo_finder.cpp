// The paper's motivating scenario (§I, Figure 1): Alice's halo finder.
//
// Process P1 reads simulation data from file f1 and INSERTs candidate halos
// into the (Sloan-like) survey database. Process P2 runs a query joining the
// candidates against the observations table and writes confirmed halos to
// file f2. Alice shares the run as LDV packages; Bob re-executes them.
//
// The example demonstrates the paper's two exclusion rules:
//   - observations never touched by any statement (the t2 of Figure 1) are
//     NOT packaged,
//   - candidate tuples created by the application (the t3) are NOT packaged
//     — re-execution recreates them —
// and answers dependency queries over the combined trace (Definition 11).

#include <cstdio>

#include "ldv/auditor.h"
#include "ldv/replayer.h"
#include "trace/inference.h"
#include "trace/serialize.h"
#include "util/fsutil.h"
#include "util/strings.h"

using ldv::AppEnv;
using ldv::Status;

namespace {

/// Alice's application: two processes, two files, one shared DB.
Status HaloFinder(AppEnv& env) {
  ldv::os::ProcessContext& shell = env.root_process();

  // --- P1: ingest simulation candidates. ---
  LDV_ASSIGN_OR_RETURN(ldv::os::ProcessContext * p1,
                       shell.Spawn("ingest-candidates"));
  LDV_ASSIGN_OR_RETURN(std::string simulation,
                       p1->ReadFile("/sky/simulation.csv"));
  LDV_ASSIGN_OR_RETURN(ldv::net::DbClient * db1, env.OpenDbConnection(*p1));
  for (const std::string& line : ldv::Split(simulation, '\n')) {
    if (ldv::Trim(line).empty()) continue;
    std::vector<std::string> fields = ldv::Split(line, ',');
    LDV_RETURN_IF_ERROR(
        db1->Query("INSERT INTO candidates VALUES (" + fields[0] + ", " +
                   fields[1] + ", " + fields[2] + ")")
            .status());
  }
  p1->Exit();

  // --- P2: confirm candidates against observations. ---
  LDV_ASSIGN_OR_RETURN(ldv::os::ProcessContext * p2,
                       shell.Spawn("confirm-halos"));
  LDV_ASSIGN_OR_RETURN(ldv::net::DbClient * db2, env.OpenDbConnection(*p2));
  LDV_ASSIGN_OR_RETURN(
      ldv::exec::ResultSet halos,
      db2->Query("SELECT c.region, c.mass, o.luminosity "
                 "FROM candidates c, observations o "
                 "WHERE c.region = o.region AND o.luminosity > 0.5 "
                 "ORDER BY c.region"));
  std::string out = "region,mass,luminosity\n";
  for (const auto& row : halos.rows) {
    out += row[0].ToText() + "," + row[1].ToText() + "," + row[2].ToText() +
           "\n";
  }
  LDV_RETURN_IF_ERROR(p2->WriteFile("/sky/halos.csv", out));
  p2->Exit();
  return Status::Ok();
}

int Fail(const Status& status) {
  std::fprintf(stderr, "halo_finder: %s\n", status.ToString().c_str());
  return 1;
}

void BuildSurveyDb(ldv::storage::Database* db) {
  ldv::net::EngineHandle engine(db);
  ldv::net::LocalDbClient admin(&engine);
  (void)admin.Query(
      "CREATE TABLE candidates (region INT, mass DOUBLE, score DOUBLE)");
  (void)admin.Query(
      "CREATE TABLE observations (region INT, luminosity DOUBLE)");
  // 50 observed regions; the simulation only references 4 of them, so most
  // observation tuples must stay OUT of the package.
  std::string values;
  for (int region = 1; region <= 50; ++region) {
    if (region > 1) values += ", ";
    values += ldv::StrFormat("(%d, %.2f)", region,
                             (region % 10 == 0) ? 0.9 : 0.3 + region * 0.001);
  }
  (void)admin.Query("INSERT INTO observations VALUES " + values);
}

}  // namespace

int main(int argc, char** argv) {
  std::string work =
      argc > 1 ? argv[1] : ldv::MakeTempDir("ldv_halo_").ValueOr("/tmp");

  // Alice's simulation output references regions 10, 20, 30, 7.
  std::string sandbox = work + "/alice";
  if (auto s = ldv::WriteStringToFile(
          sandbox + "/sky/simulation.csv",
          "10,1.5e12,0.93\n20,8.1e11,0.77\n30,2.2e12,0.88\n7,5.0e11,0.41\n");
      !s.ok()) {
    return Fail(s);
  }

  for (ldv::PackageMode mode : {ldv::PackageMode::kServerIncluded,
                                ldv::PackageMode::kServerExcluded}) {
    std::string name(ldv::PackageModeName(mode));
    ldv::storage::Database db;
    BuildSurveyDb(&db);

    ldv::AuditOptions audit;
    audit.mode = mode;
    audit.package_dir = work + "/package_" + name;
    audit.sandbox_root = sandbox;
    audit.server_binary_path = ldv::FindPackagedServerBinary();
    ldv::Auditor auditor(&db, audit);
    auto report = auditor.Run(HaloFinder);
    if (!report.ok()) return Fail(report.status());

    auto info = ldv::InspectPackage(audit.package_dir);
    if (!info.ok()) return Fail(info.status());
    std::printf(
        "[%s] audited %lld statements, %lld processes -> %.3f MB package "
        "(%lld packaged tuples)\n",
        name.c_str(), static_cast<long long>(report->statements_audited),
        static_cast<long long>(report->processes),
        static_cast<double>(info->total_bytes) / 1e6,
        static_cast<long long>(info->packaged_tuples));

    if (mode == ldv::PackageMode::kServerIncluded) {
      // Exclusion rules: only the 3 observation tuples with luminosity>0.5
      // in referenced regions are packaged; candidates are app-created.
      std::printf(
          "  exclusion check: observations packaged = %lld (of 50); "
          "candidates packaged = %s\n",
          static_cast<long long>(info->packaged_tuples),
          ldv::FileExists(audit.package_dir + "/db/data/candidates.csv")
              ? "YES (bug!)"
              : "none (recreated at replay)");

      // Dependency queries over the combined trace.
      auto bytes =
          ldv::ReadFileToString(audit.package_dir + "/trace.ldv");
      if (!bytes.ok()) return Fail(bytes.status());
      auto graph = ldv::trace::DeserializeTrace(*bytes);
      if (!graph.ok()) return Fail(graph.status());
      ldv::trace::DependencyAnalyzer analyzer(&*graph);
      ldv::trace::NodeId halos_file =
          graph->FindNode(ldv::trace::NodeType::kFile, "/sky/halos.csv");
      ldv::trace::NodeId sim_file =
          graph->FindNode(ldv::trace::NodeType::kFile, "/sky/simulation.csv");
      std::printf(
          "  trace: %lld nodes / %lld edges; halos.csv depends on "
          "simulation.csv: %s; dependencies of halos.csv: %zu entities\n",
          static_cast<long long>(graph->num_nodes()),
          static_cast<long long>(graph->num_edges()),
          analyzer.Depends(halos_file, sim_file) ? "yes" : "NO (bug!)",
          analyzer.DependenciesOf(halos_file).size());
    }

    // Bob replays.
    ldv::ReplayOptions replay;
    replay.package_dir = audit.package_dir;
    replay.scratch_dir = work + "/bob_" + name;
    auto replayer = ldv::Replayer::Open(replay);
    if (!replayer.ok()) return Fail(replayer.status());
    auto replay_report = (*replayer)->Run(HaloFinder);
    if (!replay_report.ok()) return Fail(replay_report.status());

    auto original = ldv::ReadFileToString(sandbox + "/sky/halos.csv");
    auto replayed =
        ldv::ReadFileToString(replay.scratch_dir + "/sky/halos.csv");
    if (!original.ok() || !replayed.ok() || *original != *replayed) {
      std::fprintf(stderr, "[%s] replay diverged!\n", name.c_str());
      return 1;
    }
    std::printf("  replay: byte-identical halos.csv (init %.4fs)\n",
                replay_report->init_seconds);
  }
  std::printf("workdir: %s\n", work.c_str());
  return 0;
}
