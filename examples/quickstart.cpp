// Quickstart: audit a tiny DB application, build a server-included package,
// and re-execute it from the package — the minimal LDV loop.
//
//   $ ./quickstart [workdir]

#include <cstdio>

#include "ldv/auditor.h"
#include "ldv/replayer.h"
#include "util/fsutil.h"
#include "util/strings.h"

using ldv::AppEnv;
using ldv::Status;

namespace {

/// The application: reads a threshold from a config file, asks the database
/// which measurements exceed it, and writes the answer to a report file.
Status App(AppEnv& env) {
  ldv::os::ProcessContext& proc = env.root_process();
  LDV_ASSIGN_OR_RETURN(std::string config, proc.ReadFile("/config.txt"));
  LDV_ASSIGN_OR_RETURN(int64_t threshold,
                       ldv::ParseInt64(ldv::Trim(config)));

  LDV_ASSIGN_OR_RETURN(ldv::net::DbClient * db, env.OpenDbConnection(proc));
  LDV_ASSIGN_OR_RETURN(
      ldv::exec::ResultSet result,
      db->Query("SELECT sensor, reading FROM measurements WHERE reading > " +
                std::to_string(threshold)));

  std::string report = "sensors over threshold:\n";
  for (const auto& row : result.rows) {
    report += "  " + row[0].AsString() + " = " + row[1].ToText() + "\n";
  }
  return proc.WriteFile("/report.txt", report);
}

int Fail(const Status& status) {
  std::fprintf(stderr, "quickstart: %s\n", status.ToString().c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string work =
      argc > 1 ? argv[1] : ldv::MakeTempDir("ldv_quickstart_").ValueOr("/tmp");

  // 1. The "server" database Alice's application talks to.
  ldv::storage::Database db;
  ldv::net::EngineHandle engine(&db);
  ldv::net::LocalDbClient admin(&engine);
  for (const char* sql : {
           "CREATE TABLE measurements (sensor TEXT, reading INT)",
           "INSERT INTO measurements VALUES ('alpha', 10), ('beta', 90), "
           "('gamma', 55), ('delta', 7), ('epsilon', 99)",
       }) {
    if (auto r = admin.Query(sql); !r.ok()) return Fail(r.status());
  }

  // 2. Alice runs the application under ldv-audit.
  ldv::AuditOptions audit;
  audit.mode = ldv::PackageMode::kServerIncluded;
  audit.package_dir = work + "/package";
  audit.sandbox_root = work + "/alice";
  audit.server_binary_path = ldv::FindPackagedServerBinary();
  if (auto s = ldv::WriteStringToFile(audit.sandbox_root + "/config.txt",
                                      "50\n");
      !s.ok()) {
    return Fail(s);
  }
  ldv::Auditor auditor(&db, audit);
  auto audited = auditor.Run(App);
  if (!audited.ok()) return Fail(audited.status());
  std::printf("audited %lld statements; packaged %lld tuples into %s\n",
              static_cast<long long>(audited->statements_audited),
              static_cast<long long>(audited->tuples_persisted),
              audited->package_dir.c_str());

  auto original = ldv::ReadFileToString(audit.sandbox_root + "/report.txt");
  if (!original.ok()) return Fail(original.status());

  // 3. Bob re-executes the package with ldv-exec — no access to Alice's DB.
  ldv::ReplayOptions replay;
  replay.package_dir = audit.package_dir;
  replay.scratch_dir = work + "/bob";
  auto replayer = ldv::Replayer::Open(replay);
  if (!replayer.ok()) return Fail(replayer.status());
  auto report = (*replayer)->Run(App);
  if (!report.ok()) return Fail(report.status());

  auto replayed = ldv::ReadFileToString(replay.scratch_dir + "/report.txt");
  if (!replayed.ok()) return Fail(replayed.status());

  std::printf("replay restored %lld tuples in %.4fs\n",
              static_cast<long long>(report->restored_tuples),
              report->init_seconds);
  std::printf("original report:\n%s", original->c_str());
  std::printf("replayed report:\n%s", replayed->c_str());
  if (*original != *replayed) {
    std::fprintf(stderr, "MISMATCH: replay diverged!\n");
    return 1;
  }
  std::printf("byte-identical: repeatability verified.\n");
  std::printf("workdir: %s\n", work.c_str());
  return 0;
}
