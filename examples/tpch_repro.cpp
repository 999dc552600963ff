// Reproduces one cell of the paper's evaluation interactively: runs the
// §IX-A experiment application (1000 inserts / 10 selects / 100 updates)
// over TPC-H under all four sharing approaches and prints audit + replay
// timings and package sizes side by side.
//
//   $ ./tpch_repro [query-id] [scale-factor]     (default: Q1-1 0.005)

#include <cstdio>
#include <cstdlib>

#include "ldv/auditor.h"
#include "ldv/replayer.h"
#include "ldv/vm_image_model.h"
#include "tpch/app.h"
#include "tpch/generator.h"
#include "tpch/queries.h"
#include "util/fsutil.h"

namespace {

int Fail(const ldv::Status& status) {
  std::fprintf(stderr, "tpch_repro: %s\n", status.ToString().c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string query_id = argc > 1 ? argv[1] : "Q1-1";
  double sf = argc > 2 ? std::atof(argv[2]) : 0.005;
  auto query = ldv::tpch::FindQuery(query_id);
  if (!query.ok()) return Fail(query.status());
  auto work = ldv::MakeTempDir("ldv_tpch_repro_");
  if (!work.ok()) return Fail(work.status());

  ldv::tpch::TpchSizes sizes = ldv::tpch::SizesFor(sf);
  ldv::tpch::AppOptions app;
  app.query_sql = query->sql;
  app.insert_orderkey_base = sizes.orders;
  app.update_orderkey_max = sizes.orders;
  app.customer_max = sizes.customers;

  std::printf("query %s (sel %.2f%%), TPC-H sf=%.4f\n", query->id.c_str(),
              query->selectivity * 100, sf);
  std::printf(
      "%-17s %10s %10s %10s %10s | %10s %10s | %9s\n", "mode", "ins(s)",
      "sel1(s)", "selN(s)", "upd(s)", "init(s)", "replay(s)", "size(MB)");

  for (ldv::PackageMode mode :
       {ldv::PackageMode::kPtu, ldv::PackageMode::kServerIncluded,
        ldv::PackageMode::kServerExcluded, ldv::PackageMode::kVmImage}) {
    std::string name(ldv::PackageModeName(mode));
    ldv::storage::Database db;
    ldv::tpch::GenOptions gen;
    gen.scale_factor = sf;
    if (auto s = ldv::tpch::Generate(&db, gen); !s.ok()) return Fail(s);

    ldv::AuditOptions audit;
    audit.mode = mode;
    audit.package_dir = *work + "/pkg_" + name;
    audit.sandbox_root = *work + "/sandbox_" + name;
    audit.server_binary_path = ldv::FindPackagedServerBinary();
    ldv::VmImageModel vm({.scale = sf});
    audit.vm_base_image_bytes = vm.ScaledBaseImageBytes();
    if (auto s = ldv::MakeDirs(audit.sandbox_root); !s.ok()) return Fail(s);

    ldv::tpch::StepTimings audit_times;
    ldv::Auditor auditor(&db, audit);
    auto audited =
        auditor.Run(ldv::tpch::MakeExperimentApp(app, &audit_times));
    if (!audited.ok()) return Fail(audited.status());

    ldv::ReplayOptions replay;
    replay.package_dir = audit.package_dir;
    replay.scratch_dir = *work + "/scratch_" + name;
    ldv::WallTimer replay_timer;
    auto replayer = ldv::Replayer::Open(replay);
    if (!replayer.ok()) return Fail(replayer.status());
    ldv::tpch::StepTimings replay_times;
    auto replayed =
        (*replayer)->Run(ldv::tpch::MakeExperimentApp(app, &replay_times));
    if (!replayed.ok()) return Fail(replayed.status());
    double replay_total = replay_timer.Seconds();
    if (mode == ldv::PackageMode::kVmImage) {
      replay_total = vm.BootSeconds() + vm.ReplaySeconds(replay_total);
    }
    if (replay_times.result_fingerprint != audit_times.result_fingerprint) {
      std::fprintf(stderr, "[%s] replay diverged!\n", name.c_str());
      return 1;
    }

    std::printf(
        "%-17s %10.4f %10.4f %10.4f %10.4f | %10.4f %10.4f | %9.2f\n",
        name.c_str(), audit_times.inserts_seconds,
        audit_times.first_select_seconds, audit_times.other_selects_seconds,
        audit_times.updates_seconds, replayed->init_seconds, replay_total,
        static_cast<double>(ldv::TreeSize(audit.package_dir)) / 1e6);
  }
  std::printf("workdir: %s\n", work->c_str());
  return 0;
}
