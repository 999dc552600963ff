// Ablations of the two LDV design choices DESIGN.md calls out:
//
// A1 — provenance-based DB slicing. Compares the server-included package's
//      tuple subset against shipping the whole accessed tables (what a
//      DB-unaware virtualizer must do), across the Q1 selectivity sweep.
//
// A2 — temporal dependency pruning (Definition 11). Counts inferred
//      dependencies on randomized traces with and without the temporal
//      constraints: the difference is the spurious dependencies (and thus
//      package content) that the paper's temporal reasoning eliminates.

#include <cstdio>

#include "harness.h"
#include "trace/inference.h"
#include "util/rng.h"
#include "util/strings.h"

using ldv::PackageMode;
using ldv::bench::BenchConfig;
using ldv::bench::RunExperiment;
using ldv::bench::RunResult;

namespace {

void AblationSlicing(const BenchConfig& config, const std::string& workdir) {
  std::printf(
      "A1 — DB slicing: packaged tuple subset vs whole accessed tables "
      "(sf=%.3f)\n\n", config.scale_factor);
  std::printf("%-6s %12s %14s %14s %12s\n", "query", "subset(MB)",
              "whole-tbls(MB)", "subset-tuples", "reduction");

  for (const char* id : {"Q1-1", "Q1-2", "Q1-3", "Q1-4", "Q1-5", "Q3-4"}) {
    auto query = ldv::tpch::FindQuery(id);
    LDV_CHECK(query.ok());
    BenchConfig c = config;
    c.num_inserts = 50;
    c.num_updates = 10;
    RunResult inc =
        RunExperiment(PackageMode::kServerIncluded, *query, c, workdir);
    RunResult ptu = RunExperiment(PackageMode::kPtu, *query, c, workdir);
    double subset_mb =
        static_cast<double>(inc.package.tuple_data_bytes) / 1e6;
    double whole_mb = static_cast<double>(ptu.package.full_data_bytes) / 1e6;
    std::printf("%-6s %12.3f %14.3f %14lld %11.1fx\n", id, subset_mb,
                whole_mb,
                static_cast<long long>(inc.package.packaged_tuples),
                whole_mb / std::max(subset_mb, 1e-6));
  }
  std::printf("\n");
}

void AblationTemporal() {
  std::printf(
      "A2 — temporal pruning: inferred dependencies with vs without "
      "Definition 11's\n     temporal constraints, randomized P_BB traces\n\n");
  std::printf("%8s %10s %14s %14s %10s\n", "files", "events", "deps(temporal)",
              "deps(naive)", "pruned");

  ldv::Rng rng(1234);
  for (int files : {10, 20, 40, 80}) {
    ldv::trace::TraceGraph g;
    std::vector<ldv::trace::NodeId> file_nodes;
    std::vector<ldv::trace::NodeId> proc_nodes;
    for (int i = 0; i < files; ++i) {
      file_nodes.push_back(g.GetOrAddNode(ldv::trace::NodeType::kFile,
                                          ldv::StrFormat("f%d", i)));
    }
    for (int i = 0; i < files / 3 + 1; ++i) {
      proc_nodes.push_back(g.GetOrAddNode(ldv::trace::NodeType::kProcess,
                                          ldv::StrFormat("p%d", i)));
    }
    int events = files * 4;
    for (int i = 0; i < events; ++i) {
      auto file = file_nodes[static_cast<size_t>(
          rng.Uniform(0, static_cast<int64_t>(file_nodes.size()) - 1))];
      auto proc = proc_nodes[static_cast<size_t>(
          rng.Uniform(0, static_cast<int64_t>(proc_nodes.size()) - 1))];
      int64_t begin = rng.Uniform(1, 200);
      int64_t end = begin + rng.Uniform(0, 10);
      if (rng.Bernoulli(0.5)) {
        (void)g.MergeEdge(file, proc, ldv::trace::EdgeType::kReadFrom,
                          {begin, end});
      } else {
        (void)g.MergeEdge(proc, file, ldv::trace::EdgeType::kHasWritten,
                          {begin, end});
      }
    }
    ldv::trace::DependencyAnalyzer analyzer(&g);
    int64_t with_temporal = 0;
    for (auto f : file_nodes) {
      with_temporal += static_cast<int64_t>(analyzer.DependenciesOf(f).size());
    }
    analyzer.set_use_temporal_constraints(false);
    int64_t naive = 0;
    for (auto f : file_nodes) {
      naive += static_cast<int64_t>(analyzer.DependenciesOf(f).size());
    }
    std::printf("%8d %10d %14lld %14lld %9.1f%%\n", files, events,
                static_cast<long long>(with_temporal),
                static_cast<long long>(naive),
                100.0 * static_cast<double>(naive - with_temporal) /
                    static_cast<double>(std::max<int64_t>(naive, 1)));
  }
  std::printf(
      "\n'pruned' = spurious dependencies removed by temporal causality — "
      "data that a\nnaive (atemporal) packager would include "
      "unnecessarily.\n");
}

void AblationIndex(const BenchConfig& config) {
  std::printf(
      "A3 — hash index on orders(o_orderkey): per-update cost of the "
      "experiment app's\n     Update step (100 single-row updates), with and "
      "without the index, with and\n     without reenactment provenance "
      "(sf=%.3f)\n\n", config.scale_factor);
  std::printf("%-24s %14s %14s\n", "configuration", "no-index(ms)",
              "indexed(ms)");

  for (bool provenance : {false, true}) {
    double ms[2];
    for (int indexed = 0; indexed < 2; ++indexed) {
      ldv::storage::Database db;
      ldv::tpch::GenOptions gen;
      gen.scale_factor = config.scale_factor;
      LDV_CHECK_OK(ldv::tpch::Generate(&db, gen));
      db.FindTable("orders")->set_provenance_tracking(true);
      ldv::exec::Executor executor(&db);
      if (indexed != 0) {
        LDV_CHECK_OK(executor
                         .Execute("CREATE INDEX idx ON orders (o_orderkey)",
                                  {})
                         .status());
      }
      ldv::tpch::TpchSizes sizes = ldv::tpch::SizesFor(config.scale_factor);
      ldv::Rng rng(11);
      ldv::WallTimer timer;
      const int updates = 100;
      for (int i = 0; i < updates; ++i) {
        std::string sql = ldv::StrFormat(
            "UPDATE orders SET o_comment = 'a3-%d' WHERE o_orderkey = %lld",
            i, static_cast<long long>(rng.Uniform(1, sizes.orders)));
        if (provenance) sql = "PROVENANCE " + sql;
        LDV_CHECK_OK(executor.Execute(sql, {}).status());
      }
      ms[indexed] = timer.Seconds() * 1000.0 / updates;
    }
    std::printf("%-24s %14.4f %14.4f\n",
                provenance ? "with reenactment prov." : "plain updates",
                ms[0], ms[1]);
  }
  std::printf(
      "\nThe paper's testbed has primary-key indexes, making the provenance "
      "queries the\ndominant update-audit cost; without an index our scans "
      "dominate instead. The\ndefault benchmarks run unindexed (see "
      "EXPERIMENTS.md).\n\n");
}

}  // namespace

int main() {
  BenchConfig config = BenchConfig::FromEnv();
  std::string workdir = ldv::bench::BenchWorkdir("ablation");
  AblationSlicing(config, workdir);
  AblationIndex(config);
  AblationTemporal();
  std::printf("workdir: %s\n", workdir.c_str());
  return 0;
}
