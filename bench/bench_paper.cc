// The paper's evaluation (§IX: Table II, Fig. 7-9, Table III, §IX-F and the
// ablations A1-A3) from one sweep of cells (bench/paper.h). Prints the
// tables and the claim table of EXPERIMENTS.md as Markdown and exits 1 if
// any claim that applies at this scale factor fails.
//
//   ./build/bench/bench_paper > tables.md
//
// LDV_BENCH_SF sets the TPC-H scale factor (default 0.01). Timings are the
// median of 3 repeats of every cell. The working directory under the temp
// dir is removed on success and its path printed on failure.

#include <cstdio>
#include <cstdlib>

#include "paper.h"
#include "util/fsutil.h"

int main() {
  double scale_factor = 0.01;
  if (const char* sf = std::getenv("LDV_BENCH_SF")) {
    scale_factor = std::atof(sf);
  }
  auto workdir = ldv::MakeTempDir("ldv_bench_paper_");
  if (!workdir.ok()) {
    std::fprintf(stderr, "bench_paper: %s\n",
                 workdir.status().ToString().c_str());
    return 1;
  }
  auto sweep = ldv::bench::RunSweep(scale_factor, 3, *workdir);
  if (!sweep.ok()) {
    std::fprintf(stderr, "bench_paper: %s\nbench_paper: workdir kept: %s\n",
                 sweep.status().ToString().c_str(), workdir->c_str());
    return 1;
  }
  const std::vector<ldv::bench::Claim> claims =
      ldv::bench::CheckClaims(*sweep);
  std::printf("%s", ldv::bench::RenderMarkdown(*sweep, claims).c_str());
  int failed = 0;
  for (const ldv::bench::Claim& claim : claims) {
    if (claim.applies && !claim.holds) {
      std::fprintf(stderr, "bench_paper: claim %s FAILS: %s\n",
                   claim.name.c_str(), claim.measured.c_str());
      ++failed;
    }
  }
  if (failed > 0) {
    std::fprintf(stderr, "bench_paper: %d claim(s) failed; workdir kept: %s\n",
                 failed, workdir->c_str());
    return 1;
  }
  (void)ldv::RemoveAll(*workdir);
  return 0;
}
