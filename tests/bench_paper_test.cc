// The paper-evaluation sweep (bench/paper.h) at a small scale factor: every
// claim that does not depend on timing must hold. Those are the package
// sizes and contents (Fig. 9, Table III, §IX-F's size ratio), the rows every
// configuration returns, and ablations A1 and A2. Table II is checked at
// SF 0.01 on its own, since below that the '%0000000%' customer variant
// matches no row.

#include <gtest/gtest.h>

#include "paper.h"
#include "util/fsutil.h"

namespace ldv::bench {
namespace {

TEST(BenchPaperTest, UntimedClaimsHoldAtSmallScale) {
  auto workdir = MakeTempDir("bench_paper_test_");
  ASSERT_TRUE(workdir.ok());
  auto sweep = RunSweep(0.002, 1, *workdir);
  ASSERT_TRUE(sweep.ok()) << sweep.status().ToString();
  int checked = 0;
  for (const Claim& claim : CheckClaims(*sweep)) {
    if (claim.timed || !claim.applies) continue;
    EXPECT_TRUE(claim.holds) << claim.name << ": " << claim.measured;
    ++checked;
  }
  EXPECT_GE(checked, 8);
  EXPECT_TRUE(RemoveAll(*workdir).ok());
}

TEST(BenchPaperTest, Table2SelectivityHoldsAtSf001) {
  const Claim claim = CheckSelectivity(0.01, MeasureSelectivity(0.01));
  ASSERT_TRUE(claim.applies);
  EXPECT_TRUE(claim.holds) << claim.measured;
}

}  // namespace
}  // namespace ldv::bench
