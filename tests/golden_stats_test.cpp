//===- golden_stats_test.cpp - Golden stat-registry regression corpus ------===//
//
// Part of the Trident-SRP reproduction (CGO 2006).
//
// Byte-compares the canonical StatRegistry JSONL export of every workload
// (at a small fixed budget) against committed snapshots in tests/golden/.
// Any unintended behaviour change anywhere in the machine shows up here as
// a counter drift long before it grows into a headline-figure regression.
//
// To refresh after an *intentional* change: tools/update_goldens.sh, then
// review the diff like any other code change. The test regenerates (rather
// than compares) when TRIDENT_UPDATE_GOLDENS is set; on mismatch it dumps
// the actual export to golden_diff/ in the working directory so CI can
// upload it as an artifact.
//
//===----------------------------------------------------------------------===//

#include "GoldenFile.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <string>

using namespace trident;
using namespace trident::golden;

TEST(GoldenStats, AllWorkloadsMatchCommittedSnapshots) {
  for (const std::string &Name : workloadNames()) {
    SimResult R = runSimulation(makeWorkload(Name), goldenConfig());
    ASSERT_TRUE(R.Registry) << Name;
    checkGolden(Name, Name, R.Registry->toJsonl());
  }
}
