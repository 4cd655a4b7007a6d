//===- mix_determinism_test.cpp - Mix runs are bit-reproducible ------------===//
//
// Part of the Trident-SRP reproduction (CGO 2006).
//
// The determinism contract extended to multi-programmed mixes: the same
// primary + co-runner set + quantum must produce byte-identical registry
// exports (a) across repeated runs in one process, (b) under the serial
// and the parallel experiment runner (TRIDENT_BENCH_JOBS=1 vs =4), and
// (c) the solo path must be untouched by the mix machinery — a config
// with MixWith empty is the legacy machine, bit for bit (that last claim
// is what golden_stats_test enforces; here we pin the mix-specific parts).
//
//===----------------------------------------------------------------------===//

#include "sim/ExperimentRunner.h"
#include "sim/Simulation.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

using namespace trident;

namespace {

/// Small-budget two-workload mix: mcf (pointer-chasing primary) against
/// art (streaming co-runner), contention-heavy enough that scheduling
/// bugs would perturb counters immediately.
SimConfig mixConfig() {
  SimConfig C = SimConfig::withMode(PrefetchMode::SelfRepairing);
  C.SimInstructions = 20'000;
  C.WarmupInstructions = 5'000;
  C.MixWith = {"art"};
  return C;
}

} // namespace

TEST(MixDeterminism, RepeatedRunsAreByteIdentical) {
  Workload W = makeWorkload("mcf");
  SimConfig C = mixConfig();
  SimResult A = runSimulation(W, C);
  SimResult B = runSimulation(W, C);
  ASSERT_TRUE(A.Registry);
  ASSERT_TRUE(B.Registry);
  EXPECT_EQ(A.Registry->toJsonl(), B.Registry->toJsonl());
  EXPECT_EQ(A.RegChecksum, B.RegChecksum);
  ASSERT_EQ(A.MixLanes.size(), 1u);
  ASSERT_EQ(B.MixLanes.size(), 1u);
  EXPECT_EQ(A.MixLanes[0].Workload, B.MixLanes[0].Workload);
  EXPECT_EQ(A.MixLanes[0].Instructions, B.MixLanes[0].Instructions);
  EXPECT_EQ(A.MixLanes[0].Cycles, B.MixLanes[0].Cycles);
}

TEST(MixDeterminism, MixResultShapeAndExports) {
  SimResult R = runSimulation(makeWorkload("mcf"), mixConfig());
  // A mix result reads like a solo result plus the mix appendix.
  EXPECT_EQ(R.Workload, "mcf");
  EXPECT_EQ(R.ConfigName, "trident-self-repairing+mix(art)");
  EXPECT_EQ(R.Instructions, 20'000u);
  ASSERT_EQ(R.MixLanes.size(), 1u);
  EXPECT_EQ(R.MixLanes[0].Workload, "art");
  EXPECT_GT(R.MixLanes[0].Instructions, 0u);
  EXPECT_GT(R.MixLanes[0].Cycles, 0u);
  // mix.* registry lines are only-when-on and present on mix runs.
  ASSERT_TRUE(R.Registry);
  EXPECT_EQ(R.Registry->counter("mix.lanes"), 2u);
  EXPECT_EQ(R.Registry->counter("mix.quantum_cycles"), 1'000u);
  EXPECT_EQ(R.Registry->counter("mix.lane1.instructions"),
            R.MixLanes[0].Instructions);
  EXPECT_EQ(R.Registry->counter("mix.lane1.cycles"), R.MixLanes[0].Cycles);
}

TEST(MixDeterminism, SerialAndParallelRunnersAgree) {
  // The same four-job batch (two mixes, their two solo controls) under a
  // 1-thread and a 4-thread pool, cache off so both pools really simulate.
  std::vector<ExperimentJob> Jobs;
  {
    SimConfig C = mixConfig();
    Jobs.push_back(ExperimentJob{makeWorkload("mcf"), C});
    SimConfig C2 = C;
    C2.MixWith = {"equake", "art"};
    Jobs.push_back(ExperimentJob{makeWorkload("mcf"), C2});
    SimConfig Solo = C;
    Solo.MixWith.clear();
    Jobs.push_back(ExperimentJob{makeWorkload("mcf"), Solo});
    Jobs.push_back(ExperimentJob{makeWorkload("art"), Solo});
  }

  auto runWithJobsEnv = [&](const char *JobsEnv) {
    // Threads=0 resolves through TRIDENT_BENCH_JOBS — the exact path the
    // bench drivers use.
    ::setenv("TRIDENT_BENCH_JOBS", JobsEnv, 1);
    ExperimentRunnerOptions O;
    O.Threads = 0;
    O.UseCache = false;
    ExperimentRunner R(O);
    return R.runBatch(Jobs);
  };

  auto Serial = runWithJobsEnv("1");
  auto Parallel = runWithJobsEnv("4");
  ::unsetenv("TRIDENT_BENCH_JOBS");
  ASSERT_EQ(Serial.size(), Jobs.size());
  ASSERT_EQ(Parallel.size(), Jobs.size());
  for (size_t I = 0; I < Jobs.size(); ++I) {
    ASSERT_TRUE(Serial[I] && Parallel[I]) << "job " << I;
    ASSERT_TRUE(Serial[I]->Registry && Parallel[I]->Registry) << "job " << I;
    EXPECT_EQ(Serial[I]->Registry->toJsonl(), Parallel[I]->Registry->toJsonl())
        << "job " << I << " diverged between 1-thread and 4-thread pools";
    EXPECT_EQ(Serial[I]->RegChecksum, Parallel[I]->RegChecksum) << "job " << I;
  }
  // The two mix configs must not collide with each other or solo.
  EXPECT_NE(Jobs[0].Config, Jobs[1].Config);
  EXPECT_NE(Jobs[0].Config, Jobs[2].Config);
}
