//===- experiment_runner_test.cpp - Parallel runner determinism -----------===//
//
// Part of the Trident-SRP reproduction (CGO 2006).
//
// The contract of the parallel experiment runner: scheduling must never
// change a result. For every workload, a batch run across many worker
// threads must produce bit-identical SimResults to serial execution, the
// memo cache must hand back the same object for a repeated (workload,
// config) key, and results must come back in submission order.
//
//===----------------------------------------------------------------------===//

#include "sim/ExperimentRunner.h"

#include "gtest/gtest.h"

using namespace trident;

namespace {

/// Short-budget config so the full-suite comparisons stay fast.
SimConfig quickConfig(PrefetchMode Mode) {
  SimConfig C = SimConfig::withMode(Mode);
  C.WarmupInstructions = 5'000;
  C.SimInstructions = 30'000;
  return C;
}

void expectBitIdentical(const SimResult &A, const SimResult &B) {
  EXPECT_EQ(A.Workload, B.Workload);
  EXPECT_EQ(A.ConfigName, B.ConfigName);
  EXPECT_EQ(A.Instructions, B.Instructions);
  EXPECT_EQ(A.Cycles, B.Cycles);
  EXPECT_EQ(A.Ipc, B.Ipc);
  EXPECT_EQ(A.RegChecksum, B.RegChecksum);
  EXPECT_EQ(A.Halted, B.Halted);
  EXPECT_EQ(A.HelperBusyCycles, B.HelperBusyCycles);
  EXPECT_EQ(A.BranchMispredicts, B.BranchMispredicts);
  // Memory statistics, field by field.
  EXPECT_EQ(A.Mem.DemandLoads, B.Mem.DemandLoads);
  EXPECT_EQ(A.Mem.HitsNone, B.Mem.HitsNone);
  EXPECT_EQ(A.Mem.HitsPrefetched, B.Mem.HitsPrefetched);
  EXPECT_EQ(A.Mem.PartialHits, B.Mem.PartialHits);
  EXPECT_EQ(A.Mem.Misses, B.Mem.Misses);
  EXPECT_EQ(A.Mem.MissesDueToPrefetch, B.Mem.MissesDueToPrefetch);
  EXPECT_EQ(A.Mem.StreamBufferHits, B.Mem.StreamBufferHits);
  EXPECT_EQ(A.Mem.SoftwarePrefetches, B.Mem.SoftwarePrefetches);
  EXPECT_EQ(A.Mem.HardwarePrefetches, B.Mem.HardwarePrefetches);
  EXPECT_EQ(A.Mem.MemoryFetches, B.Mem.MemoryFetches);
  EXPECT_EQ(A.Mem.TotalExposedLatency, B.Mem.TotalExposedLatency);
  // Runtime statistics that feed the figures.
  EXPECT_EQ(A.Runtime.TracesInstalled, B.Runtime.TracesInstalled);
  EXPECT_EQ(A.Runtime.InsertionOptimizations, B.Runtime.InsertionOptimizations);
  EXPECT_EQ(A.Runtime.RepairOptimizations, B.Runtime.RepairOptimizations);
  EXPECT_EQ(A.Runtime.LoadMissesTotal, B.Runtime.LoadMissesTotal);
  EXPECT_EQ(A.Runtime.LoadMissesCovered, B.Runtime.LoadMissesCovered);
}

std::vector<ExperimentJob> fullSuiteJobs() {
  std::vector<ExperimentJob> Jobs;
  for (const std::string &Name : workloadNames()) {
    Jobs.push_back(ExperimentJob{makeWorkload(Name), quickConfig(
                                     PrefetchMode::SelfRepairing)});
  }
  return Jobs;
}

TEST(ExperimentRunner, ParallelMatchesSerialForEveryWorkload) {
  std::vector<ExperimentJob> Jobs = fullSuiteJobs();

  ExperimentRunner Serial({/*Threads=*/1, /*UseCache=*/false});
  ExperimentRunner Parallel({/*Threads=*/4, /*UseCache=*/false});
  auto SerialResults = Serial.runBatch(Jobs);
  auto ParallelResults = Parallel.runBatch(Jobs);

  ASSERT_EQ(SerialResults.size(), Jobs.size());
  ASSERT_EQ(ParallelResults.size(), Jobs.size());
  for (size_t I = 0; I < Jobs.size(); ++I) {
    SCOPED_TRACE(Jobs[I].W.Name);
    expectBitIdentical(*SerialResults[I], *ParallelResults[I]);
  }
}

TEST(ExperimentRunner, ResultsComeBackInSubmissionOrder) {
  std::vector<ExperimentJob> Jobs = fullSuiteJobs();
  ExperimentRunner Runner({/*Threads=*/4, /*UseCache=*/false});
  auto Results = Runner.runBatch(Jobs);
  ASSERT_EQ(Results.size(), Jobs.size());
  for (size_t I = 0; I < Jobs.size(); ++I)
    EXPECT_EQ(Results[I]->Workload, Jobs[I].W.Name);
}

TEST(ExperimentRunner, CacheReturnsSameObjectForRepeatedKey) {
  ExperimentRunner::clearResultCache();
  ExperimentRunner Runner({/*Threads=*/2, /*UseCache=*/true});
  Workload W = makeWorkload("mcf");
  SimConfig C = quickConfig(PrefetchMode::SelfRepairing);

  // Duplicates inside one batch coalesce to one simulation and one object.
  auto Results =
      Runner.runBatch({ExperimentJob{W, C}, ExperimentJob{W, C}});
  EXPECT_EQ(Results[0].get(), Results[1].get());
  EXPECT_EQ(ExperimentRunner::resultCacheSize(), 1u);

  // A later batch with the same key returns the identical object.
  auto Again = Runner.run(W, C);
  EXPECT_EQ(Again.get(), Results[0].get());
  EXPECT_EQ(ExperimentRunner::resultCacheSize(), 1u);

  // The cache is process-wide: a different runner sees the same entry.
  ExperimentRunner Other({/*Threads=*/1, /*UseCache=*/true});
  EXPECT_EQ(Other.run(W, C).get(), Results[0].get());
  ExperimentRunner::clearResultCache();
}

TEST(ExperimentRunner, CacheDistinguishesConfigs) {
  ExperimentRunner::clearResultCache();
  ExperimentRunner Runner({/*Threads=*/2, /*UseCache=*/true});
  Workload W = makeWorkload("swim");
  SimConfig A = quickConfig(PrefetchMode::SelfRepairing);
  SimConfig B = A;
  B.Runtime.Dlt.MonitorWindow = 128;

  auto Results = Runner.runBatch({ExperimentJob{W, A}, ExperimentJob{W, B}});
  EXPECT_NE(Results[0].get(), Results[1].get());
  EXPECT_EQ(ExperimentRunner::resultCacheSize(), 2u);
  ExperimentRunner::clearResultCache();
}

TEST(ConfigKey, SensitiveToEveryLayerOfTheConfig) {
  const SimConfig Base = SimConfig::hwBaseline();
  EXPECT_EQ(Base, SimConfig::hwBaseline());

  SimConfig C = Base;
  C.SimInstructions += 1;
  EXPECT_NE(C, Base);

  C = Base;
  C.Mem.NumMSHRs = 16;
  EXPECT_NE(C, Base);

  C = Base;
  C.Core.IssueWidth = 2;
  EXPECT_NE(C, Base);

  C = Base;
  C.HwPf = "sb4x4";
  EXPECT_NE(C, Base);

  C = Base;
  C.HwPf = "sb8x8:depth=8"; // same unit, distinct spec string
  EXPECT_NE(C, Base);

  C = Base;
  C.Core.HwPfFeedbackIntervalCommits = 1000;
  EXPECT_NE(C, Base);

  C = Base;
  C.Mem.Tlb.Enable = true;
  EXPECT_NE(C, Base);

  C = Base;
  C.Selector.OracleUnit = "dcpt";
  EXPECT_NE(C, Base);

  // Lane order picks each co-runner's address bias, so it is identity.
  C = Base;
  C.MixWith = {"art", "equake"};
  SimConfig Swapped = Base;
  Swapped.MixWith = {"equake", "art"};
  EXPECT_NE(C, Swapped);

  C = Base;
  C.Faults.Actions.push_back(FaultAction{});
  SimConfig Spiked = C;
  Spiked.Faults.Actions[0].ExtraMemLatency = 100;
  EXPECT_NE(Spiked, C);

  const SimConfig T = SimConfig::withMode(PrefetchMode::SelfRepairing);
  EXPECT_NE(T, Base);

  SimConfig T2 = T;
  T2.Runtime.Dlt.MissThreshold = 4;
  EXPECT_NE(T2, T);

  T2 = T;
  T2.Runtime.LinkTraces = false;
  EXPECT_NE(T2, T);

  T2 = T;
  T2.Runtime.Mode = PrefetchMode::Basic;
  EXPECT_NE(T2, T);
}

TEST(ExperimentRunner, DefaultThreadCountIsPositive) {
  EXPECT_GE(ExperimentRunner::defaultThreadCount(), 1u);
}

TEST(ExperimentRunner, EmptyBatchReturnsEmpty) {
  ExperimentRunner Runner({/*Threads=*/2, /*UseCache=*/true});
  EXPECT_TRUE(Runner.runBatch({}).empty());
}

} // namespace
