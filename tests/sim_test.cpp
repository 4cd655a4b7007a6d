//===- sim_test.cpp - Simulation wiring & configuration tests --------------===//
//
// Part of the Trident-SRP reproduction (CGO 2006).
//
//===----------------------------------------------------------------------===//

#include "isa/ProgramBuilder.h"
#include "sim/Simulation.h"

#include <gtest/gtest.h>

using namespace trident;

namespace {

Workload streamWorkload(int64_t Stride = 64) {
  ProgramBuilder B;
  B.loadImm(1, 0x1000'0000);
  B.loadImm(27, int64_t(1) << 40);
  B.label("loop");
  B.load(6, 1, 0);
  B.fadd(9, 9, 6);
  B.aluImm(Opcode::AddI, 1, 1, Stride);
  B.blt(1, 27, "loop");
  B.halt();
  return {"stream", "", B.finish(), [](DataMemory &) {}};
}

SimConfig budget(SimConfig C, uint64_t N = 300'000) {
  C.SimInstructions = N;
  C.WarmupInstructions = 30'000;
  return C;
}

} // namespace

TEST(Sim, ConfigNames) {
  EXPECT_EQ(hwPfConfigName("none"), "no-hwpf");
  EXPECT_EQ(hwPfConfigName(""), "no-hwpf");
  EXPECT_EQ(hwPfConfigName("sb4x4"), "sb4x4");
  EXPECT_EQ(hwPfConfigName("sb8x8"), "sb8x8");
  EXPECT_EQ(hwPfConfigName("dcpt:entries=64"), "dcpt:entries=64");
  EXPECT_STREQ(prefetchModeName(PrefetchMode::SelfRepairing),
               "self-repairing");

  SimResult R = runSimulation(streamWorkload(),
                              budget(SimConfig::hwBaseline(), 50'000));
  EXPECT_EQ(R.ConfigName, "sb8x8");
  SimResult R2 = runSimulation(
      streamWorkload(),
      budget(SimConfig::withMode(PrefetchMode::Basic), 50'000));
  EXPECT_EQ(R2.ConfigName, "trident-basic");
}

TEST(Sim, BaselineConfigsMatchTable1) {
  MemSystemConfig M = MemSystemConfig::baseline();
  EXPECT_EQ(M.L1.SizeBytes, 64u * 1024);
  EXPECT_EQ(M.L1.Assoc, 2u);
  EXPECT_EQ(M.L1.HitLatency, 3u);
  EXPECT_EQ(M.L2.SizeBytes, 512u * 1024);
  EXPECT_EQ(M.L2.Assoc, 8u);
  EXPECT_EQ(M.L2.HitLatency, 11u);
  EXPECT_EQ(M.L3.SizeBytes, 4u * 1024 * 1024);
  EXPECT_EQ(M.L3.Assoc, 16u);
  EXPECT_EQ(M.L3.HitLatency, 35u);
  EXPECT_EQ(M.MemoryLatency, 350u);
  EXPECT_FALSE(M.Tlb.Enable); // not part of the paper's baseline

  CoreConfig C = CoreConfig::baseline();
  EXPECT_EQ(C.IssueWidth, 4u);
  EXPECT_EQ(C.RobSize, 256u);
  EXPECT_EQ(C.FpIssueLimit, 2u);
  EXPECT_EQ(C.MemIssueLimit, 2u);
  EXPECT_EQ(C.MispredictPenalty, 20u); // 20-stage pipeline
  EXPECT_EQ(C.NumContexts, 2u);
}

TEST(Sim, HardwarePrefetchingHelpsStreams) {
  SimConfig None = budget(SimConfig::hwBaseline());
  None.HwPf = "none";
  SimResult RN = runSimulation(streamWorkload(), None);
  SimResult R8 = runSimulation(streamWorkload(),
                               budget(SimConfig::hwBaseline()));
  EXPECT_GT(speedup(R8, RN), 1.5);
  EXPECT_EQ(R8.HwPf.Prefetcher, "stream-buffers-8x8");
  EXPECT_GT(R8.HwPf.get("probe_hits"), 100u);
}

TEST(Sim, RegistrySpecEquivalentToNamedConfig) {
  // "sb8x8" and sb4x4 knobbed up to sb8x8's shape build the same unit:
  // the full stat registries must export byte-identically.
  SimConfig Named = budget(SimConfig::hwBaseline(), 50'000);
  SimConfig Spec = Named;
  Spec.HwPf = "sb4x4:buffers=8,depth=8";
  SimResult RN = runSimulation(streamWorkload(), Named);
  SimResult RS = runSimulation(streamWorkload(), Spec);
  ASSERT_TRUE(RN.Registry && RS.Registry);
  EXPECT_EQ(RN.Registry->toJsonl(), RS.Registry->toJsonl());
  EXPECT_EQ(RN.RegChecksum, RS.RegChecksum);
}

TEST(Sim, RobSizeLimitsMemoryParallelism) {
  // Many independent missing streams: a tiny ROB throttles overlap.
  ProgramBuilder B;
  for (unsigned K = 0; K < 8; ++K)
    B.loadImm(1 + K, 0x1000'0000 + uint64_t(K) * 0x0400'0000);
  B.loadImm(27, int64_t(1) << 40);
  B.label("loop");
  for (unsigned K = 0; K < 8; ++K) {
    B.load(11 + K, 1 + K, 0);
    B.aluImm(Opcode::AddI, 1 + K, 1 + K, 128);
  }
  B.blt(1, 27, "loop");
  B.halt();
  Workload W{"mlp", "", B.finish(), [](DataMemory &) {}};

  SimConfig Big = budget(SimConfig::hwBaseline(), 100'000);
  Big.HwPf = "none";
  SimConfig Small = Big;
  Small.Core.RobSize = 8;
  SimResult RBig = runSimulation(W, Big);
  SimResult RSmall = runSimulation(W, Small);
  EXPECT_GT(RBig.Ipc, RSmall.Ipc * 1.3);
}

TEST(Sim, IssueWidthMattersWhenComputeBound) {
  ProgramBuilder B;
  B.loadImm(27, int64_t(1) << 40).loadImm(26, 0);
  B.label("loop");
  for (unsigned I = 0; I < 12; ++I)
    B.aluImm(Opcode::AddI, 1 + (I % 8), 1 + (I % 8), 1); // independent
  B.addi(26, 26, 1);
  B.blt(26, 27, "loop");
  B.halt();
  Workload W{"alu", "", B.finish(), [](DataMemory &) {}};

  SimConfig Wide = budget(SimConfig::hwBaseline(), 100'000);
  SimConfig Narrow = Wide;
  Narrow.Core.IssueWidth = 1;
  Narrow.Core.IntIssueLimit = 1;
  SimResult RW = runSimulation(W, Wide);
  SimResult RN = runSimulation(W, Narrow);
  EXPECT_GT(RW.Ipc, 2.0);
  EXPECT_LT(RN.Ipc, 1.1);
  EXPECT_GT(RW.Ipc, RN.Ipc * 2.5);
}

TEST(Sim, TlbSlowsColdStreamsAndDropsPrefetches) {
  // Stride 4KB: every access a fresh page.
  SimConfig Plain = budget(SimConfig::hwBaseline(), 150'000);
  SimConfig WithTlb = Plain;
  WithTlb.Mem.Tlb.Enable = true;
  SimResult RP = runSimulation(streamWorkload(4096), Plain);
  SimResult RT = runSimulation(streamWorkload(4096), WithTlb);
  EXPECT_LT(RT.Ipc, RP.Ipc); // page walks cost
  EXPECT_GT(RT.Tlb.Misses, 1000u);

  // And under software prefetching, far-ahead prefetches to cold pages
  // get dropped rather than fetched.
  SimConfig Srp = budget(SimConfig::withMode(PrefetchMode::SelfRepairing),
                         400'000);
  Srp.Mem.Tlb.Enable = true;
  SimResult RS = runSimulation(streamWorkload(4096), Srp);
  EXPECT_GT(RS.Tlb.PrefetchesDropped, 0u);
}

TEST(Sim, WarmupIsExcludedFromStats) {
  SimConfig C = budget(SimConfig::hwBaseline(), 100'000);
  C.WarmupInstructions = 50'000;
  SimResult R = runSimulation(streamWorkload(), C);
  EXPECT_EQ(R.Instructions, 100'000u); // warmup not counted
}

TEST(Sim, SpeedupHelper) {
  SimResult A, B;
  A.Ipc = 1.5;
  B.Ipc = 1.0;
  EXPECT_DOUBLE_EQ(speedup(A, B), 1.5);
  B.Ipc = 0.0;
  EXPECT_DOUBLE_EQ(speedup(A, B), 0.0);
}
