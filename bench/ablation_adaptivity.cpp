//===- ablation_adaptivity.cpp - Design-choice ablations ------------------===//
//
// Part of the Trident-SRP reproduction (CGO 2006).
//
// Ablations for the design choices DESIGN.md calls out:
//
//  A. Initial distance: 1 (the paper's default) vs the equation-2
//     estimate. Section 5.3: "we also examine an alternate strategy where
//     the initial prefetch distance is estimated more carefully and
//     repaired from there. We found it achieves performance almost
//     identical ... the initial value becomes irrelevant."
//
//  B. Phase adaptation (Section 3.5.2 future work): clearing mature flags
//     on a detected working-set change lets the prefetcher re-adapt when
//     a program's loads change behaviour mid-run. Demonstrated on a
//     purpose-built two-phase workload whose hot loop switches stride
//     mid-execution.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "isa/ProgramBuilder.h"

using namespace trident;

namespace {

/// A loop whose memory behaviour changes phase: it walks a small stride
/// for a while (distance converges, loads mature), then switches to a
/// large stride — matured loads would keep the stale distance forever
/// without phase-triggered clearing. The phase alternates between two
/// distinct hot loops so the executing-trace mix shifts.
Workload phasedWorkload() {
  constexpr Addr A = 0x1000'0000, Bb = 0x3000'0000;
  ProgramBuilder B;
  B.loadImm(1, A).loadImm(2, Bb).loadImm(26, 0x50000000ll);
  B.label("outer");
  B.loadImm(4, 0).loadImm(5, 40'000);
  B.label("p1"); // stride phase with an unclassifiable hash probe
  B.load(6, 1, 0);
  B.fadd(9, 9, 6);
  B.aluImm(Opcode::MulI, 11, 4, 2654435761ll);
  B.aluImm(Opcode::ShrI, 12, 11, 7);
  B.aluImm(Opcode::AndI, 12, 12, 0x00FF0FF8);
  B.alu(Opcode::Add, 13, 26, 12);
  B.load(14, 13, 0); // random probe: matures after one attempt
  B.aluImm(Opcode::AddI, 1, 1, 64);
  B.addi(4, 4, 1);
  B.blt(4, 5, "p1");
  B.loadImm(4, 0).loadImm(5, 40'000);
  B.label("p2"); // large-stride phase (different loop, different trace)
  B.load(7, 2, 0);
  B.fadd(10, 10, 7);
  B.fadd(10, 10, 7);
  B.aluImm(Opcode::AddI, 2, 2, 4160);
  B.addi(4, 4, 1);
  B.blt(4, 5, "p2");
  B.jump("outer");
  B.halt();
  Workload W;
  W.Name = "phased";
  W.Description = "alternating small/large-stride phases";
  W.Prog = B.finish();
  W.Init = [](DataMemory &) {};
  return W;
}

} // namespace

int trident::bench::ablationAdaptivity() {
  printHeader("Ablations", "initial-distance & phase-adaptation choices",
              "initial distance is irrelevant under repair (5.3); mature "
              "clearing on phase change is the paper's future work");

  // ---- A: initial distance 1 vs estimate, across the full suite.
  std::printf("A. self-repairing with initial distance 1 vs estimated\n");
  Table TA({"benchmark", "start at 1", "start at estimate", "delta"});
  std::vector<double> S1, SE;

  SimConfig CE = SimConfig::withMode(PrefetchMode::SelfRepairing);
  CE.Runtime.SelfRepairInitialEstimate = true;

  std::vector<NamedJob> Jobs;
  for (const std::string &Name : workloadNames()) {
    Jobs.emplace_back(Name, SimConfig::hwBaseline());
    Jobs.emplace_back(Name, SimConfig::withMode(PrefetchMode::SelfRepairing));
    Jobs.emplace_back(Name, CE);
  }
  auto Results = runBatch(Jobs);

  for (size_t I = 0; I < workloadNames().size(); ++I) {
    const std::string &Name = workloadNames()[I];
    const SimResult &Base = *Results[3 * I + 0];
    const SimResult &R1 = *Results[3 * I + 1];
    const SimResult &RE = *Results[3 * I + 2];
    S1.push_back(speedup(R1, Base));
    SE.push_back(speedup(RE, Base));
    TA.addRow({Name, pctOver(R1, Base), pctOver(RE, Base),
               formatPercent(speedup(RE, Base) - speedup(R1, Base), 1)});
  }
  TA.addSeparator();
  TA.addRow({"geo-mean", formatPercent(geometricMean(S1) - 1.0, 1),
             formatPercent(geometricMean(SE) - 1.0, 1), "-"});
  std::printf("%s\n", TA.render().c_str());
  std::printf("shape check (paper 5.3): the two columns should be nearly "
              "identical —\nrepair converges regardless of the seed.\n\n");

  // ---- B: phase-change mature clearing on the phased workload. The
  // custom workload goes straight onto the shared runner as a 3-job batch.
  std::printf("B. phase adaptation on a two-phase workload\n");
  Workload W = phasedWorkload();
  SimConfig Base = withBudget(SimConfig::hwBaseline());

  SimConfig COff = withBudget(SimConfig::withMode(PrefetchMode::SelfRepairing));

  SimConfig COn = COff;
  COn.Runtime.ClearMatureOnPhaseChange = true;
  COn.Runtime.PhaseIntervalCommits = 100'000;

  auto PhaseResults = runner().runBatch(
      {ExperimentJob{W, Base}, ExperimentJob{W, COff}, ExperimentJob{W, COn}});
  const SimResult &RBase = *PhaseResults[0];
  const SimResult &ROff = *PhaseResults[1];
  const SimResult &ROn = *PhaseResults[2];

  Table TB({"config", "IPC", "speedup", "phase changes", "flags cleared"});
  TB.addRow({"hw baseline", formatDouble(RBase.Ipc, 3), "-", "-", "-"});
  TB.addRow({"self-rep (no phase hook)", formatDouble(ROff.Ipc, 3),
             pctOver(ROff, RBase), "0", "0"});
  TB.addRow({"self-rep + phase clearing", formatDouble(ROn.Ipc, 3),
             pctOver(ROn, RBase),
             std::to_string(ROn.Runtime.PhaseChangesDetected),
             std::to_string(ROn.Runtime.MatureFlagsCleared)});
  std::printf("%s\n", TB.render().c_str());
  std::printf("shape check: with clearing enabled, phase changes are "
              "detected and matured\nloads get re-optimized; performance "
              "should be at least as good as without.\n");
  auto All = Results;
  All.insert(All.end(), PhaseResults.begin(), PhaseResults.end());
  printEventHealthJson(All);
  return 0;
}
