//===- workload_tour.cpp - Quick tour of the 14 benchmarks -----------------===//
//
// Part of the Trident-SRP reproduction (CGO 2006).
//
// Runs every synthetic benchmark briefly under the hardware baseline and
// under the full self-repairing prefetcher, printing one line each — a
// fast way to see which memory behaviours the adaptive prefetcher helps
// (use the bench/ binaries for the full-budget figures).
//
// Run:  ./build/examples/workload_tour [instructions-per-run]
//
//===----------------------------------------------------------------------===//

#include "sim/Simulation.h"
#include "support/Knobs.h"
#include "support/Table.h"
#include "workloads/Workloads.h"

#include <cstdio>

using namespace trident;

int main(int argc, char **argv) {
  uint64_t N = argc > 1 ? decimalOrExit("instructions-per-run", argv[1], 1,
                                        uint64_t(1) << 40)
                         : 1'000'000;

  Table T({"benchmark", "behaviour", "IPC hw", "IPC +self-rep", "speedup",
           "miss coverage"});
  for (const std::string &Name : workloadNames()) {
    Workload W = makeWorkload(Name);

    SimConfig Base = SimConfig::hwBaseline();
    Base.SimInstructions = N;
    Base.WarmupInstructions = 100'000;
    SimConfig Srp = SimConfig::withMode(PrefetchMode::SelfRepairing);
    Srp.SimInstructions = N;
    Srp.WarmupInstructions = 100'000;

    SimResult RB = runSimulation(W, Base);
    SimResult RS = runSimulation(W, Srp);
    T.addRow({Name, W.Description, formatDouble(RB.Ipc, 3),
              formatDouble(RS.Ipc, 3),
              formatDouble(speedup(RS, RB), 2) + "x",
              formatPercent(RS.Runtime.prefetchMissCoverage(), 0)});
    std::printf(".");
    std::fflush(stdout);
  }
  std::printf("\n\n%s\n", T.render().c_str());
  return 0;
}
