//===- fig8_sensitivity_dlt.cpp - Figure 8: DLT size sweep ----------------===//
//
// Part of the Trident-SRP reproduction (CGO 2006).
//
// Reproduces Figure 8: average self-repairing speedup for DLT sizes of
// 256/512/1024/2048 entries. The paper finds performance only slightly
// increases with size for most programs, but benchmarks with large
// working sets of load PCs (dot, parser) benefit from a large DLT; 1024
// entries suffices.
//
// Also reproduces the Section 5.4 note: spending the DLT + watch-table
// SRAM on a larger L1 instead yields only ~0.8%.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

int trident::bench::fig8SensitivityDlt() {
  printHeader("Figure 8", "sensitivity to DLT size (entries)",
              "small gains from doubling for most benchmarks; dot/parser "
              "want a large table; 1024 entries suffice");

  const unsigned Sizes[] = {256, 512, 1024, 2048};
  const size_t NumWl = workloadNames().size();

  // Baselines, the 4x14 size sweep, and the Section 5.4 big-L1 runs all
  // go into one parallel batch.
  std::vector<NamedJob> Jobs;
  for (const std::string &Name : workloadNames())
    Jobs.emplace_back(Name, SimConfig::hwBaseline());
  for (unsigned SI = 0; SI < 4; ++SI) {
    for (const std::string &Name : workloadNames()) {
      SimConfig C = SimConfig::withMode(PrefetchMode::SelfRepairing);
      C.Runtime.Dlt.NumEntries = Sizes[SI];
      Jobs.emplace_back(Name, C);
    }
  }
  for (const std::string &Name : workloadNames()) {
    SimConfig C = SimConfig::hwBaseline();
    C.Mem.L1 = {"L1", 96 * 1024, 3, 64, 3};
    Jobs.emplace_back(Name, C);
  }
  auto Results = runBatch(Jobs);

  Table T({"benchmark", "256", "512", "1024", "2048"});
  std::vector<std::vector<double>> PerSize(4);

  std::vector<std::vector<std::string>> Rows;
  for (size_t I = 0; I < NumWl; ++I)
    Rows.push_back({workloadNames()[I]});

  for (unsigned SI = 0; SI < 4; ++SI) {
    for (size_t I = 0; I < NumWl; ++I) {
      double S = speedup(*Results[NumWl * (SI + 1) + I], *Results[I]);
      PerSize[SI].push_back(S);
      Rows[I].push_back(formatPercent(S - 1.0, 1));
    }
  }
  for (auto &Row : Rows)
    T.addRow(Row);
  T.addSeparator();
  std::vector<std::string> Avg = {"geo-mean"};
  for (unsigned SI = 0; SI < 4; ++SI)
    Avg.push_back(formatPercent(geometricMean(PerSize[SI]) - 1.0, 1));
  T.addRow(Avg);
  std::printf("%s\n", T.render().c_str());

  // Section 5.4: spend the monitoring SRAM on a bigger L1 instead.
  // DLT (1024 x ~200 bits) + watch table + profiler is ~32KB: model it as
  // growing the 64KB 2-way L1 to 96KB 3-way (same 512 sets).
  std::printf("Section 5.4: monitoring SRAM spent on a larger L1 instead\n");
  std::vector<double> BigL1;
  for (size_t I = 0; I < NumWl; ++I)
    BigL1.push_back(speedup(*Results[NumWl * 5 + I], *Results[I]));
  std::printf("  96KB/3-way L1 vs 64KB/2-way: %s average speedup "
              "(paper: ~0.8%%)\n",
              formatPercent(geometricMean(BigL1) - 1.0, 2).c_str());
  std::printf("  vs. +%s from using the same SRAM as a 1024-entry DLT "
              "(self-repairing).\n\n",
              formatPercent(geometricMean(PerSize[2]) - 1.0, 1).c_str());
  printEventHealthJson(Results);
  return 0;
}
