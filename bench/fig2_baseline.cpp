//===- fig2_baseline.cpp - Figure 2: baseline hardware prefetching --------===//
//
// Part of the Trident-SRP reproduction (CGO 2006).
//
// Reproduces Figure 2: per-benchmark IPC on the baseline SMT processor
// with no hardware prefetching, 4x4 stream buffers, and 8x8 stream
// buffers. The paper reports average speedups of ~35% (4x4) and ~40%
// (8x8) over no prefetching; the 8x8 configuration becomes the baseline
// for all later figures.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

int trident::bench::fig2Baseline() {
  printHeader("Figure 2", "baseline IPC with hardware stream buffers",
              "4x4 buffers +35% avg over no prefetching; 8x8 +40%; "
              "8x8 adopted as the baseline");

  Table T({"benchmark", "IPC no-pf", "IPC 4x4", "IPC 8x8", "4x4 speedup",
           "8x8 speedup"});
  std::vector<double> S4, S8;

  SimConfig CN = SimConfig::hwBaseline();
  CN.HwPf = "none";
  SimConfig C4 = SimConfig::hwBaseline();
  C4.HwPf = "sb4x4";
  SimConfig C8 = SimConfig::hwBaseline();

  std::vector<NamedJob> Jobs;
  for (const std::string &Name : workloadNames()) {
    Jobs.emplace_back(Name, CN);
    Jobs.emplace_back(Name, C4);
    Jobs.emplace_back(Name, C8);
  }
  auto Results = runBatch(Jobs);

  for (size_t I = 0; I < workloadNames().size(); ++I) {
    const std::string &Name = workloadNames()[I];
    const SimResult &RN = *Results[3 * I + 0];
    const SimResult &R4 = *Results[3 * I + 1];
    const SimResult &R8 = *Results[3 * I + 2];
    S4.push_back(speedup(R4, RN));
    S8.push_back(speedup(R8, RN));

    T.addRow({Name, formatDouble(RN.Ipc, 3), formatDouble(R4.Ipc, 3),
              formatDouble(R8.Ipc, 3), pctOver(R4, RN), pctOver(R8, RN)});
  }

  T.addSeparator();
  T.addRow({"geo-mean", "-", "-", "-",
            formatPercent(geometricMean(S4) - 1.0, 1),
            formatPercent(geometricMean(S8) - 1.0, 1)});
  std::printf("%s\n", T.render().c_str());
  std::printf("shape check: both prefetching configurations should beat "
              "no-pf on average,\nwith 8x8 >= 4x4.\n");
  printEventHealthJson(Results);
  return 0;
}
