//===- fig5_speedup.cpp - Figure 5: the headline result -------------------===//
//
// Part of the Trident-SRP reproduction (CGO 2006).
//
// Reproduces Figure 5: speedup of software prefetching over the hardware
// (8x8 stream buffer) baseline, for the three schemes the paper compares:
//   basic         prior-work style: per-load stride prefetches at a fixed
//                 estimated distance (equation 2),
//   whole object  + same-object grouping and pointer dereference
//                 prefetching, still a fixed distance,
//   self-repair   + the adaptive distance-repair mechanism (start at 1,
//                 patch the prefetch immediates until the load stops
//                 being delinquent or matures).
//
// The paper reports ~11% average for basic and ~23% for self-repairing,
// with applu/facerec/fma3d gaining nothing from repair (the naive
// estimate is already right) and dot/mcf benefiting from whole-object.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

int trident::bench::fig5Speedup() {
  printHeader("Figure 5", "software prefetching speedup over HW baseline",
              "basic ~+11% avg; self-repairing ~+23% avg (about 2x the "
              "basic gain); applu/facerec/fma3d: repair adds nothing");

  Table T({"benchmark", "basic", "whole object", "self-repairing",
           "repairs", "final dist"});
  std::vector<double> SB, SW, SS;

  std::vector<NamedJob> Jobs;
  for (const std::string &Name : workloadNames()) {
    Jobs.emplace_back(Name, SimConfig::hwBaseline());
    Jobs.emplace_back(Name, SimConfig::withMode(PrefetchMode::Basic));
    Jobs.emplace_back(Name, SimConfig::withMode(PrefetchMode::WholeObject));
    Jobs.emplace_back(Name, SimConfig::withMode(PrefetchMode::SelfRepairing));
  }
  auto Results = runBatch(Jobs);

  for (size_t I = 0; I < workloadNames().size(); ++I) {
    const std::string &Name = workloadNames()[I];
    const SimResult &Base = *Results[4 * I + 0];
    const SimResult &RB = *Results[4 * I + 1];
    const SimResult &RW = *Results[4 * I + 2];
    const SimResult &RS = *Results[4 * I + 3];

    SB.push_back(speedup(RB, Base));
    SW.push_back(speedup(RW, Base));
    SS.push_back(speedup(RS, Base));
    T.addRow({Name, pctOver(RB, Base), pctOver(RW, Base), pctOver(RS, Base),
              std::to_string(RS.Runtime.RepairOptimizations),
              std::to_string(RS.Runtime.LastRepairDistance)});
  }

  T.addSeparator();
  T.addRow({"geo-mean", formatPercent(geometricMean(SB) - 1.0, 1),
            formatPercent(geometricMean(SW) - 1.0, 1),
            formatPercent(geometricMean(SS) - 1.0, 1), "-", "-"});
  std::printf("%s\n", T.render().c_str());
  std::printf(
      "shape check: self-repairing's average gain should be roughly twice\n"
      "basic's (paper: 23%% vs 11%%); whole-object >= basic (dot is the\n"
      "whole-object showcase); applu/facerec gain little from repair.\n");
  printEventHealthJson(Results);
  return 0;
}
