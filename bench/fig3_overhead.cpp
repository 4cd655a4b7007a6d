//===- fig3_overhead.cpp - Section 5.1 / Figure 3: optimizer overhead -----===//
//
// Part of the Trident-SRP reproduction (CGO 2006).
//
// Reproduces the two overhead results of Section 5.1:
//   * Table: run Trident with prefetch optimization but *without linking*
//     the optimized traces; the slowdown vs. the plain baseline is the
//     pure cost of concurrent optimization (paper: ~0.6% total).
//   * Figure 3: fraction of the program's execution cycles during which
//     the optimization helper thread is active (paper: ~2.2% on average;
//     self-repairing adds at most ~25% more helper activity).
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

int trident::bench::fig3Overhead() {
  printHeader("Figure 3 / Section 5.1", "dynamic optimizer overhead",
              "optimize-without-linking costs ~0.6%; helper thread active "
              "~2.2% of cycles; self-repair <= ~25% more activity");

  Table T({"benchmark", "no-link overhead", "helper active (base)",
           "helper active (self-rep)"});
  std::vector<double> Overheads, ActBase, ActSrp;

  // Optimize but never link (the Section 5.1 experiment).
  SimConfig NoLink = SimConfig::withMode(PrefetchMode::SelfRepairing);
  NoLink.Runtime.LinkTraces = false;

  std::vector<NamedJob> Jobs;
  for (const std::string &Name : workloadNames()) {
    Jobs.emplace_back(Name, SimConfig::hwBaseline());
    Jobs.emplace_back(Name, NoLink);
    // Helper-thread activity with traces linked: trace formation only
    // (mode none) vs. the full self-repairing prefetcher.
    Jobs.emplace_back(Name, SimConfig::withMode(PrefetchMode::None));
    Jobs.emplace_back(Name, SimConfig::withMode(PrefetchMode::SelfRepairing));
  }
  auto Results = runBatch(Jobs);

  for (size_t I = 0; I < workloadNames().size(); ++I) {
    const std::string &Name = workloadNames()[I];
    const SimResult &Base = *Results[4 * I + 0];
    const SimResult &RNoLink = *Results[4 * I + 1];
    const SimResult &RNone = *Results[4 * I + 2];
    const SimResult &RSrp = *Results[4 * I + 3];
    double Ovh = 1.0 - RNoLink.Ipc / Base.Ipc;

    Overheads.push_back(Ovh);
    ActBase.push_back(RNone.helperActiveFraction());
    ActSrp.push_back(RSrp.helperActiveFraction());
    T.addRow({Name, formatPercent(Ovh, 2),
              formatPercent(RNone.helperActiveFraction(), 2),
              formatPercent(RSrp.helperActiveFraction(), 2)});
  }

  T.addSeparator();
  T.addRow({"average", formatPercent(arithmeticMean(Overheads), 2),
            formatPercent(arithmeticMean(ActBase), 2),
            formatPercent(arithmeticMean(ActSrp), 2)});
  std::printf("%s\n", T.render().c_str());
  std::printf("shape check: no-link overhead well under a few percent; "
              "helper activity a few\npercent of cycles, higher with "
              "self-repairing (extra repair events).\n");
  printEventHealthJson(Results);
  return 0;
}
