//===- fig4_coverage.cpp - Figure 4: load-miss coverage -------------------===//
//
// Part of the Trident-SRP reproduction (CGO 2006).
//
// Reproduces Figure 4: the percentage of load misses that occur within
// hot traces, and the percentage covered by an inserted prefetch. The
// paper reports >85% of misses inside hot traces and ~55% potentially
// prefetched, with dot/parser low (poor trace coverage) and gap covering
// nearly all of its (few) hot-trace misses.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

int trident::bench::fig4Coverage() {
  printHeader("Figure 4", "% of load misses in hot traces / prefetched",
              ">85% of misses inside traces; ~55% covered by prefetches; "
              "dot and parser low, gap's trace misses nearly all covered");

  Table T({"benchmark", "misses", "in hot traces", "prefetch-covered"});
  std::vector<double> InTrace, Covered;

  std::vector<NamedJob> Jobs;
  for (const std::string &Name : workloadNames())
    Jobs.emplace_back(Name, SimConfig::withMode(PrefetchMode::SelfRepairing));
  auto Results = runBatch(Jobs);

  for (size_t I = 0; I < workloadNames().size(); ++I) {
    const SimResult &R = *Results[I];
    InTrace.push_back(R.Runtime.traceMissCoverage());
    Covered.push_back(R.Runtime.prefetchMissCoverage());
    T.addRow({workloadNames()[I], std::to_string(R.Runtime.LoadMissesTotal),
              formatPercent(R.Runtime.traceMissCoverage(), 1),
              formatPercent(R.Runtime.prefetchMissCoverage(), 1)});
  }

  T.addSeparator();
  T.addRow({"average", "-", formatPercent(arithmeticMean(InTrace), 1),
            formatPercent(arithmeticMean(Covered), 1)});
  std::printf("%s\n", T.render().c_str());
  std::printf("shape check: high in-trace coverage except for the "
              "irregular benchmarks\n(dot, parser, gap's cold loop); "
              "covered <= in-trace everywhere.\n");
  printEventHealthJson(Results);
  return 0;
}
