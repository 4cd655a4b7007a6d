//===- fig6_breakdown.cpp - Figure 6: dynamic-load outcome breakdown ------===//
//
// Part of the Trident-SRP reproduction (CGO 2006).
//
// Reproduces Figure 6: the percentage of all dynamic loads that hit
// normally, hit a line a prefetch brought in (first touch), partially hit
// an in-flight prefetch, miss, or miss *because* a prefetch displaced the
// line. The paper's two key observations: misses due to prefetching
// rarely occur, and partial prefetch hits are a small fraction.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

int trident::bench::fig6Breakdown() {
  printHeader("Figure 6", "breakdown of all dynamic loads",
              "misses-due-to-prefetch rare; low incidence of partial hits");

  Table T({"benchmark", "hits", "hit-prefetched", "partial hits", "misses",
           "miss-due-to-pf"});
  double SumPartial = 0, SumMissPf = 0;

  std::vector<NamedJob> Jobs;
  for (const std::string &Name : workloadNames())
    Jobs.emplace_back(Name, SimConfig::withMode(PrefetchMode::SelfRepairing));
  auto Results = runBatch(Jobs);

  for (size_t I = 0; I < workloadNames().size(); ++I) {
    const RuntimeStats &S = Results[I]->Runtime;
    double N = std::max<double>(1.0, static_cast<double>(S.LdTotal));
    auto Pct = [&](uint64_t X) {
      return formatPercent(static_cast<double>(X) / N, 1);
    };
    SumPartial += static_cast<double>(S.LdPartial) / N;
    SumMissPf += static_cast<double>(S.LdMissDueToPf) / N;
    T.addRow({workloadNames()[I], Pct(S.LdHitNone), Pct(S.LdHitPrefetched),
              Pct(S.LdPartial), Pct(S.LdMiss), Pct(S.LdMissDueToPf)});
  }

  size_t N = workloadNames().size();
  T.addSeparator();
  T.addRow({"average", "-", "-",
            formatPercent(SumPartial / static_cast<double>(N), 1), "-",
            formatPercent(SumMissPf / static_cast<double>(N), 1)});
  std::printf("%s\n", T.render().c_str());
  std::printf("shape check: the miss-due-to-prefetch column should be near "
              "zero everywhere\n(the adaptive prefetcher rarely pollutes), "
              "and partial hits a modest share.\n");
  printEventHealthJson(Results);
  return 0;
}
