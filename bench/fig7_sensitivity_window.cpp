//===- fig7_sensitivity_window.cpp - Figure 7: DLT threshold sweep --------===//
//
// Part of the Trident-SRP reproduction (CGO 2006).
//
// Reproduces Figure 7: average self-repairing speedup for load monitoring
// window sizes of 128/256/512 accesses crossed with cache-miss-rate
// thresholds of 1/3/6/12%. The paper finds that at least 8 misses per
// window is an adequate signal and that 3% @ 256 (the default) works
// best: too small a threshold over-prefetches, too large misses
// delinquent loads.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include <cmath>

int trident::bench::fig7SensitivityWindow() {
  printHeader("Figure 7", "sensitivity to monitoring window & miss-rate "
                          "threshold (avg over all benchmarks)",
              "3% at a 256-access window works best; 8 misses per window "
              "is an adequate delinquency signal");

  const unsigned Windows[] = {128, 256, 512};
  const double Rates[] = {0.01, 0.03, 0.06, 0.12};

  // One batch covers the whole grid: 14 baselines (shared across all 12
  // configurations via the memo cache) plus 12x14 sweep points.
  std::vector<NamedJob> Jobs;
  for (const std::string &Name : workloadNames())
    Jobs.emplace_back(Name, SimConfig::hwBaseline());
  for (unsigned W : Windows) {
    for (double Rate : Rates) {
      unsigned MissThreshold =
          std::max(1u, static_cast<unsigned>(std::lround(W * Rate)));
      for (const std::string &Name : workloadNames()) {
        SimConfig C = SimConfig::withMode(PrefetchMode::SelfRepairing);
        C.Runtime.Dlt.MonitorWindow = W;
        C.Runtime.Dlt.MissThreshold = MissThreshold;
        Jobs.emplace_back(Name, C);
      }
    }
  }
  auto Results = runBatch(Jobs);

  const size_t NumWl = workloadNames().size();
  size_t Cursor = NumWl; // sweep points start after the baselines
  Table T({"window \\ rate", "1%", "3%", "6%", "12%"});
  for (unsigned W : Windows) {
    std::vector<std::string> Row = {std::to_string(W) + " accesses"};
    for (size_t R = 0; R < std::size(Rates); ++R) {
      std::vector<double> Speedups;
      for (size_t I = 0; I < NumWl; ++I)
        Speedups.push_back(speedup(*Results[Cursor++], *Results[I]));
      Row.push_back(formatPercent(geometricMean(Speedups) - 1.0, 1));
    }
    T.addRow(Row);
  }

  std::printf("%s\n", T.render().c_str());
  std::printf("shape check: a broad plateau around the paper's default "
              "(256 accesses, 3%%);\nvery small windows with tiny "
              "thresholds over-trigger, very large thresholds\nmiss "
              "delinquent loads.\n");
  printEventHealthJson(Results);
  return 0;
}
