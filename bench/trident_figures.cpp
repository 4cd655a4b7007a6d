//===- trident_figures.cpp - The figure driver ----------------------------===//
//
// Part of the Trident-SRP reproduction (CGO 2006).
//
// Runs the paper's figures in one process:
//
//   trident_figures [NAME...]
//
// runs the named figures in the order given, or all of them in the order
// below when no name is given. Figures share nothing but the batch
// runner's thread pool and the process-wide memo cache, so a cell that an
// earlier figure ran (the hw baseline, fig5's self-repairing column, ...)
// is not simulated again. The driver prints nothing of its own to stdout:
// `trident_figures A B` prints what `A` then `B` print alone.
//
// An unknown name, or a bad TRIDENT_BENCH_* or figure-filter environment
// value, prints one stderr line and exits 2 before anything is simulated;
// the first figure that returns non-zero ends the run with that code.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include <algorithm>
#include <iterator>

using namespace trident::bench;

namespace {

struct Figure {
  std::string_view Name;
  int (*Run)();
};

const Figure Figures[] = {
    {"fig2_baseline", fig2Baseline},
    {"fig3_overhead", fig3Overhead},
    {"fig4_coverage", fig4Coverage},
    {"fig5_speedup", fig5Speedup},
    {"fig6_breakdown", fig6Breakdown},
    {"fig7_sensitivity_window", fig7SensitivityWindow},
    {"fig8_sensitivity_dlt", fig8SensitivityDlt},
    {"fig9_hw_vs_sw", fig9HwVsSw},
    {"fig10_selector", fig10Selector},
    {"fig11_fuzz", fig11Fuzz},
    {"ablation_adaptivity", ablationAdaptivity},
};

} // namespace

int main(int Argc, char **Argv) {
  std::vector<const Figure *> Run;
  for (int I = 1; I < Argc; ++I) {
    const Figure *F = std::find_if(
        std::begin(Figures), std::end(Figures),
        [&](const Figure &G) { return G.Name == Argv[I]; });
    if (F == std::end(Figures)) {
      std::string Valid;
      for (const Figure &G : Figures)
        (Valid += ' ') += G.Name;
      std::fprintf(stderr, "error: unknown figure '%s' (valid:%s)\n", Argv[I],
                   Valid.c_str());
      return 2;
    }
    Run.push_back(F);
  }
  if (Run.empty())
    for (const Figure &F : Figures)
      Run.push_back(&F);
  checkEnvKnobs();

  for (const Figure *F : Run)
    if (int Rc = F->Run())
      return Rc;
  return 0;
}
