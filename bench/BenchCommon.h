//===- BenchCommon.h - Shared utilities of the figures --------------------===//
//
// Part of the Trident-SRP reproduction (CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Helpers shared by the figures of the trident_figures driver:
/// instruction-budget env knobs, the shared parallel batch runner, JSONL
/// output, and table assembly. Every figure builds its full (workload,
/// config) job list up front, hands it to the process-wide
/// ExperimentRunner — which fans the independent runs across worker
/// threads and memoizes shared configurations such as the hw baseline,
/// also across the figures of one driver run — and then assembles the
/// same rows/series the paper reports, plus a short "paper says / we
/// measure" note.
///
/// Environment knobs:
///   TRIDENT_BENCH_INSTR  per-run committed-instruction budget
///                        (default 2,000,000)
///   TRIDENT_BENCH_QUICK  1: quarter budget (smoke-testing the harness);
///                        0 or unset: full budget
///   TRIDENT_BENCH_JOBS   worker threads for the batch runner
///                        (default: all hardware threads)
///
/// Numeric knobs are read with the one decimal reader (support/Knobs.h): a
/// malformed value prints one line and exits 2. So does a name that a
/// figure's axis filter does not know (envFilter). The driver reads the
/// budget and every axis filter before the first figure runs
/// (checkEnvKnobs), so a bad value exits before anything is simulated.
///
//===----------------------------------------------------------------------===//

#ifndef TRIDENT_BENCH_BENCHCOMMON_H
#define TRIDENT_BENCH_BENCHCOMMON_H

#include "hwpf/PrefetcherRegistry.h"
#include "sim/ExperimentRunner.h"
#include "sim/Simulation.h"
#include "support/Knobs.h"
#include "support/Statistics.h"
#include "support/Table.h"
#include "workloads/Workloads.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

namespace trident {
namespace bench {

inline uint64_t instrBudget() {
  uint64_t N =
      envDecimal("TRIDENT_BENCH_INSTR", 2'000'000, 1, uint64_t(1) << 40);
  if (envDecimal("TRIDENT_BENCH_QUICK", 0, 0, 1))
    N /= 4;
  return N;
}

inline uint64_t warmupBudget() { return 100'000; }

/// The members of \p All named in the comma-separated environment list
/// \p Name, in \p All's order; all of \p All when the list is unset or
/// empty. A listed name that is not in \p All prints one line and exits 2.
inline std::vector<std::string> envFilter(const char *Name,
                                          const std::vector<std::string> &All) {
  const char *E = std::getenv(Name);
  if (!E || !*E)
    return All;
  std::string Valid;
  for (const std::string &N : All)
    (Valid += ' ') += N;
  const std::string List = std::string(",") + E + ",";
  for (size_t B = 1; B < List.size();) {
    const size_t C = List.find(',', B);
    const std::string Item = List.substr(B, C - B);
    if (std::find(All.begin(), All.end(), Item) == All.end()) {
      std::fprintf(stderr, "error: %s names unknown '%s' (valid:%s)\n", Name,
                   Item.c_str(), Valid.c_str());
      std::exit(2);
    }
    B = C + 1;
  }
  std::vector<std::string> Out;
  for (const std::string &N : All)
    if (List.find("," + N + ",") != std::string::npos)
      Out.push_back(N);
  return Out;
}

/// The figure axes the environment restricts: fig9's and fig11's
/// prefetchers, fig9's and fig10's workloads.
inline std::vector<std::string> fig9Prefetchers() {
  return envFilter("TRIDENT_FIG9_HWPF", PrefetcherRegistry::instance().names());
}
inline std::vector<std::string> fig9Workloads() {
  return envFilter("TRIDENT_FIG9_WORKLOADS", workloadNames());
}
inline std::vector<std::string> fig10Workloads() {
  return envFilter("TRIDENT_FIG10_WORKLOADS", workloadNames());
}
inline std::vector<std::string> fig11Prefetchers() {
  return envFilter("TRIDENT_FIG11_HWPF",
                   PrefetcherRegistry::instance().names());
}

/// Reads the budget knobs and every axis filter, each of which exits 2 on
/// a bad value; the driver calls it before the first figure runs.
inline void checkEnvKnobs() {
  instrBudget();
  fig9Prefetchers();
  fig9Workloads();
  fig10Workloads();
  fig11Prefetchers();
}

inline SimConfig withBudget(SimConfig C) {
  C.SimInstructions = instrBudget();
  C.WarmupInstructions = warmupBudget();
  return C;
}

/// The batch runner every figure shares: all hardware threads (or
/// $TRIDENT_BENCH_JOBS) plus the process-wide memo cache, so repeated
/// configurations — above all the hw baseline — simulate exactly once per
/// driver run, whichever figure asks first.
inline ExperimentRunner &runner() {
  static ExperimentRunner R;
  return R;
}

/// A (workload name, config) pair; the building block of figure sweeps.
using NamedJob = std::pair<std::string, SimConfig>;

/// Runs every job in parallel with the standard budget applied; results
/// come back in submission order.
inline std::vector<std::shared_ptr<const SimResult>>
runBatch(const std::vector<NamedJob> &Named) {
  std::vector<ExperimentJob> Jobs;
  Jobs.reserve(Named.size());
  for (const NamedJob &J : Named)
    Jobs.push_back(ExperimentJob{makeWorkload(J.first), withBudget(J.second)});
  return runner().runBatch(Jobs);
}

/// Percent-speedup string of A over Base.
inline std::string pctOver(const SimResult &A, const SimResult &Base) {
  return formatPercent(speedup(A, Base) - 1.0, 1);
}

/// Appends \p S to \p Out with JSON string escaping of '"' and '\\'.
inline void jsonEscapeInto(std::string &Out, const std::string &S) {
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    Out += C;
  }
}

/// Closes the string value a JSONL record left open and appends the
/// fields fig9 and fig11 record for one arsenal cell: whether Trident ran,
/// IPC, speedup over the no-prefetch cell and the prefetcher's feedback
/// counters. Ends the record and its line.
inline void appendArsenalCellJson(std::string &Out, int Trident,
                                  const SimResult &R, double Speedup) {
  char Buf[256];
  std::snprintf(Buf, sizeof(Buf),
                "\",\"trident\":%d,\"ipc\":%.6f,"
                "\"speedup_over_none\":%.6f,\"hw_prefetches\":%llu,"
                "\"pf_issued\":%llu,\"pf_useful\":%llu,\"pf_late\":%llu,"
                "\"demand_misses\":%llu,\"accuracy\":%.6f,"
                "\"coverage\":%.6f}\n",
                Trident, R.Ipc, Speedup,
                (unsigned long long)R.Mem.HardwarePrefetches,
                (unsigned long long)R.PfFeedback.Issued,
                (unsigned long long)R.PfFeedback.Useful,
                (unsigned long long)R.PfFeedback.Late,
                (unsigned long long)R.PfFeedback.DemandMisses,
                R.PfFeedback.accuracy(), R.PfFeedback.coverage());
  Out += Buf;
}

/// Writes a figure's JSONL records to the path in the environment
/// variable \p Env when set and non-empty, else to \p DefaultPath. Returns
/// the path, or null after one stderr line naming it when the open, a
/// write or the close failed: a full disk must not pass for a complete
/// file.
inline const char *writeJsonl(const char *Env, const char *DefaultPath,
                              const std::string &Records) {
  const char *E = std::getenv(Env);
  const char *Path = E && *E ? E : DefaultPath;
  if (std::FILE *F = std::fopen(Path, "w")) {
    const bool Written =
        std::fwrite(Records.data(), 1, Records.size(), F) == Records.size();
    if (std::fclose(F) == 0 && Written)
      return Path;
  }
  std::fprintf(stderr, "error: cannot write '%s': %s\n", Path,
               std::strerror(errno));
  return nullptr;
}

/// Prints one machine-readable line summarizing event-plumbing health
/// across a figure's runs: total events dropped by the bounded runtime
/// queue and the worst per-run peak occupancy. A healthy configuration
/// drops nothing; a non-zero count means MaxPendingEvents is throttling
/// the optimizer and the figure should be read with that in mind.
inline void
printEventHealthJson(const std::vector<std::shared_ptr<const SimResult>> &Rs) {
  uint64_t Dropped = 0, Peak = 0, Runs = 0;
  for (const auto &R : Rs) {
    if (!R)
      continue;
    ++Runs;
    Dropped += R->Runtime.EventsDropped;
    if (R->Runtime.PeakPendingEvents > Peak)
      Peak = R->Runtime.PeakPendingEvents;
  }
  std::printf("{\"event_health\":{\"runs\":%llu,\"events_dropped\":%llu,"
              "\"peak_event_queue_occupancy\":%llu}}\n",
              static_cast<unsigned long long>(Runs),
              static_cast<unsigned long long>(Dropped),
              static_cast<unsigned long long>(Peak));
}

/// Prints a standard figure header.
inline void printHeader(const char *Figure, const char *What,
                        const char *PaperSays) {
  std::printf("==============================================================="
              "=========\n");
  std::printf("%s: %s\n", Figure, What);
  std::printf("paper: %s\n", PaperSays);
  std::printf("budget: %llu committed instructions per run (+%llu warmup), "
              "%u worker threads\n",
              static_cast<unsigned long long>(instrBudget()),
              static_cast<unsigned long long>(warmupBudget()),
              runner().threadCount());
  std::printf("==============================================================="
              "=========\n");
}

/// The figures, one per paper figure/table; each returns its exit code.
/// trident_figures.cpp maps their command-line names onto them.
int fig2Baseline();
int fig3Overhead();
int fig4Coverage();
int fig5Speedup();
int fig6Breakdown();
int fig7SensitivityWindow();
int fig8SensitivityDlt();
int fig9HwVsSw();
int fig10Selector();
int fig11Fuzz();
int ablationAdaptivity();

} // namespace bench
} // namespace trident

#endif // TRIDENT_BENCH_BENCHCOMMON_H
