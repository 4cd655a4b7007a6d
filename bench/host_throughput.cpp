//===- host_throughput.cpp - Simulator host-throughput benchmark -----------===//
//
// Part of the Trident-SRP reproduction (CGO 2006).
//
// Not a paper figure: measures how fast *the simulator itself* runs on the
// host. Executes the full 14-workload x 4-config sweep (the shape of a
// complete figure batch) on a single worker thread and on the full pool,
// each leg repeated TRIDENT_BENCH_REPEATS times (default 3) with the memo
// cache disabled, and reports the per-leg median wall-clock time,
// simulated-instructions-per-host-second, and the parallel/serial speedup.
// Also cross-checks that every repeat of every leg is bit-identical to the
// first serial run (Cycles and RegChecksum per job).
//
// Besides the human-readable report, writes one machine-readable JSON
// object to $TRIDENT_BENCH_OUT (default ./BENCH_host_throughput.json) and
// echoes it on stdout, so CI can compare against the committed scoreboard
// with tools/bench_compare.py:
//
//   {"bench":"host_throughput","jobs":56,...,"serial_ips":...,
//    "serial_runs_ips":[...],"speedup":3.42,...}
//
// Knobs: TRIDENT_BENCH_INSTR / TRIDENT_BENCH_QUICK (per-run budget),
// TRIDENT_BENCH_JOBS (pool size for the parallel leg),
// TRIDENT_BENCH_REPEATS (repeats per leg), TRIDENT_BENCH_OUT (JSON path).
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include <algorithm>
#include <chrono>
#include <map>

using namespace trident;
using namespace trident::bench;

namespace {

std::vector<ExperimentJob> buildSweep() {
  const SimConfig Configs[] = {
      SimConfig::hwBaseline(),
      SimConfig::withMode(PrefetchMode::Basic),
      SimConfig::withMode(PrefetchMode::WholeObject),
      SimConfig::withMode(PrefetchMode::SelfRepairing),
  };
  std::vector<ExperimentJob> Jobs;
  for (const std::string &Name : workloadNames())
    for (const SimConfig &C : Configs)
      Jobs.push_back(ExperimentJob{makeWorkload(Name), withBudget(C)});
  return Jobs;
}

unsigned repeatCount() {
  return static_cast<unsigned>(envDecimal("TRIDENT_BENCH_REPEATS", 3, 1, 1000));
}

struct Leg {
  double Seconds = 0.0;
  uint64_t SimInstructions = 0;
  std::vector<std::shared_ptr<const SimResult>> Results;

  double instrPerSecond() const {
    return Seconds == 0.0 ? 0.0 : static_cast<double>(SimInstructions) / Seconds;
  }
};

Leg runLeg(const std::vector<ExperimentJob> &Jobs, unsigned Threads) {
  ExperimentRunner Runner({Threads, /*UseCache=*/false});
  auto Start = std::chrono::steady_clock::now();
  Leg L;
  L.Results = Runner.runBatch(Jobs);
  auto End = std::chrono::steady_clock::now();
  L.Seconds = std::chrono::duration<double>(End - Start).count();
  for (const auto &R : L.Results)
    L.SimInstructions += R->Instructions;
  return L;
}

double median(std::vector<double> V) {
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2.0;
}

/// Counts jobs whose (Cycles, RegChecksum, Instructions) differ from the
/// reference leg — any nonzero count is a determinism bug.
size_t mismatchesVs(const Leg &Ref, const Leg &L) {
  size_t Bad = 0;
  for (size_t I = 0; I < Ref.Results.size(); ++I) {
    const SimResult &A = *Ref.Results[I];
    const SimResult &B = *L.Results[I];
    if (A.Cycles != B.Cycles || A.RegChecksum != B.RegChecksum ||
        A.Instructions != B.Instructions)
      ++Bad;
  }
  return Bad;
}

void appendDoubleArray(std::string &Out, const std::vector<double> &V,
                       const char *Fmt) {
  Out.push_back('[');
  char Buf[64];
  for (size_t I = 0; I < V.size(); ++I) {
    if (I)
      Out.push_back(',');
    std::snprintf(Buf, sizeof(Buf), Fmt, V[I]);
    Out += Buf;
  }
  Out.push_back(']');
}

} // namespace

int main() {
  std::vector<ExperimentJob> Jobs = buildSweep();
  unsigned Threads = ExperimentRunner::defaultThreadCount();
  unsigned Repeats = repeatCount();

  printHeader("host_throughput",
              "simulator wall-clock throughput, serial vs parallel",
              "not a paper figure — tracks simulated-instructions-per-"
              "host-second across the repo's history");
  std::printf("sweep: %zu jobs (14 workloads x 4 configs), %u repeats per "
              "leg, parallel leg on %u threads\n\n",
              Jobs.size(), Repeats, Threads);

  // First serial run is the determinism reference for every later leg.
  Leg Reference;
  std::vector<double> SerialIps, SerialSecs, ParallelIps, ParallelSecs;
  size_t Mismatches = 0;

  std::printf("serial leg (1 worker), %u repeats...\n", Repeats);
  for (unsigned R = 0; R < Repeats; ++R) {
    Leg L = runLeg(Jobs, 1);
    std::printf("  run %u: %.2fs, %.0f simulated instructions/host-second\n",
                R + 1, L.Seconds, L.instrPerSecond());
    SerialIps.push_back(L.instrPerSecond());
    SerialSecs.push_back(L.Seconds);
    if (R == 0)
      Reference = std::move(L);
    else
      Mismatches += mismatchesVs(Reference, L);
  }

  std::printf("parallel leg (%u workers), %u repeats...\n", Threads, Repeats);
  for (unsigned R = 0; R < Repeats; ++R) {
    Leg L = runLeg(Jobs, Threads);
    std::printf("  run %u: %.2fs, %.0f simulated instructions/host-second\n",
                R + 1, L.Seconds, L.instrPerSecond());
    ParallelIps.push_back(L.instrPerSecond());
    ParallelSecs.push_back(L.Seconds);
    Mismatches += mismatchesVs(Reference, L);
  }

  double SerialSec = median(SerialSecs);
  double ParallelSec = median(ParallelSecs);
  double Speedup = ParallelSec == 0.0 ? 0.0 : SerialSec / ParallelSec;
  std::printf("\nmedians: serial %.2fs (%.0f instr/s), parallel %.2fs "
              "(%.0f instr/s), speedup %.2fx; results %s\n",
              SerialSec, median(SerialIps), ParallelSec, median(ParallelIps),
              Speedup,
              Mismatches == 0 ? "bit-identical"
                              : "MISMATCHED (determinism bug!)");

  // Every sweep config runs the same hardware prefetcher; record which,
  // plus its aggregate activity, so the scoreboard comparison refuses to
  // line up numbers from different hwpf configurations.
  const std::string HwPf = Jobs.front().Config.HwPf;
  std::map<std::string, uint64_t> PfTotals;
  for (const auto &R : Reference.Results)
    for (const auto &KV : R->HwPf.Counters)
      PfTotals[KV.first] += KV.second;

  std::string Json;
  Json.reserve(512);
  char Buf[256];
  std::snprintf(Buf, sizeof(Buf),
                "{\"bench\":\"host_throughput\",\"jobs\":%zu,"
                "\"threads\":%u,\"repeats\":%u,\"instr_per_run\":%llu,"
                "\"hwpf\":\"%s\",\"serial_seconds\":%.3f,"
                "\"parallel_seconds\":%.3f,"
                "\"serial_ips\":%.0f,\"parallel_ips\":%.0f,",
                Jobs.size(), Threads, Repeats,
                static_cast<unsigned long long>(instrBudget()), HwPf.c_str(),
                SerialSec, ParallelSec, median(SerialIps),
                median(ParallelIps));
  Json += Buf;
  Json += "\"hwpf_stats\":{";
  {
    bool First = true;
    for (const auto &KV : PfTotals) {
      std::snprintf(Buf, sizeof(Buf), "%s\"%s\":%llu", First ? "" : ",",
                    KV.first.c_str(),
                    static_cast<unsigned long long>(KV.second));
      Json += Buf;
      First = false;
    }
  }
  Json += "},";
  Json += "\"serial_runs_ips\":";
  appendDoubleArray(Json, SerialIps, "%.0f");
  Json += ",\"parallel_runs_ips\":";
  appendDoubleArray(Json, ParallelIps, "%.0f");
  std::snprintf(Buf, sizeof(Buf), ",\"speedup\":%.3f,\"identical\":%s}",
                Speedup, Mismatches == 0 ? "true" : "false");
  Json += Buf;

  std::printf("\n%s\n", Json.c_str());

  const char *OutPath = std::getenv("TRIDENT_BENCH_OUT");
  if (!OutPath || !*OutPath)
    OutPath = "BENCH_host_throughput.json";
  if (std::FILE *F = std::fopen(OutPath, "w")) {
    std::fprintf(F, "%s\n", Json.c_str());
    std::fclose(F);
    std::printf("wrote %s\n", OutPath);
  } else {
    std::printf("WARNING: could not write %s\n", OutPath);
  }
  return Mismatches == 0 ? 0 : 1;
}
