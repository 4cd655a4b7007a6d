//===- perfbench.cpp - The repository benchmark ---------------------------===//
//
// Part of the Trident-SRP reproduction (CGO 2006).
//
// One process runs one workload (paper-solo, arsenal-mix or fuzz-short)
// for a fixed number of host seconds and prints, as its last stdout line,
// one JSON object {"correct","attempted","failed","metrics"}. With
// --trace 0 the metrics are the end-to-end set, measured untraced; with
// --trace 1 the process records spans around its calls into the simulator
// and reports the per-layer set (ladder rungs, access replays, registry
// counts). See perfbench/README.md for the workloads, the metric
// definitions and the layer -> metric -> workload table.
//
// Usage:
//   trident_perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//                     [--instr N] [--warmup N] [--out-dir DIR]
//                     [--commit SHA]
//
//===----------------------------------------------------------------------===//

#include "Spans.h"

#include "events/EventTracer.h"
#include "hwpf/PrefetcherRegistry.h"
#include "mem/MemorySystem.h"
#include "sim/ExperimentRunner.h"
#include "sim/Simulation.h"
#include "support/Random.h"
#include "workloads/Workloads.h"
#include "workloads/fuzz/FuzzGenerator.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

using namespace trident;
using perfbench::Clock;
using perfbench::SpanRecorder;

namespace {

//===----------------------------------------------------------------------===//
// Options
//===----------------------------------------------------------------------===//

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10.0;
  bool Trace = false;
  uint64_t Instr = 0; ///< 0 = the workload's own measured window.
  uint64_t Warmup = 100'000;
  std::string OutDir;
  std::string Commit = "unknown";
};

bool parseU64(const char *S, uint64_t &Out) {
  if (!S || !*S || *S == '-' || *S == '+')
    return false;
  char *End = nullptr;
  errno = 0;
  unsigned long long V = std::strtoull(S, &End, 10);
  if (errno != 0 || *End != '\0')
    return false;
  Out = V;
  return true;
}

bool parseArgs(int Argc, char **Argv, Options &O, std::string &Err) {
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    const char *V = I + 1 < Argc ? Argv[I + 1] : nullptr;
    auto needValue = [&]() {
      if (!V) {
        Err = A + " needs a value";
        return false;
      }
      ++I;
      return true;
    };
    uint64_t N = 0;
    if (A == "--workload") {
      if (!needValue())
        return false;
      O.Workload = V;
    } else if (A == "--seed" || A == "--seconds" || A == "--trace" ||
               A == "--instr" || A == "--warmup") {
      if (!needValue())
        return false;
      if (!parseU64(V, N)) {
        Err = A + " expects a non-negative integer, got '" + V + "'";
        return false;
      }
      if (A == "--seed")
        O.Seed = N;
      else if (A == "--seconds")
        O.Seconds = static_cast<double>(N);
      else if (A == "--trace") {
        if (N > 1) {
          Err = "--trace expects 0 or 1";
          return false;
        }
        O.Trace = N == 1;
      } else if (A == "--instr")
        O.Instr = N;
      else
        O.Warmup = N;
    } else if (A == "--out-dir") {
      if (!needValue())
        return false;
      O.OutDir = V;
    } else if (A == "--commit") {
      if (!needValue())
        return false;
      O.Commit = V;
    } else {
      Err = "unknown argument '" + A + "'";
      return false;
    }
  }
  if (O.Workload != "paper-solo" && O.Workload != "arsenal-mix" &&
      O.Workload != "fuzz-short") {
    Err = "--workload must be paper-solo, arsenal-mix or fuzz-short";
    return false;
  }
  if (O.Seconds < 1) {
    Err = "--seconds must be at least 1";
    return false;
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Workload plans
//===----------------------------------------------------------------------===//

/// One primary program with its co-runners (empty for solo programs).
struct Program {
  std::string Primary;
  std::vector<std::string> Co;

  std::string label() const {
    std::string L = Primary;
    for (const std::string &C : Co)
      L += "+" + C;
    return L;
  }
};

struct Job {
  size_t Prog = 0; ///< Index into Plan::Programs.
  SimConfig Config;
  std::string Label;
};

struct Plan {
  std::string Name;
  std::vector<Program> Programs;
  /// The timed job list.
  std::vector<Job> Jobs;
  /// Untimed jobs that only feed srp_speedup_geomean (arsenal-mix, whose
  /// timed jobs all run with Trident off).
  std::vector<Job> ModelJobs;
  /// (self-repairing, hardware baseline) index pairs into Jobs ++ ModelJobs.
  std::vector<std::pair<size_t, size_t>> SrpPairs;
  /// The hardware unit the ladder's R1 rung attaches.
  std::string Unit;
  std::string SrpBaseline;
  uint64_t BanditSeed = 1;
};

SimConfig hwConfig(const std::string &Pf) {
  SimConfig C = SimConfig::hwBaseline();
  C.HwPf = Pf;
  return C;
}

SimConfig tridentConfig(PrefetchMode M, const std::string &Pf) {
  SimConfig C = SimConfig::withMode(M);
  C.HwPf = Pf;
  return C;
}

SimConfig withBandit(SimConfig C, uint64_t Seed) {
  std::string Err;
  bool Ok = SelectorConfig::parse("bandit:seed=" + std::to_string(Seed),
                                  C.Selector, &Err);
  if (!Ok) {
    std::fprintf(stderr, "perfbench: bad bandit spec: %s\n", Err.c_str());
    std::exit(2);
  }
  return C;
}

/// The knob draw fig11_fuzz uses: every knob independently keeps its
/// default half the time; all draws come from one SplitMix64 over the
/// scenario seed.
FuzzKnobs drawKnobs(uint64_t Seed) {
  SplitMix64 R(Seed * 0x9e3779b97f4a7c15ull + 0xf1611);
  FuzzKnobs K;
  auto maybe = [&](auto &Field, uint64_t Value) {
    if (R.nextBelow(2))
      Field = static_cast<std::remove_reference_t<decltype(Field)>>(Value);
  };
  static const uint64_t Wsets[] = {64, 256, 1024, 4096, 16384, 65536, 131072};
  static const uint64_t Phases[] = {128, 512, 2000, 8000, 40000, 200000};
  maybe(K.WsetKB, Wsets[R.nextBelow(7)]);
  maybe(K.Segments, 1 + R.nextBelow(8));
  maybe(K.EntropyPermille, R.nextBelow(1001));
  maybe(K.BranchPermille, R.nextBelow(1001));
  maybe(K.PhaseIters, Phases[R.nextBelow(6)]);
  maybe(K.Streams, 1 + R.nextBelow(10));
  return K;
}

/// Default measured windows (committed primary-lane instructions).
uint64_t defaultInstr(const std::string &Name) {
  if (Name == "paper-solo")
    return 300'000;
  if (Name == "arsenal-mix")
    return 150'000;
  return 250'000; // fuzz-short: short windows, set-up heavy
}

/// fuzz-short draw: a stratified (Latin-hypercube) form of the fig11
/// draw. Every seed gets the same multiset of values for each knob, two
/// programs per working-set size from 64 KB to 128 MB; the seed decides
/// how the knob values pair up and each program's generator seed. Each
/// program has five segments, and a generator seed is kept only when its
/// segments are the five segment kinds once each, with phases short
/// enough that the measured window visits all of them. So the seed
/// changes the programs (strides, layouts, node sizes, branches) but not
/// their make-up, which keeps the workload's aggregate cost and speedup
/// comparable from seed to seed. The data image is held near the median
/// size kind-balanced draws have at that wset (kFuzzImageMB), so the
/// process's memory high-water does not hang on one node-size draw.
constexpr size_t kFuzzPrograms = 12;
const uint64_t kFuzzWsetKB[kFuzzPrograms] = {
    64, 64, 512, 512, 4096, 4096, 16384, 16384, 65536, 65536, 131072, 131072};
const uint64_t kFuzzPhase[kFuzzPrograms] = {128, 128, 128, 128, 512,  512,
                                            512, 512, 2000, 2000, 2000, 2000};
const unsigned kFuzzStreams[kFuzzPrograms] = {1, 2, 3, 4, 5, 5,
                                              6, 6, 7, 8, 9, 10};
const double kFuzzImageMB[kFuzzPrograms] = {0.125, 0.125, 1,  1,  8,  8,
                                            24,    24,    32, 32, 32, 32};

/// True when each of the five segment kinds appears in \p W's
/// "fuzzed (kind+kind+...)" description (five segments: once each).
bool hasEachKindOnce(const Workload &W) {
  for (const char *K : {"scan", "chase", "gather", "walk", "probe"})
    if (W.Description.find(K) == std::string::npos)
      return false;
  return true;
}

std::vector<std::string> drawFuzzPrograms(SplitMix64 &Rng) {
  auto permutation = [&]() {
    std::vector<size_t> Order(kFuzzPrograms);
    for (size_t I = 0; I < kFuzzPrograms; ++I)
      Order[I] = I;
    for (size_t I = kFuzzPrograms; I > 1; --I)
      std::swap(Order[I - 1], Order[Rng.nextBelow(I)]);
    return Order;
  };
  // Evenly spaced permille levels, one per program.
  auto permille = [](size_t I) {
    return static_cast<unsigned>((2 * I + 1) * 1000 / (2 * kFuzzPrograms));
  };
  std::vector<size_t> Entropy = permutation(), Branch = permutation(),
                      Phase = permutation(), Streams = permutation();
  std::vector<std::string> Out;
  for (size_t I = 0; I < kFuzzPrograms; ++I) {
    FuzzKnobs K;
    K.WsetKB = kFuzzWsetKB[I];
    K.Segments = 5;
    K.EntropyPermille = permille(Entropy[I]);
    K.BranchPermille = permille(Branch[I]);
    K.PhaseIters = kFuzzPhase[Phase[I]];
    K.Streams = kFuzzStreams[Streams[I]];
    // Keep the first kind-balanced draw whose data image is within 1/8 of
    // the nominal size, or the closest one within the draw limit.
    uint64_t Best = 0;
    double BestDist = 1e300;
    for (unsigned Draw = 0; Draw < 20000 && BestDist > kFuzzImageMB[I] / 8;
         ++Draw) {
      uint64_t Seed = 1 + Rng.nextBelow(1'000'000);
      Workload W = makeFuzzWorkload(Seed, K);
      if (!hasEachKindOnce(W))
        continue;
      DataMemory Image;
      W.Init(Image);
      double MB = static_cast<double>(Image.numPages() * DataMemory::PageSize) /
                  (1024.0 * 1024.0);
      if (std::abs(MB - kFuzzImageMB[I]) < BestDist) {
        Best = Seed;
        BestDist = std::abs(MB - kFuzzImageMB[I]);
      }
    }
    if (Best == 0) {
      std::fprintf(stderr, "perfbench: no fuzz program has every segment "
                           "kind once\n");
      std::exit(2);
    }
    Out.push_back(fuzzWorkloadName(Best, K));
  }
  return Out;
}

Plan makePlan(const Options &O) {
  Plan P;
  P.Name = O.Workload;
  const uint64_t Instr = O.Instr ? O.Instr : defaultInstr(O.Workload);
  SplitMix64 SeedRng(O.Seed * 0xd1b54a32d192ed03ull + 0x5eed);
  P.BanditSeed = 1 + SeedRng.nextBelow(1'000'000);

  auto addJob = [&](std::vector<Job> &To, size_t Prog, SimConfig C,
                    const std::string &What) {
    C.SimInstructions = Instr;
    C.WarmupInstructions = O.Warmup;
    C.MixWith = P.Programs[Prog].Co;
    To.push_back(Job{Prog, C, P.Programs[Prog].label() + "|" + What});
    return To.size() - 1;
  };

  if (O.Workload == "paper-solo") {
    // The paper's Fig. 5: hardware baseline vs self-repairing, solo.
    P.Unit = "sb8x8";
    P.SrpBaseline = "sb8x8 stream buffers, Trident off";
    for (const std::string &N : workloadNames())
      P.Programs.push_back(Program{N, {}});
    for (size_t I = 0; I < P.Programs.size(); ++I) {
      size_t Base = addJob(P.Jobs, I, hwConfig("sb8x8"), "hw-sb8x8");
      size_t Srp = addJob(P.Jobs, I,
                          tridentConfig(PrefetchMode::SelfRepairing, "sb8x8"),
                          "self-repairing");
      P.SrpPairs.emplace_back(Srp, Base);
    }
  } else if (O.Workload == "arsenal-mix") {
    // fig11_fuzz's six co-runner sets around paper-program primaries;
    // the fourth set is fig11's mid-sweep fuzz scenario (seed 1025).
    const std::string Fuzz1025 = fuzzWorkloadName(1025, drawKnobs(1025));
    P.Programs = {
        {"mcf", {"art"}},
        {"swim", {"mcf"}},
        {"vis", {"equake", "art"}},
        {"equake", {Fuzz1025}},
        {"art", {"swim"}},
        {"parser", {"art", "mcf", "equake"}},
    };
    P.Unit = "dcpt";
    P.SrpBaseline = "dcpt, Trident off, same mix (untimed model pass)";
    for (size_t I = 0; I < P.Programs.size(); ++I) {
      for (const char *Unit : {"dcpt", "enhanced-stream", "tskid"})
        addJob(P.Jobs, I, hwConfig(Unit), Unit);
      addJob(P.Jobs, I, withBandit(hwConfig("dcpt"), P.BanditSeed),
             "bandit");
    }
    for (size_t I = 0; I < P.Programs.size(); ++I) {
      size_t Srp = addJob(P.ModelJobs, I,
                          tridentConfig(PrefetchMode::SelfRepairing, "dcpt"),
                          "self-repairing-dcpt");
      P.SrpPairs.emplace_back(P.Jobs.size() + Srp, 4 * I); // over mix I's dcpt
    }
  } else {
    // Seeded fuzz programs, stratified by knob (see drawFuzzPrograms).
    P.Unit = "sb8x8";
    P.SrpBaseline = "hw with --hwpf none";
    for (const std::string &Name : drawFuzzPrograms(SeedRng))
      P.Programs.push_back(Program{Name, {}});
    for (size_t I = 0; I < P.Programs.size(); ++I) {
      size_t Base = addJob(P.Jobs, I, hwConfig("none"), "hw-none");
      size_t Srp = addJob(P.Jobs, I,
                          tridentConfig(PrefetchMode::SelfRepairing, "sb8x8"),
                          "self-repairing");
      P.SrpPairs.emplace_back(Srp, Base);
    }
  }
  return P;
}

//===----------------------------------------------------------------------===//
// Statistics
//===----------------------------------------------------------------------===//

double median(std::vector<double> V) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : 0.5 * (V[N / 2 - 1] + V[N / 2]);
}

/// Quartiles by the rule of Python's statistics.quantiles(V, n=4)
/// (method 'exclusive'); a single sample is its own quartiles.
std::array<double, 3> quartiles(std::vector<double> V) {
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  if (N == 0)
    return {0, 0, 0};
  if (N == 1)
    return {V[0], V[0], V[0]};
  std::array<double, 3> Q{};
  long M = static_cast<long>(N) + 1;
  for (long I = 1; I <= 3; ++I) {
    long J = I * M / 4;
    J = std::clamp(J, 1L, static_cast<long>(N) - 1);
    long Delta = I * M - J * 4;
    Q[static_cast<size_t>(I - 1)] =
        (V[static_cast<size_t>(J - 1)] * static_cast<double>(4 - Delta) +
         V[static_cast<size_t>(J)] * static_cast<double>(Delta)) /
        4.0;
  }
  return Q;
}

/// Linear-interpolated percentile \p P in [0,100].
double percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  double Pos = P / 100.0 * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  double F = Pos - static_cast<double>(Lo);
  return V[Lo] * (1.0 - F) + V[Hi] * F;
}

double geomean(const std::vector<double> &V) {
  double S = 0.0;
  for (double X : V)
    S += std::log(X);
  return V.empty() ? 0.0 : std::exp(S / static_cast<double>(V.size()));
}

double ratio(double Num, double Den) { return Den == 0.0 ? 0.0 : Num / Den; }

double secondsSince(Clock::time_point T) {
  return std::chrono::duration<double>(Clock::now() - T).count();
}

struct Metric {
  std::string Name;
  std::string Unit;
  double Value = 0.0;
  std::vector<double> Samples; ///< What Value summarizes (may be one).
};

Metric summarized(const std::string &Name, const std::string &Unit,
                  const std::vector<double> &Samples) {
  return Metric{Name, Unit, median(Samples), Samples};
}

Metric single(const std::string &Name, const std::string &Unit, double V) {
  return Metric{Name, Unit, V, {V}};
}

/// Moves the calling thread to the next CPU of its original affinity set
/// before each single-worker job; release() restores the set. On a shared
/// host each vCPU has fast and slow spells of a few seconds (one fixed job
/// measured 1.6x slower on one vCPU than on the others within the same
/// second), and the scheduler leaves an otherwise lone thread on one CPU,
/// so an unrotated single-worker pass samples one CPU's spells for a whole
/// run. Rotating samples all of them; what runs is unchanged.
class CpuRotation {
public:
  CpuRotation() {
    CPU_ZERO(&Saved);
    if (sched_getaffinity(0, sizeof(Saved), &Saved) != 0)
      return;
    for (int C = 0; C < CPU_SETSIZE; ++C)
      if (CPU_ISSET(C, &Saved))
        Cpus.push_back(C);
  }
  CpuRotation(const CpuRotation &) = delete;
  CpuRotation &operator=(const CpuRotation &) = delete;
  ~CpuRotation() { release(); }

  void next() {
    if (Cpus.size() < 2)
      return;
    cpu_set_t One;
    CPU_ZERO(&One);
    CPU_SET(Cpus[Turn++ % Cpus.size()], &One);
    sched_setaffinity(0, sizeof(One), &One);
  }

  void release() {
    if (Cpus.size() >= 2)
      sched_setaffinity(0, sizeof(Saved), &Saved);
  }

private:
  cpu_set_t Saved;
  std::vector<int> Cpus;
  size_t Turn = 0;
};

//===----------------------------------------------------------------------===//
// Output checks
//===----------------------------------------------------------------------===//

/// Counts job executions and failures. A job fails when its register
/// checksum differs from the Trident-off, no-prefetcher reference run of
/// the same program and budget; when it stops short of its budget without
/// halting; or when its registry snapshot differs from the job's first
/// execution in this process.
class Checker {
public:
  Checker(size_t NumPrograms, size_t NumJobs)
      : RefChecksum(NumPrograms, 0), FirstSnapshot(NumJobs) {}

  void setReference(size_t Prog, uint64_t Checksum) {
    RefChecksum[Prog] = Checksum;
  }

  void check(size_t JobIdx, const Job &J, const SimResult &R) {
    ++Attempted;
    std::string Why;
    if (R.RegChecksum != RefChecksum[J.Prog])
      Why = "register checksum differs from the reference run";
    else if (!R.Halted && R.Instructions != J.Config.SimInstructions)
      Why = "stopped short of its budget without halting";
    else if (!R.Registry)
      Why = "no registry snapshot";
    else {
      std::string Snap = R.Registry->toJsonl();
      std::string &First = FirstSnapshot[JobIdx];
      if (First.empty())
        First = std::move(Snap);
      else if (Snap != First)
        Why = "registry snapshot differs from the first repeat";
    }
    if (Why.empty())
      return;
    ++Failed;
    if (Messages.size() < 10)
      Messages.push_back(J.Label + ": " + Why);
  }

  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<std::string> Messages;

private:
  std::vector<uint64_t> RefChecksum;
  std::vector<std::string> FirstSnapshot;
};

//===----------------------------------------------------------------------===//
// Measurement passes
//===----------------------------------------------------------------------===//

class Bench {
public:
  Bench(const Options &O, Plan P)
      : Opt(O), Pl(std::move(P)),
        Threads(std::min(4u, std::max(1u, std::thread::hardware_concurrency()))),
        Runner({Threads, /*UseCache=*/true}), Spans(O.Trace),
        Check(Pl.Programs.size(), Pl.Jobs.size() + Pl.ModelJobs.size()),
        Rng(O.Seed ^ 0x0bad5eedull) {}

  int run();

private:
  const Job &jobAt(size_t I) const {
    return I < Pl.Jobs.size() ? Pl.Jobs[I] : Pl.ModelJobs[I - Pl.Jobs.size()];
  }

  Workload makeTimed(const std::string &Name, int JobId) {
    SpanRecorder::Scope S(Spans, "makeWorkload", JobId);
    return makeWorkload(Name);
  }

  SimResult simulate(const Workload &W, const SimConfig &C, int JobId,
                     const std::string &SpanName,
                     EventTracer *Tracer = nullptr) {
    SpanRecorder::Scope S(Spans, SpanName, JobId);
    return runSimulation(W, C, Tracer);
  }

  void checkPass();
  void serialPass();
  void batchPass();
  void setupPass();
  void ladderRound();
  void replay();

  std::vector<Metric> endToEndMetrics();
  std::vector<Metric> perLayerMetrics();

  std::vector<size_t> shuffled(size_t N) {
    std::vector<size_t> Order(N);
    for (size_t I = 0; I < N; ++I)
      Order[I] = I;
    for (size_t I = N; I > 1; --I)
      std::swap(Order[I - 1], Order[Rng.nextBelow(I)]);
    return Order;
  }

  const Options &Opt;
  Plan Pl;
  unsigned Threads;
  ExperimentRunner Runner;
  SpanRecorder Spans;
  Checker Check;
  SplitMix64 Rng;
  CpuRotation Rotation;

  // Check pass: one result per job (Jobs ++ ModelJobs).
  std::vector<std::shared_ptr<const SimResult>> CheckResults;
  // Serial-pass results that ran before the references existed.
  bool RefsReady = false;
  std::vector<std::pair<size_t, SimResult>> Pending;
  // Process high-water RSS after the first (single-threaded) serial pass.
  double PeakRssMb = 0.0;

  // End-to-end samples, one per round (per job for JobS).
  std::vector<double> SimIps, BatchS, SetupS, JobS, SerialSumS;

  // Ladder: per rung, per round: summed runSimulation seconds,
  // primary-lane instructions and cycles.
  enum Rung { R0, R1, R2, R3, RSel, RTrc, RAlt, NumRungs };
  struct RungSample {
    double Seconds = 0.0;
    uint64_t Instr = 0;
    uint64_t Cycles = 0;
  };
  std::vector<std::array<RungSample, NumRungs>> Ladder;
  SimConfig rungConfig(Rung R, size_t Prog) const;
  static const char *rungName(Rung R);

  // Replay: per repeat, ns per access bare and with the unit attached.
  std::vector<double> ReplayBareNs, ReplayUnitNs;
  std::vector<std::vector<EventTracer::Record>> Streams;
};

void Bench::checkPass() {
  // References first: Trident off, no prefetcher, solo, same budget.
  std::vector<ExperimentJob> Refs;
  for (const Program &Pr : Pl.Programs) {
    SimConfig C = hwConfig("none");
    C.SimInstructions = Pl.Jobs.front().Config.SimInstructions;
    C.WarmupInstructions = Pl.Jobs.front().Config.WarmupInstructions;
    Refs.push_back(ExperimentJob{makeWorkload(Pr.Primary), C});
  }
  std::vector<ExperimentJob> All;
  for (size_t I = 0; I < Pl.Jobs.size() + Pl.ModelJobs.size(); ++I)
    All.push_back(ExperimentJob{
        makeWorkload(Pl.Programs[jobAt(I).Prog].Primary), jobAt(I).Config});
  ExperimentRunner::clearResultCache();
  std::vector<std::shared_ptr<const SimResult>> RefResults;
  {
    SpanRecorder::Scope S(Spans, "runBatch.check");
    RefResults = Runner.runBatch(Refs);
    CheckResults = Runner.runBatch(All);
  }
  ExperimentRunner::clearResultCache();
  for (size_t P = 0; P < Pl.Programs.size(); ++P)
    Check.setReference(P, RefResults[P]->RegChecksum);
  RefsReady = true;
  for (size_t I = 0; I < CheckResults.size(); ++I)
    Check.check(I, jobAt(I), *CheckResults[I]);
  for (const auto &[I, R] : Pending)
    Check.check(I, Pl.Jobs[I], R);
  Pending.clear();
}

void Bench::serialPass() {
  SpanRecorder::Scope S(Spans, "pass.serial");
  double SumS = 0.0;
  uint64_t Instr = 0;
  // The first pass keeps plan order, so the memory high-water it leaves
  // does not depend on job order; later passes shuffle.
  std::vector<size_t> Order = shuffled(Pl.Jobs.size());
  if (!RefsReady)
    std::sort(Order.begin(), Order.end());
  for (size_t I : Order) {
    const Job &J = Pl.Jobs[I];
    int Id = static_cast<int>(I);
    Rotation.next();
    SpanRecorder::Scope JS(Spans, "job", Id);
    auto T0 = Clock::now();
    Workload W = makeTimed(Pl.Programs[J.Prog].Primary, Id);
    SimResult R = simulate(W, J.Config, Id, "runSimulation");
    double Sec = secondsSince(T0);
    SumS += Sec;
    JobS.push_back(Sec);
    Instr += R.Instructions;
    if (RefsReady)
      Check.check(I, J, R);
    else
      Pending.emplace_back(I, std::move(R));
  }
  Rotation.release();
  SerialSumS.push_back(SumS);
  SimIps.push_back(ratio(static_cast<double>(Instr), SumS));
}

void Bench::batchPass() {
  std::vector<ExperimentJob> Jobs;
  for (const Job &J : Pl.Jobs)
    Jobs.push_back(ExperimentJob{makeWorkload(Pl.Programs[J.Prog].Primary),
                                 J.Config});
  ExperimentRunner::clearResultCache();
  std::vector<std::shared_ptr<const SimResult>> Rs;
  auto T0 = Clock::now();
  {
    SpanRecorder::Scope S(Spans, "runBatch");
    Rs = Runner.runBatch(Jobs);
  }
  BatchS.push_back(secondsSince(T0));
  ExperimentRunner::clearResultCache();
  for (size_t I = 0; I < Rs.size(); ++I)
    Check.check(I, Pl.Jobs[I], *Rs[I]);
}

void Bench::setupPass() {
  SpanRecorder::Scope S(Spans, "pass.setup");
  double SumS = 0.0;
  for (size_t I : shuffled(Pl.Jobs.size())) {
    const Job &J = Pl.Jobs[I];
    int Id = static_cast<int>(I);
    SimConfig C = J.Config;
    C.SimInstructions = 1;
    Rotation.next();
    auto T0 = Clock::now();
    Workload W = makeTimed(Pl.Programs[J.Prog].Primary, Id);
    simulate(W, C, Id, "runSimulation.setup");
    SumS += secondsSince(T0);
  }
  Rotation.release();
  SetupS.push_back(SumS);
}

const char *Bench::rungName(Rung R) {
  switch (R) {
  case R0:
    return "R0.cpu";
  case R1:
    return "R1.hwpf";
  case R2:
    return "R2.trident";
  case R3:
    return "R3.core";
  case RSel:
    return "R1+control";
  case RTrc:
    return "R3+tracer";
  case RAlt:
    return "R1.mix-alt";
  case NumRungs:
    break;
  }
  return "?";
}

SimConfig Bench::rungConfig(Rung R, size_t Prog) const {
  SimConfig C;
  switch (R) {
  case R0:
    C = hwConfig("none");
    break;
  case R1:
  case RAlt:
    C = hwConfig(Pl.Unit);
    break;
  case R2:
    C = tridentConfig(PrefetchMode::None, Pl.Unit);
    break;
  case R3:
  case RTrc:
    C = tridentConfig(PrefetchMode::SelfRepairing, Pl.Unit);
    break;
  case RSel:
    C = withBandit(hwConfig(Pl.Unit), Pl.BanditSeed);
    break;
  case NumRungs:
    break;
  }
  const SimConfig &Ref = Pl.Jobs.front().Config;
  C.SimInstructions = Ref.SimInstructions;
  C.WarmupInstructions = Ref.WarmupInstructions;
  C.MixWith = Pl.Programs[Prog].Co;
  if (R == RAlt) {
    // The mix layer's rung: a mix workload's primary runs solo, a solo
    // workload's program gains the next program as its co-runner.
    if (C.MixWith.empty())
      C.MixWith = {Pl.Programs[(Prog + 1) % Pl.Programs.size()].Primary};
    else
      C.MixWith.clear();
  }
  return C;
}

void Bench::ladderRound() {
  SpanRecorder::Scope S(Spans, "ladder.round");
  std::array<RungSample, NumRungs> Round{};
  const size_t Turn = Ladder.size();
  for (size_t P : shuffled(Pl.Programs.size())) {
    int Id = static_cast<int>(P);
    for (size_t K = 0; K < NumRungs; ++K) {
      Rung R = static_cast<Rung>((K + Turn + P) % NumRungs);
      SimConfig C = rungConfig(R, P);
      Rotation.next();
      SpanRecorder::Scope JS(Spans, std::string("ladder.") + rungName(R), Id);
      Workload W = makeTimed(Pl.Programs[P].Primary, Id);
      auto T0 = Clock::now();
      SimResult Res;
      if (R == RTrc) {
        SpanRecorder::Scope SS(Spans, "runSimulation", Id);
        EventTracer Tracer;
        Res = runSimulation(W, C, &Tracer);
      } else {
        Res = simulate(W, C, Id, "runSimulation");
      }
      Round[R].Seconds += secondsSince(T0);
      Round[R].Instr += Res.Instructions;
      Round[R].Cycles += Res.Cycles;
    }
  }
  Rotation.release();
  Ladder.push_back(Round);
}

void Bench::replay() {
  SpanRecorder::Scope S(Spans, "replay");
  if (Streams.empty()) {
    // Capture each primary's committed-load stream (the newest 64K
    // loads) from a Trident-off, no-prefetcher solo run.
    for (size_t P = 0; P < Pl.Programs.size(); ++P) {
      int Id = static_cast<int>(P);
      SimConfig C = rungConfig(R0, P);
      C.MixWith.clear();
      Workload W = makeTimed(Pl.Programs[P].Primary, Id);
      EventTracer Tracer(1 << 16, eventMaskOf(EventKind::LoadOutcome));
      simulate(W, C, Id, "runSimulation.capture", &Tracer);
      Streams.push_back(Tracer.snapshot());
    }
  }
  PrefetcherEnv Env;
  auto replayOnce = [&](bool WithUnit) {
    SpanRecorder::Scope RS(Spans, WithUnit ? "replay.unit" : "replay.bare");
    double Sec = 0.0;
    uint64_t Accesses = 0;
    for (size_t P = 0; P < Streams.size(); ++P) {
      MemorySystem Mem(MemSystemConfig::baseline());
      if (WithUnit) {
        SpanRecorder::Scope CS(Spans, "PrefetcherRegistry::create",
                               static_cast<int>(P));
        std::string Err;
        std::unique_ptr<HwPrefetcher> Unit =
            PrefetcherRegistry::instance().create(Pl.Unit, Env, &Err);
        if (!Unit) {
          std::fprintf(stderr, "perfbench: cannot create '%s': %s\n",
                       Pl.Unit.c_str(), Err.c_str());
          std::exit(2);
        }
        Mem.attachPrefetcher(std::move(Unit));
      }
      SpanRecorder::Scope AS(Spans, "MemorySystem::access",
                             static_cast<int>(P));
      Cycle Now = 0;
      auto T0 = Clock::now();
      for (const EventTracer::Record &Rec : Streams[P]) {
        Now = std::max(Now, Rec.Time);
        Mem.access(Rec.PC, Rec.Arg, AccessKind::DemandLoad, Now);
      }
      Sec += secondsSince(T0);
      Accesses += Streams[P].size();
    }
    return ratio(Sec * 1e9, static_cast<double>(Accesses));
  };
  double Bare = replayOnce(false);
  double Unit = replayOnce(true);
  ReplayBareNs.push_back(Bare);
  ReplayUnitNs.push_back(Unit);
}

//===----------------------------------------------------------------------===//
// Metrics
//===----------------------------------------------------------------------===//

std::vector<Metric> Bench::endToEndMetrics() {
  std::vector<double> Ipcs;
  for (size_t I = 0; I < Pl.Jobs.size(); ++I)
    Ipcs.push_back(CheckResults[I]->Ipc);
  std::vector<double> Speedups;
  for (auto [T, B] : Pl.SrpPairs)
    Speedups.push_back(speedup(*CheckResults[T], *CheckResults[B]));

  std::vector<Metric> M;
  M.push_back(summarized("sim_ips", "instr/s", SimIps));
  M.push_back(summarized("batch_s", "s", BatchS));
  M.push_back(summarized("setup_s", "s", SetupS));
  M.push_back(Metric{"job_s.p50", "s", percentile(JobS, 50), JobS});
  M.push_back(Metric{"job_s.p90", "s", percentile(JobS, 90), JobS});
  M.push_back(single("peak_rss_mb", "MB", PeakRssMb));
  M.push_back(Metric{"ipc_geomean", "IPC", geomean(Ipcs), Ipcs});
  M.push_back(
      Metric{"srp_speedup_geomean", "ratio", geomean(Speedups), Speedups});
  return M;
}

std::vector<Metric> Bench::perLayerMetrics() {
  // Ladder: per-round ns per primary-lane instruction of each rung, and
  // paired per-round differences between rungs.
  auto nsPerInstr = [](const RungSample &S) {
    return ratio(S.Seconds * 1e9, static_cast<double>(S.Instr));
  };
  auto diff = [&](Rung Hi, Rung Lo) {
    std::vector<double> V;
    for (const auto &Round : Ladder)
      V.push_back(nsPerInstr(Round[Hi]) - nsPerInstr(Round[Lo]));
    return V;
  };
  std::vector<double> CpuInstr, CpuCycle;
  for (const auto &Round : Ladder) {
    CpuInstr.push_back(nsPerInstr(Round[R0]));
    CpuCycle.push_back(
        ratio(Round[R0].Seconds * 1e9, static_cast<double>(Round[R0].Cycles)));
  }
  const bool MixPlan = !Pl.Programs.front().Co.empty();

  std::vector<Metric> M;
  M.push_back(summarized("cpu.ns_per_instr", "ns/instr", CpuInstr));
  M.push_back(summarized("cpu.ns_per_cycle", "ns/cycle", CpuCycle));
  M.push_back(summarized("hwpf.ns_per_instr", "ns/instr", diff(R1, R0)));
  M.push_back(summarized("trident.ns_per_instr", "ns/instr", diff(R2, R1)));
  M.push_back(summarized("core.ns_per_instr", "ns/instr", diff(R3, R2)));
  M.push_back(summarized("control.ns_per_instr", "ns/instr", diff(RSel, R1)));
  M.push_back(summarized("sim.mix_ns_per_instr", "ns/instr",
                         MixPlan ? diff(R1, RAlt) : diff(RAlt, R1)));
  M.push_back(
      summarized("events.tracer_ns_per_instr", "ns/instr", diff(RTrc, R3)));
  std::vector<double> PfAccess;
  for (size_t I = 0; I < ReplayBareNs.size(); ++I)
    PfAccess.push_back(ReplayUnitNs[I] - ReplayBareNs[I]);
  M.push_back(summarized("mem.ns_per_access", "ns/access", ReplayBareNs));
  M.push_back(summarized("hwpf.ns_per_access", "ns/access", PfAccess));

  // Pool and set-up shares from the warm passes (the first serial pass
  // runs in a fresh process and pays its first-touch costs).
  std::vector<double> WarmSerial(SerialSumS.begin() + 1, SerialSumS.end());
  M.push_back(single("sim.pool_busy_frac", "ratio",
                     ratio(median(WarmSerial),
                           static_cast<double>(Threads) * median(BatchS))));
  M.push_back(single("sim.setup_share", "ratio",
                     ratio(median(SetupS), median(WarmSerial))));

  // Span-derived self times.
  auto Totals = Spans.totalsByName();
  auto perCall = [&](const std::string &Name, double Scale) {
    auto It = Totals.find(Name);
    return It == Totals.end() || It->second.Calls == 0
               ? 0.0
               : It->second.SelfS * Scale /
                     static_cast<double>(It->second.Calls);
  };
  M.push_back(single("workloads.ms_per_make", "ms",
                     perCall("makeWorkload", 1e3)));
  M.push_back(single("hwpf.us_per_create", "us",
                     perCall("PrefetcherRegistry::create", 1e6)));

  // Registry counts over the workload's own jobs (check pass).
  double Instr = 0, Cycles = 0, Loads = 0, Misses = 0, Exposed = 0,
         Fetches = 0, Probes = 0, Lines = 0, Published = 0, Dropped = 0,
         Peak = 0, DltUpd = 0, DltEv = 0, Traces = 0, MissTot = 0,
         MissInTraces = 0, Repairs = 0, Matured = 0, Planned = 0, Helper = 0,
         Epochs = 0, Swaps = 0, PfIssued = 0, PfUseful = 0, PfDemandMiss = 0;
  for (size_t I = 0; I < Pl.Jobs.size(); ++I) {
    const SimResult &R = *CheckResults[I];
    const StatRegistry &G = *R.Registry;
    auto c = [&](const char *Name) {
      return static_cast<double>(G.counter(Name));
    };
    Instr += c("core.instructions");
    Cycles += c("core.cycles");
    Loads += c("mem.demand_loads");
    Misses += static_cast<double>(R.Mem.demandL1Misses());
    Exposed += c("mem.total_exposed_latency");
    Fetches += c("mem.memory_fetches");
    Probes += c("hwpf.probe_hits") + c("hwpf.probe_misses");
    Lines += c("hwpf.lines_prefetched");
    for (const StatRegistry::Entry *E : G.sortedEntries())
      if (E->Name.rfind("events.published.", 0) == 0)
        Published += static_cast<double>(E->U);
    Dropped += c("trident.event_queue.dropped");
    Peak = std::max(Peak, c("trident.event_queue.peak_occupancy"));
    DltUpd += c("dlt.updates");
    DltEv += c("dlt.events");
    Traces += c("trident.traces_installed");
    MissTot += c("trident.load_misses_total");
    MissInTraces += c("trident.load_misses_in_traces");
    Repairs += c("trident.repair_optimizations");
    Matured += c("trident.loads_matured");
    Planned += c("trident.prefetch_instructions_planned");
    Helper += c("core.helper_busy_cycles");
    Epochs += static_cast<double>(R.Selector.Epochs);
    Swaps += static_cast<double>(R.Selector.Swaps);
    PfIssued += static_cast<double>(R.PfFeedback.Issued);
    PfUseful += static_cast<double>(R.PfFeedback.Useful + R.PfFeedback.Late);
    PfDemandMiss += static_cast<double>(R.PfFeedback.DemandMisses);
  }
  M.push_back(single("mem.demand_loads", "count", Loads));
  M.push_back(single("mem.miss_rate", "ratio", ratio(Misses, Loads)));
  M.push_back(single("mem.exposed_latency_per_load", "cycles",
                     ratio(Exposed, Loads)));
  M.push_back(single("mem.memory_fetches", "count", Fetches));
  M.push_back(single("hwpf.probes", "count", Probes));
  M.push_back(single("hwpf.lines_prefetched", "count", Lines));
  M.push_back(single("hwpf.accuracy", "ratio", ratio(PfUseful, PfIssued)));
  M.push_back(single("hwpf.coverage", "ratio",
                     ratio(PfUseful, PfUseful + PfDemandMiss)));
  M.push_back(single("events.published_per_instr", "events/instr",
                     ratio(Published, Instr)));
  M.push_back(single("events.dropped", "count", Dropped));
  M.push_back(single("events.peak_queue", "count", Peak));
  M.push_back(single("dlt.updates", "count", DltUpd));
  M.push_back(single("dlt.events", "count", DltEv));
  M.push_back(single("trident.traces_installed", "count", Traces));
  M.push_back(single("trident.miss_coverage", "ratio",
                     ratio(MissInTraces, MissTot)));
  M.push_back(single("core.repair_optimizations", "count", Repairs));
  M.push_back(single("core.loads_matured", "count", Matured));
  M.push_back(single("core.prefetches_planned", "count", Planned));
  M.push_back(single("cpu.helper_busy_frac", "ratio", ratio(Helper, Cycles)));
  M.push_back(single("control.epochs", "count", Epochs));
  M.push_back(single("control.swaps", "count", Swaps));
  return M;
}

//===----------------------------------------------------------------------===//
// Reporting
//===----------------------------------------------------------------------===//

std::string cpuModel() {
  std::ifstream In("/proc/cpuinfo");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("model name", 0) == 0) {
      size_t Colon = Line.find(':');
      if (Colon != std::string::npos) {
        std::string M = Line.substr(Colon + 1);
        M.erase(0, M.find_first_not_of(' '));
        return M;
      }
    }
  return "unknown";
}

std::string jsonEscape(const std::string &S) {
  std::string Out;
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    if (static_cast<unsigned char>(C) >= 0x20)
      Out += C;
  }
  return Out;
}

std::string num(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", std::isfinite(V) ? V : 0.0);
  return Buf;
}

int Bench::run() {
  auto Start = Clock::now();
  std::printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              Pl.Name.c_str(), static_cast<unsigned long long>(Opt.Seed),
              Opt.Seconds, Opt.Trace ? 1 : 0);
  std::printf("# host cpu=\"%s\" nproc=%u threads=%u\n", cpuModel().c_str(),
              std::thread::hardware_concurrency(), Threads);
  std::printf("# build compiler=\"%s\" build_type=%s commit=%s\n",
              PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE, Opt.Commit.c_str());
  const SimConfig &C0 = Pl.Jobs.front().Config;
  std::printf("# jobs=%zu programs=%zu measured_instr=%llu warmup=%llu "
              "closed loop, %u worker threads for batches\n",
              Pl.Jobs.size(), Pl.Programs.size(),
              static_cast<unsigned long long>(C0.SimInstructions),
              static_cast<unsigned long long>(C0.WarmupInstructions),
              Threads);
  std::printf("# caches are warmed only by the warmup window; they are not "
              "full for fuzz working sets much larger than L3\n");
  for (const Program &P : Pl.Programs)
    std::printf("# program %s\n", P.label().c_str());
  std::fflush(stdout);

  // The first serial pass runs before anything multi-threaded, so the
  // high-water RSS it leaves is that of one worker running the job list
  // (a pool's peak depends on which jobs happen to overlap). Its results
  // are checked once the reference runs exist.
  serialPass();
  struct rusage Ru;
  getrusage(RUSAGE_SELF, &Ru);
  PeakRssMb = static_cast<double>(Ru.ru_maxrss) / 1024.0;
  checkPass();

  std::vector<Metric> Metrics;
  if (!Opt.Trace) {
    // Rounds of the three passes in rotating order, until the time is up.
    for (size_t Round = 0;; ++Round) {
      for (size_t K = 0; K < 3; ++K) {
        switch ((K + Round) % 3) {
        case 0:
          if (Round > 0)
            serialPass();
          break;
        case 1:
          // Batches are short; two per round give the median more samples.
          batchPass();
          batchPass();
          break;
        default:
          setupPass();
          break;
        }
      }
      double Elapsed = secondsSince(Start);
      if (Elapsed + Elapsed / static_cast<double>(Round + 2) > Opt.Seconds)
        break;
    }
    Metrics = endToEndMetrics();
  } else {
    for (int Round = 0; Round < 2; ++Round) {
      batchPass();
      setupPass();
      serialPass();
    }
    auto LadderStart = Clock::now();
    double Budget = Opt.Seconds * 0.85 - secondsSince(Start);
    do
      ladderRound();
    while (secondsSince(LadderStart) *
               (1.0 + 1.0 / static_cast<double>(Ladder.size())) <
           Budget);
    do
      replay();
    while (secondsSince(Start) < Opt.Seconds && ReplayBareNs.size() < 15);
    Metrics = perLayerMetrics();
    // The recorder's own cost: time a burst of empty spans, scale by the
    // spans recorded, and state it as a share of the traced run.
    size_t Recorded = Spans.spans().size();
    SpanRecorder Probe(true);
    auto T0 = Clock::now();
    for (int I = 0; I < 20000; ++I)
      SpanRecorder::Scope S(Probe, "probe", I);
    double PerSpan = secondsSince(T0) / 20000.0;
    Metrics.push_back(single("trace.span_overhead_frac", "ratio",
                             ratio(PerSpan * static_cast<double>(Recorded),
                                   secondsSince(Start))));
  }

  // Human-readable block: every metric with its sample count and quartiles.
  for (const Metric &M : Metrics) {
    auto Q = quartiles(M.Samples);
    std::printf("# metric %-30s %14.6g %-12s n=%zu q1=%.6g q3=%.6g\n",
                M.Name.c_str(), M.Value, M.Unit.c_str(), M.Samples.size(),
                Q[0], Q[2]);
  }
  if (!Opt.Trace)
    for (const Metric &M : Metrics)
      if (M.Name == "srp_speedup_geomean")
        std::printf("# srp_speedup_geomean %.4f over %s (paper, Fig. 5: "
                    "1.23 over the 8x8 stream buffers); the model is "
                    "unvalidated against the paper's hardware\n",
                    M.Value, Pl.SrpBaseline.c_str());
  if (Opt.Trace) {
    std::printf("# span self time (s): name calls total self\n");
    for (const auto &[Name, T] : Spans.totalsByName())
      std::printf("#   %-28s %6zu %10.4f %10.4f\n", Name.c_str(), T.Calls,
                  T.TotalS, T.SelfS);
  }
  std::printf("# fail_frac %.6g (%llu of %llu job executions failed)\n",
              ratio(static_cast<double>(Check.Failed),
                    static_cast<double>(Check.Attempted)),
              static_cast<unsigned long long>(Check.Failed),
              static_cast<unsigned long long>(Check.Attempted));
  for (const std::string &Msg : Check.Messages)
    std::printf("# FAILED %s\n", Msg.c_str());

  // Reports: the full summary (and, traced, the span trace) on disk.
  if (!Opt.OutDir.empty()) {
    std::string Stem = Opt.OutDir + "/" + Pl.Name + "-seed" +
                       std::to_string(Opt.Seed) +
                       (Opt.Trace ? "-trace1" : "-trace0");
    if (Opt.Trace && !Spans.writeChromeTrace(Stem + ".spans.json"))
      std::fprintf(stderr, "perfbench: cannot write %s.spans.json\n",
                   Stem.c_str());
    if (std::FILE *F = std::fopen((Stem + ".report.json").c_str(), "w")) {
      std::fprintf(F,
                   "{\"workload\":\"%s\",\"seed\":%llu,\"trace\":%d,"
                   "\"cpu\":\"%s\",\"nproc\":%u,\"threads\":%u,"
                   "\"compiler\":\"%s\",\"build_type\":\"%s\","
                   "\"commit\":\"%s\",\"attempted\":%llu,\"failed\":%llu,"
                   "\"metrics\":{",
                   Pl.Name.c_str(), static_cast<unsigned long long>(Opt.Seed),
                   Opt.Trace ? 1 : 0, jsonEscape(cpuModel()).c_str(),
                   std::thread::hardware_concurrency(), Threads,
                   jsonEscape(PERFBENCH_COMPILER).c_str(),
                   PERFBENCH_BUILD_TYPE, jsonEscape(Opt.Commit).c_str(),
                   static_cast<unsigned long long>(Check.Attempted),
                   static_cast<unsigned long long>(Check.Failed));
      for (size_t I = 0; I < Metrics.size(); ++I) {
        auto Q = quartiles(Metrics[I].Samples);
        std::fprintf(F,
                     "%s\"%s\":{\"value\":%s,\"unit\":\"%s\",\"n\":%zu,"
                     "\"q1\":%s,\"q3\":%s,\"samples\":[",
                     I ? "," : "", Metrics[I].Name.c_str(),
                     num(Metrics[I].Value).c_str(), Metrics[I].Unit.c_str(),
                     Metrics[I].Samples.size(), num(Q[0]).c_str(),
                     num(Q[2]).c_str());
        for (size_t K = 0; K < Metrics[I].Samples.size(); ++K)
          std::fprintf(F, "%s%s", K ? "," : "",
                       num(Metrics[I].Samples[K]).c_str());
        std::fprintf(F, "]}");
      }
      std::fprintf(F, "}}\n");
      std::fclose(F);
    }
  }

  // The result line.
  std::string Line = "{\"correct\": ";
  Line += Check.Failed == 0 ? "true" : "false";
  Line += ", \"attempted\": " + std::to_string(Check.Attempted);
  Line += ", \"failed\": " + std::to_string(Check.Failed);
  Line += ", \"metrics\": {";
  for (size_t I = 0; I < Metrics.size(); ++I) {
    if (I)
      Line += ", ";
    Line += "\"" + Metrics[I].Name + "\": {\"value\": " +
            num(Metrics[I].Value) + ", \"unit\": \"" + Metrics[I].Unit + "\"}";
  }
  Line += "}}";
  std::printf("%s\n", Line.c_str());
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  std::string Err;
  if (!parseArgs(Argc, Argv, O, Err)) {
    std::fprintf(stderr, "trident_perfbench: %s\n", Err.c_str());
    return 2;
  }
  Bench B(O, makePlan(O));
  return B.run();
}
