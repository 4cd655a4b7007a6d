//===- sweep_identity_test.cpp - Full-sweep bit-identity gate -------------===//
//
// Part of the Trident-SRP reproduction (CGO 2006).
//
// The hot-path refactors (SoA cache/DLT layouts, zero-alloc cycle loop,
// one synchronous event path) are pure performance work: they must not
// move a single architectural bit. This suite pins the *entire* sweep
// surface — all 14 workloads x 4 prefetch configs, plus a faulted self-repairing
// config, a two-co-runner mix, a bandit-selector run, a TLB-bounded dcpt
// run and the enhanced-stream and T-SKID units — to a committed
// fingerprint of (Cycles, RegChecksum, FNV-1a of the canonical
// stat-registry JSONL export).
//
// golden_stats_test already byte-compares the full JSONL for the
// SelfRepairing config; this suite widens the net to every config the
// figure sweeps use (hwBaseline has no Trident at all, so it exercises
// the pure-hardware path the stat goldens never see) while keeping the
// committed artifact to one small text file.
//
// To refresh after an *intentional* behaviour change, run
// tools/update_goldens.sh (it sets TRIDENT_UPDATE_GOLDENS for this suite
// too), then review the diff like any other code change.
//
//===----------------------------------------------------------------------===//

#include "control/PrefetcherSelector.h"
#include "faults/FaultPlan.h"
#include "sim/Simulation.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>

#ifndef TRIDENT_GOLDEN_DIR
#error "TRIDENT_GOLDEN_DIR must be defined by the build"
#endif

using namespace trident;

namespace {

/// Same snapshot budget as golden_stats_test / the fault identity tests:
/// small enough that the 140-cell sweep runs in seconds, long enough that
/// tracing, optimization, repair, and fault recovery all engage.
constexpr uint64_t kSimInstructions = 40'000;
constexpr uint64_t kWarmupInstructions = 10'000;

SimConfig budgeted(SimConfig C) {
  C.SimInstructions = kSimInstructions;
  C.WarmupInstructions = kWarmupInstructions;
  return C;
}

/// The faulted cell: a self-repairing run whose environment degrades mid-
/// flight. Cycle triggers are spread so that for typical cycle counts at
/// this budget (a few hundred thousand) every action fires on at least the
/// memory-bound workloads.
SimConfig faultedConfig() {
  SimConfig C = budgeted(SimConfig::withMode(PrefetchMode::SelfRepairing));
  FaultAction Spike;
  Spike.Trigger = FaultTrigger::AtCycle;
  Spike.At = 20'000;
  Spike.Kind = FaultKind::LatencySpike;
  Spike.ExtraMemLatency = 300;
  Spike.DurationCycles = 40'000;
  FaultAction EvictDlt;
  EvictDlt.Trigger = FaultTrigger::AtCycle;
  EvictDlt.At = 60'000;
  EvictDlt.Kind = FaultKind::EvictDlt;
  FaultAction KillTraces;
  KillTraces.Trigger = FaultTrigger::AtCycle;
  KillTraces.At = 90'000;
  KillTraces.Kind = FaultKind::InvalidateTraces;
  FaultAction EvictCaches;
  EvictCaches.Trigger = FaultTrigger::AtCycle;
  EvictCaches.At = 130'000;
  EvictCaches.Kind = FaultKind::EvictCaches;
  C.Faults.Actions = {Spike, EvictDlt, KillTraces, EvictCaches};
  return C;
}

/// The mix cell: the primary keeps the full self-repairing wiring while
/// two co-runners contend for the shared memory system.
SimConfig mixConfig() {
  SimConfig C = budgeted(SimConfig::withMode(PrefetchMode::SelfRepairing));
  C.MixWith = {"art", "equake"};
  return C;
}

/// The selector cell: the bandit control plane swaps arsenal units on top
/// of a dcpt start, so the feedback heartbeat and the phase monitor's
/// wiring are pinned too.
SimConfig banditConfig() {
  SimConfig C = budgeted(SimConfig::hwBaseline());
  C.HwPf = "dcpt";
  std::string Error;
  EXPECT_TRUE(SelectorConfig::parse("bandit", C.Selector, &Error)) << Error;
  return C;
}

/// The TLB cell: dcpt with the data-TLB model on, so the prefetcher is
/// built page-bounded.
SimConfig tlbDcptConfig() {
  SimConfig C = budgeted(SimConfig::hwBaseline());
  C.HwPf = "dcpt";
  C.Mem.Tlb.Enable = true;
  return C;
}

/// An arsenal cell: the hardware baseline with \p Unit in place of the
/// stream buffers. dcpt already runs under the bandit and TLB cells; these
/// pin the other two units that drain the shared prefetch buffer.
SimConfig arsenalConfig(const char *Unit) {
  SimConfig C = budgeted(SimConfig::hwBaseline());
  C.HwPf = Unit;
  return C;
}

struct SweepCell {
  const char *ConfigName;
  SimConfig Config;
};

std::vector<SweepCell> sweepCells() {
  return {
      {"hwBaseline", budgeted(SimConfig::hwBaseline())},
      {"basic", budgeted(SimConfig::withMode(PrefetchMode::Basic))},
      {"wholeObject", budgeted(SimConfig::withMode(PrefetchMode::WholeObject))},
      {"selfRepairing",
       budgeted(SimConfig::withMode(PrefetchMode::SelfRepairing))},
      {"faulted", faultedConfig()},
      {"mix", mixConfig()},
      {"bandit", banditConfig()},
      {"tlbDcpt", tlbDcptConfig()},
      {"enhancedStream", arsenalConfig("enhanced-stream")},
      {"tskid", arsenalConfig("tskid")},
  };
}

/// FNV-1a over the registry export. The stat goldens already guard the
/// byte-exact JSONL for one config; here a 64-bit fingerprint per cell
/// keeps the committed file reviewable (one line per cell, not one file).
uint64_t fnv1a(const std::string &S) {
  uint64_t H = 1469598103934665603ull;
  for (unsigned char C : S) {
    H ^= C;
    H *= 1099511628211ull;
  }
  return H;
}

std::string goldenPath() {
  return std::string(TRIDENT_GOLDEN_DIR) + "/sweep_identity.txt";
}

std::string cellKey(const std::string &Workload, const std::string &Config) {
  return Workload + " " + Config;
}

std::string fingerprintLine(const std::string &Workload,
                            const std::string &Config, const SimResult &R,
                            const std::string &Jsonl) {
  char Buf[256];
  std::snprintf(Buf, sizeof(Buf), "%s %s cycles=%llu checksum=%016llx "
                                  "registry=%016llx",
                Workload.c_str(), Config.c_str(),
                static_cast<unsigned long long>(R.Cycles),
                static_cast<unsigned long long>(R.RegChecksum),
                static_cast<unsigned long long>(fnv1a(Jsonl)));
  return Buf;
}

} // namespace

TEST(SweepIdentity, FullSweepMatchesCommittedFingerprints) {
  const bool Update = std::getenv("TRIDENT_UPDATE_GOLDENS") != nullptr;

  // Load the committed fingerprints (unless regenerating).
  std::map<std::string, std::string> Golden;
  if (!Update) {
    std::ifstream In(goldenPath());
    ASSERT_TRUE(In) << "missing " << goldenPath()
                    << " — run tools/update_goldens.sh and commit the result";
    std::string Line;
    while (std::getline(In, Line)) {
      if (Line.empty() || Line[0] == '#')
        continue;
      std::istringstream Is(Line);
      std::string Workload, Config;
      Is >> Workload >> Config;
      Golden[cellKey(Workload, Config)] = Line;
    }
  }

  std::ostringstream Out;
  Out << "# sweep_identity fingerprints: workload config cycles regchecksum "
         "fnv1a(registry jsonl)\n"
      << "# budget: sim=" << kSimInstructions
      << " warmup=" << kWarmupInstructions << "\n";

  for (const std::string &Name : workloadNames()) {
    for (const SweepCell &Cell : sweepCells()) {
      Workload W = makeWorkload(Name);
      SimResult R = runSimulation(W, Cell.Config);
      ASSERT_TRUE(R.Registry) << Name << "/" << Cell.ConfigName;
      const std::string Actual =
          fingerprintLine(Name, Cell.ConfigName, R, R.Registry->toJsonl());
      Out << Actual << "\n";
      if (Update)
        continue;
      auto It = Golden.find(cellKey(Name, Cell.ConfigName));
      ASSERT_NE(It, Golden.end())
          << "no committed fingerprint for " << Name << "/" << Cell.ConfigName;
      EXPECT_EQ(It->second, Actual)
          << Name << "/" << Cell.ConfigName
          << ": architectural state drifted from the committed sweep "
             "fingerprint (regen via tools/update_goldens.sh only if the "
             "change is intended)";
    }
  }

  if (Update) {
    std::ofstream OutFile(goldenPath(), std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(OutFile) << "cannot write " << goldenPath();
    OutFile << Out.str();
  }
}
