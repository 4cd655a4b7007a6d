//===- fuzz_golden_test.cpp - Golden corpus of fuzzed scenarios ------------===//
//
// Part of the Trident-SRP reproduction (CGO 2006).
//
// Pins five seeded fuzz scenarios — spread across the generator's knob
// space — to committed stat snapshots, exactly like golden_stats_test does
// for the 14 named workloads. Each snapshot includes the generator's
// workload.program_hash line, so a golden match certifies BOTH that the
// generator still emits the same program for the seed AND that the machine
// still executes it to the same statistics. Refresh intentionally via
// tools/update_goldens.sh (TRIDENT_UPDATE_GOLDENS regenerates here too).
//
//===----------------------------------------------------------------------===//

#include "GoldenFile.h"
#include "workloads/Workloads.h"
#include "workloads/fuzz/FuzzGenerator.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

using namespace trident;
using namespace trident::golden;

namespace {

/// One corpus scenario: a canonical fuzz spec and the snapshot filename it
/// pins (spec punctuation would make awkward filenames, so snapshots are
/// keyed by seed).
struct Scenario {
  const char *Spec;
  const char *File;
};

/// The corpus spreads the knob space: defaults, a small working set, high
/// entropy + heavy branching, many segments with fast phase changes, and
/// many streams over a large working set.
constexpr Scenario kCorpus[] = {
    {"fuzz@101", "fuzz_101"},
    {"fuzz@102:wset=2048", "fuzz_102"},
    {"fuzz@103:entropy=800,branch=500", "fuzz_103"},
    {"fuzz@104:segs=5,phase=1500", "fuzz_104"},
    {"fuzz@105:wset=16384,streams=10", "fuzz_105"},
};

} // namespace

TEST(FuzzGolden, CorpusMatchesCommittedSnapshots) {
  for (const Scenario &S : kCorpus) {
    Workload W = makeWorkload(S.Spec);
    // The corpus lists canonical specs, so the resolved name round-trips;
    // a mismatch means the canonical knob order changed under the corpus.
    ASSERT_EQ(W.Name, S.Spec);
    SimResult R = runSimulation(W, goldenConfig());
    ASSERT_TRUE(R.Registry) << S.Spec;
    // The snapshot pins the generator output itself, not just its
    // execution: the hash must be exported and match the workload's.
    ASSERT_TRUE(R.Registry->has("workload.program_hash")) << S.Spec;
    ASSERT_EQ(R.Registry->counter("workload.program_hash"), W.ProgramHash)
        << S.Spec;
    checkGolden(S.Spec, S.File, R.Registry->toJsonl());
  }
}

// A quick sanity sweep over seeds outside the pinned corpus: every seed
// must yield a runnable program that commits its full budget (fuzzed
// programs loop forever by construction — they never halt early) and
// export its program hash.
TEST(FuzzGolden, FreshSeedsRunToBudget) {
  SimConfig C = SimConfig::hwBaseline();
  C.SimInstructions = 10'000;
  C.WarmupInstructions = 2'000;
  for (uint64_t Seed : {201ull, 202ull, 203ull}) {
    Workload W = makeFuzzWorkload(Seed);
    ASSERT_GT(W.Prog.size(), 0u) << Seed;
    ASSERT_NE(W.ProgramHash, 0u) << Seed;
    SimResult R = runSimulation(W, C);
    EXPECT_EQ(R.Instructions, C.SimInstructions) << Seed;
    EXPECT_FALSE(R.Halted) << Seed;
    ASSERT_TRUE(R.Registry) << Seed;
    EXPECT_EQ(R.Registry->counter("workload.program_hash"), W.ProgramHash)
        << Seed;
  }
}
