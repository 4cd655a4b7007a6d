//===- hwpf_test.cpp - Unit tests for src/hwpf ----------------------------===//
//
// Part of the Trident-SRP reproduction (CGO 2006).
//
//===----------------------------------------------------------------------===//

#include "hwpf/Dcpt.h"
#include "hwpf/EnhancedStream.h"
#include "hwpf/PrefetchBuffer.h"
#include "hwpf/PrefetcherRegistry.h"
#include "hwpf/StreamBuffer.h"
#include "hwpf/StridePredictor.h"
#include "hwpf/Tskid.h"
#include "mem/MemorySystem.h"
#include "sim/Simulation.h"
#include "workloads/Workloads.h"
#include "workloads/fuzz/FuzzGenerator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <optional>

using namespace trident;

//===----------------------------------------------------------------------===//
// StridePredictor
//===----------------------------------------------------------------------===//

TEST(StridePredictor, LearnsConstantStride) {
  StridePredictor P(64);
  for (int I = 0; I < 5; ++I)
    P.train(0x100, 0x1000 + I * 64);
  ASSERT_TRUE(P.predict(0x100).has_value());
  EXPECT_EQ(*P.predict(0x100), 64);
  EXPECT_EQ(*P.lastAddress(0x100), 0x1000u + 4 * 64);
}

TEST(StridePredictor, NoConfidenceNoPrediction) {
  StridePredictor P(64);
  P.train(0x100, 0x1000);
  P.train(0x100, 0x1040);
  // One observed stride is not confidence.
  EXPECT_FALSE(P.predict(0x100).has_value());
}

TEST(StridePredictor, RandomAddressesNeverPredict) {
  StridePredictor P(64);
  uint64_t A = 0x1000;
  for (int I = 0; I < 50; ++I) {
    A = A * 6364136223846793005ull + 1442695040888963407ull;
    P.train(0x100, A & 0xFFFFF8);
  }
  EXPECT_FALSE(P.predict(0x100).has_value());
}

TEST(StridePredictor, ZeroStrideNeverPredicts) {
  StridePredictor P(64);
  for (int I = 0; I < 10; ++I)
    P.train(0x100, 0x1000);
  EXPECT_FALSE(P.predict(0x100).has_value());
}

TEST(StridePredictor, AliasingStealsEntries) {
  StridePredictor P(16);
  for (int I = 0; I < 5; ++I)
    P.train(0x100, 0x1000 + I * 64);
  EXPECT_TRUE(P.predict(0x100).has_value());
  // PC 0x110 maps to the same index (0x100 & 15 == 0x110 & 15 == 0).
  P.train(0x110, 0x9000);
  EXPECT_FALSE(P.predict(0x100).has_value()); // entry stolen
}

TEST(StridePredictor, NegativeStride) {
  StridePredictor P(64);
  for (int I = 0; I < 5; ++I)
    P.train(0x100, 0x10000 - I * 128);
  ASSERT_TRUE(P.predict(0x100).has_value());
  EXPECT_EQ(*P.predict(0x100), -128);
}

//===----------------------------------------------------------------------===//
// StreamBufferUnit (through a real MemorySystem backend)
//===----------------------------------------------------------------------===//

namespace {
MemSystemConfig sbBackendConfig() {
  MemSystemConfig C;
  C.L1 = {"L1", 1024, 2, 64, 3};
  C.L2 = {"L2", 8192, 4, 64, 11};
  C.L3 = {"L3", 65536, 4, 64, 35};
  C.MemoryLatency = 350;
  C.BusOccupancy = 6;
  return C;
}

/// Trains the unit with a miss sequence at the given stride until the
/// predictor gains confidence and a buffer allocates.
void primeStream(StreamBufferUnit &U, MemorySystem &M, Addr PC, Addr Base,
                 int64_t Stride, unsigned N) {
  for (unsigned I = 0; I < N; ++I)
    U.trainOnMiss(PC, Base + I * Stride, /*Now=*/I * 10, M);
}
} // namespace

TEST(StreamBuffer, AllocatesAfterConfidence) {
  MemorySystem M(sbBackendConfig());
  StreamBufferUnit U(StreamBufferConfig::config4x4());
  EXPECT_EQ(U.numActiveBuffers(), 0u);
  primeStream(U, M, 0x100, 0x10000, 64, 2);
  EXPECT_EQ(U.numActiveBuffers(), 0u); // not confident yet
  primeStream(U, M, 0x100, 0x10080, 64, 3);
  EXPECT_EQ(U.numActiveBuffers(), 1u);
  EXPECT_GE(U.stats().LinesPrefetched, 1u);
}

TEST(StreamBuffer, ProbeHitConsumesAndRunsAhead) {
  MemorySystem M(sbBackendConfig());
  StreamBufferUnit U(StreamBufferConfig::config8x8());
  // Allocation happens at the 4th miss (2-bit confidence); the buffer then
  // holds the next two lines (gradual ramp).
  primeStream(U, M, 0x100, 0x10000, 64, 4);
  uint64_t Before = U.stats().LinesPrefetched;
  std::optional<Cycle> R = U.probe(0x10000 + 4 * 64, 1000, M);
  ASSERT_TRUE(R.has_value());
  EXPECT_EQ(U.stats().ProbeHits, 1u);
  EXPECT_GT(U.stats().LinesPrefetched, Before); // refilled after consume
  // Successive probes keep hitting as the stream runs ahead.
  EXPECT_TRUE(U.probe(0x10000 + 5 * 64, 1010, M).has_value());
  EXPECT_TRUE(U.probe(0x10000 + 6 * 64, 1020, M).has_value());
}

TEST(StreamBuffer, ProbeMissOnUnrelatedLine) {
  MemorySystem M(sbBackendConfig());
  StreamBufferUnit U(StreamBufferConfig::config8x8());
  primeStream(U, M, 0x100, 0x10000, 64, 6);
  EXPECT_FALSE(U.probe(0x90000, 1000, M).has_value());
  EXPECT_GE(U.stats().ProbeMisses, 1u);
}

TEST(StreamBuffer, LruStealWhenOverSubscribed) {
  MemorySystem M(sbBackendConfig());
  StreamBufferUnit U(StreamBufferConfig::config4x4());
  // Six concurrent streams onto four buffers.
  for (unsigned S = 0; S < 6; ++S)
    primeStream(U, M, 0x100 + S, 0x100000 * (S + 1), 64, 5);
  EXPECT_EQ(U.numActiveBuffers(), 4u);
  EXPECT_GE(U.stats().Allocations, 6u);
}

TEST(StreamBuffer, TrackingPreventsReallocStorm) {
  MemorySystem M(sbBackendConfig());
  StreamBufferUnit U(StreamBufferConfig::config8x8());
  primeStream(U, M, 0x100, 0x10000, 64, 5);
  uint64_t AllocsAfterPrime = U.stats().Allocations;
  // A consuming stream (probe + trailing in-flight misses, as demand
  // produces them) keeps the buffer tracking without reallocation.
  for (unsigned I = 4; I < 12; ++I) {
    U.probe(0x10000 + I * 64, 1000 + I * 10, M);
    U.trainOnMiss(0x100, 0x10000 + I * 64, 1000 + I * 10, M);
  }
  EXPECT_EQ(U.stats().Allocations, AllocsAfterPrime);
}

TEST(StreamBuffer, StreamJumpRePrimes) {
  MemorySystem M(sbBackendConfig());
  StreamBufferUnit U(StreamBufferConfig::config8x8());
  primeStream(U, M, 0x100, 0x10000, 64, 5);
  uint64_t Allocs = U.stats().Allocations;
  // Same PC, same stride, far-away address: the stream jumped.
  U.trainOnMiss(0x100, 0x80000, 500, M);
  U.trainOnMiss(0x100, 0x80040, 510, M);
  EXPECT_GT(U.stats().Allocations, Allocs);
}

TEST(StreamBuffer, LargeStrideFetchesDistinctLines) {
  MemorySystem M(sbBackendConfig());
  StreamBufferUnit U(StreamBufferConfig::config8x8());
  primeStream(U, M, 0x100, 0x100000, 4096, 5);
  // Probe several successive stream lines: all should be present over
  // consecutive probes (refilled as consumed).
  unsigned Hits = 0;
  for (unsigned I = 5; I < 9; ++I)
    Hits += U.probe(0x100000 + I * 4096, 2000 + I, M).has_value();
  EXPECT_GE(Hits, 2u);
}

TEST(StreamBuffer, NamesAndConfigs) {
  StreamBufferUnit U4(StreamBufferConfig::config4x4());
  StreamBufferUnit U8(StreamBufferConfig::config8x8());
  EXPECT_EQ(U4.name(), "stream-buffers-4x4");
  EXPECT_EQ(U8.name(), "stream-buffers-8x8");
  EXPECT_EQ(U8.config().HistoryEntries, 1024u); // Table 1
}

TEST(StreamBuffer, PageBoundaryStopWhenConfigured) {
  MemorySystem M(sbBackendConfig());
  StreamBufferConfig C = StreamBufferConfig::config8x8();
  C.StopAtPageBoundary = true;
  StreamBufferUnit U(C);
  // Prime near the end of a page with a large stride: the stream may not
  // run into the next page.
  Addr Base = 0x10000 + 4096 - 3 * 1024;
  for (unsigned I = 0; I < 4; ++I)
    U.trainOnMiss(0x100, Base + I * 1024, I * 10, M);
  // Entries must all be within the priming page.
  unsigned HitsInPage = 0, HitsBeyond = 0;
  for (unsigned I = 4; I < 12; ++I) {
    Addr A = Base + I * 1024;
    bool Hit = U.probe(A & ~63ull, 1000 + I, M).has_value();
    if ((A >> 12) == ((Base + 3 * 1024) >> 12))
      HitsInPage += Hit;
    else
      HitsBeyond += Hit;
  }
  EXPECT_EQ(HitsBeyond, 0u);
}

//===----------------------------------------------------------------------===//
// PrefetchBuffer
//===----------------------------------------------------------------------===//

// The buffer's replacement order feeds every arsenal unit's timing, so the
// FIFO contract is pinned directly: Hand advances only on a new insert,
// take() leaves a hole that Hand overwrites in turn, and a duplicate insert
// refreshes the ready cycle in place.

TEST(PrefetchBuffer, DuplicateInsertRefreshesReadyAndKeepsHand) {
  PrefetchBuffer B(2);
  B.insert(0x40, 10);
  B.insert(0x40, 25); // refresh in place; Hand stays on slot 1
  B.insert(0x80, 30); // fills slot 1, so 0x40 survives
  EXPECT_TRUE(B.contains(0x80));
  EXPECT_EQ(B.take(0x40), std::optional<Cycle>(25));
  EXPECT_EQ(B.take(0x40), std::nullopt);
}

TEST(PrefetchBuffer, InsertAfterTakeOverwritesTheSlotAtHand) {
  PrefetchBuffer B(2);
  B.insert(0x40, 1); // slot 0
  B.insert(0x80, 2); // slot 1; Hand wraps to slot 0
  // take() leaves a hole at slot 1.
  EXPECT_EQ(B.take(0x80), std::optional<Cycle>(2));
  // The new line goes to Hand's slot 0, not the hole: 0x40 is evicted.
  B.insert(0xC0, 3);
  EXPECT_FALSE(B.contains(0x40));
  EXPECT_TRUE(B.contains(0xC0));
  B.insert(0x100, 4); // Hand reaches the hole
  EXPECT_TRUE(B.contains(0xC0));
  EXPECT_TRUE(B.contains(0x100));
}

TEST(PrefetchBuffer, FullBufferEvictsInFifoOrder) {
  PrefetchBuffer B(4);
  for (Addr L = 1; L <= 4; ++L)
    B.insert(L * 64, L);
  for (Addr L = 5; L <= 7; ++L) {
    B.insert(L * 64, L);
    EXPECT_FALSE(B.contains((L - 4) * 64)) << "oldest line " << L - 4;
    for (Addr Kept = L - 3; Kept <= L; ++Kept)
      EXPECT_TRUE(B.contains(Kept * 64)) << "line " << Kept;
  }
  B.clear();
  for (Addr L = 1; L <= 7; ++L)
    EXPECT_FALSE(B.contains(L * 64));
}

TEST(PrefetchBufferDeathTest, ZeroCapacityAborts) {
  // dcpt/tskid reject buffer=0 at the knob; the buffer itself refuses too.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(PrefetchBuffer B(0), "at least one slot");
}

//===----------------------------------------------------------------------===//
// EnhancedStreamPrefetcher
//===----------------------------------------------------------------------===//

namespace {
/// Block-granularity training helper (line size is 64 in the backend).
void missAtBlock(HwPrefetcher &U, MemorySystem &M, uint64_t Block, Cycle Now,
                 Addr PC = 0x100) {
  U.trainOnMiss(PC, Block * 64, Now, M);
}
} // namespace

TEST(EnhancedStream, ConfirmsAfterThreeConsistentMisses) {
  MemorySystem M(sbBackendConfig());
  EnhancedStreamPrefetcher U(EnhancedStreamConfig::baseline());
  missAtBlock(U, M, 1000, 10);
  missAtBlock(U, M, 1001, 20);
  EXPECT_EQ(U.numActiveStreams(), 0u); // two misses: not confirmed yet
  missAtBlock(U, M, 1002, 30);
  EXPECT_EQ(U.numActiveStreams(), 1u);
  EXPECT_GE(U.snapshotStats().get("lines_prefetched"), 2u); // degree-2 ramp
  // The stream runs upward from the confirmation point.
  EXPECT_TRUE(U.probe(1003 * 64, 100, M).has_value());
}

TEST(EnhancedStream, NoiseTolerantTraining) {
  MemorySystem M(sbBackendConfig());
  EnhancedStreamPrefetcher U(EnhancedStreamConfig::baseline());
  missAtBlock(U, M, 1000, 10);
  missAtBlock(U, M, 1001, 20);
  // A stray miss inside the region that breaks the stride: ignored, the
  // trainer keeps its state instead of resetting.
  missAtBlock(U, M, 1010, 30);
  EXPECT_EQ(U.snapshotStats().get("noise_rejected"), 1u);
  EXPECT_EQ(U.numActiveStreams(), 0u);
  // The real stream continues and still confirms.
  missAtBlock(U, M, 1002, 40);
  EXPECT_EQ(U.numActiveStreams(), 1u);
}

TEST(EnhancedStream, TrainsOnRegionsNotPCs) {
  MemorySystem M(sbBackendConfig());
  EnhancedStreamPrefetcher U(EnhancedStreamConfig::baseline());
  // Three different PCs walking one region still confirm one stream:
  // identification is by region, not by instruction.
  missAtBlock(U, M, 2000, 10, /*PC=*/0x100);
  missAtBlock(U, M, 2001, 20, /*PC=*/0x200);
  missAtBlock(U, M, 2002, 30, /*PC=*/0x300);
  EXPECT_EQ(U.numActiveStreams(), 1u);
}

TEST(EnhancedStream, DeadStreamRemoval) {
  MemorySystem M(sbBackendConfig());
  EnhancedStreamConfig Cfg = EnhancedStreamConfig::baseline();
  Cfg.NumStreams = 2;
  EnhancedStreamPrefetcher U(Cfg);
  // Fill both stream slots (each confirmed stream has ramped only
  // Degree=2 lines — below DeadMinLength=4).
  for (uint64_t B : {1000ull, 5000ull})
    for (unsigned I = 0; I < 3; ++I)
      missAtBlock(U, M, B + I, 10 * I);
  EXPECT_EQ(U.numActiveStreams(), 2u);
  // Idle both streams past DeadIdleEvents with unrelated one-shot misses
  // (distinct regions, so nothing confirms or touches the streams).
  for (unsigned I = 0; I < 70; ++I)
    missAtBlock(U, M, 100000 + uint64_t(I) * 200, 1000 + I);
  // A third stream confirms: the victim is a dead stream, not plain LRU.
  for (unsigned I = 0; I < 3; ++I)
    missAtBlock(U, M, 9000 + I, 2000 + 10 * I);
  EXPECT_EQ(U.numActiveStreams(), 2u);
  EXPECT_GE(U.snapshotStats().get("dead_streams_removed"), 1u);
}

//===----------------------------------------------------------------------===//
// DcptPrefetcher
//===----------------------------------------------------------------------===//

TEST(Dcpt, ReplaysCompositeDeltaPattern) {
  MemorySystem M(sbBackendConfig());
  DcptPrefetcher U(DcptConfig::baseline());
  // Row-walk pattern +1,+1,+62 — the composite stride a single-stride
  // predictor cannot learn.
  const uint64_t Blocks[] = {10, 11, 12, 74, 75, 76};
  Cycle Now = 0;
  for (uint64_t B : Blocks)
    U.trainOnMiss(0x100, B * 64, Now += 10, M);
  // The newest pair (+1,+1) recurs in history; the replay predicts
  // +62,+1,+1 from block 76: blocks 138, 139, 140.
  EXPECT_GE(U.snapshotStats().get("pattern_matches"), 1u);
  EXPECT_GE(U.snapshotStats().get("lines_prefetched"), 3u);
  EXPECT_TRUE(U.probe(138 * 64, 1000, M).has_value());
  EXPECT_TRUE(U.probe(139 * 64, 1010, M).has_value());
  EXPECT_FALSE(U.probe(137 * 64, 1020, M).has_value()); // not predicted
}

TEST(Dcpt, NoMatchNoPrefetch) {
  MemorySystem M(sbBackendConfig());
  DcptPrefetcher U(DcptConfig::baseline());
  // Strictly novel deltas: no pair ever recurs.
  const uint64_t Blocks[] = {10, 11, 13, 17, 25, 41};
  Cycle Now = 0;
  for (uint64_t B : Blocks)
    U.trainOnMiss(0x100, B * 64, Now += 10, M);
  EXPECT_EQ(U.snapshotStats().get("pattern_matches"), 0u);
  EXPECT_EQ(U.snapshotStats().get("lines_prefetched"), 0u);
}

TEST(Dcpt, PcAliasingResetsEntry) {
  MemorySystem M(sbBackendConfig());
  DcptConfig Cfg = DcptConfig::baseline();
  Cfg.NumEntries = 16;
  DcptPrefetcher U(Cfg);
  const uint64_t Blocks[] = {10, 11, 12, 74, 75};
  Cycle Now = 0;
  for (uint64_t B : Blocks)
    U.trainOnMiss(0x100, B * 64, Now += 10, M);
  // PC 0x110 maps to the same direct-mapped slot: the entry retags and
  // the earlier history is gone, so the pattern never completes.
  U.trainOnMiss(0x110, 5000 * 64, Now += 10, M);
  U.trainOnMiss(0x100, 76 * 64, Now += 10, M);
  EXPECT_EQ(U.snapshotStats().get("pattern_matches"), 0u);
}

//===----------------------------------------------------------------------===//
// TskidPrefetcher
//===----------------------------------------------------------------------===//

TEST(Tskid, DelaysPrefetchUntilLearnedSkid) {
  MemorySystem M(sbBackendConfig());
  TskidPrefetcher U(TskidConfig::baseline()); // lead 400, minskid 64
  // Learn: trigger PC 0xA's miss precedes target PC 0xB's by 500 cycles
  // at a +100-block delta.
  U.trainOnMiss(0xA, 100 * 64, 1000, M);
  U.trainOnMiss(0xB, 200 * 64, 1500, M);
  // The trigger fires again: the target's line is predicted but NOT
  // issued — it waits for (skid - lead) = 100 cycles.
  U.trainOnMiss(0xA, 300 * 64, 3000, M);
  EXPECT_EQ(U.numPending(), 1u);
  EXPECT_EQ(U.snapshotStats().get("delayed_issues"), 1u);
  EXPECT_EQ(U.snapshotStats().get("lines_prefetched"), 0u);
  // Probing before the issue time finds nothing...
  EXPECT_FALSE(U.probe(400 * 64, 3050, M).has_value());
  // ...and after it (3000 + 500 - 400 = 3100) the line is in flight.
  EXPECT_TRUE(U.probe(400 * 64, 3200, M).has_value());
  EXPECT_EQ(U.numPending(), 0u);
  EXPECT_EQ(U.snapshotStats().get("lines_prefetched"), 1u);
}

TEST(Tskid, ShortSkidIssuesImmediately) {
  MemorySystem M(sbBackendConfig());
  TskidPrefetcher U(TskidConfig::baseline());
  // Skid 20 < minskid 64: timing is noise, issue right away.
  U.trainOnMiss(0xA, 100 * 64, 1000, M);
  U.trainOnMiss(0xB, 200 * 64, 1020, M);
  U.trainOnMiss(0xA, 300 * 64, 2000, M);
  EXPECT_EQ(U.numPending(), 0u);
  EXPECT_EQ(U.snapshotStats().get("lines_prefetched"), 1u);
  EXPECT_TRUE(U.probe(400 * 64, 2001, M).has_value());
}

TEST(Tskid, LearnsTriggerAssociations) {
  MemorySystem M(sbBackendConfig());
  TskidPrefetcher U(TskidConfig::baseline());
  U.trainOnMiss(0xA, 100 * 64, 1000, M);
  U.trainOnMiss(0xB, 200 * 64, 1500, M);
  EXPECT_GE(U.snapshotStats().get("triggers_learned"), 1u);
}

//===----------------------------------------------------------------------===//
// PrefetcherRegistry
//===----------------------------------------------------------------------===//

TEST(PrefetcherRegistry, ArsenalIsRegistered) {
  // The list and its order are load-bearing: the fig9 matrix sweeps it
  // and the bandit's arm indices index it.
  EXPECT_EQ(PrefetcherRegistry::instance().names(),
            (std::vector<std::string>{"dcpt", "enhanced-stream", "sb4x4",
                                      "sb8x8", "tskid"}));
}

TEST(PrefetcherRegistry, CreateRoundTripsEveryArsenalName) {
  for (const std::string &N : PrefetcherRegistry::instance().names()) {
    std::string Error;
    auto U = PrefetcherRegistry::instance().create(N, PrefetcherEnv{}, &Error);
    ASSERT_TRUE(U) << N << ": " << Error;
    EXPECT_FALSE(U->name().empty());
    EXPECT_EQ(U->snapshotStats().Prefetcher, U->name());
  }
}

TEST(PrefetcherRegistry, NoneIsNotAnError) {
  for (const char *Spec : {"none", ""}) {
    std::string Error = "untouched";
    auto U =
        PrefetcherRegistry::instance().create(Spec, PrefetcherEnv{}, &Error);
    EXPECT_EQ(U, nullptr);
    EXPECT_EQ(Error, "untouched");
    EXPECT_TRUE(PrefetcherRegistry::isNone(Spec));
  }
  EXPECT_FALSE(PrefetcherRegistry::isNone("sb8x8"));
}

TEST(PrefetcherRegistry, UnknownNameSetsError) {
  std::string Error;
  auto U = PrefetcherRegistry::instance().create("bogus", PrefetcherEnv{},
                                                 &Error);
  EXPECT_EQ(U, nullptr);
  EXPECT_NE(Error.find("unknown prefetcher 'bogus'"), std::string::npos);
  EXPECT_NE(Error.find("sb8x8"), std::string::npos); // lists what exists
}

TEST(PrefetcherRegistry, KnobsReachTheUnit) {
  std::string Error;
  auto U = PrefetcherRegistry::instance().create("dcpt:entries=64,degree=2",
                                                 PrefetcherEnv{}, &Error);
  ASSERT_TRUE(U) << Error;
  auto *D = dynamic_cast<DcptPrefetcher *>(U.get());
  ASSERT_NE(D, nullptr);
  EXPECT_EQ(D->config().NumEntries, 64u);
  EXPECT_EQ(D->config().Degree, 2u);
  EXPECT_EQ(D->config().NumDeltas, 8u); // untouched knob keeps its default

  auto S = PrefetcherRegistry::instance().create("sb8x8:buffers=4,depth=4",
                                                 PrefetcherEnv{}, &Error);
  ASSERT_TRUE(S) << Error;
  auto *SB = dynamic_cast<StreamBufferUnit *>(S.get());
  ASSERT_NE(SB, nullptr);
  EXPECT_EQ(SB->config().NumBuffers, 4u);
  EXPECT_EQ(SB->config().Depth, 4u);
}

TEST(PrefetcherRegistry, BadKnobsAreRejected) {
  std::string Error;
  EXPECT_EQ(PrefetcherRegistry::instance().create("dcpt:bogus=3",
                                                  PrefetcherEnv{}, &Error),
            nullptr);
  EXPECT_NE(Error.find("unknown knob 'bogus'"), std::string::npos);
  EXPECT_EQ(PrefetcherRegistry::instance().create("dcpt:entries=abc",
                                                  PrefetcherEnv{}, &Error),
            nullptr);
  EXPECT_NE(Error.find("knob 'entries' expects a decimal integer in [1, "
                       "4096], got 'abc'"),
            std::string::npos)
      << Error;
  EXPECT_EQ(PrefetcherRegistry::instance().create("dcpt:entries",
                                                  PrefetcherEnv{}, &Error),
            nullptr);
  EXPECT_NE(Error.find("malformed knob"), std::string::npos);
}

TEST(PrefetcherRegistry, SignedKnobValuesAreRejected) {
  // A sign is outside the grammar, so "-1" can never wrap to 2^64-1.
  std::string Error;
  EXPECT_EQ(PrefetcherRegistry::instance().create("sb8x8:depth=-1",
                                                  PrefetcherEnv{}, &Error),
            nullptr);
  EXPECT_NE(Error.find("knob 'depth' expects a decimal integer in [0, 256], "
                       "got '-1'"),
            std::string::npos)
      << Error;
  EXPECT_EQ(PrefetcherRegistry::instance().create("dcpt:entries=+4",
                                                  PrefetcherEnv{}, &Error),
            nullptr);
  EXPECT_NE(Error.find("knob 'entries' expects a decimal integer in [1, "
                       "4096], got '+4'"),
            std::string::npos)
      << Error;
}

TEST(PrefetcherRegistry, OutOfRangeKnobValuesAreRejected) {
  std::string Error;
  // 2^33: fits in uint64 but would truncate when narrowed to unsigned.
  EXPECT_EQ(PrefetcherRegistry::instance().create("sb8x8:depth=8589934592",
                                                  PrefetcherEnv{}, &Error),
            nullptr);
  EXPECT_NE(Error.find("knob 'depth' expects a decimal integer in [0, 256]"),
            std::string::npos)
      << Error;
  // Past 2^64: the reader's overflow check rejects it.
  EXPECT_EQ(PrefetcherRegistry::instance().create(
                "sb8x8:depth=99999999999999999999999", PrefetcherEnv{},
                &Error),
            nullptr);
  EXPECT_NE(Error.find("knob 'depth' expects a decimal integer in [0, 256]"),
            std::string::npos)
      << Error;
  // The table's max is the boundary: it builds, one past it does not.
  auto U = PrefetcherRegistry::instance().create("sb8x8:depth=256",
                                                 PrefetcherEnv{}, &Error);
  ASSERT_TRUE(U) << Error;
  EXPECT_EQ(dynamic_cast<StreamBufferUnit &>(*U).config().Depth, 256u);
  EXPECT_EQ(PrefetcherRegistry::instance().create("sb8x8:depth=257",
                                                  PrefetcherEnv{}, &Error),
            nullptr);
}

TEST(PrefetcherRegistry, OnlyPlainDecimalListsParse) {
  // Hex and octal spellings, empty lists and trailing commas are outside
  // the grammar; "010" is ten, not eight.
  std::string Error;
  for (const char *Bad :
       {"dcpt:entries=0x10", "dcpt:", "dcpt:entries=64,", "dcpt:,entries=64",
        "dcpt:entries=", "dcpt:entries= 64", "dcpt:=64"}) {
    Error.clear();
    EXPECT_EQ(PrefetcherRegistry::instance().create(Bad, PrefetcherEnv{},
                                                    &Error),
              nullptr)
        << Bad;
    EXPECT_FALSE(Error.empty()) << Bad;
  }
  auto U = PrefetcherRegistry::instance().create("dcpt:entries=010",
                                                 PrefetcherEnv{}, &Error);
  ASSERT_TRUE(U) << Error;
  EXPECT_EQ(dynamic_cast<DcptPrefetcher &>(*U).config().NumEntries, 10u);
}

TEST(PrefetcherRegistry, StreamBufferHistoryMustBeAPowerOfTwo) {
  EXPECT_TRUE(StridePredictor::isValidSize(1));
  EXPECT_TRUE(StridePredictor::isValidSize(1024));
  EXPECT_FALSE(StridePredictor::isValidSize(0));
  EXPECT_FALSE(StridePredictor::isValidSize(1000));
  std::string Error;
  EXPECT_EQ(PrefetcherRegistry::instance().create("sb4x4:history=1000",
                                                  PrefetcherEnv{}, &Error),
            nullptr);
  EXPECT_NE(Error.find("knob 'history' must be a power of two"),
            std::string::npos)
      << Error;
}

TEST(PrefetcherRegistry, DuplicateKnobsAreRejected) {
  // A repeat would make "depth=4,depth=16" mean one of the two while
  // comparing as a distinct config value.
  std::string Error;
  EXPECT_EQ(PrefetcherRegistry::instance().create("sb8x8:depth=4,depth=16",
                                                  PrefetcherEnv{}, &Error),
            nullptr);
  EXPECT_NE(Error.find("duplicate knob 'depth'"), std::string::npos) << Error;
  // Distinct knobs still parse.
  EXPECT_TRUE(PrefetcherRegistry::instance().create(
      "sb8x8:buffers=4,depth=4", PrefetcherEnv{}, &Error))
      << Error;
}

TEST(PrefetcherRegistryDeathTest, ReRegisteringANameAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  PrefetcherRegistry::Info I;
  I.Name = "sb8x8"; // collides with the built-in arsenal
  I.Make = [](std::string_view, const PrefetcherEnv &,
              std::string *) -> std::unique_ptr<HwPrefetcher> {
    return nullptr;
  };
  EXPECT_DEATH(PrefetcherRegistry::instance().add(std::move(I)),
               "duplicate prefetcher registration 'sb8x8'");
}

TEST(PrefetcherRegistry, PageBoundedEnvConfiguresStreamBuffers) {
  PrefetcherEnv Env;
  Env.PageBounded = true;
  Env.PageBits = 13;
  std::string Error;
  auto U = PrefetcherRegistry::instance().create("sb8x8", Env, &Error);
  ASSERT_TRUE(U) << Error;
  auto *SB = dynamic_cast<StreamBufferUnit *>(U.get());
  ASSERT_NE(SB, nullptr);
  EXPECT_TRUE(SB->config().StopAtPageBoundary);
  EXPECT_EQ(SB->config().PageBits, 13u);
}

//===----------------------------------------------------------------------===//
// Knob tables: every bound is live
//===----------------------------------------------------------------------===//

namespace {

/// Decimal text of \p V + 1, also for V = 2^64 - 1.
std::string plusOne(uint64_t V) {
  return V == UINT64_MAX ? "18446744073709551616" : std::to_string(V + 1);
}

/// Walks every row of \p Table under spec head \p Head: min and max parse,
/// min-1 (when min > 0) and max+1 are rejected with an error naming the
/// knob and its range.
void expectEveryBoundHolds(
    const std::string &Head, KnobTable Table,
    const std::function<bool(const std::string &, std::string *)> &Parse) {
  for (const Knob &K : Table) {
    const std::string Prefix = Head + ":" + K.Name + "=";
    const std::string Range = "[" + std::to_string(K.Min) + ", " +
                              std::to_string(K.Max) + "]";
    std::string Error;
    EXPECT_TRUE(Parse(Prefix + std::to_string(K.Min), &Error)) << Error;
    EXPECT_TRUE(Parse(Prefix + std::to_string(K.Max), &Error)) << Error;
    std::vector<std::string> Outside = {plusOne(K.Max)};
    if (K.Min > 0)
      Outside.push_back(std::to_string(K.Min - 1));
    for (const std::string &V : Outside) {
      Error.clear();
      EXPECT_FALSE(Parse(Prefix + V, &Error)) << Prefix + V;
      EXPECT_NE(Error.find("knob '" + std::string(K.Name) + "'"),
                std::string::npos)
          << Prefix + V << ": " << Error;
      EXPECT_NE(Error.find(Range), std::string::npos)
          << Prefix + V << ": " << Error;
    }
  }
}

} // namespace

TEST(KnobTables, EveryPrefetcherBoundBuildsAndRunsMcf) {
  // Each min is the unit constructor's precondition and each max a bound
  // on memory and per-miss work: both must build a unit that finishes a
  // short run, so no accepted spec can abort, exhaust memory or hang.
  const Workload Mcf = makeWorkload("mcf");
  PrefetcherRegistry &R = PrefetcherRegistry::instance();
  for (const std::string &Name : R.names()) {
    const KnobTable Table = R.lookup(Name)->Schema;
    ASSERT_FALSE(Table.empty()) << Name;
    for (const Knob &K : Table)
      for (uint64_t V : {K.Min, K.Max}) {
        SimConfig C = SimConfig::hwBaseline();
        C.HwPf = Name + ":" + K.Name + "=" + std::to_string(V);
        C.SimInstructions = 20'000;
        C.WarmupInstructions = 2'000;
        std::string Error;
        ASSERT_TRUE(R.create(C.HwPf, PrefetcherEnv{}, &Error))
            << C.HwPf << ": " << Error;
        EXPECT_GE(runSimulation(Mcf, C).Instructions, C.SimInstructions)
            << C.HwPf;
      }
    expectEveryBoundHolds(Name, Table,
                          [&](const std::string &Spec, std::string *Error) {
                            return R.create(Spec, PrefetcherEnv{}, Error) !=
                                   nullptr;
                          });
  }
}

TEST(KnobTables, EverySelectorAndFuzzBoundHolds) {
  for (SelectorPolicy P : {SelectorPolicy::Bandit, SelectorPolicy::Oracle})
    expectEveryBoundHolds(
        selectorPolicyName(P), SelectorConfig::knobTable(P),
        [](const std::string &Spec, std::string *Error) {
          SelectorConfig C;
          return SelectorConfig::parse(Spec, C, Error);
        });
  EXPECT_TRUE(SelectorConfig::knobTable(SelectorPolicy::Static).empty());
  expectEveryBoundHolds("fuzz@7", fuzzKnobTable(),
                        [](const std::string &Spec, std::string *Error) {
                          uint64_t Seed;
                          FuzzKnobs K;
                          return parseFuzzSpec(Spec, Seed, K, Error);
                        });
}

//===----------------------------------------------------------------------===//
// Train/issue/feedback contract through a real MemorySystem
//===----------------------------------------------------------------------===//

namespace {

/// Counting stub exercising every optional hook of the contract.
class HookCountingPrefetcher final : public HwPrefetcher {
public:
  uint64_t Misses = 0, Accesses = 0, Fills = 0, Probes = 0;

  void trainOnMiss(Addr, Addr, Cycle, MemoryBackend &) override { ++Misses; }
  std::optional<Cycle> probe(Addr, Cycle, MemoryBackend &) override {
    ++Probes;
    return std::nullopt;
  }
  bool wantsAccessTraining() const override { return true; }
  void trainOnAccess(Addr, Addr, Cycle) override { ++Accesses; }
  bool wantsFillTraining() const override { return true; }
  void trainOnFill(Addr, Cycle, AccessKind) override { ++Fills; }
  std::string name() const override { return "hook-counter"; }
};

} // namespace

TEST(HwPfContract, HooksFireFromMemorySystemAccess) {
  MemorySystem M(sbBackendConfig());
  auto Owned = std::make_unique<HookCountingPrefetcher>();
  HookCountingPrefetcher *Pf = Owned.get();
  M.attachPrefetcher(std::move(Owned));

  // Cold demand load: probe + miss training + a fill.
  M.access(0x100, 0x10000, AccessKind::DemandLoad, 0);
  EXPECT_EQ(Pf->Probes, 1u);
  EXPECT_EQ(Pf->Misses, 1u);
  EXPECT_EQ(Pf->Fills, 1u);
  EXPECT_EQ(Pf->Accesses, 0u);

  // Same line once the fill has landed: a data-present L1 hit trains the
  // access hook and nothing else.
  M.access(0x100, 0x10000, AccessKind::DemandLoad, 10'000);
  EXPECT_EQ(Pf->Accesses, 1u);
  EXPECT_EQ(Pf->Misses, 1u);
  EXPECT_EQ(Pf->Fills, 1u);

  // Hardware-prefetch traffic never trains the access hook.
  M.access(0x100, 0x20000, AccessKind::DemandLoad, 20'000);
  uint64_t AccessesBefore = Pf->Accesses;
  M.access(0x100, 0x20000, AccessKind::HardwarePrefetch, 30'000);
  EXPECT_EQ(Pf->Accesses, AccessesBefore);
}

TEST(HwPfContract, TskidFillHookFiresEndToEnd) {
  MemorySystem M(sbBackendConfig());
  std::string Error;
  auto U = PrefetcherRegistry::instance().create("tskid", PrefetcherEnv{},
                                                 &Error);
  ASSERT_TRUE(U) << Error;
  M.attachPrefetcher(std::move(U));
  for (unsigned I = 0; I < 8; ++I)
    M.access(0x100, 0x10000 + I * 0x1000, AccessKind::DemandLoad,
             Cycle(I) * 1000);
  const HwPrefetcher *Pf = M.prefetcher();
  ASSERT_NE(Pf, nullptr);
  EXPECT_GT(Pf->snapshotStats().get("fills_observed"), 0u);
}

TEST(HwPfContract, FeedbackCountersTrackStreamBufferActivity) {
  MemorySystem M(sbBackendConfig());
  std::string Error;
  auto U =
      PrefetcherRegistry::instance().create("sb8x8", PrefetcherEnv{}, &Error);
  ASSERT_TRUE(U) << Error;
  M.attachPrefetcher(std::move(U));

  // A long stride-64 demand stream: buffers allocate, run ahead, and the
  // demand consumes their lines.
  Cycle Now = 0;
  for (unsigned I = 0; I < 200; ++I) {
    AccessResult R =
        M.access(0x100, 0x100000 + uint64_t(I) * 64, AccessKind::DemandLoad,
                 Now);
    Now = R.ReadyCycle + 1;
  }
  const HwPfFeedback &Fb = M.feedback();
  EXPECT_GT(Fb.Issued, 0u);
  EXPECT_GT(Fb.Useful + Fb.Late, 0u);
  EXPECT_GT(Fb.DemandMisses, 0u); // the cold misses before confidence
  EXPECT_GE(Fb.accuracy(), 0.0);
  EXPECT_LE(Fb.coverage(), 1.0);
  EXPECT_GT(Fb.coverage(), 0.0);

  // clearStats resets the feedback channel with the rest.
  M.clearStats();
  EXPECT_EQ(M.feedback().Issued, 0u);
  EXPECT_EQ(M.feedback().Useful + M.feedback().Late, 0u);
}

TEST(HwPfContract, MidRunSwapKeepsMemorySystemConsistent) {
  // The control plane swaps units at epoch boundaries mid-run; the
  // referee counters (feedback channel), the MSHR fill heap, and the bus
  // schedule all live in MemorySystem, so they must survive the swap.
  MemorySystem M(sbBackendConfig());
  std::string Error;
  auto U =
      PrefetcherRegistry::instance().create("sb8x8", PrefetcherEnv{}, &Error);
  ASSERT_TRUE(U) << Error;
  M.attachPrefetcher(std::move(U));

  Cycle Now = 0;
  for (unsigned I = 0; I < 120; ++I) {
    AccessResult R = M.access(0x100, 0x100000 + uint64_t(I) * 64,
                              AccessKind::DemandLoad, Now);
    EXPECT_GE(R.ReadyCycle, Now);
    Now = R.ReadyCycle + 1;
  }
  const HwPfFeedback FbBefore = M.feedback();
  EXPECT_GT(FbBefore.Issued, 0u);
  const uint64_t LoadsBefore = M.stats().DemandLoads;

  // Swap to a different unit with fills still conceptually in flight
  // (the access above just scheduled one).
  auto Next =
      PrefetcherRegistry::instance().create("dcpt", PrefetcherEnv{}, &Error);
  ASSERT_TRUE(Next) << Error;
  M.attachPrefetcher(std::move(Next));
  ASSERT_NE(M.prefetcher(), nullptr);
  EXPECT_EQ(M.prefetcher()->name(), "dcpt");

  // Referee counters are monotone across the swap, not reset.
  const HwPfFeedback &FbAfter = M.feedback();
  EXPECT_GE(FbAfter.Issued, FbBefore.Issued);
  EXPECT_GE(FbAfter.Useful + FbAfter.Late, FbBefore.Useful + FbBefore.Late);

  // The memory system keeps serving demand with sane timing, and demand
  // accounting continues from where it was.
  for (unsigned I = 0; I < 60; ++I) {
    AccessResult R = M.access(0x200, 0x400000 + uint64_t(I) * 64,
                              AccessKind::DemandLoad, Now);
    EXPECT_GE(R.ReadyCycle, Now);
    Now = R.ReadyCycle + 1;
  }
  EXPECT_EQ(M.stats().DemandLoads, LoadsBefore + 60);
  // The new unit trains on the post-swap miss stream.
  EXPECT_GT(M.prefetcher()->snapshotStats().get("misses_observed") +
                M.prefetcher()->snapshotStats().get("pattern_matches") +
                M.feedback().DemandMisses,
            FbBefore.DemandMisses);

  // Detaching entirely is also a legal mid-run transition.
  M.attachPrefetcher(nullptr);
  EXPECT_EQ(M.prefetcher(), nullptr);
  AccessResult R = M.access(0x300, 0x800000, AccessKind::DemandLoad, Now);
  EXPECT_GE(R.ReadyCycle, Now);
}
