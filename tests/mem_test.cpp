//===- mem_test.cpp - Unit tests for src/mem ------------------------------===//
//
// Part of the Trident-SRP reproduction (CGO 2006).
//
//===----------------------------------------------------------------------===//

#include "mem/Cache.h"
#include "mem/DataMemory.h"
#include "mem/MemorySystem.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

using namespace trident;

//===----------------------------------------------------------------------===//
// DataMemory
//===----------------------------------------------------------------------===//

TEST(DataMemory, ReadsZeroWhenUntouched) {
  DataMemory M;
  EXPECT_EQ(M.read64(0x12345678), 0u);
  EXPECT_EQ(M.numPages(), 0u); // reads never materialize pages
}

TEST(DataMemory, WriteReadRoundTrip) {
  DataMemory M;
  M.write64(0x1000, 0xdeadbeefcafebabeull);
  EXPECT_EQ(M.read64(0x1000), 0xdeadbeefcafebabeull);
  EXPECT_EQ(M.numPages(), 1u);
}

TEST(DataMemory, PageStraddlingAccess) {
  DataMemory M;
  Addr A = DataMemory::PageSize - 4; // straddles two pages
  M.write64(A, 0x1122334455667788ull);
  EXPECT_EQ(M.read64(A), 0x1122334455667788ull);
  EXPECT_EQ(M.numPages(), 2u);
  // Byte-level split is little-endian consistent.
  EXPECT_EQ(M.read64(A + 1) & 0xff, 0x77u);
}

TEST(DataMemory, UnalignedWithinPage) {
  DataMemory M;
  M.write64(0x1003, 42);
  EXPECT_EQ(M.read64(0x1003), 42u);
}

// Page storage comes in 1 MB slabs (256 pages) recycled across images in
// one process; these pin that recycling is invisible to the program.
namespace {
constexpr uint64_t kPagesPerSlab = 256;

/// One word per page over \p Pages pages, at offset \p Off within each.
void fillPages(DataMemory &M, uint64_t Pages, uint64_t Off, uint64_t Seed) {
  for (uint64_t P = 0; P < Pages; ++P)
    M.write64(P * DataMemory::PageSize + Off, Seed ^ (P * 0x9E37u) ^ 1);
}

bool pagesHold(const DataMemory &M, uint64_t Pages, uint64_t Off,
               uint64_t Seed) {
  for (uint64_t P = 0; P < Pages; ++P)
    if (M.read64(P * DataMemory::PageSize + Off) != (Seed ^ (P * 0x9E37u) ^ 1))
      return false;
  return true;
}
} // namespace

TEST(DataMemory, RecycledSlabsReadAsZero) {
  const uint64_t Pages = 3 * kPagesPerSlab + 1; // four slabs
  auto Old = std::make_unique<DataMemory>();
  fillPages(*Old, Pages, /*Off=*/0, /*Seed=*/7);
  ASSERT_TRUE(pagesHold(*Old, Pages, 0, 7));
  Old.reset();

  // The new image materializes the same pages (from the recycled slabs)
  // through another offset; the old image's words must read as zero.
  DataMemory New;
  fillPages(New, Pages, /*Off=*/64, /*Seed=*/9);
  EXPECT_EQ(New.numPages(), Pages);
  for (uint64_t P = 0; P < Pages; ++P)
    ASSERT_EQ(New.read64(P * DataMemory::PageSize), 0u) << "page " << P;
  EXPECT_TRUE(pagesHold(New, Pages, 64, 9));
}

TEST(DataMemory, LiveImagesDoNotAlias) {
  const uint64_t Pages = kPagesPerSlab + 3;
  DataMemory A, B;
  fillPages(A, Pages, 8, 1);
  fillPages(B, Pages, 8, 2);
  EXPECT_TRUE(pagesHold(A, Pages, 8, 1));
  EXPECT_TRUE(pagesHold(B, Pages, 8, 2));
}

TEST(DataMemory, PageStraddlingAccessWithEitherPageMissing) {
  const Addr Low = 5 * DataMemory::PageSize;
  const Addr High = Low + DataMemory::PageSize;
  const Addr Straddle = High - 3;
  {
    // The low page exists; the high page does not yet.
    DataMemory M;
    M.write64(Low, 1);
    EXPECT_EQ(M.read64(Straddle), 0u);
    M.write64(Straddle, 0x0102030405060708ull);
    EXPECT_EQ(M.numPages(), 2u);
    EXPECT_EQ(M.read64(Straddle), 0x0102030405060708ull);
    EXPECT_EQ(M.read64(High), 0x0000000102030405ull);
  }
  {
    // The high page exists; the low page does not yet.
    DataMemory M;
    M.write64(High + 64, 2);
    EXPECT_EQ(M.read64(Straddle), 0u);
    M.write64(Straddle, 0x1112131415161718ull);
    EXPECT_EQ(M.read64(Straddle), 0x1112131415161718ull);
    EXPECT_EQ(M.read64(Straddle - 5), 0x1617180000000000ull);
    EXPECT_EQ(M.read64(High + 64), 2u);
  }
}

namespace {
/// Builds one image with fillSequence and one with the equivalent write64
/// loop, after the same \p Pre writes, and checks that every byte from a
/// page below \p Base to a page past the range reads the same in both.
void expectFillMatchesLoop(Addr Base, uint64_t Count, uint64_t First,
                           uint64_t Step,
                           const std::vector<std::pair<Addr, uint64_t>> &Pre =
                               {}) {
  DataMemory Bulk, Loop;
  for (const auto &[A, V] : Pre) {
    Bulk.write64(A, V);
    Loop.write64(A, V);
  }
  Bulk.fillSequence(Base, Count, First, Step);
  for (uint64_t I = 0; I < Count; ++I)
    Loop.write64(Base + I * 8, First + I * Step);
  EXPECT_EQ(Bulk.numPages(), Loop.numPages());
  const Addr Lo = Base - DataMemory::PageSize;
  const Addr Hi = Base + Count * 8 + DataMemory::PageSize;
  for (Addr A = Lo; A < Hi; ++A)
    ASSERT_EQ(Bulk.read64(A) & 0xff, Loop.read64(A) & 0xff)
        << "byte 0x" << std::hex << A;
}
} // namespace

TEST(DataMemory, FillSequenceAlignedBase) {
  // 1500 words over three pages.
  expectFillMatchesLoop(0x10000, 1500, 0x20000000, 64);
}

TEST(DataMemory, FillSequenceUnalignedBaseStraddlesPage) {
  // Word 10 starts 3 bytes before a page boundary.
  const Addr Base = 5 * DataMemory::PageSize - 83;
  expectFillMatchesLoop(Base, 40, 0x0102030405060708ull,
                        0x1111111111111111ull);
}

TEST(DataMemory, FillSequenceOfZeroWordsTouchesNothing) {
  DataMemory M;
  M.fillSequence(0x10000, 0, 7, 8);
  EXPECT_EQ(M.numPages(), 0u);
  expectFillMatchesLoop(0x10000, 0, 7, 8);
}

TEST(DataMemory, FillSequenceIntoMaterializedPage) {
  // The range starts mid-page in a page that already holds words on both
  // sides of it, and runs into the next page.
  const Addr Page = 9 * DataMemory::PageSize;
  expectFillMatchesLoop(Page + 1024, 600, 3, 5,
                        {{Page + 8, 0xAAAAu}, {Page + 1016, 0xBBBBu},
                         {Page + 1024, 0xCCCCu}});
}

TEST(DataMemory, ThreadsRecycleSlabsSafely) {
  // Each worker builds, checks and destroys images that span two slabs,
  // so slabs pass between threads through the shared free list.
  constexpr unsigned kThreads = 4, kRounds = 12;
  const uint64_t Pages = kPagesPerSlab + 16;
  std::vector<unsigned> Bad(kThreads, 0);
  std::vector<std::thread> Workers;
  for (unsigned T = 0; T < kThreads; ++T)
    Workers.emplace_back([&, T] {
      for (unsigned R = 0; R < kRounds; ++R) {
        DataMemory M;
        const uint64_t Seed = (uint64_t(T) << 32) | R;
        const uint64_t Off = 8 * ((T + R) % 4);
        fillPages(M, Pages, Off, Seed);
        Bad[T] += !pagesHold(M, Pages, Off, Seed);
        Bad[T] += M.read64(Off + 32) != 0; // untouched word, first page
      }
    });
  for (std::thread &W : Workers)
    W.join();
  for (unsigned T = 0; T < kThreads; ++T)
    EXPECT_EQ(Bad[T], 0u) << "thread " << T;
}

//===----------------------------------------------------------------------===//
// Cache
//===----------------------------------------------------------------------===//

namespace {
CacheConfig tinyCache() {
  // 4 sets x 2 ways x 64B = 512B.
  return {"tiny", 512, 2, 64, 3};
}
} // namespace

TEST(Cache, GeometryDerivation) {
  Cache C(tinyCache());
  EXPECT_EQ(C.numSets(), 4u);
  EXPECT_EQ(C.lineAddr(0x12345), 0x12340u & ~0x3Fu);
}

TEST(Cache, MissThenHit) {
  Cache C(tinyCache());
  EXPECT_FALSE(C.lookup(0x1000));
  C.insert(0x1000, /*FillReady=*/10, /*Prefetched=*/false);
  Cache::LookupResult R = C.lookup(0x1000);
  ASSERT_TRUE(R);
  EXPECT_EQ(C.fillReady(R.Idx), 10u);
  EXPECT_FALSE(C.prefetched(R.Idx));
}

TEST(Cache, LruEviction) {
  Cache C(tinyCache());
  // Three lines in the same set (set stride = 4 * 64 = 256).
  C.insert(0x0000, 0, false);
  C.insert(0x0100, 0, false);
  C.lookup(0x0000); // touch A so B becomes LRU
  C.insert(0x0200, 0, false);
  EXPECT_TRUE(C.lookup(0x0000));
  EXPECT_FALSE(C.lookup(0x0100)); // evicted
  EXPECT_TRUE(C.lookup(0x0200));
}

TEST(Cache, PrefetchVictimTagTracking) {
  Cache C(tinyCache());
  C.insert(0x0000, 0, false);
  C.lookup(0x0000); // demand-touched
  C.insert(0x0100, 0, false);
  C.lookup(0x0100);
  C.lookup(0x0000);
  // A prefetch displaces 0x0100 (LRU).
  C.insert(0x0200, 0, /*Prefetched=*/true);
  // The subsequent miss on 0x0100 is attributable to prefetching.
  Cache::LookupResult R = C.lookup(0x0100);
  EXPECT_FALSE(R);
  EXPECT_TRUE(R.VictimOfPrefetch);
  // The victim record is consumed: a second miss is ordinary.
  EXPECT_FALSE(C.lookup(0x0100).VictimOfPrefetch);
}

TEST(Cache, UntouchedBitSemantics) {
  Cache C(tinyCache());
  C.insert(0x1000, 0, /*Prefetched=*/true);
  Cache::LineIdx L = C.peek(0x1000);
  ASSERT_NE(L, Cache::NoLine);
  EXPECT_TRUE(C.prefetched(L));
  EXPECT_TRUE(C.untouched(L));
}

TEST(Cache, InsertReturnsTheFilledLine) {
  Cache C(tinyCache());
  const Cache::LineIdx Filled = C.insert(0x1000, 5, /*Prefetched=*/true);
  EXPECT_EQ(Filled, C.peek(0x1000));
  EXPECT_TRUE(C.untouched(Filled));
  // A refill of the present line returns that line.
  EXPECT_EQ(C.insert(0x1000, 99, false), Filled);
}

TEST(Cache, ResetInvalidatesEverything) {
  Cache C(tinyCache());
  C.insert(0x1000, 0, false);
  C.reset();
  EXPECT_FALSE(C.lookup(0x1000));
}

TEST(Cache, RefillOfPresentLineKeepsIt) {
  Cache C(tinyCache());
  C.insert(0x1000, 5, false);
  C.insert(0x1000, 99, true); // refresh, not duplicate
  Cache::LookupResult R = C.lookup(0x1000);
  ASSERT_TRUE(R);
  EXPECT_EQ(C.fillReady(R.Idx), 5u); // original fill time retained
}

//===----------------------------------------------------------------------===//
// MemorySystem (no hardware prefetcher)
//===----------------------------------------------------------------------===//

namespace {
MemSystemConfig smallConfig() {
  MemSystemConfig C;
  C.L1 = {"L1", 1024, 2, 64, 3};
  C.L2 = {"L2", 4096, 4, 64, 11};
  C.L3 = {"L3", 16384, 4, 64, 35};
  C.MemoryLatency = 350;
  C.BusOccupancy = 6;
  C.NumMSHRs = 4;
  return C;
}
} // namespace

TEST(MemorySystem, ColdMissPaysMemoryLatency) {
  MemorySystem M(smallConfig());
  AccessResult R = M.access(0x1, 0x10000, AccessKind::DemandLoad, 100);
  EXPECT_EQ(R.Outcome, LoadOutcome::Miss);
  EXPECT_EQ(R.Level, 4u);
  EXPECT_GE(R.ReadyCycle, 100u + 350u);
}

TEST(MemorySystem, SecondAccessHitsL1) {
  MemorySystem M(smallConfig());
  M.access(0x1, 0x10000, AccessKind::DemandLoad, 0);
  AccessResult R = M.access(0x1, 0x10000, AccessKind::DemandLoad, 1000);
  EXPECT_EQ(R.Outcome, LoadOutcome::HitNone);
  EXPECT_EQ(R.ReadyCycle, 1000u + 3u);
}

TEST(MemorySystem, InFlightLineIsPartialOrMergedMiss) {
  MemorySystem M(smallConfig());
  M.access(0x1, 0x10000, AccessKind::DemandLoad, 0);
  // Ten cycles later the fill (ready ~350) is still in flight.
  AccessResult R = M.access(0x2, 0x10008, AccessKind::DemandLoad, 10);
  EXPECT_EQ(R.Outcome, LoadOutcome::Miss); // demand-initiated: merged miss
  EXPECT_GT(R.ReadyCycle, 300u);
}

TEST(MemorySystem, PrefetchedLineFirstTouchIsHitPrefetched) {
  MemorySystem M(smallConfig());
  M.access(0x1, 0x10000, AccessKind::SoftwarePrefetch, 0);
  AccessResult R1 = M.access(0x2, 0x10000, AccessKind::DemandLoad, 1000);
  EXPECT_EQ(R1.Outcome, LoadOutcome::HitPrefetched);
  AccessResult R2 = M.access(0x2, 0x10000, AccessKind::DemandLoad, 1001);
  EXPECT_EQ(R2.Outcome, LoadOutcome::HitNone); // only the first touch counts
}

TEST(MemorySystem, InFlightPrefetchGivesPartialHit) {
  MemorySystem M(smallConfig());
  M.access(0x1, 0x10000, AccessKind::SoftwarePrefetch, 0);
  AccessResult R = M.access(0x2, 0x10000, AccessKind::DemandLoad, 100);
  EXPECT_EQ(R.Outcome, LoadOutcome::PartialHit);
  EXPECT_LT(R.ReadyCycle, 100u + 350u); // part of the latency is hidden
  EXPECT_GT(R.ReadyCycle, 100u + 3u);
}

TEST(MemorySystem, L2HitAfterL1Eviction) {
  MemorySystem M(smallConfig());
  M.access(0x1, 0x10000, AccessKind::DemandLoad, 0);
  // L1 is 1KB/2-way/64B = 8 sets; lines 8*64=512 apart share a set. Fill
  // the set with two more lines to evict 0x10000 from L1 (still in L2).
  M.access(0x1, 0x10000 + 512, AccessKind::DemandLoad, 1000);
  M.access(0x1, 0x10000 + 1024, AccessKind::DemandLoad, 2000);
  AccessResult R = M.access(0x1, 0x10000, AccessKind::DemandLoad, 3000);
  EXPECT_EQ(R.Outcome, LoadOutcome::Miss);
  EXPECT_EQ(R.ReadyCycle, 3000u + 3u + 11u); // issue after L1 lookup, L2 hit
}

TEST(MemorySystem, BusSerializesMemoryFetches) {
  MemorySystem M(smallConfig());
  AccessResult R1 = M.access(0x1, 0x10000, AccessKind::DemandLoad, 0);
  AccessResult R2 = M.access(0x2, 0x20000, AccessKind::DemandLoad, 0);
  AccessResult R3 = M.access(0x3, 0x30000, AccessKind::DemandLoad, 0);
  // Each later fetch queues behind the previous one's bus occupancy (6cy).
  EXPECT_GE(R2.ReadyCycle, R1.ReadyCycle + 6);
  EXPECT_GE(R3.ReadyCycle, R2.ReadyCycle + 6);
}

TEST(MemorySystem, MshrExhaustionDelaysFills) {
  MemSystemConfig C = smallConfig();
  C.NumMSHRs = 2;
  MemorySystem M(C);
  AccessResult R1 = M.access(0x1, 0x10000, AccessKind::DemandLoad, 0);
  M.access(0x2, 0x20000, AccessKind::DemandLoad, 0);
  // Third outstanding fill must wait for an MSHR to free.
  AccessResult R3 = M.access(0x3, 0x30000, AccessKind::DemandLoad, 0);
  EXPECT_GE(R3.ReadyCycle, R1.ReadyCycle + 350);
}

TEST(MemorySystem, StatsClassifyDemandLoads) {
  MemorySystem M(smallConfig());
  M.access(0x1, 0x10000, AccessKind::DemandLoad, 0);       // miss
  M.access(0x1, 0x10000, AccessKind::DemandLoad, 1000);    // hit
  M.access(0x1, 0x20000, AccessKind::SoftwarePrefetch, 0); // pf
  M.access(0x1, 0x20000, AccessKind::DemandLoad, 2000);    // hit-prefetched
  const MemStats &S = M.stats();
  EXPECT_EQ(S.DemandLoads, 3u);
  EXPECT_EQ(S.Misses, 1u);
  EXPECT_EQ(S.HitsNone, 1u);
  EXPECT_EQ(S.HitsPrefetched, 1u);
  EXPECT_EQ(S.SoftwarePrefetches, 1u);
  EXPECT_EQ(S.MemoryFetches, 2u);
}

TEST(MemorySystem, PrefetchOfResidentLineIsCheap) {
  MemorySystem M(smallConfig());
  M.access(0x1, 0x10000, AccessKind::DemandLoad, 0);
  uint64_t FetchesBefore = M.stats().MemoryFetches;
  M.access(0x1, 0x10000, AccessKind::SoftwarePrefetch, 1000);
  EXPECT_EQ(M.stats().MemoryFetches, FetchesBefore); // no duplicate fetch
}

//===----------------------------------------------------------------------===//
// TLB
//===----------------------------------------------------------------------===//

TEST(Tlb, HitAfterInstall) {
  TlbConfig C;
  C.Enable = true;
  C.NumEntries = 16;
  C.Assoc = 4;
  Tlb T(C);
  EXPECT_FALSE(T.access(0x1234)); // cold miss installs
  EXPECT_TRUE(T.access(0x1FF8));  // same 4KB page
  EXPECT_FALSE(T.access(0x2000)); // next page
  EXPECT_EQ(T.stats().Misses, 2u);
  EXPECT_EQ(T.stats().Lookups, 3u);
}

TEST(Tlb, LruReplacementWithinSet) {
  TlbConfig C;
  C.Enable = true;
  C.NumEntries = 4;
  C.Assoc = 2; // 2 sets
  Tlb T(C);
  // Pages 0, 2, 4 share set 0 (vpn & 1 == 0).
  T.access(0x0000);
  T.access(0x2000);
  T.access(0x0000); // touch page 0 so page 2 is LRU
  T.access(0x4000); // evicts page 2
  EXPECT_TRUE(T.present(0x0000));
  EXPECT_FALSE(T.present(0x2000));
  EXPECT_TRUE(T.present(0x4000));
}

TEST(Tlb, MemorySystemWalkPenalty) {
  MemSystemConfig C = smallConfig();
  C.Tlb.Enable = true;
  C.Tlb.WalkLatency = 30;
  MemorySystem M(C);
  // First access: TLB miss (30) + memory miss.
  AccessResult R1 = M.access(0x1, 0x10000, AccessKind::DemandLoad, 0);
  EXPECT_GE(R1.ReadyCycle, 30u + 350u);
  // Same page, line resident: pure L1 hit now.
  AccessResult R2 = M.access(0x1, 0x10000, AccessKind::DemandLoad, 1000);
  EXPECT_EQ(R2.ReadyCycle, 1003u);
}

TEST(Tlb, SoftwarePrefetchToColdPageIsDropped) {
  MemSystemConfig C = smallConfig();
  C.Tlb.Enable = true;
  MemorySystem M(C);
  uint64_t Before = M.stats().MemoryFetches;
  M.access(0x1, 0x50000, AccessKind::SoftwarePrefetch, 0);
  EXPECT_EQ(M.stats().MemoryFetches, Before); // dropped, no fetch
  ASSERT_NE(M.dtlb(), nullptr);
  EXPECT_EQ(M.dtlb()->stats().PrefetchesDropped, 1u);
  // After a demand access maps the page, prefetches flow.
  M.access(0x1, 0x50000, AccessKind::DemandLoad, 10);
  M.access(0x1, 0x50040, AccessKind::SoftwarePrefetch, 2000);
  EXPECT_GT(M.stats().MemoryFetches, Before);
}

TEST(Tlb, DisabledByDefault) {
  MemorySystem M(smallConfig());
  EXPECT_EQ(M.dtlb(), nullptr);
}
