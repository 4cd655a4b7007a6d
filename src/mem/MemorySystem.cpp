//===- MemorySystem.cpp ---------------------------------------------------===//
//
// Part of the Trident-SRP reproduction (CGO 2006).
//
//===----------------------------------------------------------------------===//
//
// trident-lint: hot-path (per-access simulation inner loop; no O(n) erase
// scans)
//
//===----------------------------------------------------------------------===//

#include "mem/MemorySystem.h"
#include "support/StatRegistry.h"
#include "support/Check.h"

#include <algorithm>
#include <functional>

using namespace trident;

void MemStats::registerInto(StatRegistry &R, const std::string &Prefix) const {
  R.setCounter(Prefix + "demand_loads", DemandLoads);
  R.setCounter(Prefix + "hits_none", HitsNone);
  R.setCounter(Prefix + "hits_prefetched", HitsPrefetched);
  R.setCounter(Prefix + "partial_hits", PartialHits);
  R.setCounter(Prefix + "misses", Misses);
  R.setCounter(Prefix + "misses_due_to_prefetch", MissesDueToPrefetch);
  R.setCounter(Prefix + "stream_buffer_hits", StreamBufferHits);
  R.setCounter(Prefix + "software_prefetches", SoftwarePrefetches);
  R.setCounter(Prefix + "hardware_prefetches", HardwarePrefetches);
  R.setCounter(Prefix + "memory_fetches", MemoryFetches);
  R.setCounter(Prefix + "total_exposed_latency", TotalExposedLatency);
}

void HwPfStats::registerInto(StatRegistry &R,
                             const std::string &Prefix) const {
  for (const auto &C : Counters)
    R.setCounter(Prefix + C.first, C.second);
}

uint64_t HwPfStats::get(const std::string &Name) const {
  for (const auto &C : Counters)
    if (C.first == Name)
      return C.second;
  return 0;
}

MemoryBackend::~MemoryBackend() = default;
HwPrefetcher::~HwPrefetcher() = default;

void HwPrefetcher::trainOnAccess(Addr, Addr, Cycle) {}
void HwPrefetcher::trainOnFill(Addr, Cycle, AccessKind) {}

HwPfStats HwPrefetcher::snapshotStats() const {
  HwPfStats S;
  S.Prefetcher = name();
  return S;
}

MemorySystem::MemorySystem(const MemSystemConfig &Cfg)
    : Config(Cfg), L1(Config.L1), L2(Config.L2), L3(Config.L3) {
  TRIDENT_CHECK(Config.L1.LineSize == Config.L2.LineSize &&
                    Config.L2.LineSize == Config.L3.LineSize,
                "hierarchy levels must share a line size (L1 %u, L2 %u, L3 %u)",
                Config.L1.LineSize, Config.L2.LineSize, Config.L3.LineSize);
  if (Config.Tlb.Enable)
    Dtlb = std::make_unique<Tlb>(Config.Tlb); // trident-lint: alloc-ok(construction)
  // The MSHR heap never outgrows the configured hardware bound; reserving
  // it here keeps the per-miss push/pop allocation-free.
  OutstandingFills.reserve(Config.NumMSHRs);
}

void MemorySystem::attachPrefetcher(std::unique_ptr<HwPrefetcher> NewPf) {
  // Mid-run swaps (the control plane's selector) are legal *between*
  // accesses only: replacing the unit here destroys the object whose
  // trainOnMiss/probe frame would still be on the stack inside access().
  // MSHR state (OutstandingFills) and the bus horizon (BusNextFree) live
  // in MemorySystem, not in the unit, so in-flight fills issued by the
  // outgoing prefetcher keep their timing across the swap; only the
  // unit's private buffers (untransferred prefetched lines) are dropped,
  // exactly as if real hardware power-gated the old engine.
  TRIDENT_DCHECK(!InAccess,
                 "attachPrefetcher called from inside MemorySystem::access");
  Pf = std::move(NewPf);
  PfTrainsOnAccess = Pf && Pf->wantsAccessTraining();
  PfTrainsOnFill = Pf && Pf->wantsFillTraining();
}

Cycle MemorySystem::allocateMshr(Cycle IssueCycle, Cycle Ready) {
  // OutstandingFills is a min-heap on ready cycle: the root is always the
  // earliest completion, so purging finished fills and waiting for a free
  // MSHR both touch only the heap root.
  auto Greater = std::greater<Cycle>();
  while (!OutstandingFills.empty() && OutstandingFills.front() <= IssueCycle) {
    std::pop_heap(OutstandingFills.begin(), OutstandingFills.end(), Greater);
    OutstandingFills.pop_back();
  }
  if (OutstandingFills.size() >= Config.NumMSHRs) {
    // All MSHRs busy: the new fill waits for the earliest completion.
    TRIDENT_DCHECK(OutstandingFills.front() > IssueCycle,
                   "stale fill survived the purge (root %llu <= issue %llu)",
                   (unsigned long long)OutstandingFills.front(),
                   (unsigned long long)IssueCycle);
    Cycle Delay = OutstandingFills.front() - IssueCycle;
    std::pop_heap(OutstandingFills.begin(), OutstandingFills.end(), Greater);
    OutstandingFills.pop_back();
    Ready += Delay;
  }
  OutstandingFills.push_back(Ready);
  std::push_heap(OutstandingFills.begin(), OutstandingFills.end(), Greater);
  // MSHR-heap bound: the structure models a fixed hardware resource; one
  // slot was freed above whenever the table was full, so occupancy can
  // never exceed the configured MSHR count.
  TRIDENT_DCHECK(OutstandingFills.size() <= Config.NumMSHRs,
                 "MSHR heap holds %zu fills but only %u MSHRs exist",
                 OutstandingFills.size(), Config.NumMSHRs);
  TRIDENT_DCHECK(Ready >= IssueCycle,
                 "fill ready %llu before its issue cycle %llu",
                 (unsigned long long)Ready, (unsigned long long)IssueCycle);
  return Ready;
}

Cycle MemorySystem::fetchBeyondL1(Addr LineAddr, Cycle Now, AccessKind Kind) {
  if (Kind == AccessKind::HardwarePrefetch)
    ++Stats.HardwarePrefetches;
  // Injected latency fault (inactive on the zero-fault path: one
  // predictable branch, timing otherwise untouched).
  const bool Faulted = FaultActive && LineAddr <= FaultHi &&
                       LineAddr + Config.L1.LineSize - 1 >= FaultLo;
  // L2.
  if (Cache::LookupResult LR = L2.lookup(LineAddr)) {
    Cycle Ready =
        std::max<Cycle>(L2.fillReady(LR.Idx), Now + Config.L2.HitLatency);
    if (Faulted)
      Ready += FaultExtraL2;
    if (!isPrefetchKind(Kind))
      L2.clearUntouched(LR.Idx);
    return Ready;
  }
  // L3.
  if (Cache::LookupResult LR = L3.lookup(LineAddr)) {
    Cycle Ready =
        std::max<Cycle>(L3.fillReady(LR.Idx), Now + Config.L3.HitLatency);
    if (Faulted)
      Ready += FaultExtraL2;
    if (!isPrefetchKind(Kind))
      L3.clearUntouched(LR.Idx);
    bool Prefetched = isPrefetchKind(Kind);
    L2.insert(LineAddr, Ready, Prefetched);
    return Ready;
  }
  // Memory: serialize on the shared bus, then pay the full latency.
  ++Stats.MemoryFetches;
  Cycle BusStart = std::max(Now, BusNextFree);
  // Bus hand-off monotonicity: each transfer occupies the bus strictly
  // after the previous one; a rewind would let two fills overlap and
  // under-report memory contention.
  TRIDENT_DCHECK(BusStart + Config.BusOccupancy >= BusNextFree,
                 "bus schedule rewound (start %llu, next-free %llu)",
                 (unsigned long long)BusStart,
                 (unsigned long long)BusNextFree);
  BusNextFree = BusStart + Config.BusOccupancy;
  Cycle Ready = BusStart + Config.MemoryLatency;
  if (Faulted)
    Ready += FaultExtraMem;
  bool Prefetched = isPrefetchKind(Kind);
  L3.insert(LineAddr, Ready, Prefetched);
  L2.insert(LineAddr, Ready, Prefetched);
  return Ready;
}

AccessResult MemorySystem::access(Addr PC, Addr ByteAddr, AccessKind Kind,
                                  Cycle Now) {
#if TRIDENT_DCHECKS_ENABLED
  // Marks the window in which attachPrefetcher must not run (see there);
  // scoped so every early return clears it.
  struct AccessScope {
    bool &Flag;
    explicit AccessScope(bool &F) : Flag(F) { Flag = true; }
    ~AccessScope() { Flag = false; }
  } Scope(InAccess);
#endif
  // Hardware prefetches enter only through fetchBeyondL1, which counts
  // them once; a second entry here would count an L1 miss twice.
  TRIDENT_DCHECK(Kind != AccessKind::HardwarePrefetch,
                 "hardware prefetches go through fetchBeyondL1, not access");
  const bool DemandLoad = Kind == AccessKind::DemandLoad;
  if (DemandLoad)
    ++Stats.DemandLoads;
  else if (Kind == AccessKind::SoftwarePrefetch)
    ++Stats.SoftwarePrefetches;

  // Optional TLB: demand accesses that miss pay a page walk; software
  // prefetches to untranslated pages are dropped (non-faulting prefetch
  // semantics on real machines).
  if (Dtlb) {
    if (Kind == AccessKind::SoftwarePrefetch) {
      if (!Dtlb->present(ByteAddr)) {
        Dtlb->noteDroppedPrefetch();
        AccessResult Dropped;
        Dropped.ReadyCycle = Now + 1;
        Dropped.Level = 1;
        return Dropped;
      }
    } else if (!Dtlb->access(ByteAddr)) {
      Now += Config.Tlb.WalkLatency; // serialize the walk before the access
    }
  }

  Addr LineAddr = L1.lineAddr(ByteAddr);
  AccessResult R;

  auto finishDemand = [&](AccessResult &Res) {
    if (!DemandLoad)
      return;
    // This per-outcome tally is also the prefetcher feedback channel:
    // feedback() derives Useful, Late and DemandMisses from it.
    switch (Res.Outcome) {
    case LoadOutcome::HitNone:
      ++Stats.HitsNone;
      break;
    case LoadOutcome::HitPrefetched:
      ++Stats.HitsPrefetched;
      break;
    case LoadOutcome::PartialHit:
      ++Stats.PartialHits;
      break;
    case LoadOutcome::Miss:
      ++Stats.Misses;
      break;
    case LoadOutcome::MissDueToPrefetch:
      ++Stats.MissesDueToPrefetch;
      break;
    }
    Cycle BestCase = Now + Config.L1.HitLatency;
    if (Res.ReadyCycle > BestCase)
      Stats.TotalExposedLatency += Res.ReadyCycle - BestCase;
  };

  // L1 lookup.
  Cache::LookupResult L1Hit = L1.lookup(LineAddr);
  const bool VictimOfPrefetch = L1Hit.VictimOfPrefetch;
  if (L1Hit) {
    const Cache::LineIdx Line = L1Hit.Idx;
    Cycle HitReady = Now + Config.L1.HitLatency;
    if (L1.fillReady(Line) <= HitReady) {
      // Data present.
      R.ReadyCycle = HitReady;
      R.Level = 1;
      R.Outcome = LoadOutcome::HitNone;
      if (DemandLoad && L1.untouched(Line)) {
        R.Outcome = LoadOutcome::HitPrefetched;
        L1.clearUntouched(Line);
      } else if (!isPrefetchKind(Kind)) {
        L1.clearUntouched(Line);
      }
      // Opt-in hit-side training (the complement of trainOnMiss); a plain
      // bool test for the default arsenal, which trains on misses only.
      if (PfTrainsOnAccess && !isPrefetchKind(Kind))
        Pf->trainOnAccess(PC, ByteAddr, Now);
    } else {
      // Fill still in flight: a partial hit when prefetch-initiated,
      // otherwise an ordinary merged demand miss.
      R.ReadyCycle = L1.fillReady(Line);
      R.Level = 1;
      R.Outcome =
          L1.prefetched(Line) ? LoadOutcome::PartialHit : LoadOutcome::Miss;
      if (!isPrefetchKind(Kind)) {
        L1.clearUntouched(Line);
        // A partial hit is still an L1 miss: it trains the hardware
        // prefetcher (otherwise software prefetching would starve the
        // stream buffers of training and silently disable them).
        if (Pf && (DemandLoad || Kind == AccessKind::DemandStore))
          Pf->trainOnMiss(PC, ByteAddr, Now, *this);
      }
    }
    finishDemand(R);
    return R;
  }

  // L1 miss. Probe the hardware prefetcher's buffers first (demand and
  // software-prefetch accesses both benefit).
  if (Pf) {
    if (std::optional<Cycle> BufReady = Pf->probe(LineAddr, Now, *this)) {
      Cycle Ready =
          std::max(*BufReady, Now + Config.StreamBufferTransferLatency);
      const Cache::LineIdx Line =
          L1.insert(LineAddr, Ready, /*Prefetched=*/true);
      if (DemandLoad)
        L1.clearUntouched(Line);
      R.ReadyCycle = Ready;
      R.Level = 0;
      R.StreamBufferHit = true;
      ++Stats.StreamBufferHits;
      R.Outcome = Ready <= Now + Config.StreamBufferTransferLatency
                      ? LoadOutcome::HitPrefetched
                      : LoadOutcome::PartialHit;
      finishDemand(R);
      return R;
    }
  }

  // Full miss: fetch through L2/L3/memory, bounded by MSHR availability.
  Cycle IssueCycle = Now + Config.L1.HitLatency;
  Cycle Ready = fetchBeyondL1(LineAddr, IssueCycle, Kind);
  Ready = allocateMshr(IssueCycle, Ready);
  const Cache::LineIdx Line =
      L1.insert(LineAddr, Ready, isPrefetchKind(Kind));
  if (PfTrainsOnFill)
    Pf->trainOnFill(LineAddr, Ready, Kind);
  if (!isPrefetchKind(Kind))
    L1.clearUntouched(Line);

  R.ReadyCycle = Ready;
  R.Level = Ready - Now <= Config.L2.HitLatency + 1   ? 2
            : Ready - Now <= Config.L3.HitLatency + 1 ? 3
                                                      : 4;
  R.Outcome = VictimOfPrefetch ? LoadOutcome::MissDueToPrefetch
                               : LoadOutcome::Miss;
  finishDemand(R);

  // Train the hardware prefetcher on misses. Software prefetches train it
  // too — they go through the ordinary miss path, so a software prefetch
  // stream re-primes a stream buffer ahead of itself and the two
  // prefetchers cooperate rather than starve each other (the paper's
  // observation that the combination minimizes software prefetching cost).
  if (Pf)
    Pf->trainOnMiss(PC, ByteAddr, Now, *this);

  // Causality: no access completes before it starts.
  TRIDENT_DCHECK(R.ReadyCycle >= Now,
                 "access to 0x%llx ready at %llu, before issue at %llu",
                 (unsigned long long)ByteAddr,
                 (unsigned long long)R.ReadyCycle, (unsigned long long)Now);
  return R;
}

void MemorySystem::injectLatencyFault(Addr Lo, Addr Hi, unsigned ExtraMem,
                                      unsigned ExtraL2) {
  FaultActive = true;
  FaultLo = Lo;
  FaultHi = Hi;
  FaultExtraMem = ExtraMem;
  FaultExtraL2 = ExtraL2;
}

void MemorySystem::clearLatencyFault() {
  FaultActive = false;
  FaultLo = 0;
  FaultHi = 0;
  FaultExtraMem = 0;
  FaultExtraL2 = 0;
}

uint64_t MemorySystem::evictRange(Addr Lo, Addr Hi) {
  return L1.invalidateRange(Lo, Hi) + L2.invalidateRange(Lo, Hi) +
         L3.invalidateRange(Lo, Hi);
}

void MemorySystem::resetCaches() {
  L1.reset();
  L2.reset();
  L3.reset();
  if (Dtlb)
    Dtlb->reset();
  OutstandingFills.clear();
  BusNextFree = 0;
}
