//===- TridentRuntime.cpp -------------------------------------------------===//
//
// Part of the Trident-SRP reproduction (CGO 2006).
//
//===----------------------------------------------------------------------===//

#include "core/TridentRuntime.h"
#include "support/StatRegistry.h"
#include "support/Check.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

using namespace trident;

/// Env-gated diagnostics: set TRIDENT_DEBUG=1 to trace optimizer activity.
static bool debugEnabled() {
  static const bool E = [] {
    const char *V = std::getenv("TRIDENT_DEBUG");
    return V && *V && *V != '0';
  }();
  return E;
}

#define TRIDENT_DBG(...)                                                       \
  do {                                                                         \
    if (debugEnabled())                                                        \
      std::fprintf(stderr, __VA_ARGS__);                                       \
  } while (0)

const char *trident::prefetchModeName(PrefetchMode M) {
  switch (M) {
  case PrefetchMode::None:
    return "none";
  case PrefetchMode::Basic:
    return "basic";
  case PrefetchMode::WholeObject:
    return "whole-object";
  case PrefetchMode::SelfRepairing:
    return "self-repairing";
  }
  return "<bad>";
}

void RuntimeStats::registerInto(StatRegistry &R,
                                const std::string &Prefix) const {
  R.setCounter(Prefix + "hot_trace_events", HotTraceEvents);
  R.setCounter(Prefix + "traces_installed", TracesInstalled);
  R.setCounter(Prefix + "trace_reinstalls", TraceReinstalls);
  R.setCounter(Prefix + "delinquent_events", DelinquentEvents);
  R.setCounter(Prefix + "insertion_optimizations", InsertionOptimizations);
  R.setCounter(Prefix + "repair_optimizations", RepairOptimizations);
  R.setCounter(Prefix + "loads_matured", LoadsMatured);
  R.setCounter(Prefix + "repairs_reopened", RepairsReopened);
  R.setCounter(Prefix + "regime_shifts_detected", RegimeShiftsDetected);
  R.setCounter(Prefix + "events_dropped", EventsDropped);
  R.setCounter(Prefix + "peak_pending_events", PeakPendingEvents);
  R.setCounter(Prefix + "prefetch_instructions_planned",
               PrefetchInstructionsPlanned);
  R.setCounter(Prefix + "load_misses_total", LoadMissesTotal);
  R.setCounter(Prefix + "load_misses_in_traces", LoadMissesInTraces);
  R.setCounter(Prefix + "load_misses_covered", LoadMissesCovered);
  R.setCounter(Prefix + "ld_total", LdTotal);
  R.setCounter(Prefix + "ld_hit_none", LdHitNone);
  R.setCounter(Prefix + "ld_hit_prefetched", LdHitPrefetched);
  R.setCounter(Prefix + "ld_partial", LdPartial);
  R.setCounter(Prefix + "ld_miss", LdMiss);
  R.setCounter(Prefix + "ld_miss_due_to_pf", LdMissDueToPf);
  R.setCounter(Prefix + "commits_total", CommitsTotal);
  R.setCounter(Prefix + "commits_in_traces", CommitsInTraces);
  R.setCounter(Prefix + "phase_changes_detected", PhaseChangesDetected);
  R.setCounter(Prefix + "mature_flags_cleared", MatureFlagsCleared);
  R.setReal(Prefix + "trace_miss_coverage", traceMissCoverage());
  R.setReal(Prefix + "prefetch_miss_coverage", prefetchMissCoverage());
}

RuntimeStats TridentRuntime::stats() const {
  RuntimeStats S = Stats;
  S.HotTraceEvents = Bus ? Bus->published(EventKind::HotTrace) : 0;
  S.DelinquentEvents = Dlt.stats().Events;
  S.EventsDropped = Queue.dropped();
  S.PeakPendingEvents = Queue.peakOccupancy();
  S.LoadMissesTotal = S.LdPartial + S.LdMiss + S.LdMissDueToPf;
  S.CommitsTotal = Bus ? Bus->published(EventKind::Commit) : 0;
  return S;
}

TridentRuntime::TridentRuntime(const RuntimeConfig &Cfg, Program &P,
                               SmtCore &CoreRef, CodeCache &CCRef)
    : Config(Cfg), Prog(P), Core(CoreRef), CC(CCRef), Patcher(P),
      Profiler(Config.Profiler), Builder(Config.Builder),
      Watch(Config.WatchEntries), Dlt(Config.Dlt),
      Planner(PlannerConfig{
          /*LineSize=*/64, /*ScratchReg=*/reg::FirstScratch,
          /*DistanceCap=*/Config.DistanceCap,
          /*WholeObject=*/Config.Mode == PrefetchMode::WholeObject ||
              Config.Mode == PrefetchMode::SelfRepairing}),
      Queue(Config.MaxPendingEvents) {
  // Initialize the Section 3.1 registration structure: the record the
  // hardware uses to spawn the helper thread onto the spare context.
  Registration.HelperStartPC = 0xF000'0000; // runtime-optimizer entry
  Registration.StackPointer = 0xEFFF'F000;  // helper's private stack
  Registration.GlobalDataPointer = 0xE000'0000;
  Registration.CodeCachePointer = CodeCache::Base;
  Registration.ThreadPriority = RegistrationStructure::Priority::Low;
}

const PrefetchPlan *TridentRuntime::planFor(Addr OrigStart) const {
  for (const TraceMeta &M : Traces)
    if (M.OrigStart == OrigStart && !M.Invalidated)
      return &M.Plan;
  return nullptr;
}

int TridentRuntime::currentDistanceFor(Addr OrigStart) const {
  const PrefetchPlan *P = planFor(OrigStart);
  if (!P)
    return 0;
  for (const PrefetchGroup &G : P->Groups)
    if (G.Repairable)
      return G.Distance;
  return 0;
}

//===----------------------------------------------------------------------===//
// Commit-stream observation
//===----------------------------------------------------------------------===//

void TridentRuntime::accountPhase(Addr PC) {
  if (CC.contains(PC)) {
    uint32_t Tid = CC.traceIdAt(PC);
    if (Tid >= PhaseCounts.size())
      PhaseCounts.resize(Tid + 1, 0);
    ++PhaseCounts[Tid];
  } else {
    ++PhaseOtherCommits;
  }
  if (++PhaseCommits < Config.PhaseIntervalCommits)
    return;

  // Build the interval's trace-mix signature (fractions per trace id,
  // plus a bucket for non-trace code) and compare with the previous one.
  size_t N = std::max(PhaseCounts.size(), PrevPhaseSignature.empty()
                                              ? size_t(0)
                                              : PrevPhaseSignature.size() - 1);
  std::vector<double> Sig(N + 1, 0.0);
  double Total = static_cast<double>(PhaseCommits);
  for (size_t I = 0; I < PhaseCounts.size(); ++I)
    Sig[I] = static_cast<double>(PhaseCounts[I]) / Total;
  Sig[N] = static_cast<double>(PhaseOtherCommits) / Total;

  if (!PrevPhaseSignature.empty()) {
    double Dist = 0.0;
    for (size_t I = 0; I < Sig.size(); ++I) {
      double Prev = 0.0;
      if (I + 1 < PrevPhaseSignature.size())
        Prev = PrevPhaseSignature[I];
      else if (I + 1 == Sig.size() && !PrevPhaseSignature.empty())
        Prev = PrevPhaseSignature.back();
      Dist += std::abs(Sig[I] - Prev);
    }
    if (Dist > Config.PhaseChangeThreshold) {
      ++Stats.PhaseChangesDetected;
      onPhaseChange();
    }
  }
  PrevPhaseSignature = std::move(Sig);
  std::fill(PhaseCounts.begin(), PhaseCounts.end(), 0);
  PhaseCommits = 0;
  PhaseOtherCommits = 0;
}

void TridentRuntime::onPhaseChange() {
  TRIDENT_DBG("[trident] phase change: clearing mature flags\n");
  uint64_t Cleared = Dlt.clearAllMature();
  Stats.MatureFlagsCleared += Cleared;
  for (TraceMeta &M : Traces) {
    // Loads the planner could not classify before may classify now (e.g.
    // an index stream that turned regular): let them be re-identified.
    Stats.MatureFlagsCleared += M.Plan.UncoverableLoadIdxs.size();
    M.Plan.UncoverableLoadIdxs.clear();
    for (PrefetchGroup &G : M.Plan.Groups) {
      for (LoadRepairState &LS : G.PerLoad) {
        if (!LS.Mature)
          continue;
        LS.Mature = false;
        // A fresh (smaller) budget: enough to re-adapt, not to thrash.
        LS.RepairsLeft = std::max(LS.RepairsLeft, G.MaxDistance);
        LS.LastAvgAccessLatency = -1.0;
      }
    }
  }
}

void TridentRuntime::attach(EventBus &B) {
  TRIDENT_CHECK(Bus == nullptr, "runtime already attached to a bus");
  Bus = &B;
  B.subscribe(this, eventMaskOf(EventKind::Commit) |
                        eventMaskOf(EventKind::Branch) |
                        eventMaskOf(EventKind::LoadOutcome));
}

void TridentRuntime::onEvent(const HardwareEvent &E) {
  switch (E.Kind) {
  case EventKind::Commit:
    handleWatchCommit(E);
    handleProfilerCommit(E);
    break;
  case EventKind::Branch:
    handleProfilerBranch(E);
    break;
  case EventKind::LoadOutcome:
    handleLoad(E);
    break;
  default:
    TRIDENT_UNREACHABLE("runtime received an unsubscribed event kind");
  }
}

void TridentRuntime::handleWatchCommit(const HardwareEvent &Ev) {
  if (Ev.Ctx != 0)
    return;
  const Addr PC = Ev.PC;
  const Cycle Now = Ev.Time;
  if (Config.ClearMatureOnPhaseChange && Enabled)
    accountPhase(PC);

  if (CC.contains(PC)) {
    ++Stats.CommitsInTraces;
    // Trace excursion tracking for the watch table's iteration timing.
    uint32_t Tid = CC.traceIdAt(PC);
    const TraceMeta &M = Traces[Tid];
    if (CurTraceId != Tid || CurHeadAddr != M.CacheAddr) {
      if (CurTraceId != ~0u)
        Bus->publish(
            HardwareEvent::traceMark(EventKind::TraceExit, CurTraceId, PC, Now));
      Bus->publish(HardwareEvent::traceMark(EventKind::TraceEntry, Tid, PC, Now));
      CurTraceId = Tid;
      CurHeadAddr = M.CacheAddr;
      LastHeadValid = false;
    }
    if (PC == M.CacheAddr) {
      if (LastHeadValid)
        Watch.recordIteration(Tid, Now - LastHeadCycle);
      LastHeadCycle = Now;
      LastHeadValid = true;
    }
    return;
  }

  // The patched entry jump at a trace's original start PC is part of the
  // trace's loop (closing jump -> OrigStart -> entry jump -> trace head);
  // it must not end the excursion or iteration timing never accumulates.
  const Instruction &I = *Ev.Insn;
  bool IsEntryGlue = I.Op == Opcode::Jump && I.Synthetic &&
                     CC.contains(static_cast<Addr>(I.Imm));
  if (!IsEntryGlue) {
    // Genuine original-code commit: ends any trace excursion.
    if (CurTraceId != ~0u)
      Bus->publish(
          HardwareEvent::traceMark(EventKind::TraceExit, CurTraceId, PC, Now));
    CurTraceId = ~0u;
    LastHeadValid = false;
  }
}

void TridentRuntime::handleProfilerCommit(const HardwareEvent &Ev) {
  if (Ev.Ctx != 0 || !Enabled)
    return;
  if (CC.contains(Ev.PC))
    return; // Trace-internal commits never train the profiler.
  if (std::optional<HotTraceCandidate> Cand = Profiler.onCommit(Ev.PC))
    raiseEvent(HardwareEvent::hotTrace(*Cand, Ev.Time));
}

void TridentRuntime::handleProfilerBranch(const HardwareEvent &Ev) {
  if (Ev.Ctx != 0 || !Enabled)
    return;
  if (CC.contains(Ev.PC))
    return; // Trace-internal control flow never trains the profiler.
  if (CC.contains(Ev.EA))
    return; // Entry jumps into the code cache are runtime glue.
  Profiler.onBranch(Ev.PC, Ev.Insn->isConditionalBranch(), Ev.Taken, Ev.EA);
}

void TridentRuntime::handleLoad(const HardwareEvent &Ev) {
  if (Ev.Ctx != 0 || Ev.Insn->Synthetic)
    return;
  const Addr PC = Ev.PC;
  const Addr EA = Ev.EA;
  const AccessResult &R = *Ev.Access;
  const Cycle Now = Ev.Time;

  bool InTrace = CC.contains(PC);
  bool Miss = R.Outcome != LoadOutcome::HitNone &&
              R.Outcome != LoadOutcome::HitPrefetched;
  Cycle BestCase = Now + Config.L1HitLatency;
  unsigned ExposedLatency =
      R.ReadyCycle > BestCase ? static_cast<unsigned>(R.ReadyCycle - BestCase)
                              : 0;

  // Figure 6 breakdown.
  ++Stats.LdTotal;
  switch (R.Outcome) {
  case LoadOutcome::HitNone:
    ++Stats.LdHitNone;
    break;
  case LoadOutcome::HitPrefetched:
    ++Stats.LdHitPrefetched;
    break;
  case LoadOutcome::PartialHit:
    ++Stats.LdPartial;
    break;
  case LoadOutcome::Miss:
    ++Stats.LdMiss;
    break;
  case LoadOutcome::MissDueToPrefetch:
    ++Stats.LdMissDueToPf;
    break;
  }

  // Figure 4 coverage (the total is the three miss outcomes above).
  if (Miss && InTrace) {
    ++Stats.LoadMissesInTraces;
    TraceMeta &M = Traces[CC.traceIdAt(PC)];
    auto It = M.LoadPCToBaseIdx.find(PC);
    if (It != M.LoadPCToBaseIdx.end() && M.Plan.groupCovering(It->second))
      ++Stats.LoadMissesCovered;
  }

  if (!Enabled || !InTrace || Config.Mode == PrefetchMode::None)
    return;

  // DLT monitoring of hot-trace loads.
  if (Dlt.update(PC, EA, Miss, ExposedLatency)) {
    uint32_t Tid = CC.traceIdAt(PC);
    WatchEntry *W = Watch.find(Tid);
    TRIDENT_DBG("[trident] event pc=0x%llx trace=%u optflag=%d\n",
                (unsigned long long)PC, Tid, W && W->OptInProgress);
    if (W && W->OptInProgress) {
      // Trace already being re-optimized; unfreeze and keep monitoring.
      Dlt.clearWindow(PC);
      return;
    }
    if (W)
      W->OptInProgress = true;
    raiseEvent(HardwareEvent::delinquentLoad(PC, Tid, Now));
  }
}

//===----------------------------------------------------------------------===//
// Event dispatch / helper-thread scheduling
//===----------------------------------------------------------------------===//

void TridentRuntime::raiseEvent(const HardwareEvent &E) {
  // Observability fan-out first: the bus sees every raised event, dropped
  // or not (the queue models the hardware buffer, the bus models wires).
  Bus->publish(E);
  if (!Queue.tryPush(E)) {
    if (E.Kind == EventKind::DelinquentLoad) {
      Dlt.clearWindow(E.PC);
      clearOptFlag(E.TraceId);
    }
    return;
  }
  dispatchNext();
}

void TridentRuntime::dispatchNext() {
  if (Queue.stalled())
    return; // fault-injected stall: events delay in place
  if (Core.stubActive(Config.HelperCtx))
    return;
  if (Pending.WorkKind != PendingWork::Kind::None)
    return; // zero-cost stub completed, but its work has not fired yet
  Registration.HelperActive = false;
  while (!Queue.empty()) {
    HardwareEvent E = Queue.pop();
    if (E.Kind == EventKind::HotTrace) {
      if (Watch.findByOrigStart(E.Cand.StartPC))
        continue; // Already traced.
      startHotTraceWork(E.Cand);
      return;
    }
    startDelinquentWork(E.PC, E.TraceId);
    return;
  }
}

void TridentRuntime::clearOptFlag(uint32_t TraceId) {
  if (WatchEntry *W = Watch.find(TraceId))
    W->OptInProgress = false;
}

void TridentRuntime::onStubDone(void *Self, Cycle) {
  static_cast<TridentRuntime *>(Self)->finishPendingWork();
}

void TridentRuntime::launchHelper(PendingWork W, uint64_t Work) {
  TRIDENT_DCHECK(Pending.WorkKind == PendingWork::Kind::None,
                 "helper work parked while another unit is in flight");
  Registration.HelperActive = true;
  ++Registration.Invocations;
  Pending = std::move(W);
  Core.startStub(Config.HelperCtx, Work, Config.Cost.StartupCycles,
                 {&TridentRuntime::onStubDone, this});
}

void TridentRuntime::finishPendingWork() {
  // Consume the slot before running the finisher: finishers call
  // dispatchNext, which may park the next unit of work in Pending.
  PendingWork W = std::move(Pending);
  Pending = PendingWork();
  switch (W.WorkKind) {
  case PendingWork::Kind::None:
    TRIDENT_UNREACHABLE("stub completed with no parked work");
    break;
  case PendingWork::Kind::Formation:
    finishTraceFormation(std::move(W.FormedTrace));
    break;
  case PendingWork::Kind::Insertion:
    finishInsertion(W.TraceId, std::move(W.Plan), std::move(W.Emission),
                    std::move(W.ClearPCs));
    break;
  case PendingWork::Kind::Repair:
    finishRepair(W.TraceId, W.BaseIdx, W.LoadPC);
    break;
  case PendingWork::Kind::Mature:
    finishMature(W.TraceId, W.LoadPC);
    break;
  }
  dispatchNext();
}

void TridentRuntime::startHotTraceWork(const HotTraceCandidate &Cand) {
  std::optional<Trace> T =
      Builder.build(Prog, Cand, static_cast<uint32_t>(Traces.size()));
  if (!T) {
    dispatchNext();
    return;
  }
  uint64_t Work = Config.Cost.traceFormation(static_cast<unsigned>(T->size()));
  launchHelper({.WorkKind = PendingWork::Kind::Formation,
                .FormedTrace = std::move(*T)},
               Work);
}

void TridentRuntime::finishTraceFormation(Trace T) {
  TraceMeta M;
  M.Id = T.Id;
  M.OrigStart = T.OrigStart;
  M.BaseBody = std::move(T.Body);
  TRIDENT_CHECK(M.Id == Traces.size(), "trace ids must be dense");
  Traces.push_back(std::move(M));
  TraceMeta &Meta = Traces.back();

  std::vector<unsigned> Identity(Meta.BaseBody.size());
  for (unsigned I = 0; I < Identity.size(); ++I)
    Identity[I] = I;
  installBody(Meta, Meta.BaseBody, Identity, {});
  ++Stats.TracesInstalled;
  // One formation per loop head; suppress further profiling either way
  // (in no-link mode this mirrors Trident marking the trace as formed).
  Profiler.suppress(Meta.OrigStart);
}

void TridentRuntime::installBody(TraceMeta &M,
                                 const std::vector<Instruction> &Body,
                                 const std::vector<unsigned> &OldToNew,
                                 const std::vector<unsigned> &PatchSlots) {
  bool Reinstall = M.CacheAddr != 0;
  M.CacheAddr = CC.install(Body, M.Id);
  M.Installs.emplace_back(M.CacheAddr, Body.size());

  // A looping trace closes on its own head: retarget the builder's
  // OrigStart-marked back edge (a branch or jump) into the code cache.
  // Bouncing through the original entry every iteration would cost two
  // extra jumps per loop. Targeting OrigStart and targeting the head are
  // semantically identical — OrigStart holds a jump to the head.
  auto retarget = [&](Addr Start, size_t Len, Addr OldHead) {
    for (size_t I = 0; I < Len; ++I) {
      Instruction &Ins = CC.at(Start + I);
      if (!Ins.isBranch())
        continue;
      Addr Tgt = static_cast<Addr>(Ins.Imm);
      if (Tgt == M.OrigStart || (OldHead != 0 && Tgt == OldHead))
        Ins.Imm = static_cast<int64_t>(M.CacheAddr);
    }
  };
  retarget(M.CacheAddr, Body.size(), /*OldHead=*/0);
  // Unlink older generations: their back edges trampoline to the new
  // head, so a thread spinning inside an old body migrates at its next
  // loop-back ("a thread's execution will then automatically start using
  // the new hot trace", Section 3.2).
  if (Reinstall)
    for (size_t R = 0; R + 1 < M.Installs.size(); ++R)
      retarget(M.Installs[R].first, M.Installs[R].second,
               /*OldHead=*/M.Installs[R].first);

  M.OldToNew = OldToNew;
  M.PrefetchSlotAddrs.assign(PatchSlots.size(), 0);
  for (size_t I = 0; I < PatchSlots.size(); ++I)
    M.PrefetchSlotAddrs[I] = M.CacheAddr + PatchSlots[I];
  for (unsigned BaseIdx = 0; BaseIdx < M.BaseBody.size(); ++BaseIdx)
    if (M.BaseBody[BaseIdx].isLoad())
      M.LoadPCToBaseIdx[M.CacheAddr + M.OldToNew[BaseIdx]] = BaseIdx;

  if (Config.LinkTraces) {
    Patcher.patchJump(M.OrigStart, M.CacheAddr);
    M.Linked = true;
  }

  if (Reinstall) {
    // Trident "removes the old hot trace from the hardware watch table"
    // and tracks the new one.
    if (WatchEntry *W = Watch.find(M.Id)) {
      W->TraceStart = M.CacheAddr;
      W->Length = static_cast<unsigned>(Body.size());
    }
    ++Stats.TraceReinstalls;
  } else {
    Watch.insert(M.Id, M.OrigStart, M.CacheAddr,
                 static_cast<unsigned>(Body.size()));
  }
}

unsigned TridentRuntime::invalidateAllTraces() {
  unsigned N = 0;
  for (TraceMeta &M : Traces) {
    if (M.Invalidated || M.CacheAddr == 0)
      continue;
    // Reverse the install-time retargeting: any back edge aimed at a
    // generation head goes back to the original loop head, so a thread
    // inside any dead body migrates to original code at its next
    // loop-back. Side exits already target original code and are left
    // alone — mid-iteration control flow is untouched, so semantics are
    // preserved.
    auto IsGenerationHead = [&M](Addr T) {
      for (const auto &[Start, Len] : M.Installs) {
        (void)Len;
        if (T == Start)
          return true;
      }
      return false;
    };
    for (const auto &[Start, Len] : M.Installs)
      for (size_t I = 0; I < Len; ++I) {
        Instruction &Ins = CC.at(Start + I);
        if (Ins.isBranch() && IsGenerationHead(static_cast<Addr>(Ins.Imm)))
          Ins.Imm = static_cast<int64_t>(M.OrigStart);
      }
    if (M.Linked) {
      Patcher.restore(M.OrigStart);
      M.Linked = false;
    }
    Watch.remove(M.Id);
    Profiler.unsuppress(M.OrigStart);
    M.Invalidated = true;
    ++N;
  }
  return N;
}

//===----------------------------------------------------------------------===//
// Delinquent-load optimization: insertion, repair, maturing
//===----------------------------------------------------------------------===//

int TridentRuntime::maxDistanceFor(const TraceMeta &M) const {
  const WatchEntry *W = Watch.find(M.Id);
  Cycle MinT = W && W->MinExecTime != ~static_cast<Cycle>(0)
                   ? std::max<Cycle>(W->MinExecTime, 1)
                   : 32;
  int Max = static_cast<int>(Config.MemoryLatency / MinT);
  return std::clamp(Max, 1, Config.DistanceCap);
}

int TridentRuntime::estimateDistance(const TraceMeta &M,
                                     Addr TriggerPC) const {
  // Equation 2: distance = avg load miss latency / cycles per iteration
  // (the basic, non-adaptive estimator). We divide by the watch table's
  // *minimal* execution time — the quantity the hardware actually tracks —
  // which usefully biases the distance upward: once prefetching starts
  // working, iterations approach the minimum, so an average-time estimate
  // systematically undershoots (the instability Section 3.5.1 describes).
  const WatchEntry *W = Watch.find(M.Id);
  double IterTime = 0.0;
  if (W && W->MinExecTime != ~static_cast<Cycle>(0))
    IterTime = static_cast<double>(W->MinExecTime);
  else if (W && W->hasTiming())
    IterTime = W->avgExecTime();
  double MissLat = 0.0;
  if (std::optional<DltSnapshot> S = Dlt.lookup(TriggerPC))
    MissLat = S->avgMissLatency();
  if (IterTime <= 0.0 || MissLat <= 0.0)
    return 1;
  int D = static_cast<int>(MissLat / IterTime + 0.5);
  return std::clamp(D, 1, Config.DistanceCap);
}

void TridentRuntime::startDelinquentWork(Addr LoadPC, uint32_t TraceId) {
  TRIDENT_CHECK(TraceId < Traces.size(), "event for unknown trace");
  TraceMeta &M = Traces[TraceId];

  auto It = M.LoadPCToBaseIdx.find(LoadPC);
  PrefetchGroup *G = It == M.LoadPCToBaseIdx.end()
                         ? nullptr
                         : M.Plan.groupCovering(It->second);

  if (G) {
    LoadRepairState *LS = G->stateFor(It->second);
    // A settled load only re-raises a DelinquentLoad event after its DLT
    // entry was lost (capacity or fault eviction) *and* it re-crossed the
    // delinquency threshold: the memory behaviour its distance settled
    // against is gone. Self-repair re-opens the load with a fresh budget;
    // the first re-opened load of a fully settled group also re-seeds the
    // shared distance so the hill climb restarts from the mode's seed
    // instead of a distance tuned for the old regime (Section 3.5.2).
    if (G->Repairable && LS && LS->Mature &&
        Config.Mode == PrefetchMode::SelfRepairing) {
      bool GroupSettled = true;
      for (const LoadRepairState &Other : G->PerLoad)
        if (!Other.Mature)
          GroupSettled = false;
      if (GroupSettled)
        G->Distance = Config.SelfRepairInitialEstimate
                          ? estimateDistance(M, LoadPC)
                          : 1;
      LS->Mature = false;
      LS->RepairsLeft = 2 * G->MaxDistance;
      LS->LastAvgAccessLatency = -1.0;
      LS->BestAvgAccessLatency = -1.0;
      LS->BestDistance = G->Distance;
      LS->LastMove = +1;
      ++Stats.RepairsReopened;
      TRIDENT_DBG("[trident] reopen trace=%u load=0x%llx dist=%d "
                  "(budget %d)\n",
                  TraceId, (unsigned long long)LoadPC, G->Distance,
                  LS->RepairsLeft);
    }
    bool CanRepair = G->Repairable && LS && !LS->Mature &&
                     Config.Mode == PrefetchMode::SelfRepairing;
    if (CanRepair) {
      unsigned N = static_cast<unsigned>(G->CoveredLoadIdxs.size());
      launchHelper({.WorkKind = PendingWork::Kind::Repair,
                    .TraceId = TraceId,
                    .BaseIdx = It->second,
                    .LoadPC = LoadPC},
                   Config.Cost.repair(N));
      return;
    }
    // Covered but not repairable (pointer-only group, or a fixed-distance
    // mode): mark mature so it stops raising events (Section 3.5.2).
    launchHelper({.WorkKind = PendingWork::Kind::Mature,
                  .TraceId = TraceId,
                  .LoadPC = LoadPC},
                 Config.Cost.repair(1));
    return;
  }

  // Not covered yet: plan prefetches for every delinquent load in the
  // trace and regenerate the trace body.
  beginInsertion(M, LoadPC);
}

void TridentRuntime::beginInsertion(TraceMeta &M, Addr TriggerPC) {
  // Map base-body indices to the PCs they are currently installed at.
  std::vector<Addr> InstalledPCs(M.BaseBody.size(), 0);
  for (unsigned I = 0; I < M.BaseBody.size(); ++I)
    InstalledPCs[I] = M.CacheAddr + M.OldToNew[I];

  std::vector<DelinquentLoad> Loads =
      Planner.identifyDelinquentLoads(M.BaseBody, InstalledPCs, Dlt);
  if (debugEnabled())
    for (const DelinquentLoad &DL : Loads)
      TRIDENT_DBG("[trident]   delinquent idx=%u pc=0x%llx class=%d "
                  "stride=%lld dlt=%d off=%lld avgmiss=%.0f\n",
                  DL.BodyIdx, (unsigned long long)DL.PC, int(DL.Class),
                  (long long)DL.Stride, DL.StrideFromDlt,
                  (long long)DL.Offset, DL.AvgMissLatency);

  // Seed distance by mode (Section 3.5.1: adaptive starts at 1, unless
  // the Section 5.3 "alternate strategy" ablation is enabled).
  int InitialDistance =
      Config.Mode == PrefetchMode::SelfRepairing &&
              !Config.SelfRepairInitialEstimate
          ? 1
          : estimateDistance(M, TriggerPC);

  TRIDENT_DBG("[trident] plan trace=%u trigger=0x%llx initial distance=%d "
              "(mode %s)\n",
              M.Id, (unsigned long long)TriggerPC, InitialDistance,
              prefetchModeName(Config.Mode));
  PrefetchPlan NewPlan = M.Plan;
  size_t PrevGroups = NewPlan.Groups.size();
  size_t PrevUncoverable = NewPlan.UncoverableLoadIdxs.size();
  unsigned Covered = Planner.plan(M.BaseBody, Loads, NewPlan,
                                  InitialDistance);

  // Initialize repair budgets: "when a load is first optimized, we set a
  // repair counter for the load to [twice the maximal distance]".
  int MaxD = maxDistanceFor(M);
  for (size_t GI = PrevGroups; GI < NewPlan.Groups.size(); ++GI) {
    PrefetchGroup &G = NewPlan.Groups[GI];
    G.MaxDistance = MaxD;
    for (LoadRepairState &LS : G.PerLoad)
      LS.RepairsLeft = 2 * MaxD;
  }

  std::vector<Addr> ClearPCs;
  for (const DelinquentLoad &DL : Loads)
    ClearPCs.push_back(DL.PC);
  ClearPCs.push_back(TriggerPC);

  if (Covered == 0 && NewPlan.UncoverableLoadIdxs.size() == PrevUncoverable) {
    // Nothing new to do (e.g. the trigger load's window cleared between
    // event and dispatch): mature the trigger so it stops firing.
    launchHelper({.WorkKind = PendingWork::Kind::Mature,
                  .TraceId = M.Id,
                  .LoadPC = TriggerPC},
                 Config.Cost.repair(1));
    return;
  }

  PlanEmission Emission = Planner.emit(M.BaseBody, NewPlan);
  uint64_t Work = Config.Cost.prefetchInsertion(
      static_cast<unsigned>(M.BaseBody.size()),
      static_cast<unsigned>(Loads.size()));
  launchHelper({.WorkKind = PendingWork::Kind::Insertion,
                .Plan = std::move(NewPlan),
                .Emission = std::move(Emission),
                .ClearPCs = std::move(ClearPCs),
                .TraceId = M.Id},
               Work);
}

void TridentRuntime::finishInsertion(uint32_t TraceId, PrefetchPlan NewPlan,
                                     PlanEmission Emission,
                                     std::vector<Addr> ClearPCs) {
  TraceMeta &M = Traces[TraceId];
  M.Plan = std::move(NewPlan);
  Stats.PrefetchInstructionsPlanned = 0;
  for (const TraceMeta &T : Traces)
    Stats.PrefetchInstructionsPlanned += T.Plan.Prefetches.size();

  installBody(M, Emission.NewBody, Emission.OldToNew, Emission.PatchSlots);
  ++Stats.InsertionOptimizations;
  TRIDENT_DBG("[trident] insert trace=%u: %zu groups, %zu prefetches, %zu "
              "uncoverable; body %zu -> %zu @0x%llx\n",
              TraceId, M.Plan.Groups.size(), M.Plan.Prefetches.size(),
              M.Plan.UncoverableLoadIdxs.size(), M.BaseBody.size(),
              Emission.NewBody.size(), (unsigned long long)M.CacheAddr);

  // Mature the loads the planner could not cover, at their new addresses.
  for (unsigned BaseIdx : M.Plan.UncoverableLoadIdxs) {
    Dlt.forceMature(M.CacheAddr + M.OldToNew[BaseIdx]);
    ++Stats.LoadsMatured;
  }
  // The helper thread clears the processed loads' window counters.
  for (Addr PC : ClearPCs)
    Dlt.clearWindow(PC);

  clearOptFlag(TraceId);
}

void TridentRuntime::finishRepair(uint32_t TraceId, unsigned BaseIdx,
                                  Addr LoadPC) {
  TraceMeta &M = Traces[TraceId];
  PrefetchGroup *G = M.Plan.groupCovering(BaseIdx);
  LoadRepairState *LS = G ? G->stateFor(BaseIdx) : nullptr;
  if (!G || !LS || LS->Mature) {
    Dlt.clearWindow(LoadPC);
    clearOptFlag(TraceId);
    return;
  }

  // Re-calculate the maximal prefetch distance from the trace's minimal
  // execution time (Section 3.5.2).
  G->MaxDistance = maxDistanceFor(M);

  // Hill climb on the *triggering load's* average access latency: keep
  // moving the distance in the direction that has been improving it;
  // reverse when the latency clearly starts to increase (Section 3.5.2).
  // The latency history is per load, not per group.
  double CurAvg = 0.0;
  if (std::optional<DltSnapshot> S = Dlt.lookup(LoadPC))
    CurAvg = S->avgAccessLatency();
  int OldDistance = G->Distance;

  // A downward latency regime shift: the observation collapsed to under a
  // quarter of the previous one (with an absolute floor so cache-hit-level
  // noise cannot trigger it). The climb is deliberately biased upward, so
  // without this it can never descend from a distance tuned for a regime
  // that no longer exists; restart from the mode's seed with a fresh
  // budget instead. Only the downward direction restarts: an upward jump
  // needs a *larger* distance, which the ordinary +1 climb already
  // delivers from the current operating point — and one successful climb
  // step can itself halve the observation, so a looser threshold would
  // read the climb's own progress as a shift.
  if (LS->LastAvgAccessLatency >= 0.0 && CurAvg > 0.0 &&
      (CurAvg + 25.0) * 4.0 < LS->LastAvgAccessLatency) {
    ++Stats.RegimeShiftsDetected;
    setDistance(M, *G,
                Config.SelfRepairInitialEstimate ? estimateDistance(M, LoadPC)
                                                 : 1);
    LS->RepairsLeft = std::max(LS->RepairsLeft, 2 * G->MaxDistance);
    LS->LastAvgAccessLatency = -1.0;
    LS->BestAvgAccessLatency = -1.0;
    LS->BestDistance = G->Distance;
    LS->LastMove = +1;
    ++Stats.RepairOptimizations;
    Stats.LastRepairDistance = G->Distance;
    TRIDENT_DBG("[trident] regime shift trace=%u load=0x%llx avg=%.1f "
                "dist %d -> %d\n",
                TraceId, (unsigned long long)LoadPC, CurAvg, OldDistance,
                G->Distance);
    Dlt.clearWindow(LoadPC);
    clearOptFlag(TraceId);
    return;
  }

  // CurAvg was observed while running at the current distance.
  if (LS->BestAvgAccessLatency < 0.0 || CurAvg < LS->BestAvgAccessLatency) {
    LS->BestAvgAccessLatency = CurAvg;
    LS->BestDistance = G->Distance;
  }

  // Per the paper the distance is biased upward ("increases the load's
  // prefetch distance by 1 up to its maximal distance") and backs off when
  // the latency is observed to increase. To stay stable on noisy plateaus:
  // a decrement is only *repeated* while it clearly keeps helping;
  // otherwise the bias returns to +1.
  bool HaveHistory = LS->LastAvgAccessLatency >= 0.0;
  bool ClearlyWorse =
      HaveHistory && CurAvg > LS->LastAvgAccessLatency * 1.05 + 1.0;
  bool ClearlyBetter =
      HaveHistory && CurAvg < LS->LastAvgAccessLatency * 0.95 - 1.0;
  int Move = LS->LastMove < 0 ? (ClearlyBetter ? -1 : +1)
                              : (ClearlyWorse ? -1 : +1);
  setDistance(M, *G, std::clamp(G->Distance + Move, 1, G->MaxDistance));
  LS->LastMove = Move;
  LS->LastAvgAccessLatency = CurAvg;
  ++Stats.RepairOptimizations;
  Stats.LastRepairDistance = G->Distance;
  TRIDENT_DBG("[trident] repair trace=%u load=0x%llx avg=%.1f dist %d -> %d "
              "(max %d, repairs left %d)\n",
              TraceId, (unsigned long long)LoadPC, CurAvg, OldDistance,
              G->Distance, G->MaxDistance, LS->RepairsLeft - 1);

  if (--LS->RepairsLeft <= 0) {
    // Budget spent: settle on the best distance this load observed, then
    // stop raising events for it.
    LS->Mature = true;
    if (LS->BestDistance != G->Distance)
      setDistance(M, *G, LS->BestDistance);
    Dlt.forceMature(LoadPC);
    ++Stats.LoadsMatured;
    TRIDENT_DBG("[trident] matured load=0x%llx (budget spent; settled at "
                "distance %d)\n",
                (unsigned long long)LoadPC, G->Distance);
  }

  Dlt.clearWindow(LoadPC);
  clearOptFlag(TraceId);
}

void TridentRuntime::setDistance(TraceMeta &M, PrefetchGroup &G, int D) {
  G.Distance = D;
  for (size_t PI : G.PrefetchIdxs)
    if (Addr Slot = M.PrefetchSlotAddrs[PI])
      CC.at(Slot).Imm = PrefetchPlanner::immediateFor(M.Plan.Prefetches[PI], D);
}

void TridentRuntime::finishMature(uint32_t TraceId, Addr LoadPC) {
  TRIDENT_DBG("[trident] mature trace=%u load=0x%llx (not repairable)\n",
              TraceId, (unsigned long long)LoadPC);
  Dlt.forceMature(LoadPC);
  // Keep the plan's view consistent so repeated events stay cheap.
  TraceMeta &M = Traces[TraceId];
  auto It = M.LoadPCToBaseIdx.find(LoadPC);
  if (It != M.LoadPCToBaseIdx.end())
    if (PrefetchGroup *G = M.Plan.groupCovering(It->second))
      if (LoadRepairState *LS = G->stateFor(It->second))
        LS->Mature = true;
  ++Stats.LoadsMatured;
  clearOptFlag(TraceId);
}
