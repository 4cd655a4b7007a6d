//===- Simulation.cpp -----------------------------------------------------===//
//
// Part of the Trident-SRP reproduction (CGO 2006).
//
//===----------------------------------------------------------------------===//

#include "sim/Simulation.h"

#include "sim/Machine.h"
#include "support/Check.h"
#include "workloads/fuzz/FuzzGenerator.h"

using namespace trident;

std::string trident::hwPfConfigName(const std::string &Spec) {
  return PrefetcherRegistry::isNone(Spec) ? std::string("no-hwpf") : Spec;
}

SimConfig SimConfig::hwBaseline() {
  SimConfig C;
  C.HwPf = "sb8x8";
  C.EnableTrident = false;
  return C;
}

SimConfig SimConfig::withMode(PrefetchMode Mode) {
  SimConfig C = hwBaseline();
  C.EnableTrident = true;
  C.Runtime.Mode = Mode;
  return C;
}

Lane::Lane(const Workload &W, const CoreConfig &Cfg, MemorySystem &Mem)
    : Name(W.Name), ProgramHash(W.ProgramHash), Prog(W.Prog), Image(Prog, CC),
      Core(Cfg, Image, Data, Mem) {
  W.Init(Data);
  Core.setBranchPredictor(&Predictor);
  Core.startContext(0, Prog.entryPC());
}

Machine::Machine(const Workload &W, const SimConfig &Cfg, EventTracer *Tracer)
    : Config(Cfg), Mem(Config.Mem) {
  TRIDENT_CHECK(Config.MixWith.size() <= 3,
                "a mix supports at most 3 co-runners, got %zu",
                Config.MixWith.size());
  TRIDENT_CHECK(Config.MixQuantumCycles > 0, "mix quantum must be positive");
  TRIDENT_CHECK(Config.Core.MemBias == 0,
                "memory bias is assigned per lane; configure co-runners via "
                "MixWith");

  // Resolve the prefetcher spec through the arsenal registry; the TLB
  // model (when on) makes page-bounded units stop streams at pages. The
  // phase monitor keeps its own copy of the env to rebuild units at every
  // swap.
  PrefetcherEnv Env;
  Env.PageBounded = Config.Mem.Tlb.Enable;
  Env.PageBits = Config.Mem.Tlb.PageBits;
  std::string PfError;
  std::unique_ptr<HwPrefetcher> Unit =
      PrefetcherRegistry::instance().create(Config.HwPf, Env, &PfError);
  TRIDENT_CHECK(Unit || PrefetcherRegistry::isNone(Config.HwPf),
                "bad --hwpf spec '%s': %s", Config.HwPf.c_str(),
                PfError.c_str());
  if (Unit)
    Mem.attachPrefetcher(std::move(Unit));

  // An enabled selector needs the feedback heartbeat. Co-runners get it
  // too, harmlessly: without an event bus a core never samples feedback.
  uint64_t &Heartbeat = Config.Core.HwPfFeedbackIntervalCommits;
  if (Config.Selector.enabled() && Heartbeat == 0)
    Heartbeat = Config.Selector.IntervalCommits;

  // Lane I's bias keeps its cache/MSHR/prefetcher footprint disjoint from
  // every other lane's in tag space while contending for the same
  // capacity and bandwidth. Bit 44 leaves the full 16 TiB workload
  // address range below untouched.
  Lanes.push_back(std::make_unique<Lane>(W, Config.Core, Mem));
  for (size_t I = 1; I <= Config.MixWith.size(); ++I) {
    CoreConfig LaneCfg = Config.Core;
    LaneCfg.MemBias = static_cast<Addr>(I) << 44;
    Lanes.push_back(std::make_unique<Lane>(makeWorkload(Config.MixWith[I - 1]),
                                           LaneCfg, Mem));
  }

  // The event bus carries the primary's commit/load/branch stream; the
  // co-runners publish nothing. Subscription order is load-bearing, and
  // this is its one home:
  //  1. the Trident runtime, one subscriber whose fixed order inside a
  //     commit (watch table, then profiler) lives in its onEvent;
  //  2. the selector's phase monitor — it never reads the runtime's kinds,
  //     but one fixed order is cheap insurance;
  //  3. the fault injector, which perturbs state between events, never
  //     inside the monitors' view of one, so a fault landing on a
  //     decision cycle perturbs the post-decision machine;
  //  4. the tracer, a passive flight recorder: subscribed last, it sees
  //     each event after every component that reacts to it, and records
  //     events in arrival order.
  // Each optional component is constructed only when its feature is on,
  // so a run without it builds exactly the machine that predates it.
  Lane &Primary = *Lanes.front();
  Primary.Core.setEventBus(&Bus);
  if (Config.EnableTrident) {
    RuntimeConfig RC = Config.Runtime;
    RC.MemoryLatency = Config.Mem.MemoryLatency;
    RC.L1HitLatency = Config.Mem.L1.HitLatency;
    Runtime = std::make_unique<TridentRuntime>(RC, Primary.Prog, Primary.Core,
                                               Primary.CC);
    Runtime->attach(Bus);
  }
  if (Config.Selector.enabled()) {
    Monitor = std::make_unique<PhaseMonitor>(Config.Selector, Mem, Env,
                                             Config.HwPf);
    Monitor->attach(Bus);
  }
  if (!Config.Faults.empty()) {
    FaultTargets Targets;
    Targets.Mem = &Mem;
    Targets.Runtime = Runtime.get();
    Injector = std::make_unique<FaultInjector>(Config.Faults, Targets);
    Injector->attach(Bus);
  }
  if (Tracer)
    Bus.subscribe(Tracer, Tracer->mask());
}

namespace {
/// Co-runner commit target per round: effectively unbounded (the cycle
/// boundary always stops the lane first) but small enough that
/// SmtCore::run's goal arithmetic (committed + target) cannot wrap.
constexpr uint64_t kUnboundedCommits = uint64_t(1) << 62;
} // namespace

SmtCore::StopReason Machine::runUntil(uint64_t CommitGoal) {
  SmtCore &Core = primary();
  while (true) {
    Boundary += Config.MixQuantumCycles;
    SmtCore::StopReason R = SmtCore::StopReason::CommitTarget;
    uint64_t Done = Core.stats(0).CommittedOriginal;
    if (Done < CommitGoal)
      R = Core.run(CommitGoal - Done, Boundary);
    for (size_t I = 1; I < Lanes.size(); ++I) {
      SmtCore &Co = Lanes[I]->Core;
      if (!Co.halted(0) && Co.now() < Boundary)
        Co.run(kUnboundedCommits, Boundary);
    }
    if (R != SmtCore::StopReason::CycleLimit)
      return R;
  }
}

void Machine::startMeasurement() {
  if (Runtime) {
    Runtime->setEnabled(true);
    Runtime->clearStats();
  }
  for (std::unique_ptr<Lane> &L : Lanes) {
    L->Core.clearStats();
    L->MeasureStart = L->Core.now();
  }
  Mem.clearStats();
  Bus.clearCounts();
  // After Mem.clearStats(): the monitor's delta baselines re-zero with
  // the counters they shadow (the policy keeps its warmup learning).
  if (Monitor)
    Monitor->onMeasurementStart();
}

namespace {

/// Reads the finished machine back into a SimResult and snapshots it into
/// the named-statistics registry. Every only-when-on export contract
/// lives here: faults.* only when something fired, selector.* only when
/// the control plane was built, mix.* only when co-runners exist,
/// conditional event kinds only when published.
SimResult assembleResult(Machine &M, SmtCore::StopReason Stop) {
  const SimConfig &Config = M.Config;
  const Lane &Primary = *M.Lanes.front();
  const SmtCore &Core = Primary.Core;
  MemorySystem &Mem = M.Mem;

  SimResult Res;
  Res.Workload = Primary.Name;
  Res.ConfigName = Config.EnableTrident
                       ? std::string("trident-") +
                             prefetchModeName(Config.Runtime.Mode)
                       : hwPfConfigName(Config.HwPf);
  if (Config.Selector.enabled())
    Res.ConfigName += "+" + Config.Selector.shortName();
  if (!Config.MixWith.empty()) {
    Res.ConfigName += "+mix(";
    for (size_t I = 0; I < Config.MixWith.size(); ++I) {
      if (I > 0)
        Res.ConfigName += "+";
      Res.ConfigName += Config.MixWith[I];
    }
    Res.ConfigName += ")";
  }
  Res.Instructions = Primary.instructions();
  TRIDENT_CHECK(Stop != SmtCore::StopReason::CommitTarget ||
                    Res.Instructions >= Config.SimInstructions,
                "run stopped at the commit target with only %llu of %llu "
                "instructions committed",
                (unsigned long long)Res.Instructions,
                (unsigned long long)Config.SimInstructions);
  // The measurement window runs strictly forward from the warmed-up state
  // (cycle-counter monotonicity across the warmup/measure boundary).
  TRIDENT_CHECK(Core.now() >= Primary.MeasureStart,
                "measurement window ran backwards: start %llu, end %llu",
                (unsigned long long)Primary.MeasureStart,
                (unsigned long long)Core.now());
  Res.Cycles = Primary.cycles();
  Res.Ipc = Res.Cycles == 0
                ? 0.0
                : static_cast<double>(Res.Instructions) /
                      static_cast<double>(Res.Cycles);
  Res.Mem = Mem.stats();
  if (M.Runtime) {
    Res.Runtime = M.Runtime->stats();
    Res.Dlt = M.Runtime->dlt().stats();
  }
  if (const HwPrefetcher *Pf = Mem.prefetcher())
    Res.HwPf = Pf->snapshotStats();
  Res.PfFeedback = Mem.feedback();
  if (const Tlb *T = Mem.dtlb())
    Res.Tlb = T->stats();
  Res.HelperBusyCycles = Core.helperBusyCycles();
  Res.BranchMispredicts = Core.stats(0).BranchMispredicts;
  if (M.Injector)
    Res.Faults = M.Injector->stats();
  if (M.Monitor) {
    Res.Selector = M.Monitor->stats();
    Res.SelectorTrace = M.Monitor->trace();
    Res.SelectorFinalUnit = M.Monitor->currentUnitName();
  }
  for (size_t I = 1; I < M.Lanes.size(); ++I) {
    SimResult::MixLane L;
    L.Workload = M.Lanes[I]->Name;
    L.Instructions = M.Lanes[I]->instructions();
    L.Cycles = M.Lanes[I]->cycles();
    Res.MixLanes.push_back(std::move(L));
  }
  Res.Halted = Stop == SmtCore::StopReason::Halted;
  uint64_t H = 1469598103934665603ull;
  for (unsigned R = 0; R < reg::NumRegs; ++R) {
    // Exclude optimizer scratch registers: they are runtime-owned.
    if (R >= reg::FirstScratch)
      continue;
    H = (H ^ Core.getReg(0, R)) * 1099511628211ull;
  }
  Res.RegChecksum = H;
  Res.EventsPublished = M.Bus.publishedCounts();

  // Snapshot the whole machine into the named-statistics registry.
  auto Reg = std::make_shared<StatRegistry>();
  Reg->setCounter("core.instructions", Res.Instructions);
  Reg->setCounter("core.cycles", Res.Cycles);
  Reg->setReal("core.ipc", Res.Ipc);
  Reg->setCounter("core.helper_busy_cycles", Res.HelperBusyCycles);
  Reg->setCounter("core.halted", Res.Halted ? 1 : 0);
  for (unsigned I = 0; I < Config.Core.NumContexts; ++I)
    Core.stats(I).registerInto(*Reg, "cpu.ctx" + std::to_string(I) + ".");
  Res.Mem.registerInto(*Reg, "mem.");
  Res.Tlb.registerInto(*Reg, "tlb.");
  Res.HwPf.registerInto(*Reg, "hwpf.");
  // The feedback block is opt-in (the sampling knob): the default export
  // set — and therefore the golden corpus — is untouched unless a config
  // explicitly turns the channel on.
  if (Config.Core.HwPfFeedbackIntervalCommits > 0 && Mem.prefetcher()) {
    Reg->setCounter("hwpf.feedback.issued", Res.PfFeedback.Issued);
    Reg->setCounter("hwpf.feedback.useful", Res.PfFeedback.Useful);
    Reg->setCounter("hwpf.feedback.late", Res.PfFeedback.Late);
    Reg->setCounter("hwpf.feedback.demand_misses",
                    Res.PfFeedback.DemandMisses);
    Reg->setReal("hwpf.feedback.accuracy", Res.PfFeedback.accuracy());
    Reg->setReal("hwpf.feedback.coverage", Res.PfFeedback.coverage());
  }
  for (unsigned K = 0; K < kNumEventKinds; ++K) {
    // Kinds newer than the original eight export conditionally, so runs
    // that never publish them stay byte-identical to the golden corpus.
    if (K >= kNumCoreEventKinds && Res.EventsPublished[K] == 0)
      continue;
    Reg->setCounter(std::string("events.published.") +
                        eventKindName(static_cast<EventKind>(K)),
                    Res.EventsPublished[K]);
  }
  if (M.Runtime) {
    Res.Runtime.registerInto(*Reg, "trident.");
    Res.Dlt.registerInto(*Reg, "dlt.");
    const EventQueue &Q = M.Runtime->eventQueue();
    Reg->setCounter("trident.event_queue.capacity", Q.capacity());
    Reg->setCounter("trident.event_queue.dropped", Q.dropped());
    Reg->setCounter("trident.event_queue.peak_occupancy", Q.peakOccupancy());
    Reg->setHistogram("trident.event_queue.occupancy", Q.occupancyHistogram());
  }
  // "faults." lines appear only when something actually fired: a plan
  // that never triggers exports byte-identically to a fault-free run
  // (the disabled-injector identity contract).
  if (M.Injector && Res.Faults.Injected > 0)
    Res.Faults.registerInto(*Reg, "faults.");
  // "selector." lines appear only when the control plane was built, the
  // same only-when-on pattern: static runs export byte-identically to a
  // pre-control-plane build.
  if (M.Monitor)
    Res.Selector.registerInto(*Reg, "selector.");
  // Fuzzed scenarios export their generator hash so golden corpora and
  // cross-run identity checks pin the exact program, not just its stats.
  // Named (non-fuzz) workloads export nothing new, keeping the legacy
  // golden corpus byte-identical.
  if (isFuzzSpec(Primary.Name))
    Reg->setCounter("workload.program_hash", Primary.ProgramHash);
  if (!Res.MixLanes.empty()) {
    Reg->setCounter("mix.lanes", M.Lanes.size());
    Reg->setCounter("mix.quantum_cycles", Config.MixQuantumCycles);
    for (size_t I = 0; I < Res.MixLanes.size(); ++I) {
      const std::string P = "mix.lane" + std::to_string(I + 1) + ".";
      Reg->setCounter(P + "instructions", Res.MixLanes[I].Instructions);
      Reg->setCounter(P + "cycles", Res.MixLanes[I].Cycles);
      Reg->setCounter(P + "halted", M.Lanes[I + 1]->Core.halted(0) ? 1 : 0);
    }
  }
  Res.Registry = std::move(Reg);
  return Res;
}

} // namespace

SimResult trident::runSimulation(const Workload &W, const SimConfig &Config,
                                 EventTracer *Tracer) {
  Machine M(W, Config, Tracer);
  // Warmup: caches and predictors train; dynamic optimization disabled
  // (Section 4.2). Co-runners warm the shared caches' pressure too.
  if (Config.WarmupInstructions > 0)
    M.runUntil(Config.WarmupInstructions);
  M.startMeasurement();
  SmtCore::StopReason Stop = M.runUntil(Config.SimInstructions);
  return assembleResult(M, Stop);
}
