//===- PhaseMonitor.cpp ---------------------------------------------------===//
//
// Part of the Trident-SRP reproduction (CGO 2006).
//
//===----------------------------------------------------------------------===//

#include "control/PhaseMonitor.h"

#include "support/Check.h"

using namespace trident;

namespace {

/// Arm index of \p Spec's base name in \p Arms, or kNoArm.
unsigned armOf(const std::vector<std::string> &Arms, const std::string &Spec) {
  const std::string Name = Spec.substr(0, Spec.find(':'));
  for (unsigned A = 0; A < Arms.size(); ++A)
    if (Arms[A] == Name)
      return A;
  return SelectorDecisionRecord::kNoArm;
}

} // namespace

PhaseMonitor::PhaseMonitor(const SelectorConfig &C, MemorySystem &M,
                           const PrefetcherEnv &E,
                           const std::string &InitialSpec)
    : Cfg(C), Mem(M), Env(E),
      Arms(PrefetcherRegistry::instance().names()) {
  TRIDENT_CHECK(Cfg.enabled(), "PhaseMonitor built for the static policy");
  TRIDENT_CHECK(!Arms.empty(), "selector needs a nonempty arsenal");
  CurrentArm = armOf(Arms, InitialSpec);
  Stats.FinalArm = CurrentArm;
  const unsigned OracleArm = armOf(Arms, Cfg.OracleUnit);
  Policy = PrefetcherSelector::create(
      Cfg, static_cast<unsigned>(Arms.size()), OracleArm);
}

void PhaseMonitor::attach(EventBus &B) {
  Bus = &B;
  B.subscribe(this, eventMaskOf(EventKind::HwPfFeedback));
}

void PhaseMonitor::onEvent(const HardwareEvent &E) {
  TRIDENT_DCHECK(E.Kind == EventKind::HwPfFeedback,
                 "PhaseMonitor subscribed to an unexpected kind");
  ++Stats.Samples;
  if (++SamplesInEpoch >= Cfg.SamplesPerEpoch) {
    SamplesInEpoch = 0;
    closeEpoch(E.Time);
  }
}

void PhaseMonitor::closeEpoch(Cycle Now) {
  const MemStats &MS = Mem.stats();
  const HwPfFeedback &Fb = Mem.feedback();
  // All counters are monotone within a window and the baselines re-zero
  // with them at the boundary, so the deltas can never underflow.
  TRIDENT_DCHECK(MS.DemandLoads >= BaseDemandLoads &&
                     MS.TotalExposedLatency >= BaseExposed,
                 "epoch baselines are ahead of the memory system (missing "
                 "onMeasurementStart after clearStats?)");
  const uint64_t Loads = MS.DemandLoads - BaseDemandLoads;
  const uint64_t Exposed = MS.TotalExposedLatency - BaseExposed;
  HwPfFeedback Delta;
  Delta.Issued = Fb.Issued - BaseIssued;
  Delta.Useful = Fb.Useful - BaseUseful;
  Delta.Late = Fb.Late - BaseLate;
  Delta.DemandMisses = Fb.DemandMisses - BaseDemandMisses;

  PhaseSignature Sig;
  Sig.Epoch = EpochIndex;
  Sig.DemandLoads = Loads;
  Sig.DemandMisses = Delta.DemandMisses;
  Sig.Accuracy = Delta.accuracy();
  Sig.Coverage = Delta.coverage();
  Sig.MissRate = Loads == 0 ? 0.0
                            : static_cast<double>(Delta.DemandMisses) /
                                  static_cast<double>(Loads);
  Sig.ExposedPerLoad = Loads == 0 ? 0.0
                                  : static_cast<double>(Exposed) /
                                        static_cast<double>(Loads);

  BaseDemandLoads = MS.DemandLoads;
  BaseExposed = MS.TotalExposedLatency;
  BaseIssued = Fb.Issued;
  BaseUseful = Fb.Useful;
  BaseLate = Fb.Late;
  BaseDemandMisses = Fb.DemandMisses;

  const unsigned Next = Policy->decide(Sig, CurrentArm);
  TRIDENT_CHECK(Next < Arms.size(), "selector chose arm %u of %zu", Next,
                Arms.size());
  ++Stats.Epochs;
  if (Next != CurrentArm) {
    std::string Err;
    std::unique_ptr<HwPrefetcher> Unit =
        PrefetcherRegistry::instance().create(Arms[Next], Env, &Err);
    TRIDENT_CHECK(Unit != nullptr, "selector failed to build unit '%s': %s",
                  Arms[Next].c_str(), Err.c_str());
    Mem.attachPrefetcher(std::move(Unit));
    ++Stats.Swaps;
  }

  SelectorDecisionRecord D;
  D.Epoch = EpochIndex > UINT32_MAX ? UINT32_MAX
                                    : static_cast<uint32_t>(EpochIndex);
  D.ChosenArm = static_cast<uint16_t>(Next);
  D.PrevArm = static_cast<uint16_t>(CurrentArm);
  Trace.push_back(D);
  CurrentArm = Next;
  ++EpochIndex;
  Stats.FinalArm = CurrentArm;
  Stats.Explorations = Policy->explorations() - ExplorationBase;
  // Published after the machine state is consistent: subscribers (the
  // tracer, fault injectors) see the post-swap world. publish() is
  // reentrant by contract, so publishing from inside the HwPfFeedback
  // dispatch is legal.
  if (Bus)
    Bus->publish(HardwareEvent::selectorDecision(D, Now));
}

void PhaseMonitor::onMeasurementStart() {
  BaseDemandLoads = 0;
  BaseExposed = 0;
  BaseIssued = 0;
  BaseUseful = 0;
  BaseLate = 0;
  BaseDemandMisses = 0;
  SamplesInEpoch = 0;
  EpochIndex = 0;
  ExplorationBase = Policy->explorations();
  Stats = SelectorStats();
  Stats.FinalArm = CurrentArm;
  Trace.clear();
}

std::string PhaseMonitor::currentUnitName() const {
  return CurrentArm < Arms.size() ? Arms[CurrentArm] : std::string();
}
