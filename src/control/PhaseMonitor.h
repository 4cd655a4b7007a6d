//===- PhaseMonitor.h - Epoch clock + prefetcher swap actuator -*- C++ -*-===//
//
// Part of the Trident-SRP reproduction (CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The sensing/actuating half of the control plane. The monitor rides the
/// event bus as a HwPfFeedback subscriber: every configured number of
/// feedback samples closes an *epoch*, at which point it folds the memory
/// system's referee counters (accuracy, coverage, miss rate, exposed
/// latency per load — all as deltas against one MemStats snapshot taken
/// at the previous boundary) into a PhaseSignature, asks the
/// PrefetcherSelector policy for the next arm, and — when the decision
/// changes — swaps the arsenal unit in place via
/// MemorySystem::attachPrefetcher. Each decision is published as a
/// SelectorDecision event and appended to the decision trace, the
/// determinism artifact the tests compare byte-for-byte across serial and
/// parallel runs.
///
/// The monitor is active during warmup so the bandit warm-starts; at the
/// measurement-window boundary the sim layer calls onMeasurementStart()
/// (right after MemorySystem::clearStats()) to re-zero the delta
/// baseline and the windowed stats/trace while the policy keeps its
/// learned state — mirroring how warmup trains caches and predictors.
///
//===----------------------------------------------------------------------===//

#ifndef TRIDENT_CONTROL_PHASEMONITOR_H
#define TRIDENT_CONTROL_PHASEMONITOR_H

#include "control/PrefetcherSelector.h"
#include "events/EventBus.h"
#include "hwpf/PrefetcherRegistry.h"
#include "mem/MemorySystem.h"

#include <string>
#include <vector>

namespace trident {

class PhaseMonitor final : public EventSubscriber {
public:
  /// \p InitialSpec is the run's --hwpf spec; when its unit is an arsenal
  /// member the monitor starts crediting it, otherwise the first epoch
  /// starts from "no arm" and the first decision swaps a unit in.
  PhaseMonitor(const SelectorConfig &C, MemorySystem &M,
               const PrefetcherEnv &E, const std::string &InitialSpec);

  /// Subscribes to the HwPfFeedback channel and keeps \p Bus for
  /// publishing SelectorDecision events. Call before the core runs.
  void attach(EventBus &Bus);

  void onEvent(const HardwareEvent &E) override;

  /// Measurement-window boundary: the sim layer just cleared the memory
  /// system's stats and the bus counts, so the epoch baseline re-zeroes
  /// with them; windowed stats and the decision trace reset, the policy's
  /// learning survives.
  void onMeasurementStart();

  /// Windowed stats; Samples is read from the bus, which counts every
  /// HwPfFeedback publish and clears with these stats.
  SelectorStats stats() const {
    SelectorStats S = Stats;
    S.Samples = Bus ? Bus->published(EventKind::HwPfFeedback) : 0;
    return S;
  }
  const std::vector<SelectorDecisionRecord> &trace() const { return Trace; }
  /// Sorted arsenal list the arm indices refer to.
  const std::vector<std::string> &arms() const { return Arms; }
  /// Name of the currently attached arsenal unit ("" before any arm).
  std::string currentUnitName() const;

private:
  void closeEpoch(Cycle Now);

  SelectorConfig Cfg;
  MemorySystem &Mem;
  PrefetcherEnv Env;
  EventBus *Bus = nullptr;
  std::vector<std::string> Arms;
  std::unique_ptr<PrefetcherSelector> Policy;
  unsigned CurrentArm = SelectorDecisionRecord::kNoArm;

  uint64_t SamplesInEpoch = 0;
  uint64_t EpochIndex = 0;
  /// The memory system's stats at the last epoch boundary: the one
  /// baseline every signature delta (loads, exposed latency and the
  /// feedback derived from them) is taken against. Reset with the memory
  /// system's stats at the measurement boundary.
  MemStats Base;
  /// Policy explorations() at the last window boundary, so Stats reports
  /// the windowed count while the policy keeps its cumulative one.
  uint64_t ExplorationBase = 0;

  SelectorStats Stats;
  std::vector<SelectorDecisionRecord> Trace;
};

} // namespace trident

#endif // TRIDENT_CONTROL_PHASEMONITOR_H
