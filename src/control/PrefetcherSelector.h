//===- PrefetcherSelector.h - Phase-aware prefetcher selection -*- C++ -*-===//
//
// Part of the Trident-SRP reproduction (CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The decision half of the control plane: given a per-epoch phase
/// signature (folded from the HwPfFeedback referee stream by the
/// PhaseMonitor), a selector policy picks which arsenal unit runs the
/// next epoch. Three policies behind one interface:
///
///  * static — today's behavior; the selector machinery is never built.
///  * bandit — a seeded epsilon-greedy / UCB1 multi-armed bandit over
///    PrefetcherRegistry::names(), rewarding low exposed latency
///    per demand load with an EMA so regime shifts age old phases out.
///  * oracle — a two-pass replay upper bound: the memoized
///    ExperimentRunner runs every static unit first, the best one is
///    pinned here (resolveSelectorOracle in src/sim), and the policy just
///    holds that arm.
///
/// Determinism is the contract: a decision trace is a pure function of
/// (config seed, reward sequence). The bandit owns a private SplitMix64 —
/// no global RNG, no wall clock — so identical seeds reproduce identical
/// traces under serial and parallel runners alike.
///
//===----------------------------------------------------------------------===//

#ifndef TRIDENT_CONTROL_PREFETCHERSELECTOR_H
#define TRIDENT_CONTROL_PREFETCHERSELECTOR_H

#include "support/Knobs.h"

#include <cstdint>
#include <memory>
#include <string>

namespace trident {

class StatRegistry;

enum class SelectorPolicy : uint8_t { Static, Bandit, Oracle };

/// Export/display name of a policy ("static", "bandit", "oracle").
const char *selectorPolicyName(SelectorPolicy P);

/// Parsed `policy[:knob=value,...]` selector configuration (the
/// `--selector` CLI spec). Defaults are the Static policy, i.e. the
/// control plane stays entirely unbuilt and runs are byte-identical to a
/// pre-control-plane tree.
struct SelectorConfig {
  SelectorPolicy Policy = SelectorPolicy::Static;
  /// HwPfFeedback samples folded into one epoch (knob `epoch`).
  uint64_t SamplesPerEpoch = 8;
  /// Commits between feedback samples when the core's own
  /// HwPfFeedbackIntervalCommits is 0: the selector needs a heartbeat, so
  /// the sim layer applies this as the effective interval (knob
  /// `interval`). A nonzero core interval always wins.
  uint64_t IntervalCommits = 2000;
  /// Bandit RNG seed (knob `seed`).
  uint64_t Seed = 1;
  /// Epsilon-greedy exploration rate in permille (knob `eps`).
  uint64_t EpsilonPermille = 100;
  /// Use UCB1 instead of epsilon-greedy (knob `ucb`, 0/1).
  bool Ucb = false;
  /// EMA weight of the newest reward in permille (knob `ema`; higher
  /// adapts faster to regime shifts).
  uint64_t EmaPermille = 400;
  /// Oracle policy only: the pinned arsenal unit, filled in by
  /// resolveSelectorOracle() before the run (empty until resolved).
  std::string OracleUnit;

  /// True when the control plane is built at all.
  bool enabled() const { return Policy != SelectorPolicy::Static; }

  /// Parses \p Spec (`static`, `bandit[:knobs]`, `oracle[:knobs]`) in the
  /// one knob grammar against knobTable(policy). On failure returns false
  /// and sets \p Error.
  static bool parse(const std::string &Spec, SelectorConfig &Out,
                    std::string *Error);

  /// The knobs policy \p P accepts: bandit epoch, interval, seed, eps,
  /// ucb, ema; oracle epoch, interval; static none.
  static KnobTable knobTable(SelectorPolicy P);

  /// Display name for configs/figures: "static", "bandit", "bandit-ucb",
  /// "oracle".
  std::string shortName() const;

  auto operator<=>(const SelectorConfig &) const = default;
};

/// What one epoch looked like, computed by the PhaseMonitor from the
/// memory system's referee counters as deltas against the previous epoch
/// boundary. This is the selector's entire view of the machine.
struct PhaseSignature {
  uint64_t Epoch = 0;
  uint64_t DemandLoads = 0;
  uint64_t DemandMisses = 0;
  /// Epoch-delta prefetch accuracy / coverage (see HwPfFeedback).
  double Accuracy = 0.0;
  double Coverage = 0.0;
  /// Demand misses per demand load within the epoch.
  double MissRate = 0.0;
  /// Exposed latency per demand load within the epoch — the reward metric
  /// (negated: the whole framework minimizes exposed latency).
  double ExposedPerLoad = 0.0;
};

/// Control-plane accounting for one run (measurement window).
struct SelectorStats {
  uint64_t Epochs = 0;
  uint64_t Swaps = 0;
  /// Non-greedy (exploration) decisions taken by the bandit.
  uint64_t Explorations = 0;
  /// HwPfFeedback samples consumed: the bus's publish count of that
  /// kind, read by PhaseMonitor::stats().
  uint64_t Samples = 0;
  /// Arm index attached at the end (SelectorDecisionRecord::kNoArm when
  /// the run ended with no arsenal unit).
  uint64_t FinalArm = 0;

  /// Registers every field under \p Prefix (e.g. "selector.").
  void registerInto(StatRegistry &R, const std::string &Prefix) const;
};

/// A selection policy. Arms index the PhaseMonitor's sorted arsenal list.
class PrefetcherSelector {
public:
  virtual ~PrefetcherSelector();

  /// Folds the finished epoch's signature — credit goes to \p CurrentArm,
  /// the unit that ran it — and returns the arm for the next epoch.
  /// \p CurrentArm past the arm count means "no arsenal unit attached"
  /// (possible only before the first decision).
  virtual unsigned decide(const PhaseSignature &Sig, unsigned CurrentArm) = 0;

  /// Cumulative exploration decisions (bandit policies; 0 otherwise).
  virtual uint64_t explorations() const { return 0; }

  /// Builds the configured policy over \p NumArms arms (> 0 required).
  /// \p OracleArm is the pinned arm for the oracle policy (ignored by
  /// others). The static policy has no object form — callers never build
  /// a selector for it (checked).
  static std::unique_ptr<PrefetcherSelector>
  create(const SelectorConfig &C, unsigned NumArms, unsigned OracleArm);
};

} // namespace trident

#endif // TRIDENT_CONTROL_PREFETCHERSELECTOR_H
