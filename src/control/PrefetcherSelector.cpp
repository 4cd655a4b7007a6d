//===- PrefetcherSelector.cpp ---------------------------------------------===//
//
// Part of the Trident-SRP reproduction (CGO 2006).
//
//===----------------------------------------------------------------------===//

#include "control/PrefetcherSelector.h"

#include "support/Check.h"
#include "support/Random.h"
#include "support/StatRegistry.h"

#include <cmath>
#include <cstdint>
#include <iterator>
#include <vector>

using namespace trident;

const char *trident::selectorPolicyName(SelectorPolicy P) {
  switch (P) {
  case SelectorPolicy::Static:
    return "static";
  case SelectorPolicy::Bandit:
    return "bandit";
  case SelectorPolicy::Oracle:
    return "oracle";
  }
  return "<bad>";
}

namespace {

/// The bandit's knobs; the oracle takes the first two (it only shapes the
/// epoch clock) and static takes none.
constexpr Knob kSelectorKnobs[] = {
    knob<&SelectorConfig::SamplesPerEpoch>("epoch", 1, UINT32_MAX),
    knob<&SelectorConfig::IntervalCommits>("interval", 1, UINT32_MAX),
    knob<&SelectorConfig::Seed>("seed", 0, UINT64_MAX),
    knob<&SelectorConfig::EpsilonPermille>("eps", 0, 1000),
    knob<&SelectorConfig::Ucb>("ucb", 0, 1),
    knob<&SelectorConfig::EmaPermille>("ema", 1, 1000),
};

} // namespace

KnobTable SelectorConfig::knobTable(SelectorPolicy P) {
  return KnobTable(kSelectorKnobs)
      .first(P == SelectorPolicy::Bandit   ? std::size(kSelectorKnobs)
             : P == SelectorPolicy::Oracle ? 2
                                           : 0);
}

bool SelectorConfig::parse(const std::string &Spec, SelectorConfig &Out,
                           std::string *Error) {
  Out = SelectorConfig();
  if (Spec.empty())
    return true;
  const std::string Name = Spec.substr(0, Spec.find(':'));
  if (Name == "static")
    Out.Policy = SelectorPolicy::Static;
  else if (Name == "bandit")
    Out.Policy = SelectorPolicy::Bandit;
  else if (Name == "oracle")
    Out.Policy = SelectorPolicy::Oracle;
  else {
    if (Error)
      *Error = "unknown selector policy '" + Name +
               "' (policies: static, bandit, oracle)";
    return false;
  }
  return parseKnobs(Spec, knobTable(Out.Policy), &Out, Error);
}

std::string SelectorConfig::shortName() const {
  if (Policy == SelectorPolicy::Bandit && Ucb)
    return "bandit-ucb";
  return selectorPolicyName(Policy);
}

PrefetcherSelector::~PrefetcherSelector() = default;

namespace {

/// Seeded epsilon-greedy / UCB1 over the arsenal. Rewards are EMAs of
/// -ExposedPerLoad so the value estimates track the current phase rather
/// than the whole history; a round-robin warm start gives every arm one
/// epoch before any exploitation. All tie-breaks go to the lowest arm
/// index, and the only randomness is the private SplitMix64, so the
/// decision sequence is a pure function of (seed, reward sequence).
class BanditSelector final : public PrefetcherSelector {
public:
  BanditSelector(const SelectorConfig &C, unsigned NumArms)
      : Eps(C.EpsilonPermille), EmaPermille(C.EmaPermille), Ucb(C.Ucb),
        Rng(C.Seed), Value(NumArms, 0.0), Pulls(NumArms, 0) {}

  unsigned decide(const PhaseSignature &Sig, unsigned CurrentArm) override {
    const unsigned N = static_cast<unsigned>(Value.size());
    if (CurrentArm < N) {
      const double R = -Sig.ExposedPerLoad;
      double &V = Value[CurrentArm];
      if (Pulls[CurrentArm] == 0)
        V = R;
      else {
        const double W = static_cast<double>(EmaPermille) / 1000.0;
        V = (1.0 - W) * V + W * R;
      }
      ++Pulls[CurrentArm];
      ++TotalPulls;
    }
    // Warm start: unpulled arms first, in index order.
    for (unsigned A = 0; A < N; ++A)
      if (Pulls[A] == 0)
        return A;
    if (Ucb) {
      unsigned Pick = ucbPick();
      if (Pick != greedyPick())
        ++Explored;
      return Pick;
    }
    // One epsilon draw per epoch; an exploration epoch draws the arm from
    // the same stream.
    if (Rng.nextBelow(1000) < Eps) {
      ++Explored;
      return static_cast<unsigned>(Rng.nextBelow(Value.size()));
    }
    return greedyPick();
  }

  uint64_t explorations() const override { return Explored; }

private:
  unsigned greedyPick() const {
    unsigned Best = 0;
    for (unsigned A = 1; A < Value.size(); ++A)
      if (Value[A] > Value[Best]) // strict: ties keep the lowest index
        Best = A;
    return Best;
  }

  unsigned ucbPick() const {
    // UCB1 with the bonus scaled to the observed value spread: rewards are
    // latencies (arbitrary magnitude), not [0,1], so a fixed constant
    // would either never or always explore.
    double Spread = 0.0;
    for (unsigned A = 0; A < Value.size(); ++A)
      for (unsigned B = A + 1; B < Value.size(); ++B)
        Spread = std::max(Spread, std::abs(Value[A] - Value[B]));
    const double Scale = Spread > 0.0 ? Spread : 1.0;
    unsigned Best = 0;
    double BestScore = 0.0;
    for (unsigned A = 0; A < Value.size(); ++A) {
      const double Bonus =
          Scale * std::sqrt(2.0 * std::log(static_cast<double>(TotalPulls)) /
                            static_cast<double>(Pulls[A]));
      const double Score = Value[A] + Bonus;
      if (A == 0 || Score > BestScore) {
        Best = A;
        BestScore = Score;
      }
    }
    return Best;
  }

  uint64_t Eps;
  uint64_t EmaPermille;
  bool Ucb;
  SplitMix64 Rng;
  std::vector<double> Value;
  std::vector<uint64_t> Pulls;
  uint64_t TotalPulls = 0;
  uint64_t Explored = 0;
};

/// Holds the arm resolveSelectorOracle() pinned. The first decision swaps
/// to it (if the run started elsewhere); every later epoch keeps it.
class OracleSelector final : public PrefetcherSelector {
public:
  explicit OracleSelector(unsigned A) : Arm(A) {}
  unsigned decide(const PhaseSignature &, unsigned) override { return Arm; }

private:
  unsigned Arm;
};

} // namespace

std::unique_ptr<PrefetcherSelector>
PrefetcherSelector::create(const SelectorConfig &C, unsigned NumArms,
                           unsigned OracleArm) {
  TRIDENT_CHECK(NumArms > 0, "selector needs a nonempty arsenal");
  switch (C.Policy) {
  case SelectorPolicy::Static:
    break;
  case SelectorPolicy::Bandit:
    return std::make_unique<BanditSelector>(C, NumArms);
  case SelectorPolicy::Oracle:
    TRIDENT_CHECK(OracleArm < NumArms,
                  "oracle selector not resolved (arm %u of %u); call "
                  "resolveSelectorOracle before running",
                  OracleArm, NumArms);
    return std::make_unique<OracleSelector>(OracleArm);
  }
  TRIDENT_CHECK(false, "static selector policy has no object form");
  return nullptr;
}

void SelectorStats::registerInto(StatRegistry &R,
                                 const std::string &Prefix) const {
  R.setCounter(Prefix + "epochs", Epochs);
  R.setCounter(Prefix + "swaps", Swaps);
  R.setCounter(Prefix + "explorations", Explorations);
  R.setCounter(Prefix + "samples", Samples);
  R.setCounter(Prefix + "final_arm", FinalArm);
}
