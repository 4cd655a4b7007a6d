//===- fig11_fuzz.cpp - Figure 11: the fuzzed scenario sweep --------------===//
//
// Part of the Trident-SRP reproduction (CGO 2006).
//
// The paper evaluates on 14 fixed benchmarks; this figure replaces the
// workload axis with an unbounded, seeded scenario space drawn from the
// generative fuzzer (src/workloads/fuzz). Each scenario is a canonical
// "fuzz@SEED[:knob=v,...]" name — fully reproducible from the JSONL
// record alone — and runs against every arsenal prefetcher with the
// Trident runtime off and on, relative to the no-prefetch baseline of
// the same scenario. The summary is the per-arsenal-unit geo-mean over
// all scenarios: how each unit holds up when the workload is not one of
// the 14 programs its heuristics grew up on.
//
// A second, smaller block re-runs a few scenarios as the primary of a
// multi-programmed mix (--mix semantics: shared memory system, private
// cores). For each such mix the harness ranks the arsenal units by
// speedup in the solo and the mixed context and flags rank changes:
// contention is exactly the condition under which a unit that wins solo
// can lose its slot, which is the event-driven selector's whole reason
// to exist.
//
// Environment knobs (on top of the BenchCommon set):
//   TRIDENT_FIG11_OUT        JSONL output path (default fig11_fuzz.jsonl)
//   TRIDENT_FIG11_SCENARIOS  number of fuzzed scenarios (default 50)
//   TRIDENT_FIG11_SEED0      first seed; scenario i uses SEED0+i
//                            (default 1000)
//   TRIDENT_FIG11_HWPF       comma list restricting the prefetcher axis
//   TRIDENT_FIG11_MIX        number of mix cells (default 6, 0 disables)
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "support/Random.h"
#include "workloads/fuzz/FuzzGenerator.h"

#include <algorithm>
#include <map>
#include <numeric>
#include <type_traits>

using namespace trident;

namespace {

/// Draws the knob vector for scenario \p Seed. Every knob independently
/// keeps its default half the time, so the space covers both the
/// mid-range defaults and the extremes; all draws come from one
/// SplitMix64 over the seed, so the scenario list is a pure function of
/// (SEED0, index) and a failure reproduces from its seed alone.
FuzzKnobs drawKnobs(uint64_t Seed) {
  SplitMix64 R(Seed * 0x9e3779b97f4a7c15ull + 0xf1611);
  FuzzKnobs K;
  auto maybe = [&](auto &Field, uint64_t Value) {
    if (R.nextBelow(2))
      Field = static_cast<std::remove_reference_t<decltype(Field)>>(Value);
  };
  static const uint64_t Wsets[] = {64, 256, 1024, 4096, 16384, 65536, 131072};
  static const uint64_t Phases[] = {128, 512, 2000, 8000, 40000, 200000};
  maybe(K.WsetKB, Wsets[R.nextBelow(7)]);
  maybe(K.Segments, 1 + R.nextBelow(8));
  maybe(K.EntropyPermille, R.nextBelow(1001));
  maybe(K.BranchPermille, R.nextBelow(1001));
  maybe(K.PhaseIters, Phases[R.nextBelow(6)]);
  maybe(K.Streams, 1 + R.nextBelow(10));
  return K;
}

/// Ranks units (indices into a speedup vector) best-first; ties broken by
/// index so the order is total and deterministic.
std::vector<size_t> rankOrder(const std::vector<double> &Speedups) {
  std::vector<size_t> Order(Speedups.size());
  std::iota(Order.begin(), Order.end(), size_t(0));
  std::stable_sort(Order.begin(), Order.end(), [&](size_t A, size_t B) {
    return Speedups[A] > Speedups[B];
  });
  return Order;
}

} // namespace

int trident::bench::fig11Fuzz() {
  printHeader("Figure 11", "fuzzed scenarios x arsenal x Trident on/off",
              "no direct paper analogue: out-of-distribution robustness of "
              "the arsenal, plus mix-induced ranking changes");

  const uint64_t NumScenarios =
      envDecimal("TRIDENT_FIG11_SCENARIOS", 50, 0, 100'000);
  const uint64_t Seed0 = envDecimal("TRIDENT_FIG11_SEED0", 1000, 0, UINT64_MAX);
  const uint64_t NumMixes = envDecimal("TRIDENT_FIG11_MIX", 6, 0, 100'000);

  std::vector<std::string> Hwpfs = fig11Prefetchers();
  Hwpfs.insert(Hwpfs.begin(), "none");

  std::vector<std::string> Scenarios;
  for (uint64_t I = 0; I < NumScenarios; ++I) {
    uint64_t Seed = Seed0 + I;
    Scenarios.push_back(fuzzWorkloadName(Seed, drawKnobs(Seed)));
  }

  // Mix cells: a rotating co-runner schedule over the first scenarios.
  // Co-runners mix hand-written streams (art/swim), pointer chasers
  // (mcf), and another fuzz scenario, 1..3 lanes, so the contention
  // shapes differ cell to cell. Mix cells run Trident off: the ranking
  // question is about the raw hardware units.
  std::vector<std::pair<std::string, std::vector<std::string>>> Mixes;
  if (!Scenarios.empty() && NumMixes > 0) {
    const std::vector<std::vector<std::string>> CoSets = {
        {"art"},
        {"mcf"},
        {"equake", "art"},
        {Scenarios[Scenarios.size() / 2]},
        {"swim"},
        {"art", "mcf", "equake"},
    };
    for (uint64_t I = 0; I < NumMixes; ++I)
      Mixes.emplace_back(Scenarios[I % Scenarios.size()],
                         CoSets[I % CoSets.size()]);
  }

  // One flat batch: the solo matrix scenario-major, then the mix cells.
  std::vector<NamedJob> Jobs;
  for (const std::string &Name : Scenarios)
    for (int Trident = 0; Trident < 2; ++Trident)
      for (const std::string &Pf : Hwpfs) {
        SimConfig C = Trident ? SimConfig::withMode(PrefetchMode::SelfRepairing)
                              : SimConfig::hwBaseline();
        C.HwPf = Pf;
        Jobs.emplace_back(Name, C);
      }
  const size_t MixBase = Jobs.size();
  for (const auto &[Primary, CoRunners] : Mixes)
    for (const std::string &Pf : Hwpfs) {
      SimConfig C = SimConfig::hwBaseline();
      C.HwPf = Pf;
      C.MixWith = CoRunners;
      Jobs.emplace_back(Primary, C);
    }
  auto Results = runBatch(Jobs);

  const size_t PerScenario = 2 * Hwpfs.size();
  auto cell = [&](size_t ScenIdx, int Trident, size_t PfIdx) {
    return Results[ScenIdx * PerScenario + size_t(Trident) * Hwpfs.size() +
                   PfIdx];
  };
  auto mixCell = [&](size_t MixIdx, size_t PfIdx) {
    return Results[MixBase + MixIdx * Hwpfs.size() + PfIdx];
  };

  std::string Jsonl;
  auto emitLine = [&](const std::string &Scenario, const std::string &Pf,
                      const SimResult &R, int Trident, double Speedup,
                      const std::vector<std::string> &MixWith) {
    Jsonl += "{\"scenario\":\"";
    jsonEscapeInto(Jsonl, Scenario);
    Jsonl += "\",\"hwpf\":\"";
    jsonEscapeInto(Jsonl, hwPfConfigName(Pf));
    Jsonl += "\",\"mix\":\"";
    std::string MixStr;
    for (const std::string &M : MixWith) {
      if (!MixStr.empty())
        MixStr += '+';
      MixStr += M;
    }
    jsonEscapeInto(Jsonl, MixStr);
    appendArsenalCellJson(Jsonl, Trident, R, Speedup);
  };

  // Solo matrix records + per-unit speedup series.
  std::map<std::pair<std::string, int>, std::vector<double>> Series;
  for (size_t S = 0; S < Scenarios.size(); ++S) {
    const SimResult &Base = *cell(S, 0, 0);
    for (int Trident = 0; Trident < 2; ++Trident)
      for (size_t P = 0; P < Hwpfs.size(); ++P) {
        const SimResult &R = *cell(S, Trident, P);
        double Sp = speedup(R, Base);
        Series[{Hwpfs[P], Trident}].push_back(Sp);
        emitLine(Scenarios[S], Hwpfs[P], R, Trident, Sp, {});
      }
  }

  // Mix records: speedup is over the no-prefetch cell of the *same mix*,
  // so it isolates the unit's value under that contention, not the
  // contention itself.
  for (size_t M = 0; M < Mixes.size(); ++M) {
    const SimResult &Base = *mixCell(M, 0);
    for (size_t P = 0; P < Hwpfs.size(); ++P)
      emitLine(Mixes[M].first, Hwpfs[P], *mixCell(M, P), 0,
               speedup(*mixCell(M, P), Base), Mixes[M].second);
  }
  const char *OutPath =
      writeJsonl("TRIDENT_FIG11_OUT", "fig11_fuzz.jsonl", Jsonl);
  if (!OutPath)
    return 1;
  std::printf("fuzz sweep: %zu scenarios x %zu units x 2 + %zu mix cells "
              "-> %s\n\n",
              Scenarios.size(), Hwpfs.size(), Mixes.size() * Hwpfs.size(),
              OutPath);

  // Per-unit geo-mean over the whole scenario space.
  Table A({"prefetcher", "geo-mean (Trident off)", "geo-mean (Trident on)"});
  for (const std::string &Pf : Hwpfs) {
    const std::vector<double> &Off = Series[{Pf, 0}];
    const std::vector<double> &On = Series[{Pf, 1}];
    A.addRow({hwPfConfigName(Pf),
              Off.empty() ? "-" : formatPercent(geometricMean(Off) - 1.0, 1),
              On.empty() ? "-" : formatPercent(geometricMean(On) - 1.0, 1)});
  }
  std::printf("%s\n", A.render().c_str());

  // Ranking comparison: for every mix cell, order the real units (index
  // 1..) by speedup solo vs mixed; any difference in the order is a rank
  // change worth a record.
  size_t Changed = 0;
  for (size_t M = 0; M < Mixes.size(); ++M) {
    // Locate the primary's solo row (Trident off).
    size_t ScenIdx =
        size_t(std::find(Scenarios.begin(), Scenarios.end(), Mixes[M].first) -
               Scenarios.begin());
    std::vector<double> SoloSp, MixSp;
    for (size_t P = 1; P < Hwpfs.size(); ++P) {
      SoloSp.push_back(speedup(*cell(ScenIdx, 0, P), *cell(ScenIdx, 0, 0)));
      MixSp.push_back(speedup(*mixCell(M, P), *mixCell(M, 0)));
    }
    std::vector<size_t> SoloOrder = rankOrder(SoloSp);
    std::vector<size_t> MixOrder = rankOrder(MixSp);
    bool Diff = SoloOrder != MixOrder;
    Changed += Diff;

    std::string Co;
    for (const std::string &C : Mixes[M].second)
      Co += (Co.empty() ? "" : "+") + C;
    std::printf("mix %zu: %s vs %s%s\n", M, Mixes[M].first.c_str(), Co.c_str(),
                Diff ? "  ** ranking changed **" : "");
    Table T({"unit", "solo speedup", "solo rank", "mix speedup", "mix rank"});
    for (size_t P = 1; P < Hwpfs.size(); ++P) {
      size_t SoloRank =
          size_t(std::find(SoloOrder.begin(), SoloOrder.end(), P - 1) -
                 SoloOrder.begin());
      size_t MixRank = size_t(std::find(MixOrder.begin(), MixOrder.end(),
                                        P - 1) -
                              MixOrder.begin());
      char SB[32], MB[32];
      std::snprintf(SB, sizeof(SB), "%.4f", SoloSp[P - 1]);
      std::snprintf(MB, sizeof(MB), "%.4f", MixSp[P - 1]);
      T.addRow({hwPfConfigName(Hwpfs[P]), SB, std::to_string(SoloRank + 1), MB,
                std::to_string(MixRank + 1)});
    }
    std::printf("%s\n", T.render().c_str());
  }
  if (!Mixes.empty())
    std::printf("arsenal ranking changed under contention in %zu of %zu "
                "mixes\n\n",
                Changed, Mixes.size());

  printEventHealthJson(Results);
  return 0;
}
