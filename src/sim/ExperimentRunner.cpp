//===- ExperimentRunner.cpp -----------------------------------------------===//
//
// Part of the Trident-SRP reproduction (CGO 2006).
//
//===----------------------------------------------------------------------===//

#include "sim/ExperimentRunner.h"
#include "support/Check.h"
#include "support/Knobs.h"

#include <compare>
#include <map>
#include <type_traits>

using namespace trident;

// The memo key orders configs with their defaulted operator<=>. A field
// without a total order (a floating-point NaN compares unordered) would
// corrupt the map, so such a field must fail to compile instead.
static_assert(std::is_same_v<std::compare_three_way_result_t<SimConfig>,
                             std::strong_ordering>,
              "SimConfig must be strongly ordered to key the memo cache");

//===----------------------------------------------------------------------===//
// Oracle selector resolution
//===----------------------------------------------------------------------===//

SimConfig trident::resolveSelectorOracle(ExperimentRunner &R,
                                         const Workload &W,
                                         const SimConfig &Config) {
  if (Config.Selector.Policy != SelectorPolicy::Oracle ||
      !Config.Selector.OracleUnit.empty())
    return Config;
  // First pass: every static arsenal unit over the same workload/config
  // (selector off — these are exactly the static cells a sweep like fig10
  // also runs, so the memo cache makes this pass nearly free there).
  const std::vector<std::string> Arms =
      PrefetcherRegistry::instance().names();
  std::vector<ExperimentJob> Jobs;
  Jobs.reserve(Arms.size());
  for (const std::string &Arm : Arms) {
    SimConfig C = Config;
    C.Selector = SelectorConfig();
    C.HwPf = Arm;
    Jobs.push_back(ExperimentJob{W, C});
  }
  std::vector<std::shared_ptr<const SimResult>> Results = R.runBatch(Jobs);
  // Pick the unit minimizing total exposed latency — the metric the
  // selector rewards. Strict < keeps ties on the first (lexicographically
  // smallest) arm, so resolution is deterministic.
  size_t Best = 0;
  for (size_t I = 1; I < Results.size(); ++I)
    if (Results[I]->Mem.TotalExposedLatency <
        Results[Best]->Mem.TotalExposedLatency)
      Best = I;
  SimConfig Resolved = Config;
  Resolved.Selector.OracleUnit = Arms[Best];
  return Resolved;
}

//===----------------------------------------------------------------------===//
// Process-wide memo cache
//===----------------------------------------------------------------------===//

namespace {

/// A memo key: the workload name plus the whole config value.
using MemoKey = std::pair<std::string, SimConfig>;

struct ResultCache {
  std::mutex Mu;
  // trident-analyze: guarded-by(Mu)
  std::map<MemoKey, std::shared_ptr<const SimResult>> Map;

  static ResultCache &instance() {
    static ResultCache C;
    return C;
  }
};

} // namespace

void ExperimentRunner::clearResultCache() {
  ResultCache &C = ResultCache::instance();
  std::lock_guard<std::mutex> L(C.Mu);
  C.Map.clear();
}

size_t ExperimentRunner::resultCacheSize() {
  ResultCache &C = ResultCache::instance();
  std::lock_guard<std::mutex> L(C.Mu);
  return C.Map.size();
}

//===----------------------------------------------------------------------===//
// Thread pool
//===----------------------------------------------------------------------===//

unsigned ExperimentRunner::defaultThreadCount() {
  if (uint64_t V = envDecimal("TRIDENT_BENCH_JOBS", 0, 0, 1024))
    return static_cast<unsigned>(V);
  unsigned HW = std::thread::hardware_concurrency();
  return HW == 0 ? 1 : HW;
}

ExperimentRunner::ExperimentRunner(ExperimentRunnerOptions Opts)
    : NumThreads(Opts.Threads == 0 ? defaultThreadCount() : Opts.Threads),
      UseCache(Opts.UseCache) {
  Workers.reserve(NumThreads);
  for (unsigned I = 0; I < NumThreads; ++I)
    Workers.emplace_back([this] { workerLoop(); });
}

ExperimentRunner::~ExperimentRunner() {
  {
    std::lock_guard<std::mutex> L(Mu);
    ShuttingDown = true;
  }
  WorkAvailable.notify_all();
  for (std::thread &T : Workers)
    T.join();
}

void ExperimentRunner::workerLoop() {
  for (;;) {
    std::function<void()> Task;
    {
      std::unique_lock<std::mutex> L(Mu);
      WorkAvailable.wait(
          L, [this] { return ShuttingDown || NextTask < Tasks.size(); });
      if (NextTask >= Tasks.size()) {
        if (ShuttingDown)
          return;
        continue;
      }
      Task = Tasks[NextTask++];
    }
    Task();
    {
      std::lock_guard<std::mutex> L(Mu);
      ++Completed;
    }
    BatchDone.notify_all();
  }
}

std::vector<std::shared_ptr<const SimResult>>
ExperimentRunner::runBatch(const std::vector<ExperimentJob> &Jobs) {
  std::vector<std::shared_ptr<const SimResult>> Results(Jobs.size());
  if (Jobs.empty())
    return Results;

  // Coalesce duplicate (workload, config) keys: each unique key simulates
  // once, and every submission slot that shares the key shares the result
  // object. Keys already in the process cache do not simulate at all.
  struct Group {
    size_t FirstJob;
    std::vector<size_t> Slots;
    MemoKey Key;
  };
  std::vector<Group> ToRun;
  if (UseCache) {
    ResultCache &C = ResultCache::instance();
    std::map<MemoKey, size_t> KeyToGroup;
    std::lock_guard<std::mutex> L(C.Mu);
    for (size_t I = 0; I < Jobs.size(); ++I) {
      MemoKey Key{Jobs[I].W.Name, Jobs[I].Config};
      if (auto Hit = C.Map.find(Key); Hit != C.Map.end()) {
        Results[I] = Hit->second;
        continue;
      }
      auto [It, Inserted] = KeyToGroup.try_emplace(Key, ToRun.size());
      if (Inserted)
        ToRun.push_back(Group{I, {I}, std::move(Key)});
      else
        ToRun[It->second].Slots.push_back(I);
    }
  } else {
    for (size_t I = 0; I < Jobs.size(); ++I)
      ToRun.push_back(Group{I, {I}, MemoKey()});
  }

  if (ToRun.empty())
    return Results;

  // Dispatch one task per unique key to the pool. Workers claim tasks in
  // index order off the shared cursor — no stealing, no reordering of the
  // result slots, and each task owns a complete machine instance.
  std::vector<std::shared_ptr<const SimResult>> GroupResults(ToRun.size());
  std::vector<std::function<void()>> Batch;
  Batch.reserve(ToRun.size());
  for (size_t G = 0; G < ToRun.size(); ++G) {
    const ExperimentJob &Job = Jobs[ToRun[G].FirstJob];
    Batch.push_back([this, &Job, &GroupResults, &ToRun, G] {
      auto R = std::make_shared<const SimResult>(
          runSimulation(Job.W, Job.Config));
      GroupResults[G] = R;
      if (UseCache) {
        // Key stability: a memo key must describe the simulation it
        // caches. If running the simulation perturbed the config
        // (aliasing, a stray const_cast), every later cache hit on this
        // key would silently return results for a different experiment.
        TRIDENT_CHECK(Job.Config == ToRun[G].Key.second,
                      "config changed across runSimulation for workload "
                      "'%s'; the memo cache key is unstable",
                      Job.W.Name.c_str());
        ResultCache &C = ResultCache::instance();
        std::lock_guard<std::mutex> L(C.Mu);
        C.Map.emplace(ToRun[G].Key, std::move(R));
      }
    });
  }

  {
    std::lock_guard<std::mutex> L(Mu);
    TRIDENT_CHECK(NextTask >= Tasks.size(),
                  "runBatch is not reentrant (task %zu of %zu still queued)",
                  NextTask, Tasks.size());
    Tasks = std::move(Batch);
    NextTask = 0;
    Completed = 0;
  }
  WorkAvailable.notify_all();

  {
    std::unique_lock<std::mutex> L(Mu);
    BatchDone.wait(L, [this] { return Completed == Tasks.size(); });
    Tasks.clear();
    NextTask = 0;
    Completed = 0;
  }

  for (size_t G = 0; G < ToRun.size(); ++G)
    for (size_t Slot : ToRun[G].Slots)
      Results[Slot] = GroupResults[G];
  return Results;
}

std::shared_ptr<const SimResult> ExperimentRunner::run(const Workload &W,
                                                       const SimConfig &Config) {
  return runBatch({ExperimentJob{W, Config}}).front();
}
