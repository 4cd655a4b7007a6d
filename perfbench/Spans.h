//===- Spans.h - In-memory span recorder for the benchmark's traced run ---===//
//
// Part of the Trident-SRP reproduction (CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Records spans around the benchmark's calls into the simulator's public
/// API (makeWorkload, runSimulation, ExperimentRunner::runBatch,
/// PrefetcherRegistry::create, MemorySystem::access replays). Spans live in
/// memory and are written once, at exit, as a Chrome-trace document of
/// complete ("X") events in the same envelope EventTracer uses, so
/// Perfetto opens both. Single-threaded: spans are opened and closed only
/// on the benchmark's main thread, so parents form a proper stack.
///
//===----------------------------------------------------------------------===//

#ifndef TRIDENT_PERFBENCH_SPANS_H
#define TRIDENT_PERFBENCH_SPANS_H

#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Span {
  std::string Name;
  double StartUs = 0.0;
  double EndUs = 0.0;
  int Parent = -1; ///< Index of the enclosing span, -1 at top level.
  int JobId = -1;  ///< Job (or program) index the span belongs to.

  double seconds() const { return (EndUs - StartUs) * 1e-6; }
};

class SpanRecorder {
public:
  explicit SpanRecorder(bool Enabled) : On(Enabled), T0(Clock::now()) {}

  bool enabled() const { return On; }

  /// Opens a span; returns its index (-1 when recording is off).
  int begin(const std::string &Name, int JobId = -1) {
    if (!On)
      return -1;
    Span S;
    S.Name = Name;
    S.Parent = Stack.empty() ? -1 : Stack.back();
    S.JobId = JobId;
    S.StartUs = nowUs();
    Spans.push_back(std::move(S));
    Stack.push_back(static_cast<int>(Spans.size() - 1));
    return Stack.back();
  }

  void end(int Id) {
    if (Id < 0)
      return;
    Spans[static_cast<size_t>(Id)].EndUs = nowUs();
    if (!Stack.empty() && Stack.back() == Id)
      Stack.pop_back();
  }

  /// RAII span; a no-op when recording is off.
  class Scope {
  public:
    Scope(SpanRecorder &R, const std::string &Name, int JobId = -1)
        : Rec(R), Id(R.begin(Name, JobId)) {}
    ~Scope() { Rec.end(Id); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    SpanRecorder &Rec;
    int Id;
  };

  const std::vector<Span> &spans() const { return Spans; }

  /// Per span name: {calls, total seconds, self seconds}, where a span's
  /// self time is its duration minus the time its direct children cover.
  struct NameTotals {
    size_t Calls = 0;
    double TotalS = 0.0;
    double SelfS = 0.0;
  };
  std::map<std::string, NameTotals> totalsByName() const {
    std::vector<double> ChildS(Spans.size(), 0.0);
    for (const Span &S : Spans)
      if (S.Parent >= 0)
        ChildS[static_cast<size_t>(S.Parent)] += S.seconds();
    std::map<std::string, NameTotals> Out;
    for (size_t I = 0; I < Spans.size(); ++I) {
      NameTotals &T = Out[Spans[I].Name];
      ++T.Calls;
      T.TotalS += Spans[I].seconds();
      T.SelfS += Spans[I].seconds() - ChildS[I];
    }
    return Out;
  }

  bool writeChromeTrace(const std::string &Path) const {
    std::FILE *F = std::fopen(Path.c_str(), "w");
    if (!F)
      return false;
    std::fprintf(F, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (size_t I = 0; I < Spans.size(); ++I) {
      const Span &S = Spans[I];
      std::fprintf(F,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":0,\"tid\":0,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                   "\"parent\":%d,\"job\":%d}}",
                   I ? "," : "", S.Name.c_str(), S.StartUs,
                   S.EndUs - S.StartUs, I, S.Parent, S.JobId);
    }
    std::fprintf(F, "],\"otherData\":{\"tool\":\"trident-perfbench\","
                    "\"spans\":%zu}}\n",
                 Spans.size());
    return std::fclose(F) == 0;
  }

private:
  double nowUs() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - T0)
        .count();
  }

  bool On;
  Clock::time_point T0;
  std::vector<Span> Spans;
  std::vector<int> Stack;
};

} // namespace perfbench

#endif // TRIDENT_PERFBENCH_SPANS_H
