//===- FaultPlan.cpp ------------------------------------------------------===//
//
// Part of the Trident-SRP reproduction (CGO 2006).
//
//===----------------------------------------------------------------------===//

#include "faults/FaultPlan.h"
#include "support/Check.h"
#include "support/Knobs.h"
#include "support/Random.h"

#include <cctype>
#include <cstdio>
#include <limits>
#include <set>

using namespace trident;

const char *trident::faultKindName(FaultKind K) {
  switch (K) {
  case FaultKind::LatencySpike:
    return "latency-spike";
  case FaultKind::EvictCaches:
    return "evict-caches";
  case FaultKind::EvictDlt:
    return "evict-dlt";
  case FaultKind::EvictWatchTable:
    return "evict-watch-table";
  case FaultKind::DropEvents:
    return "drop-events";
  case FaultKind::StallQueue:
    return "stall-queue";
  case FaultKind::InvalidateTraces:
    return "invalidate-traces";
  case FaultKind::NumKinds:
    break;
  }
  return "<bad>";
}

bool trident::faultKindFromName(const std::string &Name, FaultKind &K) {
  for (unsigned I = 0; I < kNumFaultKinds; ++I)
    if (Name == faultKindName(static_cast<FaultKind>(I))) {
      K = static_cast<FaultKind>(I);
      return true;
    }
  return false;
}

static bool eventKindFromName(const std::string &Name, EventKind &K) {
  for (unsigned I = 0; I < kNumEventKinds; ++I)
    if (Name == eventKindName(static_cast<EventKind>(I))) {
      K = static_cast<EventKind>(I);
      return true;
    }
  return false;
}

//===----------------------------------------------------------------------===//
// JSON serialization
//===----------------------------------------------------------------------===//

static void appendU64(std::string &Out, uint64_t V) {
  char Buf[24];
  std::snprintf(Buf, sizeof(Buf), "%llu", static_cast<unsigned long long>(V));
  Out += Buf;
}

std::string FaultPlan::toJson() const {
  std::string Out = "{\"seed\":";
  appendU64(Out, Seed);
  Out += ",\"actions\":[";
  for (size_t I = 0; I < Actions.size(); ++I) {
    const FaultAction &A = Actions[I];
    if (I > 0)
      Out += ',';
    Out += "{\"kind\":\"";
    Out += faultKindName(A.Kind);
    Out += '"';
    if (A.Trigger == FaultTrigger::AtCycle) {
      Out += ",\"at_cycle\":";
      appendU64(Out, A.At);
    } else {
      Out += ",\"at_event\":\"";
      Out += eventKindName(A.Counted);
      Out += "\",\"at_count\":";
      appendU64(Out, A.At);
    }
    Out += ",\"range_lo\":";
    appendU64(Out, A.RangeLo);
    Out += ",\"range_hi\":";
    appendU64(Out, A.RangeHi);
    Out += ",\"extra_mem\":";
    appendU64(Out, A.ExtraMemLatency);
    Out += ",\"extra_l2\":";
    appendU64(Out, A.ExtraL2Latency);
    Out += ",\"duration\":";
    appendU64(Out, A.DurationCycles);
    Out += ",\"count\":";
    appendU64(Out, A.Count);
    Out += '}';
  }
  Out += "]}";
  return Out;
}

//===----------------------------------------------------------------------===//
// JSON parsing (minimal recursive-descent over the plan schema: objects,
// arrays, strings, and unsigned decimal numbers — nothing else appears in
// a plan file, and unknown keys are rejected loudly rather than ignored).
//===----------------------------------------------------------------------===//

namespace {

class PlanParser {
public:
  PlanParser(const std::string &Text, std::string *Error)
      : S(Text), Err(Error) {}

  std::optional<FaultPlan> parse() {
    FaultPlan Plan;
    if (!expect('{'))
      return std::nullopt;
    bool First = true;
    std::set<std::string> Seen;
    while (!peekIs('}')) {
      if (!First && !expect(','))
        return std::nullopt;
      First = false;
      std::string Key;
      if (!parseKey(Key, Seen))
        return std::nullopt;
      if (Key == "seed") {
        if (!parseU64(Plan.Seed))
          return std::nullopt;
      } else if (Key == "actions") {
        if (!parseActions(Plan.Actions))
          return std::nullopt;
      } else {
        return fail("unknown top-level key '" + Key + "'");
      }
    }
    if (!expect('}'))
      return std::nullopt;
    skipWs();
    if (Pos != S.size())
      return fail("trailing garbage after the plan object");
    return Plan;
  }

private:
  std::optional<FaultPlan> fail(const std::string &Msg) {
    if (Err && Err->empty())
      *Err = Msg;
    return std::nullopt;
  }

  void skipWs() {
    while (Pos < S.size() &&
           std::isspace(static_cast<unsigned char>(S[Pos])))
      ++Pos;
  }

  bool peekIs(char C) {
    skipWs();
    return Pos < S.size() && S[Pos] == C;
  }

  bool expect(char C) {
    skipWs();
    if (Pos >= S.size() || S[Pos] != C) {
      fail(std::string("expected '") + C + "' at offset " +
           std::to_string(Pos));
      return false;
    }
    ++Pos;
    return true;
  }

  bool parseString(std::string &Out) {
    if (!expect('"'))
      return false;
    Out.clear();
    while (Pos < S.size() && S[Pos] != '"') {
      if (S[Pos] == '\\') {
        fail("escape sequences are not part of the plan schema");
        return false;
      }
      Out += S[Pos++];
    }
    if (Pos >= S.size()) {
      fail("unterminated string");
      return false;
    }
    ++Pos; // closing quote
    return true;
  }

  /// Reads an object key and its ':'; a key already in \p Seen is an
  /// error, as in the knob grammar.
  bool parseKey(std::string &Key, std::set<std::string> &Seen) {
    if (!parseString(Key) || !expect(':'))
      return false;
    if (!Seen.insert(Key).second) {
      fail("duplicate key '" + Key + "'");
      return false;
    }
    return true;
  }

  bool parseU64(uint64_t &Out, uint64_t Max = UINT64_MAX) {
    skipWs();
    size_t End = Pos;
    while (End < S.size() && std::isdigit(static_cast<unsigned char>(S[End])))
      ++End;
    if (End == Pos) {
      fail("expected an unsigned number at offset " + std::to_string(Pos));
      return false;
    }
    if (!parseDecimal(std::string_view(S).substr(Pos, End - Pos), 0, Max,
                      Out)) {
      fail("number exceeds " + std::to_string(Max) + " at offset " +
           std::to_string(Pos));
      return false;
    }
    Pos = End;
    return true;
  }

  bool parseU32(unsigned &Out) {
    uint64_t V;
    if (!parseU64(V, std::numeric_limits<unsigned>::max()))
      return false;
    Out = static_cast<unsigned>(V);
    return true;
  }

  bool parseActions(std::vector<FaultAction> &Out) {
    if (!expect('['))
      return false;
    while (!peekIs(']')) {
      if (!Out.empty() && !expect(','))
        return false;
      FaultAction A;
      if (!parseAction(A))
        return false;
      Out.push_back(A);
    }
    return expect(']');
  }

  bool parseAction(FaultAction &A) {
    if (!expect('{'))
      return false;
    bool HaveKind = false, HaveCycle = false, HaveEvent = false,
         HaveCount = false;
    bool First = true;
    std::set<std::string> Seen;
    while (!peekIs('}')) {
      if (!First && !expect(','))
        return false;
      First = false;
      std::string Key;
      if (!parseKey(Key, Seen))
        return false;
      if (Key == "kind") {
        std::string Name;
        if (!parseString(Name))
          return false;
        if (!faultKindFromName(Name, A.Kind)) {
          fail("unknown fault kind '" + Name + "'");
          return false;
        }
        HaveKind = true;
      } else if (Key == "at_cycle") {
        A.Trigger = FaultTrigger::AtCycle;
        if (!parseU64(A.At))
          return false;
        HaveCycle = true;
      } else if (Key == "at_event") {
        std::string Name;
        if (!parseString(Name))
          return false;
        if (!eventKindFromName(Name, A.Counted)) {
          fail("unknown event kind '" + Name + "'");
          return false;
        }
        A.Trigger = FaultTrigger::AtEventCount;
        HaveEvent = true;
      } else if (Key == "at_count") {
        A.Trigger = FaultTrigger::AtEventCount;
        if (!parseU64(A.At))
          return false;
        HaveCount = true;
      } else if (Key == "range_lo") {
        if (!parseU64(A.RangeLo))
          return false;
      } else if (Key == "range_hi") {
        if (!parseU64(A.RangeHi))
          return false;
      } else if (Key == "extra_mem") {
        if (!parseU32(A.ExtraMemLatency))
          return false;
      } else if (Key == "extra_l2") {
        if (!parseU32(A.ExtraL2Latency))
          return false;
      } else if (Key == "duration") {
        if (!parseU64(A.DurationCycles))
          return false;
      } else if (Key == "count") {
        if (!parseU64(A.Count))
          return false;
      } else {
        fail("unknown action key '" + Key + "'");
        return false;
      }
    }
    if (!expect('}'))
      return false;
    if (!HaveKind) {
      fail("action is missing its \"kind\"");
      return false;
    }
    if (HaveCycle && (HaveEvent || HaveCount)) {
      fail("action mixes at_cycle with at_event/at_count");
      return false;
    }
    if (HaveCount && !HaveEvent) {
      fail("at_count needs an at_event kind to count");
      return false;
    }
    if (!HaveCycle && !HaveEvent) {
      fail("action needs an at_cycle or at_event trigger");
      return false;
    }
    return true;
  }

  const std::string &S;
  std::string *Err;
  size_t Pos = 0;
};

} // namespace

std::optional<FaultPlan> FaultPlan::parseJson(const std::string &Text,
                                              std::string *Error) {
  if (Error)
    Error->clear();
  return PlanParser(Text, Error).parse();
}

//===----------------------------------------------------------------------===//
// Seeded generation
//===----------------------------------------------------------------------===//

FaultPlan FaultPlan::scattered(uint64_t Seed, unsigned NumActions,
                               Cycle MaxCycle) {
  TRIDENT_CHECK(MaxCycle > 0, "scattered() needs a nonzero cycle horizon");
  FaultPlan Plan;
  Plan.Seed = Seed;
  SplitMix64 Rng(Seed);
  Plan.Actions.reserve(NumActions);
  for (unsigned I = 0; I < NumActions; ++I) {
    FaultAction A;
    A.Kind = static_cast<FaultKind>(Rng.nextBelow(kNumFaultKinds));
    A.Trigger = FaultTrigger::AtCycle;
    A.At = 1 + Rng.nextBelow(MaxCycle);
    A.DurationCycles = 1 + Rng.nextBelow(std::max<Cycle>(MaxCycle / 4, 1));
    A.ExtraMemLatency = 50 + static_cast<unsigned>(Rng.nextBelow(951));
    A.ExtraL2Latency = static_cast<unsigned>(Rng.nextBelow(51));
    A.Count = 1 + Rng.nextBelow(16);
    Plan.Actions.push_back(A);
  }
  return Plan;
}
