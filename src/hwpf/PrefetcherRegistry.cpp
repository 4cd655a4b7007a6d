//===- PrefetcherRegistry.cpp ---------------------------------------------===//
//
// Part of the Trident-SRP reproduction (CGO 2006).
//
//===----------------------------------------------------------------------===//

#include "hwpf/PrefetcherRegistry.h"

#include "hwpf/Dcpt.h"
#include "hwpf/EnhancedStream.h"
#include "hwpf/StreamBuffer.h"
#include "hwpf/Tskid.h"
#include "support/Check.h"

using namespace trident;

namespace {

// Knob tables. Each lower bound is the unit constructor's precondition;
// each upper bound keeps the unit's tables to a few MB and its per-miss
// work short (hwpf_test runs every bound on mcf).

constexpr Knob kStreamBufferKnobs[] = {
    knob<&StreamBufferConfig::NumBuffers>("buffers", 1, 256),
    knob<&StreamBufferConfig::Depth>("depth", 0, 256),
    knob<&StreamBufferConfig::HistoryEntries>("history", 1, 65536),
};

constexpr Knob kEnhancedStreamKnobs[] = {
    knob<&EnhancedStreamConfig::NumTrainingEntries>("trainers", 1, 1024),
    knob<&EnhancedStreamConfig::NumStreams>("streams", 1, 256),
    knob<&EnhancedStreamConfig::Degree>("degree", 1, 64),
    knob<&EnhancedStreamConfig::Depth>("depth", 0, 256),
    knob<&EnhancedStreamConfig::RegionLines>("region", 1, 65536),
    knob<&EnhancedStreamConfig::ConfirmMisses>("confirm", 0, 1024),
};

constexpr Knob kDcptKnobs[] = {
    knob<&DcptConfig::NumEntries>("entries", 1, 4096),
    knob<&DcptConfig::NumDeltas>("deltas", 2, 64),
    knob<&DcptConfig::Degree>("degree", 1, 64),
    knob<&DcptConfig::BufferCapacity>("buffer", 1, 1024),
};

constexpr Knob kTskidKnobs[] = {
    knob<&TskidConfig::NumEntries>("entries", 1, 4096),
    knob<&TskidConfig::RecentMissDepth>("recent", 1, 256),
    knob<&TskidConfig::PendingDepth>("pending", 1, 1024),
    knob<&TskidConfig::BufferCapacity>("buffer", 1, 1024),
    knob<&TskidConfig::LeadCycles>("lead", 0, 1'000'000),
    knob<&TskidConfig::MinSkidCycles>("minskid", 0, 1'000'000),
};

/// An entry whose factory sets the spec's knobs on \p Defaults through
/// \p Schema and hands the typed config to \p Build.
template <class Config>
PrefetcherRegistry::Info
entry(std::string Name, std::string Summary, KnobTable Schema,
      Config Defaults,
      std::unique_ptr<HwPrefetcher> (*Build)(Config, const PrefetcherEnv &,
                                             std::string *)) {
  return {std::move(Name), std::move(Summary), Schema,
          [=](std::string_view Spec, const PrefetcherEnv &Env,
              std::string *Error) -> std::unique_ptr<HwPrefetcher> {
            Config C = Defaults;
            if (!parseKnobs(Spec, Schema, &C, Error))
              return nullptr;
            return Build(C, Env, Error);
          }};
}

template <class Unit, class Config>
std::unique_ptr<HwPrefetcher> build(Config C, const PrefetcherEnv &,
                                    std::string *) {
  return std::make_unique<Unit>(C);
}

std::unique_ptr<HwPrefetcher> buildStreamBuffers(StreamBufferConfig C,
                                                 const PrefetcherEnv &Env,
                                                 std::string *Error) {
  if (!StridePredictor::isValidSize(C.HistoryEntries)) {
    if (Error)
      *Error = "knob 'history' must be a power of two, got " +
               std::to_string(C.HistoryEntries);
    return nullptr;
  }
  if (Env.PageBounded) {
    C.StopAtPageBoundary = true;
    C.PageBits = Env.PageBits;
  }
  return std::make_unique<StreamBufferUnit>(C);
}

} // namespace

PrefetcherRegistry::PrefetcherRegistry() {
  add(entry("sb4x4", "predictor-directed stream buffers, 4 buffers x 4 deep",
            kStreamBufferKnobs, StreamBufferConfig::config4x4(),
            buildStreamBuffers));
  add(entry("sb8x8",
            "predictor-directed stream buffers, 8 buffers x 8 deep (the "
            "paper's baseline)",
            kStreamBufferKnobs, StreamBufferConfig::config8x8(),
            buildStreamBuffers));
  add(entry("enhanced-stream",
            "region-based streams with noise-tolerant training and "
            "dead-stream removal (Liu et al., JILP 2011)",
            kEnhancedStreamKnobs, EnhancedStreamConfig::baseline(),
            build<EnhancedStreamPrefetcher>));
  add(entry("dcpt",
            "delta-correlating prediction tables (Grannaes et al., DPC-1)",
            kDcptKnobs, DcptConfig::baseline(), build<DcptPrefetcher>));
  add(entry("tskid",
            "trigger/target timing prefetcher with learned issue skid "
            "(T-SKID, DPC-3)",
            kTskidKnobs, TskidConfig::baseline(), build<TskidPrefetcher>));
}

PrefetcherRegistry &PrefetcherRegistry::instance() {
  // Function-local static: built (with the full arsenal) on first use, so
  // there is no cross-TU static-init ordering hazard.
  static PrefetcherRegistry R;
  return R;
}

void PrefetcherRegistry::add(Info I) {
  // Re-registration is a programming error: a silent overwrite would let
  // one translation unit quietly shadow another's factory, and every spec
  // naming the entry would resolve to a different unit depending on
  // registration order.
  auto [It, Inserted] = Entries.emplace(I.Name, Info{});
  TRIDENT_CHECK(Inserted, "duplicate prefetcher registration '%s'",
                I.Name.c_str());
  It->second = std::move(I);
}

std::vector<std::string> PrefetcherRegistry::names() const {
  std::vector<std::string> Out;
  Out.reserve(Entries.size());
  for (const auto &E : Entries)
    Out.push_back(E.first);
  return Out; // std::map iterates sorted
}

const PrefetcherRegistry::Info *
PrefetcherRegistry::lookup(const std::string &Name) const {
  auto It = Entries.find(Name);
  return It == Entries.end() ? nullptr : &It->second;
}

std::unique_ptr<HwPrefetcher>
PrefetcherRegistry::create(const std::string &Spec, const PrefetcherEnv &Env,
                           std::string *Error) const {
  if (isNone(Spec))
    return nullptr;
  const std::string Name = Spec.substr(0, Spec.find(':'));
  const Info *I = lookup(Name);
  if (!I) {
    if (Error) {
      *Error = "unknown prefetcher '" + Name + "' (registered:";
      for (const auto &E : Entries)
        *Error += " " + E.first;
      *Error += ", none)";
    }
    return nullptr;
  }
  return I->Make(Spec, Env, Error);
}
