//===- FuzzGenerator.h - Seeded generative workload fuzzer -----*- C++ -*-===//
//
// Part of the Trident-SRP reproduction (CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A seeded generative workload fuzzer: from one 64-bit seed (plus a small
/// knob vector) it emits a multi-phase program built from the same memory
/// idioms the 14 hand-written benchmarks use — strided scans, pointer
/// chases, indexed gathers, same-object walks, and unclassifiable random
/// probes — with controllable working-set size, stride entropy, branch mix,
/// and phase-change schedule.
///
/// Determinism is the load-bearing contract: every draw comes from one
/// SplitMix64 seeded by (Seed, knobs), there is no global RNG state, and the
/// canonical workload name encodes the seed and every non-default knob.
/// The ExperimentRunner memo cache keys on (workload name, config value),
/// so two fuzz scenarios share a cache entry exactly when they are the
/// same program — which the name guarantees.
///
/// Spec grammar (the `trident_sim --fuzz` argument and the makeWorkload
/// name after the "fuzz@" prefix):
///
///   SEED[:knob=value,...]
///
/// with knobs (see FuzzKnobs for ranges and defaults, fuzzKnobTable() for
/// the table that enforces them):
///   wset     working-set size per phase segment, in KB
///   segs     number of phase segments (the phase-change schedule)
///   entropy  stride entropy, permille: probability a stream draws an
///            irregular (possibly negative) stride / a shuffled layout
///   branch   branch mix, permille: probability a loop body carries a
///            data-dependent conditional branch
///   phase    iterations per segment before the program moves to the next
///            phase (capped so the footprint respects wset)
///   streams  maximum concurrent stride streams per scan segment
///
//===----------------------------------------------------------------------===//

#ifndef TRIDENT_WORKLOADS_FUZZ_FUZZGENERATOR_H
#define TRIDENT_WORKLOADS_FUZZ_FUZZGENERATOR_H

#include "support/Knobs.h"
#include "workloads/Workloads.h"

#include <cstdint>
#include <string>

namespace trident {

/// Generation knobs. Defaults are mid-range; every field is validated by
/// parseFuzzSpec and folded into the canonical workload name when it
/// differs from the default.
struct FuzzKnobs {
  /// Working set per phase segment, KB. Range 64..131072 (a segment's data
  /// must fit its 256MB region).
  uint64_t WsetKB = 8192;
  /// Number of phase segments the program cycles through. Range 1..8.
  unsigned Segments = 3;
  /// Stride-entropy permille (0 = only regular strides and layouts,
  /// 1000 = always irregular). Range 0..1000.
  unsigned EntropyPermille = 300;
  /// Branch-mix permille: chance a segment body carries a data-dependent
  /// branch. Range 0..1000.
  unsigned BranchPermille = 250;
  /// Iterations per segment visit before the phase change. Range
  /// 64..1000000; per-segment footprint caps may lower it further.
  uint64_t PhaseIters = 2000;
  /// Maximum concurrent stride streams in a scan segment. Range 1..10.
  unsigned Streams = 6;

  bool operator==(const FuzzKnobs &) const = default;
};

/// The knob table behind the spec grammar and the canonical name.
KnobTable fuzzKnobTable();

/// True when \p Name is a fuzz workload spec ("fuzz@..." prefix).
bool isFuzzSpec(const std::string &Name);

/// Parses \p Spec ("SEED[:knob=v,...]", with or without the "fuzz@"
/// prefix) in the one knob grammar (support/Knobs.h) against
/// fuzzKnobTable(); the seed is any decimal uint64. On failure returns
/// false with a one-line \p Error. \p Knobs starts from defaults; only
/// listed knobs are overwritten.
bool parseFuzzSpec(const std::string &Spec, uint64_t &Seed, FuzzKnobs &Knobs,
                   std::string *Error);

/// The canonical workload name: "fuzz@SEED" plus each non-default knob in
/// fixed order. Two (Seed, Knobs) pairs map to the same name iff they
/// generate the same workload, so the memo cache's trust in names holds.
std::string fuzzWorkloadName(uint64_t Seed, const FuzzKnobs &Knobs);

/// Generates the fuzz workload for (Seed, Knobs). Deterministic: the same
/// arguments produce a bit-identical program, data image, and ProgramHash.
Workload makeFuzzWorkload(uint64_t Seed, const FuzzKnobs &Knobs = FuzzKnobs());

/// Resolves a full fuzz name ("fuzz@SEED[:...]"); asserts on parse errors
/// (drivers validate first with parseFuzzSpec). Used by makeWorkload so
/// every driver that resolves workloads by name gets fuzz scenarios for
/// free.
Workload makeFuzzWorkloadFromSpec(const std::string &Name);

} // namespace trident

#endif // TRIDENT_WORKLOADS_FUZZ_FUZZGENERATOR_H
