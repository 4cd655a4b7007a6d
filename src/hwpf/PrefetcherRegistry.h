//===- PrefetcherRegistry.h - Name -> prefetcher factory -------*- C++ -*-===//
//
// Part of the Trident-SRP reproduction (CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The arsenal registry: every hardware prefetcher the simulator ships is
/// registered here by name with a knob table and a factory, so the sim
/// layer, the CLI (`trident_sim --hwpf <spec>`), and the benches resolve
/// prefetchers from one string instead of hardcoding types. A spec is
///
///     name                      e.g.  "sb8x8", "dcpt", "none"
///     name:knob=value,...       e.g.  "dcpt:entries=64,degree=2"
///
/// in the one knob grammar (support/Knobs.h); each knob's range is the
/// unit constructor's precondition below and a tested bound above, so no
/// accepted spec can abort, exhaust memory or hang a run. "none" (or an
/// empty spec) means no prefetcher and resolves to a null unit,
/// successfully. Built-in entries
/// are registered lazily inside instance(), so there is no static-init
/// ordering to get wrong; phase-aware selectors (ROADMAP) can add their
/// own entries at startup via add().
///
//===----------------------------------------------------------------------===//

#ifndef TRIDENT_HWPF_PREFETCHERREGISTRY_H
#define TRIDENT_HWPF_PREFETCHERREGISTRY_H

#include "mem/MemorySystem.h"
#include "support/Knobs.h"

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace trident {

/// Wiring facts the factory needs from the surrounding machine.
struct PrefetcherEnv {
  /// A TLB is being modeled: prefetchers that can should stop streams at
  /// page boundaries.
  bool PageBounded = false;
  unsigned PageBits = 12;
};

class PrefetcherRegistry {
public:
  /// Builds a unit from a full spec ("name[:k=v,...]"); on a bad knob
  /// returns nullptr and sets \p Error.
  using Factory = std::function<std::unique_ptr<HwPrefetcher>(
      std::string_view Spec, const PrefetcherEnv &, std::string *Error)>;

  struct Info {
    std::string Name;
    /// One-line description for --hwpf list.
    std::string Summary;
    /// The knobs a spec may set, with their ranges.
    KnobTable Schema;
    Factory Make;
  };

  /// The process-wide registry, with the built-in arsenal registered.
  static PrefetcherRegistry &instance();

  /// Registers an entry. Re-registering a name is a programming error
  /// (TRIDENT_CHECK): silent replacement would make spec resolution depend
  /// on registration order.
  void add(Info I);

  /// Registered names, sorted: the arsenal. The fig9 matrix sweeps it and
  /// the bandit's arm indices index it, so its order is load-bearing.
  std::vector<std::string> names() const;
  const Info *lookup(const std::string &Name) const;

  /// Resolves \p Spec to a unit. "none"/"" yields nullptr with no error;
  /// an unknown name or bad knob yields nullptr with \p Error set.
  std::unique_ptr<HwPrefetcher> create(const std::string &Spec,
                                       const PrefetcherEnv &Env,
                                       std::string *Error) const;

  /// True when \p Spec names the explicit no-prefetcher configuration.
  static bool isNone(const std::string &Spec) {
    return Spec.empty() || Spec == "none";
  }

private:
  PrefetcherRegistry();

  /// Ordered by name so names() and list output are deterministic.
  std::map<std::string, Info> Entries;
};

} // namespace trident

#endif // TRIDENT_HWPF_PREFETCHERREGISTRY_H
