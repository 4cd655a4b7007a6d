//===- PrefetchBuffer.h - Shared prefetched-line store ---------*- C++ -*-===//
//
// Part of the Trident-SRP reproduction (CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small fully-associative store of prefetched lines shared by the
/// arsenal prefetchers (enhanced-stream, DCPT, T-SKID). Models the
/// prefetch buffer real units drain demand hits from: insert() records a
/// line the unit fetched via the MemoryBackend, take() consumes it on a
/// probe hit. Replacement is FIFO over a fixed ring, so the per-miss path
/// never touches the allocator and occupancy never exceeds Capacity. Slots
/// are packed 8-byte line tags beside their ready cycles, so each lookup
/// is one short scan over the tags.
///
//===----------------------------------------------------------------------===//

#ifndef TRIDENT_HWPF_PREFETCHBUFFER_H
#define TRIDENT_HWPF_PREFETCHBUFFER_H

#include "isa/Instruction.h"
#include "support/Check.h"
#include "support/Types.h"

#include <algorithm>
#include <optional>
#include <vector>

namespace trident {

class PrefetchBuffer {
public:
  /// \p Capacity slots, allocated once; the ring never regrows.
  explicit PrefetchBuffer(unsigned Capacity)
      : Lines(Capacity, Empty), Ready(Capacity, 0) {
    TRIDENT_CHECK(Capacity >= 1, "prefetch buffer needs at least one slot");
  }

  bool contains(Addr LineAddr) const { return find(LineAddr) != Lines.size(); }

  /// Consumes \p LineAddr if present, returning its data-ready cycle.
  std::optional<Cycle> take(Addr LineAddr) {
    size_t I = find(LineAddr);
    if (I == Lines.size())
      return std::nullopt;
    Lines[I] = Empty;
    return Ready[I];
  }

  /// Records a prefetched line; evicts the oldest entry when full. A
  /// duplicate insert refreshes the existing slot in place.
  void insert(Addr LineAddr, Cycle ReadyAt) {
    size_t I = find(LineAddr);
    if (I != Lines.size()) {
      Ready[I] = ReadyAt;
      return;
    }
    Lines[Hand] = LineAddr;
    Ready[Hand] = ReadyAt;
    Hand = Hand + 1 == Lines.size() ? 0 : Hand + 1;
  }

  void clear() {
    std::fill(Lines.begin(), Lines.end(), Empty);
    Hand = 0;
  }

  unsigned capacity() const { return static_cast<unsigned>(Lines.size()); }

private:
  /// Marks a free slot. Line addresses are line-aligned, so never ~0.
  static constexpr Addr Empty = ~Addr(0);

  /// The slot holding \p LineAddr, or Lines.size(): one scan over tags.
  size_t find(Addr LineAddr) const {
    TRIDENT_DCHECK(LineAddr != Empty, "the empty marker is not a line");
    for (size_t I = 0; I < Lines.size(); ++I)
      if (Lines[I] == LineAddr)
        return I;
    return Lines.size();
  }

  /// Fixed Capacity slots as packed tags plus their ready cycles; Hand is
  /// the FIFO replacement cursor and advances only on a new insert.
  std::vector<Addr> Lines;
  std::vector<Cycle> Ready;
  size_t Hand = 0;
};

} // namespace trident

#endif // TRIDENT_HWPF_PREFETCHBUFFER_H
