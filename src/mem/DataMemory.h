//===- DataMemory.h - Sparse functional data memory ------------*- C++ -*-===//
//
// Part of the Trident-SRP reproduction (CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Byte-addressable sparse memory backing the functional execution of
/// workloads. Pages materialize zero-filled on first touch, which also gives
/// non-faulting loads (Section 3.4.3) their "never traps" semantics for
/// free: any address reads as zero until written.
///
/// Page storage comes in 1 MB slabs recycled through one process-wide free
/// list, so a sweep of short jobs does not page-fault every job's image in
/// afresh.
///
//===----------------------------------------------------------------------===//

#ifndef TRIDENT_MEM_DATAMEMORY_H
#define TRIDENT_MEM_DATAMEMORY_H

#include "isa/Instruction.h"

#include <array>
#include <cstring>
#include <memory>
#include <vector>

namespace trident {

class DataMemory {
public:
  static constexpr size_t PageBits = 12;
  static constexpr size_t PageSize = size_t(1) << PageBits;

  DataMemory();

  /// Reads a 64-bit little-endian value; unwritten memory reads as zero.
  uint64_t read64(Addr A) const;

  /// Writes a 64-bit little-endian value, materializing pages as needed.
  void write64(Addr A, uint64_t Value);

  /// Writes \p Count consecutive 64-bit words from \p A: word I is
  /// \p First + I * \p Step. The same bytes as the write64() loop, with one
  /// page lookup per page instead of one per word (image building).
  void fillSequence(Addr A, uint64_t Count, uint64_t First, uint64_t Step);

  /// Number of materialized 4KB pages (footprint introspection for tests).
  size_t numPages() const { return NumPages; }

private:
  using Page = std::array<uint8_t, PageSize>;
  /// Pages per allocation slab (1 MB of data memory).
  static constexpr size_t SlabPages = 256;
  static constexpr size_t SlabBytes = SlabPages * sizeof(Page);

  /// Hands a slab back to the process-wide free list (DataMemory.cpp).
  struct SlabRecycler {
    void operator()(Page *Slab) const;
  };
  using Slab = std::unique_ptr<Page[], SlabRecycler>;

  /// A zeroed slab: a recycled one when the free list has one, else fresh.
  static Slab takeSlab();

  const Page *findPage(Addr A) const;
  Page &getOrCreatePage(Addr A);
  Page *allocPage();
  void grow();

  // Open-addressing VPN -> page table with slab-allocated page storage:
  // a streaming workload materializes pages steadily, and per-page
  // unordered_map nodes would make the cycle loop allocate. The flat
  // table probes linearly over packed keys; the allocator is touched
  // only on a table doubling or a fresh 1 MB slab (both amortized far
  // below once per measurement window).
  std::vector<uint64_t> Keys; ///< VPN + 1; 0 marks an empty slot
  std::vector<Page *> Slots;
  size_t NumPages = 0;
  std::vector<Slab> Slabs;
  size_t SlabUsed = SlabPages; ///< forces a slab on first materialization
};

} // namespace trident

#endif // TRIDENT_MEM_DATAMEMORY_H
