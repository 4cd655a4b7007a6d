//===- DataMemory.cpp -----------------------------------------------------===//
//
// Part of the Trident-SRP reproduction (CGO 2006).
//
//===----------------------------------------------------------------------===//

#include "mem/DataMemory.h"

#include <algorithm>
#include <mutex>
// GCC and Clang both ship this header; without ASan its poisoning macros
// expand to no-ops.
#include <sanitizer/asan_interface.h>

using namespace trident;

static size_t hashKey(uint64_t Key) {
  Key *= 0x9E3779B97F4A7C15ull; // Fibonacci hashing; VPNs are near-sequential
  return static_cast<size_t>(Key ^ (Key >> 29));
}

namespace {

/// Slabs of destroyed images, kept for the next image built in this
/// process. Only slabs that were live at the same time ever sit here, so
/// the list never exceeds the peak image memory the process already
/// reached. Under ASan a listed slab is poisoned, so a dangling page
/// pointer into a destroyed image faults instead of reading the next
/// job's data.
struct SlabFreeList {
  std::mutex Mu;
  // trident-analyze: guarded-by(Mu)
  std::vector<void *> FreeSlabs;

  static SlabFreeList &instance() {
    // Never destroyed: an image may outlive static destruction.
    static SlabFreeList *L = new SlabFreeList;
    return *L;
  }
};

} // namespace

void DataMemory::SlabRecycler::operator()(Page *Slab) const {
  ASAN_POISON_MEMORY_REGION(Slab, SlabBytes);
  SlabFreeList &L = SlabFreeList::instance();
  std::lock_guard<std::mutex> G(L.Mu);
  L.FreeSlabs.push_back(Slab);
}

DataMemory::Slab DataMemory::takeSlab() {
  void *Recycled = nullptr;
  {
    SlabFreeList &L = SlabFreeList::instance();
    std::lock_guard<std::mutex> G(L.Mu);
    if (!L.FreeSlabs.empty()) {
      Recycled = L.FreeSlabs.back();
      L.FreeSlabs.pop_back();
    }
  }
  if (!Recycled)
    return Slab(new Page[SlabPages]()); // value-initialized: all zero
  ASAN_UNPOISON_MEMORY_REGION(Recycled, SlabBytes);
  std::memset(Recycled, 0, SlabBytes); // unwritten memory reads as zero
  return Slab(static_cast<Page *>(Recycled));
}

DataMemory::DataMemory() {
  Keys.assign(1024, 0);
  Slots.assign(1024, nullptr);
}

const DataMemory::Page *DataMemory::findPage(Addr A) const {
  const uint64_t Key = (A >> PageBits) + 1;
  const size_t Mask = Keys.size() - 1;
  for (size_t I = hashKey(Key) & Mask;; I = (I + 1) & Mask) {
    if (Keys[I] == Key)
      return Slots[I];
    if (Keys[I] == 0)
      return nullptr;
  }
}

uint64_t DataMemory::read64(Addr A) const {
  // Fast path: the access stays within one page.
  size_t Off = A & (PageSize - 1);
  if (Off + 8 <= PageSize) {
    const Page *P = findPage(A);
    if (!P)
      return 0;
    uint64_t V;
    std::memcpy(&V, P->data() + Off, 8);
    return V;
  }
  // Page-straddling access: assemble byte by byte.
  uint64_t V = 0;
  for (unsigned I = 0; I < 8; ++I) {
    const Page *P = findPage(A + I);
    uint8_t B = P ? (*P)[(A + I) & (PageSize - 1)] : 0;
    V |= static_cast<uint64_t>(B) << (8 * I);
  }
  return V;
}

void DataMemory::write64(Addr A, uint64_t Value) {
  size_t Off = A & (PageSize - 1);
  if (Off + 8 <= PageSize) {
    Page &P = getOrCreatePage(A);
    std::memcpy(P.data() + Off, &Value, 8);
    return;
  }
  for (unsigned I = 0; I < 8; ++I) {
    Page &P = getOrCreatePage(A + I);
    P[(A + I) & (PageSize - 1)] = static_cast<uint8_t>(Value >> (8 * I));
  }
}

void DataMemory::fillSequence(Addr A, uint64_t Count, uint64_t First,
                              uint64_t Step) {
  uint64_t V = First;
  while (Count != 0) {
    const size_t Off = A & (PageSize - 1);
    if (Off + 8 > PageSize) {
      // A word straddling two pages.
      write64(A, V);
      A += 8;
      V += Step;
      --Count;
      continue;
    }
    // Every whole word left in this page, behind one page lookup.
    const uint64_t N = std::min<uint64_t>(Count, (PageSize - Off) / 8);
    uint8_t *Dst = getOrCreatePage(A).data() + Off;
    for (uint64_t I = 0; I < N; ++I, Dst += 8, V += Step)
      std::memcpy(Dst, &V, 8);
    A += N * 8;
    Count -= N;
  }
}

DataMemory::Page *DataMemory::allocPage() {
  if (SlabUsed == SlabPages) {
    Slabs.push_back(takeSlab());
    SlabUsed = 0;
  }
  return &Slabs.back()[SlabUsed++];
}

void DataMemory::grow() {
  std::vector<uint64_t> OldKeys(Keys.size() * 2, 0);
  std::vector<Page *> OldSlots(Slots.size() * 2, nullptr);
  OldKeys.swap(Keys);
  OldSlots.swap(Slots);
  const size_t Mask = Keys.size() - 1;
  for (size_t From = 0; From < OldKeys.size(); ++From) {
    if (OldKeys[From] == 0)
      continue;
    size_t I = hashKey(OldKeys[From]) & Mask;
    while (Keys[I] != 0)
      I = (I + 1) & Mask;
    Keys[I] = OldKeys[From];
    Slots[I] = OldSlots[From];
  }
}

DataMemory::Page &DataMemory::getOrCreatePage(Addr A) {
  const uint64_t Key = (A >> PageBits) + 1;
  size_t Mask = Keys.size() - 1;
  size_t I = hashKey(Key) & Mask;
  while (Keys[I] != 0) {
    if (Keys[I] == Key)
      return *Slots[I];
    I = (I + 1) & Mask;
  }
  // Keep the load factor under 3/4 so probe chains stay short.
  if ((NumPages + 1) * 4 > Keys.size() * 3) {
    grow();
    Mask = Keys.size() - 1;
    I = hashKey(Key) & Mask;
    while (Keys[I] != 0)
      I = (I + 1) & Mask;
  }
  Page *P = allocPage();
  Keys[I] = Key;
  Slots[I] = P;
  ++NumPages;
  return *P;
}
