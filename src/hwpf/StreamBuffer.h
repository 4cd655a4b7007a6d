//===- StreamBuffer.h - Predictor-directed stream buffers ------*- C++ -*-===//
//
// Part of the Trident-SRP reproduction (CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The baseline hardware prefetcher: N stream buffers of D entries each,
/// allocated on confident stride-predictor entries and advanced by the
/// predicted stride (Sherwood et al., "Predictor-Directed Stream Buffers",
/// MICRO 2000 — the paper's reference [27]). The paper evaluates 4x4 and
/// 8x8 configurations and adopts 8x8 as the baseline (Figure 2).
///
//===----------------------------------------------------------------------===//

#ifndef TRIDENT_HWPF_STREAMBUFFER_H
#define TRIDENT_HWPF_STREAMBUFFER_H

#include "hwpf/StridePredictor.h"
#include "mem/MemorySystem.h"

#include <vector>

namespace trident {

struct StreamBufferConfig {
  unsigned NumBuffers = 8;
  unsigned Depth = 8;
  unsigned HistoryEntries = 1024;
  /// Minimum accesses with a stable stride before a buffer is allocated
  /// (confidence-based allocation).
  bool RequireConfidence = true;
  /// Stop prefetching at page boundaries (classic stream-buffer
  /// behaviour; enabled together with the TLB model).
  bool StopAtPageBoundary = false;
  unsigned PageBits = 12;

  static StreamBufferConfig config4x4() { return {4, 4, 1024, true}; }
  static StreamBufferConfig config8x8() { return {8, 8, 1024, true}; }
};

/// Statistics for the stream-buffer unit.
// trident-analyze: unregistered-ok(exported through snapshotStats)
struct StreamBufferStats {
  uint64_t Allocations = 0;
  uint64_t ProbeHits = 0;
  uint64_t ProbeMisses = 0;
  uint64_t LinesPrefetched = 0;
};

class StreamBufferUnit final : public HwPrefetcher {
public:
  explicit StreamBufferUnit(const StreamBufferConfig &Config);

  // HwPrefetcher interface.
  void trainOnMiss(Addr PC, Addr ByteAddr, Cycle Now,
                   MemoryBackend &BE) override;
  std::optional<Cycle> probe(Addr LineAddr, Cycle Now,
                             MemoryBackend &BE) override;
  /// Reports exactly the four legacy counters under their historical
  /// names, so the default configuration's "hwpf." registry lines stay
  /// byte-identical to the golden corpus.
  HwPfStats snapshotStats() const override;
  std::string name() const override;

  const StreamBufferConfig &config() const { return Config; }
  const StreamBufferStats &stats() const { return Stats; }
  const StridePredictor &predictor() const { return Predictor; }

  /// Number of currently allocated (valid) buffers — for tests.
  unsigned numActiveBuffers() const;

private:
  /// Fills a buffer may launch per refill call (gradual ramp).
  static constexpr unsigned MaxFetchesPerRefill = 2;

  struct Entry {
    Addr LineAddr = 0;
    Cycle Ready = 0;
  };

  // trident-analyze: not-a-hw-table(per-stream record; Ring is sized to
  // the config Depth once at construction and never regrows)
  struct Buffer {
    bool Valid = false;
    /// Page the stream was (re)primed in, for the page-boundary stop.
    uint64_t PrimeVpn = 0;
    /// Next byte address the stream will prefetch.
    Addr NextAddr = 0;
    int64_t Stride = 0;
    Addr AllocPC = 0;
    uint64_t LastUse = 0;
    /// FIFO of prefetched lines: a fixed ring of Depth slots allocated at
    /// construction, so probe/refill on the per-miss path never touch the
    /// allocator (a deque reallocates blocks as the window slides).
    std::vector<Entry> Ring;
    uint32_t Head = 0;  ///< slot of the oldest entry
    uint32_t Count = 0; ///< live entries
    /// Conservative bounding box over every line pushed since the last
    /// clearEntries(): pops leave it stale-wide, which only costs a
    /// needless scan, never a wrong answer. Lets the per-miss probe and
    /// coverage checks reject a whole buffer with two compares instead
    /// of walking its entries (strides may be negative or skip lines, so
    /// an exact range test is not available).
    Addr LoLine = ~static_cast<Addr>(0);
    Addr HiLine = 0;

    uint32_t slot(uint32_t I) const {
      uint32_t S = Head + I; // Head < cap and I <= Count <= cap
      return S >= Ring.size() ? S - static_cast<uint32_t>(Ring.size()) : S;
    }
    const Entry &at(uint32_t I) const { return Ring[slot(I)]; }
    const Entry &backEntry() const { return Ring[slot(Count - 1)]; }
    void push(const Entry &E) {
      Ring[slot(Count)] = E;
      ++Count;
      if (E.LineAddr < LoLine)
        LoLine = E.LineAddr;
      if (E.LineAddr > HiLine)
        HiLine = E.LineAddr;
    }
    bool mayContain(Addr LineAddr) const {
      return LineAddr >= LoLine && LineAddr <= HiLine;
    }
    /// Drops the oldest \p N entries.
    void popFront(uint32_t N) {
      Head = slot(N);
      Count -= N;
    }
    void clearEntries() {
      Head = 0;
      Count = 0;
      LoLine = ~static_cast<Addr>(0);
      HiLine = 0;
    }
  };

  /// Tops \p B up to Depth entries, issuing fills through \p BE.
  void refill(Buffer &B, Cycle Now, MemoryBackend &BE);

  /// True if some buffer already streams over \p LineAddr with \p Stride.
  bool coveredByExistingStream(Addr LineAddr) const;

  StreamBufferConfig Config;
  StridePredictor Predictor;
  std::vector<Buffer> Buffers;
  StreamBufferStats Stats;
  uint64_t UseClock = 0;
};

} // namespace trident

#endif // TRIDENT_HWPF_STREAMBUFFER_H
