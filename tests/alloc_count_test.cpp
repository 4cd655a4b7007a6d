//===- alloc_count_test.cpp - Heap-allocation regression harness -----------===//
//
// Part of the Trident-SRP reproduction (CGO 2006).
//
// The zero-alloc cycle-loop contract: once the machine is warmed up, the
// pure-hardware simulation path (SmtCore::run + MemorySystem + stream
// buffers + branch predictor) performs ZERO heap allocations per simulated
// cycle inside the measurement window. Every hardware structure is a
// fixed-capacity table reserved at construction; steady-state simulation
// is pointer arithmetic over those tables.
//
// With the Trident runtime attached the optimizer itself may allocate
// (trace bodies, prefetch plans, code-cache installs) — that is software,
// not hardware — but those allocations must be *bounded by optimizer
// activity*, never per-cycle or per-instruction.
//
// The harness overrides global operator new/delete in this translation
// unit (which covers the whole test binary) and counts allocations only
// between enable()/disable() around the measured run.
//
//===----------------------------------------------------------------------===//

#include "events/EventTracer.h"
#include "sim/Machine.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

//===----------------------------------------------------------------------===//
// Counting global allocator
//===----------------------------------------------------------------------===//

namespace {
std::atomic<bool> GCounting{false};
std::atomic<uint64_t> GAllocs{0};

void *countedAlloc(std::size_t N) {
  if (GCounting.load(std::memory_order_relaxed))
    GAllocs.fetch_add(1, std::memory_order_relaxed);
  if (void *P = std::malloc(N ? N : 1))
    return P;
  throw std::bad_alloc();
}
} // namespace

void *operator new(std::size_t N) { return countedAlloc(N); }
void *operator new[](std::size_t N) { return countedAlloc(N); }
void *operator new(std::size_t N, const std::nothrow_t &) noexcept {
  if (GCounting.load(std::memory_order_relaxed))
    GAllocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(N ? N : 1);
}
void *operator new[](std::size_t N, const std::nothrow_t &) noexcept {
  if (GCounting.load(std::memory_order_relaxed))
    GAllocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(N ? N : 1);
}
void operator delete(void *P) noexcept { std::free(P); }
void operator delete[](void *P) noexcept { std::free(P); }
void operator delete(void *P, std::size_t) noexcept { std::free(P); }
void operator delete[](void *P, std::size_t) noexcept { std::free(P); }
void operator delete(void *P, const std::nothrow_t &) noexcept { std::free(P); }
void operator delete[](void *P, const std::nothrow_t &) noexcept {
  std::free(P);
}

using namespace trident;

namespace {

/// Runs the real machine (sim/Machine.h) for \p Instructions more
/// committed instructions with the allocation counter on, so the window
/// wraps exactly the measured runUntil and nothing else.
uint64_t countedRun(Machine &M, uint64_t Instructions) {
  uint64_t Goal = M.primary().stats(0).CommittedOriginal + Instructions;
  GAllocs.store(0, std::memory_order_relaxed);
  GCounting.store(true, std::memory_order_relaxed);
  M.runUntil(Goal);
  GCounting.store(false, std::memory_order_relaxed);
  return GAllocs.load(std::memory_order_relaxed);
}

} // namespace

//===----------------------------------------------------------------------===//
// Hardware baseline: zero allocations per cycle in steady state
//===----------------------------------------------------------------------===//

TEST(AllocCount, HardwareBaselineSteadyStateIsAllocFree) {
  // A memory-bound and a compute-bound workload cover both ends of the
  // hardware path (stream-buffer churn vs issue-limited ALU work).
  for (const char *Name : {"mcf", "dot", "equake", "swim"}) {
    Machine M(makeWorkload(Name), SimConfig::hwBaseline());
    // Warmup long enough that the working set's pages, the stream-buffer
    // rings, and the ROB heap all reach their steady-state footprint.
    M.runUntil(150'000);
    M.startMeasurement();
    uint64_t Allocs = countedRun(M, 40'000);
    EXPECT_EQ(Allocs, 0u)
        << Name << ": the pure-hardware measurement window heap-allocated "
        << Allocs << " time(s); the cycle loop must be allocation-free";
  }
}

TEST(AllocCount, TracedHardwareBaselineIsAllocFree) {
  // An attached tracer makes the core construct and publish every
  // hot-path event; the bus delivers each by reference and the tracer
  // copies it into its reserved ring, so the window stays allocation-free.
  EventTracer Tracer;
  Machine M(makeWorkload("mcf"), SimConfig::hwBaseline(), &Tracer);
  M.runUntil(150'000);
  M.startMeasurement();
  uint64_t Before = Tracer.recorded();
  uint64_t Allocs = countedRun(M, 40'000);
  EXPECT_GT(Tracer.recorded() - Before, 40'000u);
  EXPECT_EQ(Allocs, 0u)
      << "the traced measurement window heap-allocated " << Allocs
      << " time(s); event delivery and the tracer ring must not allocate";
}

//===----------------------------------------------------------------------===//
// Trident attached: allocations bounded by optimizer activity
//===----------------------------------------------------------------------===//

TEST(AllocCount, TridentAllocationsScaleWithOptimizerEventsNotCycles) {
  Machine M(makeWorkload("mcf"),
            SimConfig::withMode(PrefetchMode::SelfRepairing));
  M.runUntil(100'000);
  M.startMeasurement();
  uint64_t Allocs = countedRun(M, 40'000);

  // Everything the optimizer did in the window, at event granularity.
  uint64_t Activity = M.Bus.published(EventKind::HotTrace) +
                      M.Bus.published(EventKind::DelinquentLoad) +
                      M.Bus.published(EventKind::HelperDone) +
                      M.Bus.published(EventKind::TraceEntry) +
                      M.Bus.published(EventKind::TraceExit);
  // Generous per-event constant (a trace formation allocates a body, a
  // plan, emission bookkeeping...), but strictly event-proportional: a
  // per-cycle or per-instruction leak blows through this immediately
  // (40k instructions >> 512 * optimizer events on this budget).
  uint64_t Bound = 512 * (Activity + 1);
  EXPECT_LE(Allocs, Bound)
      << "optimizer-side allocations (" << Allocs
      << ") exceed the activity-proportional budget (" << Bound << " for "
      << Activity << " optimizer events)";

  uint64_t Commits = M.primary().stats(0).CommittedOriginal;
  EXPECT_LT(Allocs, Commits / 4)
      << "allocation count looks per-instruction, not per-optimizer-event";
}
