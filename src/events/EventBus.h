//===- EventBus.h - Multi-subscriber hardware-event dispatch ---*- C++ -*-===//
//
// Part of the Trident-SRP reproduction (CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The bus that replaces the old single hard-wired CoreListener hook.
/// SmtCore publishes typed HardwareEvents into the bus; any number of
/// subscribers — the Trident runtime (whose watch table, branch profiler
/// and DLT read the commit stream), the selector's phase monitor, the
/// fault injector, the ring-buffered event tracer — receive exactly the
/// kinds they asked for.
///
/// Dispatch contract (load-bearing for bit-identical reproduction):
///
///  * Per kind, subscribers are invoked in subscription order; the
///    Machine constructor is the one place that fixes it.
///  * publish() is synchronous and reentrant: a subscriber may publish
///    further events (the runtime turns a Commit into a HotTrace event),
///    but must not subscribe/unsubscribe during a dispatch. A nested
///    event reaches every subscriber before the outer event reaches the
///    later ones, so a tracer subscribed last records events in arrival
///    order (a TraceEntry before the Commit that raised it).
///  * The bus itself adds no timing: events describe the machine, they
///    never advance it.
///
/// Hot-path note: publishers should gate event construction on
/// activeMask() (one branch per potential event) so a bus with no
/// subscribers for a kind costs a single predictable-not-taken branch.
/// SmtCore caches the mask at run() entry for exactly this reason.
///
//===----------------------------------------------------------------------===//

#ifndef TRIDENT_EVENTS_EVENTBUS_H
#define TRIDENT_EVENTS_EVENTBUS_H

#include "events/HardwareEvent.h"
#include "support/Check.h"

#include <array>
#include <cstdint>
#include <vector>

namespace trident {

/// A sink on the bus. Implementations dispatch on E.Kind (they only ever
/// see kinds they subscribed to).
class EventSubscriber {
public:
  virtual ~EventSubscriber();
  virtual void onEvent(const HardwareEvent &E) = 0;
};

class EventBus {
public:
  /// Registers \p S for every kind set in \p Mask. Per kind, dispatch
  /// order equals subscription order. Must not be called from inside a
  /// publish() dispatch.
  void subscribe(EventSubscriber *S, EventKindMask Mask) {
    TRIDENT_CHECK(S != nullptr, "null subscriber");
    for (unsigned K = 0; K < kNumEventKinds; ++K)
      if (Mask & (EventKindMask{1} << K))
        ByKind[K].push_back(S); // trident-lint: alloc-ok(subscription setup)
    Active |= Mask & kAllEventsMask;
  }

  /// Union of every subscriber's kind mask. Publishers test this before
  /// constructing an event.
  EventKindMask activeMask() const { return Active; }
  bool anyFor(EventKind K) const { return (Active & eventMaskOf(K)) != 0; }

  /// Synchronously delivers \p E to every subscriber of its kind, in
  /// subscription order, and counts the publish.
  void publish(const HardwareEvent &E) {
    const auto K = static_cast<size_t>(E.Kind);
    TRIDENT_DCHECK(K < kNumEventKinds, "publishing a bad event kind %zu", K);
    ++Published[K];
    for (EventSubscriber *S : ByKind[K])
      S->onEvent(E);
  }

  /// Publishes counted since construction or the last clearCounts().
  const std::array<uint64_t, kNumEventKinds> &publishedCounts() const {
    return Published;
  }
  uint64_t published(EventKind K) const {
    return Published[static_cast<size_t>(K)];
  }

  /// Resets the publish counters (measurement-window boundary); the
  /// subscriber lists are untouched.
  void clearCounts() { Published.fill(0); }

  size_t numSubscribers(EventKind K) const {
    return ByKind[static_cast<size_t>(K)].size();
  }

private:
  std::array<std::vector<EventSubscriber *>, kNumEventKinds> ByKind;
  std::array<uint64_t, kNumEventKinds> Published{};
  EventKindMask Active = 0;
};

} // namespace trident

#endif // TRIDENT_EVENTS_EVENTBUS_H
