//===- Machine.h - The simulated machine, solo or mixed --------*- C++ -*-===//
//
// Part of the Trident-SRP reproduction (CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one machine runSimulation builds: lanes of private cores over ONE
/// shared memory system. Lane 0 runs the measured workload with the full
/// wiring (event bus, Trident runtime, selector control plane, fault
/// injector, tracer); lanes 1..N run SimConfig::MixWith co-runners as raw
/// cores that exist to contend for cache capacity, MSHRs, bus bandwidth
/// and the hardware prefetcher (DESIGN.md §16). A solo run is a machine
/// with zero co-runners.
///
/// Exposed so tests can drive the real machine with their own seams (the
/// allocation counter wraps one runUntil call); everything else goes
/// through runSimulation.
///
//===----------------------------------------------------------------------===//

#ifndef TRIDENT_SIM_MACHINE_H
#define TRIDENT_SIM_MACHINE_H

#include "branch/BranchPredictor.h"
#include "control/PhaseMonitor.h"
#include "sim/Simulation.h"

#include <memory>
#include <string>
#include <vector>

namespace trident {

/// One core's private half of the machine. Member order is load-bearing:
/// Prog/Data/CC must be alive before Image, Image before Core.
struct Lane {
  std::string Name;
  uint64_t ProgramHash = 0;
  Program Prog; // private copy: Trident patches the primary's
  DataMemory Data;
  CodeCache CC;
  CodeImage Image;
  MetaPredictor Predictor;
  SmtCore Core;
  /// Lane-local cycle at the start of the measurement window (clocks are
  /// not cleared by clearStats).
  Cycle MeasureStart = 0;

  Lane(const Workload &W, const CoreConfig &Cfg, MemorySystem &Mem);
  Lane(const Lane &) = delete;
  Lane &operator=(const Lane &) = delete;

  uint64_t instructions() const { return Core.stats(0).CommittedOriginal; }
  Cycle cycles() const { return Core.now() - MeasureStart; }
};

struct Machine {
  /// The machine's own copy of the config, with the selector heartbeat
  /// resolved into Config.Core (the caller's config stays untouched, so
  /// its memo-cache key is stable).
  SimConfig Config;
  MemorySystem Mem;
  EventBus Bus;
  /// Lanes[0] is the primary; lane I addresses memory at bias I << 44.
  std::vector<std::unique_ptr<Lane>> Lanes;
  std::unique_ptr<TridentRuntime> Runtime;
  std::unique_ptr<PhaseMonitor> Monitor;
  std::unique_ptr<FaultInjector> Injector;
  /// The shared round-robin cycle boundary (see runUntil).
  Cycle Boundary = 0;

  /// Builds the machine for \p W under \p Config. \p Tracer, when given,
  /// must outlive the machine.
  Machine(const Workload &W, const SimConfig &Config,
          EventTracer *Tracer = nullptr);
  // Cores hold the addresses of the bus and the memory system.
  Machine(const Machine &) = delete;
  Machine &operator=(const Machine &) = delete;

  SmtCore &primary() { return Lanes.front()->Core; }

  /// Runs until the primary has committed \p CommitGoal original
  /// instructions since the last clearStats, or halts. Quantum
  /// round-robin: each round the boundary advances by MixQuantumCycles,
  /// the primary runs toward its goal (stopping once its clock reaches
  /// the boundary), then each live co-runner runs until its clock
  /// reaches the boundary. The boundary is checked once per cycle step,
  /// and a stall skip-ahead jumps straight to the next wake-up cycle, so
  /// a lane can end a round past the boundary (measured: a co-runner at
  /// cycle 842133 against a boundary of 842000) and the next round starts
  /// it that far ahead. Returns CommitTarget or Halted.
  SmtCore::StopReason runUntil(uint64_t CommitGoal);

  /// The warmup-to-measurement transition: enables Trident's dynamic
  /// optimization (Section 4.2) and zeroes every statistic.
  void startMeasurement();
};

} // namespace trident

#endif // TRIDENT_SIM_MACHINE_H
