//===- cpu_test.cpp - Unit tests for the SMT core ---------------------------===//
//
// Part of the Trident-SRP reproduction (CGO 2006).
//
//===----------------------------------------------------------------------===//

#include "cpu/SmtCore.h"
#include "isa/ProgramBuilder.h"

#include <gtest/gtest.h>

using namespace trident;

namespace {

/// Simple code space over a plain program (no code cache).
class ProgramSpace final : public CodeSpace {
public:
  explicit ProgramSpace(Program &Prog) : P(Prog) {}
  const Instruction &fetch(Addr PC) const override { return P.at(PC); }

private:
  Program &P;
};

struct Machine {
  Program Prog;
  DataMemory Data;
  MemorySystem Mem{MemSystemConfig::baseline()};
  std::unique_ptr<ProgramSpace> Space;
  std::unique_ptr<SmtCore> Core;

  explicit Machine(Program P, CoreConfig CC = CoreConfig::baseline())
      : Prog(std::move(P)) {
    Space = std::make_unique<ProgramSpace>(Prog);
    Core = std::make_unique<SmtCore>(CC, *Space, Data, Mem);
    Core->startContext(0, Prog.entryPC());
  }

  SmtCore::StopReason run(uint64_t N = 1'000'000) {
    return Core->run(N, /*CycleLimit=*/10'000'000);
  }
};

} // namespace

TEST(SmtCore, AluSemantics) {
  ProgramBuilder B;
  B.loadImm(1, 7).loadImm(2, 3);
  B.alu(Opcode::Add, 3, 1, 2);
  B.alu(Opcode::Sub, 4, 1, 2);
  B.alu(Opcode::Mul, 5, 1, 2);
  B.alu(Opcode::And, 6, 1, 2);
  B.alu(Opcode::Or, 7, 1, 2);
  B.alu(Opcode::Xor, 8, 1, 2);
  B.aluImm(Opcode::ShlI, 9, 1, 2);
  B.aluImm(Opcode::ShrI, 10, 1, 1);
  B.aluImm(Opcode::SubI, 11, 1, 10);
  B.halt();
  Machine M(B.finish());
  EXPECT_EQ(M.run(), SmtCore::StopReason::Halted);
  EXPECT_EQ(M.Core->getReg(0, 3), 10u);
  EXPECT_EQ(M.Core->getReg(0, 4), 4u);
  EXPECT_EQ(M.Core->getReg(0, 5), 21u);
  EXPECT_EQ(M.Core->getReg(0, 6), 3u);
  EXPECT_EQ(M.Core->getReg(0, 7), 7u);
  EXPECT_EQ(M.Core->getReg(0, 8), 4u);
  EXPECT_EQ(M.Core->getReg(0, 9), 28u);
  EXPECT_EQ(M.Core->getReg(0, 10), 3u);
  EXPECT_EQ(M.Core->getReg(0, 11), static_cast<uint64_t>(-3));
}

TEST(SmtCore, ZeroRegisterIsHardwired) {
  ProgramBuilder B;
  B.loadImm(0, 99); // write to r0 ignored
  B.move(1, 0);
  B.halt();
  Machine M(B.finish());
  M.run();
  EXPECT_EQ(M.Core->getReg(0, 1), 0u);
}

TEST(SmtCore, LoadStoreRoundTrip) {
  ProgramBuilder B;
  B.loadImm(1, 0x10000).loadImm(2, 1234);
  B.store(1, 8, 2);
  B.load(3, 1, 8);
  B.halt();
  Machine M(B.finish());
  M.run();
  EXPECT_EQ(M.Core->getReg(0, 3), 1234u);
  EXPECT_EQ(M.Data.read64(0x10008), 1234u);
}

TEST(SmtCore, LoopExecutesCorrectCount) {
  ProgramBuilder B;
  B.loadImm(1, 0).loadImm(2, 100);
  B.label("loop");
  B.addi(1, 1, 1);
  B.blt(1, 2, "loop");
  B.halt();
  Machine M(B.finish());
  EXPECT_EQ(M.run(), SmtCore::StopReason::Halted);
  EXPECT_EQ(M.Core->getReg(0, 1), 100u);
  // 2 prologue + 100 * 2 loop + 1 halt committed instructions.
  EXPECT_EQ(M.Core->stats(0).CommittedOriginal, 2u + 200u + 1u);
}

TEST(SmtCore, ColdMissStallsDependents) {
  ProgramBuilder B;
  B.loadImm(1, 0x100000);
  B.load(2, 1, 0);         // cold: ~350+ cycles
  B.alu(Opcode::Add, 3, 2, 2); // dependent
  B.halt();
  Machine M(B.finish());
  M.run();
  EXPECT_GE(M.Core->now(), 350u);
}

TEST(SmtCore, IndependentMissesOverlap) {
  ProgramBuilder B;
  B.loadImm(1, 0x100000).loadImm(2, 0x200000).loadImm(3, 0x300000);
  B.load(4, 1, 0).load(5, 2, 0).load(6, 3, 0); // three independent misses
  B.alu(Opcode::Add, 7, 4, 5);
  B.alu(Opcode::Add, 7, 7, 6);
  B.halt();
  Machine M(B.finish());
  M.run();
  // Overlapped: far less than 3 x 350.
  EXPECT_LT(M.Core->now(), 700u);
}

TEST(SmtCore, MispredictPenaltyCharged) {
  // A data-dependent unpredictable branch pattern with a predictor that
  // will mispredict: compare cycles against an always-taken loop.
  CoreConfig CC = CoreConfig::baseline();
  auto runLoop = [&](bool UseAlternating) {
    ProgramBuilder B;
    B.loadImm(1, 0).loadImm(2, 2000).loadImm(5, 2);
    B.label("loop");
    B.addi(1, 1, 1);
    if (UseAlternating) {
      // r3 = r1 & 1; branch on it (alternates, but bimodal-friendly
      // patterns differ from pure taken).
      B.aluImm(Opcode::AndI, 3, 1, 1);
      B.beq(3, 0, "skip");
      B.nop();
      B.label("skip");
    } else {
      B.aluImm(Opcode::AndI, 3, 1, 1);
      B.nop();
      B.nop();
    }
    B.blt(1, 2, "loop");
    B.halt();
    Program P = B.finish();
    Machine M(P, CC);
    MetaPredictor BP;
    M.Core->setBranchPredictor(&BP);
    M.Core->startContext(0, P.entryPC());
    M.run();
    return M.Core->now();
  };
  // Sanity only: both complete; the alternating one is not absurdly slow
  // (the meta predictor learns the pattern).
  EXPECT_GT(runLoop(true), 0u);
  EXPECT_GT(runLoop(false), 0u);
}

TEST(SmtCore, OraclePredictionWithoutPredictor) {
  ProgramBuilder B;
  B.loadImm(1, 0).loadImm(2, 100);
  B.label("loop");
  B.addi(1, 1, 1);
  B.blt(1, 2, "loop");
  B.halt();
  Machine M(B.finish());
  M.run();
  EXPECT_EQ(M.Core->stats(0).BranchMispredicts, 0u);
}

TEST(SmtCore, SyntheticInstructionsNotCommitted) {
  ProgramBuilder B;
  B.loadImm(1, 0x10000);
  Instruction Pf = makePrefetch(1, 64);
  Pf.Synthetic = true;
  B.emit(Pf);
  B.halt();
  Machine M(B.finish());
  M.run();
  EXPECT_EQ(M.Core->stats(0).CommittedOriginal, 2u); // loadImm + halt
  EXPECT_EQ(M.Core->stats(0).IssuedTotal, 3u);
}

TEST(SmtCore, SyntheticMemOpsDoNotBlockThePipeline) {
  // A synthetic nfload depending on a cold-missing load must not stall
  // younger independent instructions (it defers instead).
  auto build = [&](bool WithSynthetic) {
    ProgramBuilder B;
    B.loadImm(1, 0x100000);
    B.load(2, 1, 0); // cold miss, 350 cycles
    if (WithSynthetic) {
      Instruction Nf = makeNFLoad(reg::FirstScratch, 2, 0);
      Nf.Synthetic = true;
      B.emit(Nf);
      Instruction Pf = makePrefetch(reg::FirstScratch, 0);
      Pf.Synthetic = true;
      B.emit(Pf);
    }
    for (int I = 0; I < 50; ++I)
      B.addi(10, 10, 1); // independent work
    B.halt();
    return B.finish();
  };
  Machine MWith(build(true));
  MWith.run();
  Machine MWithout(build(false));
  MWithout.run();
  // The synthetic pair costs issue slots but not a 350-cycle stall.
  EXPECT_LT(MWith.Core->now(), MWithout.Core->now() + 30);
}

TEST(SmtCore, StubRunsAtLowPriorityAndCompletes) {
  ProgramBuilder B;
  B.loadImm(1, 0).loadImm(2, 1000);
  B.label("loop");
  B.addi(1, 1, 1);
  B.blt(1, 2, "loop");
  B.halt();
  Machine M(B.finish());

  Cycle DoneAt = 0;
  M.Core->startStub(1, /*Instructions=*/500, /*StartupDelay=*/100,
                    {[](void *P, Cycle C) { *static_cast<Cycle *>(P) = C; },
                     &DoneAt});
  EXPECT_TRUE(M.Core->stubActive(1));
  M.run();
  EXPECT_FALSE(M.Core->stubActive(1));
  EXPECT_GE(DoneAt, 100u); // startup delay observed
  EXPECT_GE(M.Core->helperBusyCycles(), 100u);
  EXPECT_EQ(M.Core->stats(1).StubInstructions, 500u);
  // The main program still completed correctly.
  EXPECT_EQ(M.Core->getReg(0, 1), 1000u);
}

TEST(SmtCore, StubChainingFromCompletionCallback) {
  ProgramBuilder B;
  B.loadImm(1, 0).loadImm(2, 4000);
  B.label("loop");
  B.addi(1, 1, 1);
  B.blt(1, 2, "loop");
  B.halt();
  Machine M(B.finish());

  struct Chain {
    SmtCore &Core;
    int Completions = 0;
    static void fire(void *P, Cycle) {
      Chain &S = *static_cast<Chain *>(P);
      if (++S.Completions < 3)
        S.Core.startStub(1, 100, 0, {&Chain::fire, P});
    }
  };
  Chain C{*M.Core};
  M.Core->startStub(1, 100, 0, {&Chain::fire, &C});
  M.run();
  EXPECT_EQ(C.Completions, 3);
}

TEST(SmtCore, BusSeesCommitsLoadsBranches) {
  struct Recorder final : EventSubscriber {
    unsigned Commits = 0, Loads = 0, Branches = 0;
    void onEvent(const HardwareEvent &E) override {
      switch (E.Kind) {
      case EventKind::Commit:
        ++Commits;
        break;
      case EventKind::LoadOutcome:
        ++Loads;
        break;
      case EventKind::Branch:
        ++Branches;
        break;
      default:
        break;
      }
    }
  };
  ProgramBuilder B;
  B.loadImm(1, 0x10000).loadImm(2, 0).loadImm(3, 5);
  B.label("loop");
  B.load(4, 1, 0);
  B.addi(2, 2, 1);
  B.blt(2, 3, "loop");
  B.halt();
  Machine M(B.finish());
  Recorder R;
  EventBus Bus;
  Bus.subscribe(&R, eventMaskOf(EventKind::Commit) |
                        eventMaskOf(EventKind::LoadOutcome) |
                        eventMaskOf(EventKind::Branch));
  M.Core->setEventBus(&Bus);
  M.run();
  EXPECT_EQ(R.Loads, 5u);
  EXPECT_EQ(R.Branches, 5u);
  EXPECT_EQ(R.Commits, 3u + 15u + 1u);
  EXPECT_EQ(Bus.published(EventKind::LoadOutcome), 5u);
  EXPECT_EQ(Bus.published(EventKind::Commit), 19u);
}

TEST(SmtCore, CycleLimitStops) {
  ProgramBuilder B;
  B.label("spin").jump("spin").halt();
  Machine M(B.finish());
  EXPECT_EQ(M.Core->run(~0ull, /*CycleLimit=*/1000),
            SmtCore::StopReason::CycleLimit);
}

TEST(SmtCore, ClearStatsKeepsMachineState) {
  ProgramBuilder B;
  B.loadImm(1, 42).halt();
  Machine M(B.finish());
  M.run();
  M.Core->clearStats();
  EXPECT_EQ(M.Core->stats(0).CommittedOriginal, 0u);
  EXPECT_EQ(M.Core->getReg(0, 1), 42u); // registers survive
}

// The run loop folds the empty cycle after an issuing cycle into the
// following skip when every live context stopped on a timed stall. These
// pin each edge of that fold to the cycle counts of the per-cycle loop.

namespace {
/// loadImm; a cold load (cycle 1); a dependent add that stalls on it.
Program coldLoadThenDependent() {
  ProgramBuilder B;
  B.loadImm(1, 0x100000);
  B.load(2, 1, 0);
  B.alu(Opcode::Add, 3, 2, 2);
  B.halt();
  return B.finish();
}
} // namespace

TEST(SmtCoreFold, CycleLimitOneCycleAfterIssue) {
  // The load issues in cycle 1 and the add then waits on it: a limit at
  // cycle 2 stops there, not at the load's wake.
  {
    Machine M(coldLoadThenDependent());
    EXPECT_EQ(M.Core->run(~0ull, /*CycleLimit=*/2),
              SmtCore::StopReason::CycleLimit);
    EXPECT_EQ(M.Core->now(), 2u);
  }
  // One cycle later the empty cycle 2 skips to the wake, past the limit.
  {
    Machine M(coldLoadThenDependent());
    EXPECT_EQ(M.Core->run(~0ull, /*CycleLimit=*/3),
              SmtCore::StopReason::CycleLimit);
    EXPECT_EQ(M.Core->now(), 354u);
  }
  Machine M(coldLoadThenDependent());
  EXPECT_EQ(M.run(), SmtCore::StopReason::Halted);
  EXPECT_EQ(M.Core->now(), 355u);
}

TEST(SmtCoreFold, StubStartupEndsWhileMainStalls) {
  // Three dependent cold loads keep context 0 stalled for long stretches;
  // the stub's start-up delay ends inside the first one.
  ProgramBuilder B;
  B.loadImm(1, 0x100000);
  for (int I = 0; I < 3; ++I) {
    B.load(2, 1, 0);
    B.alu(Opcode::Add, 1, 1, 2);
    B.addi(1, 1, 4096);
  }
  B.halt();
  Machine M(B.finish());
  Cycle DoneAt = 0;
  M.Core->startStub(1, /*Instructions=*/30, /*StartupDelay=*/100,
                    {[](void *P, Cycle C) { *static_cast<Cycle *>(P) = C; },
                     &DoneAt});
  EXPECT_EQ(M.run(), SmtCore::StopReason::Halted);
  EXPECT_EQ(DoneAt, 107u);
  EXPECT_EQ(M.Core->helperBusyCycles(), 108u);
  EXPECT_EQ(M.Core->now(), 1066u);
  EXPECT_EQ(M.Core->stats(1).StubInstructions, 30u);
}

TEST(SmtCoreFold, MispredictStallRightAfterIssue) {
  // A loop whose exit branch the predictor gets wrong: the branch issues
  // and its fetch stall starts in the same cycle.
  ProgramBuilder B;
  B.loadImm(1, 0).loadImm(2, 7);
  B.label("loop");
  B.addi(1, 1, 1);
  B.aluImm(Opcode::AndI, 3, 1, 2);
  B.beq(3, 0, "skip");
  B.addi(4, 4, 1);
  B.label("skip");
  B.blt(1, 2, "loop");
  B.halt();
  Machine M(B.finish());
  MetaPredictor BP;
  M.Core->setBranchPredictor(&BP);
  EXPECT_EQ(M.run(), SmtCore::StopReason::Halted);
  EXPECT_EQ(M.Core->stats(0).BranchMispredicts, 5u);
  EXPECT_EQ(M.Core->now(), 116u);
  EXPECT_EQ(M.Core->getReg(0, 4), 4u);
}

TEST(SmtCoreFold, RobFullStall) {
  // Eight independent cold loads into a 4-entry ROB: issue stops on a
  // full ROB until the oldest load completes.
  CoreConfig CC = CoreConfig::baseline();
  CC.RobSize = 4;
  ProgramBuilder B;
  B.loadImm(1, 0x100000);
  for (int I = 0; I < 8; ++I)
    B.load(10 + I, 1, I * 4096);
  B.halt();
  Machine M(B.finish(), CC);
  EXPECT_EQ(M.run(), SmtCore::StopReason::Halted);
  EXPECT_EQ(M.Core->now(), 708u);
  EXPECT_EQ(M.Core->stats(0).CommittedOriginal, 10u);
}
