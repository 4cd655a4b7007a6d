//===- GoldenFile.h - Shared golden-snapshot compare/update ----*- C++ -*-===//
//
// Part of the Trident-SRP reproduction (CGO 2006).
//
// The one implementation of the golden-snapshot protocol that
// golden_stats_test and fuzz_golden_test share: the snapshot budget, the
// file layout under tests/golden/, and compare-or-regenerate. When
// TRIDENT_UPDATE_GOLDENS is set the snapshot is rewritten instead of
// compared; on a mismatch the actual export is dumped to golden_diff/ in
// the working directory so CI can upload it as an artifact.
//
//===----------------------------------------------------------------------===//

#ifndef TRIDENT_TESTS_GOLDENFILE_H
#define TRIDENT_TESTS_GOLDENFILE_H

#include "sim/Simulation.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#ifndef TRIDENT_GOLDEN_DIR
#error "TRIDENT_GOLDEN_DIR must be defined by the build"
#endif

namespace trident::golden {

/// The snapshot budget: small enough that every corpus runs in seconds,
/// long enough that tracing, optimization, and repair all engage. Matches
/// the fault-injection identity tests so the suites cross-check.
inline SimConfig goldenConfig() {
  SimConfig C = SimConfig::withMode(PrefetchMode::SelfRepairing);
  C.SimInstructions = 40'000;
  C.WarmupInstructions = 10'000;
  return C;
}

inline std::string goldenPath(const std::string &File) {
  return std::string(TRIDENT_GOLDEN_DIR) + "/" + File + ".jsonl";
}

/// First line where the two exports differ, for a readable failure message
/// (the full JSONL is hundreds of lines; gtest would print all of them).
inline std::string firstDiff(const std::string &Expected,
                             const std::string &Actual) {
  std::istringstream E(Expected), A(Actual);
  std::string LE, LA;
  for (unsigned Line = 1;; ++Line) {
    bool HaveE = static_cast<bool>(std::getline(E, LE));
    bool HaveA = static_cast<bool>(std::getline(A, LA));
    if (!HaveE && !HaveA)
      return "(no difference found line-wise; byte difference only)";
    if (LE != LA || HaveE != HaveA) {
      std::ostringstream Msg;
      Msg << "first difference at line " << Line << ":\n  golden: "
          << (HaveE ? LE : "<eof>") << "\n  actual: " << (HaveA ? LA : "<eof>");
      return Msg.str();
    }
  }
}

/// Byte-compares \p Actual with tests/golden/<File>.jsonl, or rewrites
/// that file under TRIDENT_UPDATE_GOLDENS. \p Label names the run in
/// failure messages.
inline void checkGolden(const std::string &Label, const std::string &File,
                        const std::string &Actual) {
  if (std::getenv("TRIDENT_UPDATE_GOLDENS")) {
    std::ofstream Out(goldenPath(File), std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(Out) << "cannot write " << goldenPath(File);
    Out << Actual;
    return;
  }

  std::ifstream In(goldenPath(File), std::ios::binary);
  ASSERT_TRUE(In) << "missing golden snapshot " << goldenPath(File)
                  << " — run tools/update_goldens.sh and commit the result";
  std::ostringstream Buf;
  Buf << In.rdbuf();
  const std::string Expected = Buf.str();

  if (Expected != Actual) {
    std::filesystem::create_directories("golden_diff");
    std::ofstream Dump("golden_diff/" + File + ".jsonl",
                       std::ios::binary | std::ios::trunc);
    Dump << Actual;
  }
  EXPECT_TRUE(Expected == Actual)
      << Label << ": stat export drifted from tests/golden/" << File
      << ".jsonl (actual dumped to golden_diff/" << File << ".jsonl; "
      << "regen via tools/update_goldens.sh if the change is intended)\n"
      << firstDiff(Expected, Actual);
}

} // namespace trident::golden

#endif // TRIDENT_TESTS_GOLDENFILE_H
