// Golden RunReport comparison shared by the byte-identical report tests
// (netsim_determinism_test, transport_golden_test).
#pragma once

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

namespace gs {

// Expects `got` to equal the golden file at `path` byte for byte:
// whitespace, key order and float formatting included. With
// GS_UPDATE_GOLDENS set it rewrites the golden instead and skips. On a
// mismatch it writes `got` to the test temp directory and prints the
// scripts/report_diff.py command that lists the fields that drifted.
inline void ExpectMatchesGolden(const std::string& got,
                                const std::string& path) {
  if (std::getenv("GS_UPDATE_GOLDENS") != nullptr) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << got;
    ASSERT_TRUE(out.good());
    GTEST_SKIP() << "golden regenerated: " << path;
  }

  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good())
      << "missing golden " << path
      << " — generate with GS_UPDATE_GOLDENS=1";
  std::ostringstream want;
  want << in.rdbuf();
  if (got == want.str()) return;

  const std::string actual =
      ::testing::TempDir() + path.substr(path.find_last_of('/') + 1);
  std::ofstream(actual, std::ios::binary | std::ios::trunc) << got;
  ADD_FAILURE() << "RunReport drifted from " << path
                << "\n  fields: scripts/report_diff.py " << path << " "
                << actual
                << "\n  if intentional, regenerate with GS_UPDATE_GOLDENS=1";
}

}  // namespace gs
