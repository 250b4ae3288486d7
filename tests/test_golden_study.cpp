// Byte-for-byte pin of the `wss study` table. tests/golden/study.txt is
// the table `wss study --system all --cap 300 --chatter 3000` printed
// before the study learned to build the next system's simulator while
// the pool reduces the current one. Every thread count must print it
// unchanged: 1 keeps the serial order, 2, 4 and 7 overlap the build
// with the pass. A one-system run (the loop with no next system) must
// print the header and that system's row.
//
// update_goldens does not write this file; it is not a core::Study
// artifact. An intentional change to the table means editing it by
// hand and saying why.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "cli/commands.hpp"

namespace wss::cli {
namespace {

#ifndef WSS_GOLDEN_DIR
#error "tests/CMakeLists.txt must define WSS_GOLDEN_DIR"
#endif

std::string read_golden() {
  std::ifstream is(std::string(WSS_GOLDEN_DIR) + "/study.txt",
                   std::ios::binary);
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

/// Runs `wss study --cap 300 --chatter 3000` with `extra` flags
/// in-process and returns its stdout; fails the test on a non-zero exit.
std::string study(std::vector<std::string> extra) {
  std::vector<std::string> tokens = {"study", "--cap", "300", "--chatter",
                                     "3000"};
  tokens.insert(tokens.end(), extra.begin(), extra.end());
  std::vector<const char*> argv = {"wss"};
  for (const auto& t : tokens) argv.push_back(t.c_str());
  std::ostringstream out;
  std::ostringstream err;
  const int code = run(Args::parse(static_cast<int>(argv.size()), argv.data()),
                       out, err);
  EXPECT_EQ(code, 0) << err.str();
  return out.str();
}

/// The golden's two header lines plus the row that starts with `name`.
std::string header_and_row(const std::string& golden, const std::string& name) {
  std::istringstream is(golden);
  std::string line;
  std::string out;
  for (int n = 0; std::getline(is, line); ++n) {
    if (n < 2 || line.rfind(name + " ", 0) == 0) out += line + "\n";
  }
  return out;
}

TEST(GoldenStudy, AllSystemsMatchAtEveryThreadCount) {
  const std::string golden = read_golden();
  ASSERT_FALSE(golden.empty()) << "missing " WSS_GOLDEN_DIR "/study.txt";
  for (const char* threads : {"1", "2", "4", "7"}) {
    EXPECT_EQ(study({"--system", "all", "--threads", threads}), golden)
        << "--threads " << threads;
  }
}

TEST(GoldenStudy, OneSystemPrintsItsGoldenRow) {
  const std::string expected = header_and_row(read_golden(), "liberty");
  ASSERT_EQ(std::count(expected.begin(), expected.end(), '\n'), 3);
  for (const char* threads : {"1", "2", "4", "7"}) {
    EXPECT_EQ(study({"--system", "liberty", "--threads", threads}), expected)
        << "--threads " << threads;
  }
}

}  // namespace
}  // namespace wss::cli
