// The bench_diff CLI against three tiny fixture documents: a run within the
// regression limit passes, a run past it fails, and a run that lost a
// baseline benchmark fails instead of passing silently.

#include <sys/wait.h>

#include <cstdio>
#include <string>

#include "gtest/gtest.h"

namespace {

struct CliResult {
  int exit_code = -1;
  std::string output;
};

CliResult run_bench_diff(const std::string& current,
                         const std::string& extra = std::string()) {
  const std::string dir = LCL_BENCH_DIFF_FIXTURES;
  const std::string command = std::string(LCL_BENCH_DIFF_PATH) +
                              " --baseline=" + dir + "/baseline.json" +
                              " --current=" + dir + "/" + current + " " +
                              extra + " 2>&1";
  CliResult result;
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return result;
  char buffer[256];
  while (fgets(buffer, sizeof(buffer), pipe) != nullptr) {
    result.output += buffer;
  }
  const int status = pclose(pipe);
  if (WIFEXITED(status)) result.exit_code = WEXITSTATUS(status);
  return result;
}

TEST(BenchDiffCli, WithinLimitPassesAndReportsNewRows) {
  const CliResult result = run_bench_diff("current_ok.json");
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("ok       BM_Fast"), std::string::npos);
  EXPECT_NE(result.output.find("ok       BM_Slow"), std::string::npos);
  EXPECT_NE(result.output.find("NEW      BM_New"), std::string::npos);
}

TEST(BenchDiffCli, RegressionPastLimitFails) {
  const CliResult result = run_bench_diff("current_regress.json");
  EXPECT_EQ(result.exit_code, 1) << result.output;
  EXPECT_NE(result.output.find("REGRESS  BM_Fast"), std::string::npos);
  // A looser limit lets the same run through.
  EXPECT_EQ(run_bench_diff("current_regress.json", "--max-regress=0.6")
                .exit_code,
            0);
}

TEST(BenchDiffCli, BaselineBenchmarkMissingFromTheRunFails) {
  const CliResult result = run_bench_diff("current_missing.json");
  EXPECT_EQ(result.exit_code, 1) << result.output;
  EXPECT_NE(result.output.find("MISSING  BM_Slow (in baseline only)"),
            std::string::npos);
  EXPECT_NE(result.output.find("NEW      BM_Slow_Renamed"),
            std::string::npos);
}

}  // namespace
