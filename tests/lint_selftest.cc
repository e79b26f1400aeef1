// The lint is itself tested: every rule in scripts/lint.sh must fire on
// its seeded violation (tests/lint_fixtures/<rule>/), the negative
// control must pass, and src/ itself must be clean — so a rule that
// silently stops matching (regex rot, renamed flag) fails tier-1, not
// just CI.
//
// Each case shells out to the real script; the grep rules are pure text
// processing, so the selftest needs no toolchain beyond bash + coreutils
// (the clang-tidy depth pass is explicitly disabled to keep the selftest
// hermetic).

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "sys/wait.h"

namespace {

#ifndef ROS2_REPO_ROOT
#error "build must define ROS2_REPO_ROOT (see tests/CMakeLists.txt)"
#endif

struct LintRun {
  int exit_code = -1;
  std::string output;
};

LintRun RunLint(const std::string& dir_arg) {
  std::string cmd = std::string("cd '") + ROS2_REPO_ROOT +
                    "' && bash scripts/lint.sh --no-clang-tidy";
  if (!dir_arg.empty()) cmd += " --dir '" + dir_arg + "'";
  cmd += " 2>&1";
  LintRun run;
  FILE* pipe = ::popen(cmd.c_str(), "r");
  if (pipe == nullptr) return run;
  char buf[512];
  while (std::fgets(buf, sizeof(buf), pipe) != nullptr) run.output += buf;
  const int raw = ::pclose(pipe);
  run.exit_code = WIFEXITED(raw) ? WEXITSTATUS(raw) : -1;
  return run;
}

void ExpectRuleFires(const std::string& rule) {
  const LintRun run = RunLint("tests/lint_fixtures/" + rule);
  EXPECT_EQ(run.exit_code, 1) << run.output;
  // The violation is reported under the RIGHT rule name (a misfiled
  // report would pass a weaker "any failure" assertion).
  EXPECT_NE(run.output.find("LINT-FAIL " + rule + ":"), std::string::npos)
      << run.output;
}

TEST(LintSelftest, AdhocStatsRuleFires) { ExpectRuleFires("adhoc-stats"); }

TEST(LintSelftest, RawMutexRuleFires) { ExpectRuleFires("raw-mutex"); }

TEST(LintSelftest, NodiscardRuleFires) { ExpectRuleFires("nodiscard"); }

TEST(LintSelftest, IncludeGuardRuleFires) {
  ExpectRuleFires("include-guard");
}

TEST(LintSelftest, BannedFunctionRuleFires) {
  ExpectRuleFires("banned-function");
}

TEST(LintSelftest, RpcClientRuleFires) { ExpectRuleFires("rpc-client"); }

TEST(LintSelftest, SpinWaitRuleFires) { ExpectRuleFires("spin-wait"); }

TEST(LintSelftest, CleanFixturePasses) {
  const LintRun run = RunLint("tests/lint_fixtures/clean");
  EXPECT_EQ(run.exit_code, 0) << run.output;
  EXPECT_EQ(run.output.find("LINT-FAIL"), std::string::npos) << run.output;
}

TEST(LintSelftest, MissingDirectoryIsAUsageError) {
  const LintRun run = RunLint("tests/lint_fixtures/no-such-dir");
  EXPECT_EQ(run.exit_code, 2) << run.output;
}

// The real gate: the shipped tree passes its own lint. This is what makes
// the standing constraints (telemetry registration, annotated mutexes,
// nodiscard factories) tier-1-enforced rather than CI-only.
TEST(LintSelftest, SrcTreeIsClean) {
  const LintRun run = RunLint("");
  EXPECT_EQ(run.exit_code, 0) << run.output;
}

}  // namespace
