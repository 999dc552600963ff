// CLI flag validation: zero/negative duration flags and a negative plan
// cache bound are usage errors (exit 2) on both binaries, not silent
// misbehavior. Also checks the server binary `ldv audit` packages.

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <string>
#include <vector>

#include "ldv/manifest.h"
#include "util/fsutil.h"

namespace ldv {
namespace {

/// Runs a built binary with `args`, returns its exit code (-1 on spawn
/// failure). Output is routed to /dev/null; these invocations are expected
/// to fail fast at flag parsing.
int RunBinary(const std::string& binary, std::vector<std::string> args) {
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>(binary.c_str()));
  for (auto& arg : args) argv.push_back(const_cast<char*>(arg.c_str()));
  argv.push_back(nullptr);
  pid_t pid = fork();
  if (pid < 0) return -1;
  if (pid == 0) {
    FILE* sink = freopen("/dev/null", "w", stderr);
    (void)sink;
    sink = freopen("/dev/null", "w", stdout);
    (void)sink;
    execv(binary.c_str(), argv.data());
    _exit(127);
  }
  int wstatus = 0;
  if (waitpid(pid, &wstatus, 0) < 0) return -1;
  return WIFEXITED(wstatus) ? WEXITSTATUS(wstatus) : -1;
}

std::string ServerBinary() { return FindLdvServerBinary(); }

std::string CliBinary() {
  const std::string server = FindLdvServerBinary();
  if (server.empty()) return "";
  return JoinPath(server.substr(0, server.find_last_of('/')), "ldv");
}

class CliFlagsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (ServerBinary().empty() || !FileExists(CliBinary())) {
      GTEST_SKIP() << "built ldv_server / ldv binaries not found";
    }
  }
};

TEST_F(CliFlagsTest, ServerRejectsNonPositiveDurations) {
  for (const char* flag :
       {"--io-timeout-ms", "--disconnect-poll-ms", "--dedup-ttl-ms"}) {
    for (const char* value : {"0", "-5"}) {
      EXPECT_EQ(RunBinary(ServerBinary(), {flag, value}), 2)
          << flag << "=" << value;
    }
  }
}

TEST_F(CliFlagsTest, ServerRejectsNegativePlanCacheEntries) {
  EXPECT_EQ(RunBinary(ServerBinary(), {"--plan-cache-entries", "-1"}), 2);
}

TEST_F(CliFlagsTest, ServerRejectsUnknownFlag) {
  EXPECT_EQ(RunBinary(ServerBinary(), {"--no-such-flag"}), 2);
}

TEST_F(CliFlagsTest, ServerRejectsStandbyWithoutWal) {
  EXPECT_EQ(RunBinary(ServerBinary(),
                      {"--socket", "/tmp/cli_flags_unused.sock",
                       "--replicate-from", "/tmp/cli_flags_primary.sock"}),
            2);
}

TEST_F(CliFlagsTest, CliRejectsNegativePlanCacheEntries) {
  EXPECT_EQ(
      RunBinary(CliBinary(), {"stats", "--plan-cache-entries", "-1",
                              "--db-socket", "/tmp/cli_flags_unused.sock"}),
      2);
}

TEST_F(CliFlagsTest, HelpStillWorks) {
  EXPECT_EQ(RunBinary(ServerBinary(), {"--help"}), 0);
}

TEST_F(CliFlagsTest, AuditShipsAStrippedServerThatStillRuns) {
  auto dir = MakeTempDir("cli_flags_audit_");
  ASSERT_TRUE(dir.ok());
  const std::string package = JoinPath(*dir, "pkg");
  ASSERT_EQ(RunBinary(CliBinary(), {"audit", "--mode", "server-included",
                                    "--query", "Q1-1", "--sf", "0.001",
                                    "--out", package}),
            0);
  const std::string packaged =
      JoinPath(package, std::string(kServerBinaryFile));
  auto packaged_bytes = FileSize(packaged);
  auto build_bytes = FileSize(ServerBinary());
  ASSERT_TRUE(packaged_bytes.ok());
  ASSERT_TRUE(build_bytes.ok());
  EXPECT_LT(*packaged_bytes, *build_bytes);
  EXPECT_EQ(RunBinary(packaged, {"--help"}), 0);
  (void)RemoveAll(*dir);
}

}  // namespace
}  // namespace ldv
