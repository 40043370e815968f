// Tests for the scenario DSL runner — both the language itself (parsing,
// errors, expectations) and, through it, another declarative layer of
// protocol regression scenarios.
#include <gtest/gtest.h>

#include "cluster/scenario.hpp"

namespace mams::cluster {
namespace {

TEST(ScenarioParseTest, UnknownCommandIsError) {
  ScenarioRunner runner;
  Status s = runner.Run("cluster groups=1 standbys=1\nfrobnicate /x\n");
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("unknown command"), std::string::npos);
}

TEST(ScenarioParseTest, BadDurationIsError) {
  ScenarioRunner runner;
  Status s = runner.Run("cluster groups=1 standbys=1\nrun banana\n");
  ASSERT_FALSE(s.ok());
}

TEST(ScenarioParseTest, CommandsBeforeClusterFailGracefully) {
  ScenarioRunner runner;
  Status s = runner.Run("create /x\n");
  ASSERT_FALSE(s.ok());  // expectation failure: no cluster
  EXPECT_FALSE(runner.failures().empty());
}

TEST(ScenarioParseTest, AddressOutsideClusterIsInvalidArgument) {
  // Each used to index past the group, member or pool-node vectors.
  for (const char* line :
       {"crash 4 0", "crash 0 9", "crash-pool 3 0", "slow-disk 0 7 50",
        "unplug -1 0", "crash-active 2", "migrate 64", "expect-active 4",
        "expect-converged 4", "expect-standbys 4 1", "print-view 4"}) {
    ScenarioRunner runner;
    const Status s =
        runner.Run(std::string("cluster groups=1 standbys=2\n") + line + "\n");
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << line;
    EXPECT_NE(s.message().find("out of range"), std::string::npos)
        << line << ": " << s.message();
  }
}

TEST(ScenarioParseTest, MalformedFaultArgumentsAreRejected) {
  for (const char* line : {"crash 0", "crash 0 1 for", "restart 0 1 for 2s",
                           "asymmetry 0 0 sideways", "slow-disk 0 0 -2",
                           "jitter banana", "force-lock-release"}) {
    ScenarioRunner runner;
    const Status s =
        runner.Run(std::string("cluster groups=1 standbys=2\n") + line + "\n");
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << line;
  }
}

TEST(ScenarioParseTest, ClusterSizesAreRangeChecked) {
  // Each used to crash at boot or boot a cluster with no group.
  for (const char* line : {"cluster standbys=-1", "cluster clients=0",
                           "cluster groups=0", "cluster juniors=-2"}) {
    ScenarioRunner runner;
    EXPECT_EQ(runner.Run(std::string(line) + "\n").code(),
              StatusCode::kInvalidArgument)
        << line;
  }
}

TEST(FaultExecutorTest, LaterFaultSupersedesTimedHeal) {
  sim::Simulator sim(3);
  net::Network net(sim);
  CfsConfig cfg;
  cfg.standbys_per_group = 2;
  cfg.clients = 1;
  cfg.data_servers = 1;
  CfsCluster cfs(net, cfg);
  FaultExecutor faults(cfs);
  cfs.Start();
  sim.RunUntil(kSecond);
  const NodeId a = cfs.mds(0, 1).id();
  const NodeId b = cfs.mds(0, 2).id();

  // A timed unplug heals on its own...
  ASSERT_TRUE(faults.Apply({.kind = Fault::Kind::kUnplug, .member = 1,
                            .duration = 2 * kSecond})
                  .ok());
  EXPECT_FALSE(net.Connected(a, b));
  sim.RunUntil(sim.Now() + 3 * kSecond);
  EXPECT_TRUE(net.Connected(a, b));

  // ...unless a later fault on the same wire supersedes the pending heal.
  ASSERT_TRUE(faults.Apply({.kind = Fault::Kind::kUnplug, .member = 1,
                            .duration = 2 * kSecond})
                  .ok());
  ASSERT_TRUE(faults.Apply({.kind = Fault::Kind::kUnplug, .member = 1}).ok());
  sim.RunUntil(sim.Now() + 3 * kSecond);
  EXPECT_FALSE(net.Connected(a, b));

  // HealAll restores the wire and restarts a crashed member.
  ASSERT_TRUE(faults.Apply({.kind = Fault::Kind::kCrash, .member = 2}).ok());
  faults.HealAll();
  sim.RunUntil(sim.Now() + kSecond);
  EXPECT_TRUE(net.Connected(a, b));
  EXPECT_TRUE(cfs.mds(0, 2).alive());
}

TEST(ScenarioParseTest, CommentsAndBlankLinesIgnored) {
  ScenarioRunner runner;
  EXPECT_TRUE(runner
                  .Run("# a comment\n\n"
                       "cluster groups=1 standbys=1 seed=3\n"
                       "run 100ms   # trailing comment\n")
                  .ok());
}

TEST(ScenarioTest, BasicOpsAndExpectations) {
  ScenarioRunner runner;
  Status s = runner.Run(R"(
cluster groups=1 standbys=2 seed=5
run 500ms
mkdir /d
create /d/f
stat /d/f
expect-exists /d/f
expect-missing /d/other
expect-active 0
expect-ops-ok
)");
  EXPECT_TRUE(s.ok()) << s.ToString();
}

TEST(ScenarioTest, FailedExpectationIsReported) {
  ScenarioRunner runner;
  Status s = runner.Run(R"(
cluster groups=1 standbys=1 seed=5
run 500ms
expect-exists /nope
)");
  ASSERT_FALSE(s.ok());
  ASSERT_EQ(runner.failures().size(), 1u);
  EXPECT_NE(runner.failures()[0].find("/nope"), std::string::npos);
}

TEST(ScenarioTest, CrashAndFailoverScenario) {
  ScenarioRunner runner;
  Status s = runner.Run(R"(
cluster groups=1 standbys=3 seed=11
run 500ms
create /before
crash-active 0
run 10s
expect-active 0
expect-exists /before
create /after
expect-exists /after
expect-converged 0
)");
  EXPECT_TRUE(s.ok()) << s.ToString();
}

TEST(ScenarioTest, TestAForceLockRelease) {
  ScenarioRunner runner;
  Status s = runner.Run(R"(
cluster groups=1 standbys=3 seed=13
run 1s
expect-state 0 "A S S S"
force-lock-release 0
run 8s
expect-active 0
# the deposed active re-registers as a standby; which standby won the
# election is seed-dependent, so assert counts rather than the exact row.
expect-counts 0 A=1 S=3 J=0
)");
  EXPECT_TRUE(s.ok()) << s.ToString();
}

TEST(ScenarioTest, UnplugReplugScenario) {
  ScenarioRunner runner;
  Status s = runner.Run(R"(
cluster groups=1 standbys=3 seed=17
run 1s
create /x
unplug 0 0
run 10s
expect-active 0
replug 0 0
run 30s
expect-converged 0
expect-exists /x
)");
  EXPECT_TRUE(s.ok()) << s.ToString();
}

TEST(ScenarioRegistryTest, UnknownCommandSuggestsNearestName) {
  ScenarioRunner runner;
  Status s = runner.Run("cluster groups=1 standbys=1\ncraete /x\n");
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("did you mean"), std::string::npos);
  EXPECT_NE(s.message().find("create"), std::string::npos);
}

TEST(ScenarioRegistryTest, HelpListsCommandsAndExplainsOne) {
  ScenarioRunner runner;
  EXPECT_TRUE(runner.Run("help\n").ok());
  EXPECT_TRUE(runner.Run("help crash-active\n").ok());
  // help for an unknown command is an error, with the same suggestion.
  Status s = runner.Run("help crash-actve\n");
  ASSERT_FALSE(s.ok());
}

TEST(ScenarioElasticPackTest, ExpectMetricReadsRegistryValues) {
  ScenarioRunner runner;
  Status s = runner.Run(R"(
cluster groups=1 standbys=1 seed=23
run 500ms
create /m/f
expect-metric mds.ops_served >= 1
)");
  EXPECT_TRUE(s.ok()) << s.ToString();
  // An unsatisfied comparison is an expectation failure, not a parse error.
  ScenarioRunner runner2;
  s = runner2.Run(R"(
cluster groups=1 standbys=1 seed=23
run 500ms
expect-metric mds.ops_served >= 1000000
)");
  ASSERT_FALSE(s.ok());
  EXPECT_FALSE(runner2.failures().empty());
}

TEST(ScenarioElasticPackTest, ExpectStandbysWaitsForMembership) {
  ScenarioRunner runner;
  Status s = runner.Run(R"(
cluster groups=1 standbys=1 seed=29
run 1s
expect-standbys 0 1 1
add-standby 0
expect-standbys 0 2
expect-converged 0
remove-standby 0
expect-standbys 0 1 1
)");
  EXPECT_TRUE(s.ok()) << s.ToString();

  // Promoting when no junior exists is an expectation failure, reported
  // through the normal failure channel rather than aborting the script.
  ScenarioRunner runner2;
  s = runner2.Run(R"(
cluster groups=1 standbys=1 seed=31
run 500ms
promote 0
)");
  ASSERT_FALSE(s.ok());
  EXPECT_FALSE(runner2.failures().empty());
}

TEST(ScenarioTest, AddBackupScenario) {
  ScenarioRunner runner;
  Status s = runner.Run(R"(
cluster groups=1 standbys=1 seed=19
run 1s
create /grow
add-standby 0
run 30s
expect-state 0 "A S S"
expect-converged 0
)");
  EXPECT_TRUE(s.ok()) << s.ToString();
}

}  // namespace
}  // namespace mams::cluster
