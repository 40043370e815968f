// Integration tests for the full MAMS stack: a CFS cluster with a
// coordination ensemble, replica groups, SSP, data servers and clients.
// These exercise the paper's protocols end to end: normal operation,
// active failure + election + failover, junior renewing, fencing, client
// transparent retry, and multi-failure scenarios (Table II).
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cfs.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"
#include "test_util.hpp"

namespace mams::cluster {
namespace {

class ClusterTest : public ::testing::Test {
 protected:
  void Build(GroupId groups, int standbys, std::uint64_t seed = 7,
             int juniors = 0,
             const std::function<void(CfsConfig&)>& tweak = {}) {
    sim_ = std::make_unique<sim::Simulator>(seed);
    net_ = std::make_unique<net::Network>(*sim_);
    CfsConfig cfg;
    cfg.groups = groups;
    cfg.standbys_per_group = standbys;
    cfg.juniors_per_group = juniors;
    cfg.data_servers = 2;
    cfg.clients = 2;
    if (tweak) tweak(cfg);
    cluster_ = std::make_unique<CfsCluster>(*net_, cfg);
    cluster_->Start();
    // Let the deployment settle (registrations, lock grant, watches).
    sim_->RunUntil(sim_->Now() + kSecond);
  }

  void Run(SimTime dt) { sim_->RunUntil(sim_->Now() + dt); }

  /// Creates a file and waits synchronously for its outcome.
  Status CreateFile(const std::string& path, int client = 0) {
    Status out = Status::TimedOut("no reply");
    bool done = false;
    cluster_->client(client).Create(path, [&](Status s) {
      out = s;
      done = true;
    });
    testutil::WaitFor(*sim_, [&] { return done; }, 60 * kSecond);
    return out;
  }

  Status MkdirSync(const std::string& path, int client = 0) {
    Status out = Status::TimedOut("no reply");
    bool done = false;
    cluster_->client(client).Mkdir(path, [&](Status s) {
      out = s;
      done = true;
    });
    testutil::WaitFor(*sim_, [&] { return done; }, 60 * kSecond);
    return out;
  }

  Result<fsns::FileInfo> StatSync(const std::string& path, int client = 0) {
    Result<fsns::FileInfo> out = Status::TimedOut("no reply");
    bool done = false;
    cluster_->client(client).GetFileInfo(path, [&](Result<fsns::FileInfo> r) {
      out = std::move(r);
      done = true;
    });
    testutil::WaitFor(*sim_, [&] { return done; }, 60 * kSecond);
    return out;
  }

  Result<std::vector<std::string>> ListSync(const std::string& path,
                                            int client = 0) {
    Result<std::vector<std::string>> out = Status::TimedOut("no reply");
    bool done = false;
    cluster_->client(client).ListDir(path,
                                     [&](Result<std::vector<std::string>> r) {
                                       out = std::move(r);
                                       done = true;
                                     });
    testutil::WaitFor(*sim_, [&] { return done; }, 60 * kSecond);
    return out;
  }

  /// Enables session-consistent standby read offload cluster-wide.
  static void EnableStandbyReads(CfsConfig& cfg) {
    cfg.mds.standby_reads.serve_reads = true;
    cfg.client.read_routing = ReadRouting::kRoundRobinStandby;
  }

  std::unique_ptr<sim::Simulator> sim_;
  std::unique_ptr<net::Network> net_;
  std::unique_ptr<CfsCluster> cluster_;
};

TEST_F(ClusterTest, DeploymentConvergesToOneActivePerGroup) {
  Build(3, 3);
  Run(2 * kSecond);
  for (GroupId g = 0; g < 3; ++g) {
    const auto& view = cluster_->coord().frontend().PeekView(g);
    EXPECT_EQ(view.CountInState(ServerState::kActive), 1) << "group " << g;
    EXPECT_EQ(view.CountInState(ServerState::kStandby), 3) << "group " << g;
    EXPECT_NE(cluster_->FindActive(g), nullptr);
  }
}

TEST_F(ClusterTest, BasicMetadataOperations) {
  Build(1, 2);
  EXPECT_TRUE(MkdirSync("/data").ok());
  EXPECT_TRUE(CreateFile("/data/file1").ok());
  Status dup = CreateFile("/data/file1", 1);  // different client, same path
  EXPECT_EQ(dup.code(), StatusCode::kAlreadyExists);

  bool got_info = false;
  cluster_->client(0).GetFileInfo("/data/file1",
                                  [&](Result<fsns::FileInfo> r) {
                                    ASSERT_TRUE(r.ok());
                                    EXPECT_FALSE(r.value().is_dir);
                                    got_info = true;
                                  });
  Run(kSecond);
  EXPECT_TRUE(got_info);
}

TEST_F(ClusterTest, MutationsReplicateToAllStandbys) {
  Build(1, 3);
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(CreateFile("/d/f" + std::to_string(i)).ok());
  }
  Run(2 * kSecond);  // drain replication
  core::MdsServer* active = cluster_->FindActive(0);
  ASSERT_NE(active, nullptr);
  const auto fp = active->tree().Fingerprint();
  int standbys_checked = 0;
  for (std::size_t m = 0; m < cluster_->group_size(0); ++m) {
    auto& mds = cluster_->mds(0, static_cast<int>(m));
    if (&mds == active) continue;
    EXPECT_EQ(mds.role(), ServerState::kStandby);
    EXPECT_EQ(mds.tree().Fingerprint(), fp) << mds.name();
    EXPECT_EQ(mds.last_sn(), active->last_sn());
    ++standbys_checked;
  }
  EXPECT_EQ(standbys_checked, 3);
}

TEST_F(ClusterTest, ActiveCrashTriggersElectionAndFailover) {
  Build(1, 3);
  ASSERT_TRUE(CreateFile("/pre").ok());
  core::MdsServer* old_active = cluster_->FindActive(0);
  ASSERT_NE(old_active, nullptr);

  sim_->obs().tracer().set_enabled(true);
  old_active->Crash();
  Run(10 * kSecond);  // session timeout (5 s) + election + switch

  core::MdsServer* new_active = cluster_->FindActive(0);
  ASSERT_NE(new_active, nullptr);
  EXPECT_NE(new_active, old_active);
  const auto& view = cluster_->coord().frontend().PeekView(0);
  EXPECT_EQ(view.FindActive(), new_active->id());
  EXPECT_EQ(view.lock_holder, new_active->id());

  // The new active serves the pre-crash namespace and new operations.
  EXPECT_TRUE(new_active->tree().Exists("/pre"));
  EXPECT_TRUE(CreateFile("/post").ok());

  // Exactly one failover was traced, with sub-second election+switch.
  const auto traces = core::CompletedFailovers(sim_->obs().tracer());
  ASSERT_EQ(traces.size(), 1u);
  EXPECT_EQ(traces[0].elected, new_active->id());
  EXPECT_LT(traces[0].ElectionTime(), 500 * kMillisecond);
  EXPECT_LT(traces[0].SwitchTime(), kSecond);
}

TEST_F(ClusterTest, ClientOpsSpanningTheFailureEventuallySucceed) {
  Build(1, 3);
  ASSERT_TRUE(MkdirSync("/w").ok());
  core::MdsServer* active = cluster_->FindActive(0);
  ASSERT_NE(active, nullptr);

  // Launch an op, then immediately crash the active before it can answer.
  Status result = Status::TimedOut("pending");
  bool done = false;
  cluster_->client(0).Create("/w/during-failover", [&](Status s) {
    result = s;
    done = true;
  });
  active->Crash();
  testutil::WaitFor(*sim_, [&] { return done; }, 30 * kSecond);
  ASSERT_TRUE(done);
  EXPECT_TRUE(result.ok()) << result.ToString();
  core::MdsServer* new_active = cluster_->FindActive(0);
  ASSERT_NE(new_active, nullptr);
  EXPECT_TRUE(new_active->tree().Exists("/w/during-failover"));
}

TEST_F(ClusterTest, AcknowledgedOpsSurviveFailover) {
  Build(1, 3);
  std::vector<std::string> acked;
  for (int i = 0; i < 30; ++i) {
    const std::string path = "/k/f" + std::to_string(i);
    if (CreateFile(path).ok()) acked.push_back(path);
  }
  ASSERT_EQ(acked.size(), 30u);
  cluster_->FindActive(0)->Crash();
  Run(10 * kSecond);
  core::MdsServer* new_active = cluster_->FindActive(0);
  ASSERT_NE(new_active, nullptr);
  for (const auto& path : acked) {
    EXPECT_TRUE(new_active->tree().Exists(path)) << path;
  }
}

TEST_F(ClusterTest, RestartedActiveRejoinsAndIsRenewedToStandby) {
  Build(1, 3);
  ASSERT_TRUE(CreateFile("/a").ok());
  core::MdsServer* old_active = cluster_->FindActive(0);
  old_active->Crash();
  Run(10 * kSecond);
  ASSERT_NE(cluster_->FindActive(0), nullptr);

  // More writes while the old active is down.
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(CreateFile("/while-down" + std::to_string(i)).ok());
  }

  old_active->Restart();
  Run(20 * kSecond);  // rejoin as junior; renewing upgrades to standby
  EXPECT_EQ(old_active->role(), ServerState::kStandby);
  EXPECT_EQ(old_active->tree().Fingerprint(),
            cluster_->FindActive(0)->tree().Fingerprint());
}

// A batch that reaches the standbys but never the SSP: the active loses
// the pool and crashes inside the 2 s SSP write timeout. The new active
// must append every batch it inherited before it serves, or its own
// batches leave a hole in the SSP journal that a later renewal or junior
// election cannot cross.
TEST_F(ClusterTest, FailoverMakesInheritedBatchesDurableInTheSsp) {
  Build(1, 3);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(CreateFile("/pre" + std::to_string(i)).ok());
  }
  core::MdsServer* old_active = cluster_->FindActive(0);
  ASSERT_NE(old_active, nullptr);
  const int pool_nodes = static_cast<int>(cluster_->group_size(0));
  for (int p = 0; p < pool_nodes; ++p) {
    net_->Partition(old_active->id(), cluster_->pool_node(p).id());
  }
  const SerialNumber before = old_active->last_sn();
  cluster_->client(0).Create("/no-ssp-copy", [](Status) {});
  Run(500 * kMillisecond);  // on every standby; the SSP append hangs
  ASSERT_GT(old_active->last_sn(), before);
  old_active->Crash();
  net_->HealAll();
  Run(15 * kSecond);

  core::MdsServer* active = cluster_->FindActive(0);
  ASSERT_NE(active, nullptr);
  ASSERT_GT(active->last_sn(), before);
  ASSERT_TRUE(CreateFile("/post").ok());  // a batch of the new active's own
  std::vector<SerialNumber> want(active->last_sn());
  for (std::size_t i = 0; i < want.size(); ++i) want[i] = i + 1;
  int replicas = 0;
  for (int p = 0; p < pool_nodes; ++p) {
    const auto* journal =
        cluster_->pool_node(p).store().Find("g0/journal");
    if (journal == nullptr) continue;
    ++replicas;
    std::vector<SerialNumber> got;
    for (const auto& rec : journal->records()) got.push_back(rec.sn);
    EXPECT_EQ(got, want) << "pool node " << p;
  }
  EXPECT_EQ(replicas, static_cast<int>(storage::kSspReplication));

  // The ex-active restarts with nothing and renews from the SSP journal.
  old_active->Restart();
  EXPECT_TRUE(testutil::WaitFor(
      *sim_, [&] { return old_active->role() == ServerState::kStandby; },
      10 * kSecond));
  EXPECT_EQ(old_active->tree().Fingerprint(), active->tree().Fingerprint());
}

// A junior that reports an sn above the active's holds batches the active
// never committed; the active must not make it a standby.
TEST_F(ClusterTest, JuniorAheadOfActiveIsNotPromoted) {
  Build(1, 1, 7, /*juniors=*/1, [](CfsConfig& cfg) {
    cfg.mds.renew_scan_period = 300 * kSecond;  // renew only when kicked
  });
  ASSERT_TRUE(CreateFile("/a").ok());
  core::MdsServer* active = cluster_->FindActive(0);
  ASSERT_NE(active, nullptr);
  core::MdsServer& junior = cluster_->mds(0, 2);
  ASSERT_EQ(junior.role(), ServerState::kJunior);
  junior.SetLastSn(active->last_sn() + 100);
  sim_->obs().tracer().set_enabled(true);
  active->KickRenewScan();
  Run(3 * kSecond);
  EXPECT_EQ(junior.role(), ServerState::kJunior);
  EXPECT_EQ(cluster_->coord().frontend().PeekView(0).StateOf(junior.id()),
            ServerState::kJunior);
  const auto& instants = sim_->obs().tracer().instants();
  EXPECT_TRUE(std::any_of(instants.begin(), instants.end(), [&](const auto& i) {
    return i.name == "junior_ahead_refused" && i.node == junior.id();
  }));
}

// A junior elected with no standby left drains the SSP journal in step 4.
// When the pool holds batches past what the drain can connect (a hole),
// serving would reuse committed sns: the junior must give the lock back.
TEST_F(ClusterTest, ElectedJuniorGivesUpTheLockAtAnSspHole) {
  Build(1, 0, 7, /*juniors=*/1, [](CfsConfig& cfg) {
    cfg.mds.renew_scan_period = 300 * kSecond;  // the junior stays at sn 0
  });
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(CreateFile("/h" + std::to_string(i)).ok());
  }
  core::MdsServer* active = cluster_->FindActive(0);
  ASSERT_NE(active, nullptr);
  core::MdsServer& junior = cluster_->mds(0, 1);
  ASSERT_EQ(junior.role(), ServerState::kJunior);
  // A batch two sns past the journal's end, on every replica.
  journal::Batch beyond;
  beyond.sn = active->last_sn() + 2;
  storage::SspRecord rec;
  rec.sn = beyond.sn;
  rec.fence = active->fence();
  rec.bytes = beyond.Serialize();
  for (int p = 0; p < static_cast<int>(cluster_->group_size(0)); ++p) {
    auto& store = cluster_->pool_node(p).store();
    if (store.Exists("g0/journal")) {
      ASSERT_TRUE(store.Open("g0/journal").Append(rec));
    }
  }
  const SerialNumber journal_end = active->last_sn();
  active->Crash();
  Run(20 * kSecond);
  EXPECT_GE(junior.counters().elections_won, 1u);
  EXPECT_NE(junior.role(), ServerState::kActive);
  EXPECT_EQ(junior.last_sn(), journal_end);  // drained up to the hole
  EXPECT_EQ(cluster_->FindActive(0), nullptr);
}

TEST_F(ClusterTest, LockLossForcesStepDownAndNewElection) {
  // The paper's Test A: modify the global view so the active loses the
  // lock. The deposed active must stop serving; a standby takes over.
  Build(1, 3);
  ASSERT_TRUE(CreateFile("/before").ok());
  core::MdsServer* old_active = cluster_->FindActive(0);
  ASSERT_NE(old_active, nullptr);

  cluster_->coord().frontend().AdminForceReleaseLock(0);
  Run(5 * kSecond);

  core::MdsServer* new_active = cluster_->FindActive(0);
  ASSERT_NE(new_active, nullptr);
  EXPECT_NE(new_active, old_active);
  EXPECT_NE(old_active->role(), ServerState::kActive);
  EXPECT_TRUE(CreateFile("/after").ok());
  // The deposed server re-registers and is eventually standby again.
  Run(20 * kSecond);
  EXPECT_EQ(old_active->role(), ServerState::kStandby);
}

TEST_F(ClusterTest, SecondFailureAfterFailoverIsAlsoTolerated) {
  Build(1, 3);
  ASSERT_TRUE(CreateFile("/x1").ok());
  cluster_->FindActive(0)->Crash();
  Run(10 * kSecond);
  ASSERT_TRUE(CreateFile("/x2").ok());
  cluster_->FindActive(0)->Crash();
  Run(10 * kSecond);
  core::MdsServer* active = cluster_->FindActive(0);
  ASSERT_NE(active, nullptr);
  EXPECT_TRUE(active->tree().Exists("/x1"));
  EXPECT_TRUE(active->tree().Exists("/x2"));
  EXPECT_TRUE(CreateFile("/x3").ok());
}

TEST_F(ClusterTest, JuniorBootstrapsViaRenewing) {
  Build(1, 2, 7, /*juniors=*/1);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(CreateFile("/j/f" + std::to_string(i)).ok());
  }
  Run(15 * kSecond);  // renew scan + journal catch-up + upgrade
  auto& junior = cluster_->mds(0, 3);  // booted as junior
  EXPECT_EQ(junior.role(), ServerState::kStandby);
  EXPECT_EQ(junior.tree().Fingerprint(),
            cluster_->FindActive(0)->tree().Fingerprint());
}

TEST_F(ClusterTest, DynamicBackupAdditionAtRuntime) {
  Build(1, 2);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(CreateFile("/d/f" + std::to_string(i)).ok());
  }
  auto& added = cluster_->AddStandby(0);
  Run(20 * kSecond);
  EXPECT_EQ(added.role(), ServerState::kStandby);
  EXPECT_EQ(added.tree().Fingerprint(),
            cluster_->FindActive(0)->tree().Fingerprint());
  // And it participates in failover from now on.
  cluster_->FindActive(0)->Crash();
  Run(10 * kSecond);
  EXPECT_NE(cluster_->FindActive(0), nullptr);
}

TEST_F(ClusterTest, BlockReportsReachActiveAndStandbys) {
  Build(1, 2);
  cluster_->data_server(0).AddBlock(101);
  cluster_->data_server(0).AddBlock(102);
  cluster_->data_server(0).ReportNow();
  Run(2 * kSecond);
  for (std::size_t m = 0; m < cluster_->group_size(0); ++m) {
    const auto& mds = cluster_->mds(0, static_cast<int>(m));
    EXPECT_TRUE(mds.blocks().HasLocations(101)) << mds.name();
    EXPECT_TRUE(mds.blocks().HasLocations(102)) << mds.name();
  }
}

TEST_F(ClusterTest, MultiGroupOperationRouting) {
  Build(3, 1);
  // Ops on many directories land on different groups but all succeed.
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(CreateFile("/dir" + std::to_string(i) + "/f").ok());
  }
  // At least two groups must have journaled something (hash spread).
  int groups_used = 0;
  for (GroupId g = 0; g < 3; ++g) {
    if (cluster_->FindActive(g)->last_sn() > 0) ++groups_used;
  }
  EXPECT_GE(groups_used, 2);
}

TEST_F(ClusterTest, FailoverInOneGroupLeavesOthersUndisturbed) {
  Build(3, 2);
  Run(kSecond);
  core::MdsServer* g0_active = cluster_->FindActive(0);
  ASSERT_NE(g0_active, nullptr);
  g0_active->Crash();
  Run(2 * kSecond);  // mid-failover for group 0
  // Groups 1 and 2 still answer instantly.
  for (GroupId g = 1; g < 3; ++g) {
    EXPECT_NE(cluster_->FindActive(g), nullptr) << "group " << g;
  }
  Run(10 * kSecond);
  EXPECT_NE(cluster_->FindActive(0), nullptr);
}

// --- property sweep: random single-failure schedules --------------------------

class FailoverPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FailoverPropertyTest, SingleActivePerGroupAlwaysRestoredAndStateIntact) {
  const std::uint64_t seed = GetParam();
  sim::Simulator sim(seed);
  net::Network net(sim);
  CfsConfig cfg;
  cfg.groups = 1;
  cfg.standbys_per_group = 3;
  cfg.clients = 1;
  cfg.data_servers = 1;
  CfsCluster cluster(net, cfg);
  cluster.Start();
  sim.RunUntil(sim.Now() + kSecond);

  Rng rng(seed * 31 + 1);
  std::vector<std::string> acked;
  int next_file = 0;

  // Interleave acknowledged creates with random crash/restart of the
  // current active, several rounds.
  for (int round = 0; round < 3; ++round) {
    // A few writes.
    for (int i = 0; i < 5; ++i) {
      const std::string path = "/p/f" + std::to_string(next_file++);
      Status st = Status::TimedOut("pending");
      bool done = false;
      cluster.client(0).Create(path, [&](Status s) {
        st = s;
        done = true;
      });
      ASSERT_TRUE(testutil::WaitFor(sim, [&] { return done; }, 60 * kSecond));
      if (st.ok()) acked.push_back(path);
    }
    // Crash the active at a random offset; sometimes restart it later.
    core::MdsServer* active = cluster.FindActive(0);
    ASSERT_NE(active, nullptr) << "round " << round;
    sim.RunUntil(sim.Now() + static_cast<SimTime>(rng.Below(2 * kSecond)));
    active->Crash();
    if (rng.Chance(0.5)) active->Restart(kSecond);
    sim.RunUntil(sim.Now() + 12 * kSecond);

    // Invariant: exactly one active, holding the lock.
    core::MdsServer* now_active = cluster.FindActive(0);
    ASSERT_NE(now_active, nullptr) << "round " << round << " seed " << seed;
    int actives = 0;
    for (std::size_t m = 0; m < cluster.group_size(0); ++m) {
      auto& mds = cluster.mds(0, static_cast<int>(m));
      if (mds.alive() && mds.role() == ServerState::kActive) ++actives;
    }
    EXPECT_EQ(actives, 1) << "round " << round << " seed " << seed;
    // Invariant: every acknowledged op survived.
    for (const auto& path : acked) {
      EXPECT_TRUE(now_active->tree().Exists(path))
          << path << " lost in round " << round << " seed " << seed;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FailoverPropertyTest,
                         ::testing::Values(101, 202, 303, 404, 505, 606));

// --- session-consistent standby read offload --------------------------------

TEST_F(ClusterTest, StandbyReadsServeSessionConsistentResults) {
  Build(1, 2, 7, 0, EnableStandbyReads);
  ASSERT_TRUE(MkdirSync("/d").ok());
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(CreateFile("/d/f" + std::to_string(i)).ok());
  }
  // Write acks raised the session floor above zero.
  EXPECT_GT(cluster_->client(0).session_sn(0), 0u);

  // Every read carries that floor, so wherever it is routed it must
  // observe all of this session's writes.
  for (int i = 0; i < 8; ++i) {
    const Result<fsns::FileInfo> r = StatSync("/d/f" + std::to_string(i));
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_FALSE(r.value().is_dir);
  }
  const Result<std::vector<std::string>> listing = ListSync("/d");
  ASSERT_TRUE(listing.ok()) << listing.status().ToString();
  EXPECT_EQ(listing.value().size(), 8u);

  // The reads were actually offloaded and actually served by standbys.
  EXPECT_GT(cluster_->client(0).counters().reads_offloaded, 0u);
  std::uint64_t served = 0;
  for (std::size_t m = 0; m < cluster_->group_size(0); ++m) {
    served +=
        cluster_->mds(0, static_cast<int>(m)).counters().standby_reads_served;
  }
  EXPECT_GT(served, 0u);
}

TEST_F(ClusterTest, SessionFloorHoldsAcrossFailover) {
  Build(1, 3, 7, 0, EnableStandbyReads);
  ASSERT_TRUE(MkdirSync("/s").ok());
  ASSERT_TRUE(CreateFile("/s/before").ok());

  cluster_->FindActive(0)->Crash();
  Run(10 * kSecond);  // session timeout + election + switch
  ASSERT_NE(cluster_->FindActive(0), nullptr);

  // A write acked by the new active raises the floor past the failover;
  // subsequent reads (standby-routed or bounced) must observe it and
  // everything acked before the crash — read-your-writes across epochs.
  ASSERT_TRUE(CreateFile("/s/after").ok());
  const Result<fsns::FileInfo> after = StatSync("/s/after");
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  const Result<fsns::FileInfo> before = StatSync("/s/before");
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  const Result<std::vector<std::string>> listing = ListSync("/s");
  ASSERT_TRUE(listing.ok()) << listing.status().ToString();
  EXPECT_EQ(listing.value().size(), 2u);
}

}  // namespace
}  // namespace mams::cluster
