// Focused tests for MAMS core-protocol behaviours that the integration
// suite doesn't pin down individually: checkpointing to the SSP, the
// image-first renewing path, IO fencing of deposed actives, demotion of
// unresponsive standbys, and the failover stages read from trace spans.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "cluster/cfs.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"
#include "workload/load_engine.hpp"

namespace mams::core {
namespace {

class CoreTest : public ::testing::Test {
 protected:
  void Build(cluster::CfsConfig cfg, std::uint64_t seed = 17) {
    sim_ = std::make_unique<sim::Simulator>(seed);
    net_ = std::make_unique<net::Network>(*sim_);
    cfs_ = std::make_unique<cluster::CfsCluster>(*net_, cfg);
    cfs_->Start();
    sim_->RunUntil(sim_->Now() + kSecond);
  }

  void Run(SimTime dt) { sim_->RunUntil(sim_->Now() + dt); }

  Status CreateFile(const std::string& path) {
    Status out = Status::TimedOut("pending");
    bool done = false;
    cfs_->client(0).Create(path, [&](Status s) {
      out = s;
      done = true;
    });
    for (int i = 0; i < 600 && !done; ++i) Run(100 * kMillisecond);
    return out;
  }

  std::unique_ptr<sim::Simulator> sim_;
  std::unique_ptr<net::Network> net_;
  std::unique_ptr<cluster::CfsCluster> cfs_;
};

TEST_F(CoreTest, ActiveCheckpointsImageToSsp) {
  cluster::CfsConfig cfg;
  cfg.groups = 1;
  cfg.standbys_per_group = 2;
  cfg.clients = 1;
  cfg.data_servers = 1;
  cfg.mds.checkpoint_interval = 5 * kSecond;
  Build(cfg);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(CreateFile("/ckpt/f" + std::to_string(i)).ok());
  }
  Run(8 * kSecond);  // past a checkpoint tick
  // Some pool node must now hold a g0/image-<sn> file.
  int images = 0;
  for (int p = 0; p < 3; ++p) {
    images += static_cast<int>(
        cfs_->pool_node(p).store().List("g0/image-").size());
  }
  EXPECT_GT(images, 0);
}

TEST_F(CoreTest, JuniorUsesImageWhenLagIsLarge) {
  cluster::CfsConfig cfg;
  cfg.groups = 1;
  cfg.standbys_per_group = 2;
  cfg.clients = 1;
  cfg.data_servers = 1;
  cfg.mds.checkpoint_interval = 3 * kSecond;
  cfg.mds.image_gap_threshold = 5;  // tiny: force the image path
  Build(cfg);
  // Create enough history (in many batches) to exceed the gap threshold.
  for (int i = 0; i < 60; ++i) {
    ASSERT_TRUE(CreateFile("/img/f" + std::to_string(i)).ok());
  }
  Run(5 * kSecond);  // checkpoint happens

  // A brand-new backup starts from sn 0 -> image-first renewal.
  auto& added = cfs_->AddStandby(0);
  Run(30 * kSecond);
  EXPECT_EQ(added.role(), ServerState::kStandby);
  EXPECT_EQ(added.tree().Fingerprint(),
            cfs_->FindActive(0)->tree().Fingerprint());
  EXPECT_TRUE(added.tree().Exists("/img/f0"));
}

TEST_F(CoreTest, DeposedActiveIsFencedByStandbys) {
  cluster::CfsConfig cfg;
  cfg.groups = 1;
  cfg.standbys_per_group = 3;
  cfg.clients = 1;
  cfg.data_servers = 1;
  Build(cfg);
  ASSERT_TRUE(CreateFile("/fence/a").ok());

  // Partition the active away from the coordination service only: its
  // session expires and a standby takes over, but the old active can still
  // reach its peers and may try to replicate stale journals.
  MdsServer* old_active = cfs_->FindActive(0);
  net_->Partition(old_active->id(), cfs_->coord().frontend_id());
  Run(10 * kSecond);

  MdsServer* new_active = cfs_->FindActive(0);
  ASSERT_NE(new_active, nullptr);
  EXPECT_NE(new_active, old_active);
  // The old active observed the fencing (stale-fence acks or lock-loss
  // event once the partition heals) and must no longer be active.
  net_->HealAll();
  Run(5 * kSecond);
  EXPECT_NE(old_active->role(), ServerState::kActive);
  // And the cluster still serves writes.
  EXPECT_TRUE(CreateFile("/fence/b").ok());
}

TEST_F(CoreTest, UnresponsiveStandbyIsDemotedToJunior) {
  cluster::CfsConfig cfg;
  cfg.groups = 1;
  cfg.standbys_per_group = 3;
  cfg.clients = 1;
  cfg.data_servers = 1;
  Build(cfg);
  ASSERT_TRUE(CreateFile("/d/x").ok());

  // Cut one standby off from the active only (coord heartbeats still
  // flow): journal syncs to it time out and the active demotes it.
  MdsServer* active = cfs_->FindActive(0);
  MdsServer* victim = nullptr;
  for (std::size_t m = 0; m < cfs_->group_size(0); ++m) {
    auto& mds = cfs_->mds(0, static_cast<int>(m));
    if (mds.role() == ServerState::kStandby) {
      victim = &mds;
      break;
    }
  }
  ASSERT_NE(victim, nullptr);
  net_->Partition(active->id(), victim->id());
  ASSERT_TRUE(CreateFile("/d/y").ok());  // forces a sync round
  Run(5 * kSecond);
  EXPECT_EQ(cfs_->coord().frontend().PeekView(0).StateOf(victim->id()),
            ServerState::kJunior);

  // Heal: the renewing protocol brings it back to standby.
  net_->HealAll();
  Run(40 * kSecond);
  EXPECT_EQ(victim->role(), ServerState::kStandby);
}

TEST_F(CoreTest, FailoverTraceStagesAreOrdered) {
  cluster::CfsConfig cfg;
  cfg.groups = 1;
  cfg.standbys_per_group = 3;
  cfg.clients = 1;
  cfg.data_servers = 1;
  Build(cfg);
  ASSERT_TRUE(CreateFile("/t/1").ok());
  sim_->obs().tracer().set_enabled(true);
  const SimTime crash_at = sim_->Now();
  cfs_->FindActive(0)->Crash();
  Run(12 * kSecond);
  const auto traces = CompletedFailovers(sim_->obs().tracer());
  ASSERT_EQ(traces.size(), 1u);
  const auto& t = traces[0];
  EXPECT_LE(crash_at, t.election_started);
  EXPECT_LT(t.election_started, t.lock_granted);
  EXPECT_LT(t.lock_granted, t.switch_completed);
  // Paper's figure: election < 100 ms is typical; switch a few hundred ms.
  EXPECT_LT(ToMillis(t.ElectionTime()), 500.0);
  EXPECT_LT(ToMillis(t.SwitchTime()), 1000.0);
}

// Fig. 7 reads its stages from trace spans, so turning the tracer on must
// not change the simulation: one seed, tracer off and on, same digest.
struct FailoverRun {
  std::uint64_t digest = 0;
  std::uint64_t completed = 0;
  std::vector<FailoverStages> failovers;
};

FailoverRun RunClosedLoopFailover(bool traced) {
  sim::Simulator sim(23);
  sim.obs().tracer().set_enabled(traced);
  net::Network net(sim);
  cluster::CfsConfig cfg;
  cfg.groups = 1;
  cfg.standbys_per_group = 3;
  cfg.clients = 1;
  cfg.data_servers = 1;
  cluster::CfsCluster cfs(net, cfg);
  cfs.Start();
  sim.RunUntil(sim.Now() + kSecond);

  workload::Mix mix;
  mix.create = 0.5;
  mix.getfileinfo = 0.5;
  workload::LoadEngine engine(sim, workload::MakeApi(cfs.client(0)), mix, 23,
                              workload::LoadEngineOptions::Closed(4));
  engine.Start();
  sim.RunUntil(sim.Now() + 2 * kSecond);
  cfs.FindActive(0)->Crash();
  sim.RunUntil(sim.Now() + 12 * kSecond);
  engine.Stop();
  sim.RunUntil(sim.Now() + kSecond);
  return {sim.run_digest(), engine.completed(),
          CompletedFailovers(sim.obs().tracer())};
}

TEST(FailoverTracingTest, TracerOnLeavesRunDigestUnchanged) {
  const FailoverRun off = RunClosedLoopFailover(false);
  const FailoverRun on = RunClosedLoopFailover(true);
  EXPECT_EQ(off.digest, on.digest);
  EXPECT_EQ(off.completed, on.completed);
  EXPECT_GT(on.completed, 100u);
  EXPECT_TRUE(off.failovers.empty());
  // One failover/election span that ended won=true, followed on the same
  // node by a failover/switch span that ended ok=true.
  ASSERT_EQ(on.failovers.size(), 1u);
  EXPECT_LT(on.failovers[0].election_started, on.failovers[0].lock_granted);
  EXPECT_LT(on.failovers[0].lock_granted, on.failovers[0].switch_completed);
}

TEST_F(CoreTest, GroupDirectoryTracksActives) {
  cluster::CfsConfig cfg;
  cfg.groups = 2;
  cfg.standbys_per_group = 2;
  cfg.clients = 1;
  cfg.data_servers = 1;
  Build(cfg);
  for (GroupId g = 0; g < 2; ++g) {
    EXPECT_EQ(cfs_->directory().Active(g), cfs_->FindActive(g)->id());
  }
  cfs_->FindActive(0)->Crash();
  Run(10 * kSecond);
  EXPECT_EQ(cfs_->directory().Active(0), cfs_->FindActive(0)->id());
}

TEST_F(CoreTest, CountersReflectProtocolActivity) {
  cluster::CfsConfig cfg;
  cfg.groups = 1;
  cfg.standbys_per_group = 2;
  cfg.clients = 1;
  cfg.data_servers = 1;
  Build(cfg);
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(CreateFile("/c/f" + std::to_string(i)).ok());
  }
  Run(kSecond);
  MdsServer* active = cfs_->FindActive(0);
  EXPECT_GE(active->counters().mutations, 20u);
  EXPECT_GT(active->counters().batches_synced, 0u);
  int applied = 0;
  for (std::size_t m = 0; m < cfs_->group_size(0); ++m) {
    auto& mds = cfs_->mds(0, static_cast<int>(m));
    if (&mds != active && mds.counters().batches_applied > 0) ++applied;
  }
  EXPECT_EQ(applied, 2);
}

TEST_F(CoreTest, ReadsServedDuringUpgradeWindow) {
  // Step 3 of the failover protocol: reads are allowed while the elected
  // standby finishes its upgrade; mutations are buffered. We can't pin the
  // exact window deterministically, but ops issued throughout a failover
  // must all eventually succeed and none may be lost or double-applied.
  cluster::CfsConfig cfg;
  cfg.groups = 1;
  cfg.standbys_per_group = 3;
  cfg.clients = 2;
  cfg.data_servers = 1;
  Build(cfg);
  ASSERT_TRUE(CreateFile("/w/seed").ok());

  workload::Mix mix;
  mix.create = 0.5;
  mix.getfileinfo = 0.5;
  workload::LoadEngine engine(*sim_, workload::MakeApi(cfs_->client(1)), mix,
                              3, workload::LoadEngineOptions::Closed(4));
  engine.Start();
  Run(2 * kSecond);
  cfs_->FindActive(0)->Crash();
  Run(15 * kSecond);
  engine.Stop();
  Run(2 * kSecond);
  EXPECT_GT(engine.completed(), 100u);
  // All replicas converge after the dust settles.
  MdsServer* active = cfs_->FindActive(0);
  ASSERT_NE(active, nullptr);
  for (std::size_t m = 0; m < cfs_->group_size(0); ++m) {
    auto& mds = cfs_->mds(0, static_cast<int>(m));
    if (&mds == active || !mds.alive() ||
        mds.role() != ServerState::kStandby) {
      continue;
    }
    EXPECT_EQ(mds.tree().Fingerprint(), active->tree().Fingerprint())
        << mds.name();
  }
}

TEST_F(CoreTest, PipelinedCommitDrainsAcrossViewChange) {
  // The group-commit pipeline keeps several 2PC rounds in flight and parks
  // sealed batches behind the window. Crash the active while that window
  // is hot: every acked mutation must survive into the new view and the
  // deferred/in-flight tail must never be double-applied — replicas
  // converge to the new active's fingerprint once the dust settles.
  cluster::CfsConfig cfg;
  cfg.groups = 1;
  cfg.standbys_per_group = 3;
  cfg.clients = 2;
  cfg.data_servers = 1;
  cfg.mds.commit_pipeline_depth = 2;
  // Seal well inside a sync round-trip (~200us LAN RTT) so sealed batches
  // actually queue up behind the two-slot window instead of finding it
  // empty.
  cfg.mds.writer.max_batch_delay = 100 * kMicrosecond;
  Build(cfg);
  ASSERT_TRUE(CreateFile("/p/seed").ok());

  workload::Mix mix;
  mix.create = 0.70;
  mix.add_block = 0.15;
  mix.getfileinfo = 0.15;
  // 12 sessions: a backlog wider than the 2-slot window.
  workload::LoadEngine engine(*sim_, workload::MakeApi(cfs_->client(1)), mix,
                              7, workload::LoadEngineOptions::Closed(12));
  engine.Start();
  Run(3 * kSecond);

  // The window must actually have been exceeded, otherwise this test is
  // exercising plain one-at-a-time commit and proves nothing.
  MdsServer* old_active = cfs_->FindActive(0);
  ASSERT_NE(old_active, nullptr);
  EXPECT_GT(old_active->counters().pipeline_deferred, 0u);

  old_active->Crash();  // mid-window: syncs in flight, batches deferred
  Run(15 * kSecond);
  engine.Stop();
  Run(2 * kSecond);
  EXPECT_GT(engine.completed(), 100u);

  MdsServer* active = cfs_->FindActive(0);
  ASSERT_NE(active, nullptr);
  EXPECT_NE(active, old_active);
  EXPECT_TRUE(active->tree().Exists("/p/seed"));
  for (std::size_t m = 0; m < cfs_->group_size(0); ++m) {
    auto& mds = cfs_->mds(0, static_cast<int>(m));
    if (&mds == active || !mds.alive() ||
        mds.role() != ServerState::kStandby) {
      continue;
    }
    EXPECT_EQ(mds.tree().Fingerprint(), active->tree().Fingerprint())
        << mds.name();
  }
  // And the new view still serves writes after draining the old window.
  EXPECT_TRUE(CreateFile("/p/after").ok());
}

}  // namespace
}  // namespace mams::core
