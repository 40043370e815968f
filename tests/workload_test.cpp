// Tests for the workload layer: op streams, the closed-loop engine (with
// MTTR probing), and the MapReduce job simulator.
#include <gtest/gtest.h>

#include <memory>

#include "baselines/systems.hpp"
#include "cluster/cfs.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"
#include "workload/load_engine.hpp"
#include "workload/mapreduce.hpp"
#include "workload/opstream.hpp"

namespace mams::workload {
namespace {

TEST(OpStreamTest, PureCreateStreamMakesFreshPaths) {
  OpStream stream(Mix::Only(OpKind::kCreate), 1);
  std::set<std::string> seen;
  for (int i = 0; i < 100; ++i) {
    const Op op = stream.Next();
    EXPECT_EQ(op.kind, OpKind::kCreate);
    EXPECT_TRUE(seen.insert(op.path).second) << "duplicate " << op.path;
  }
  EXPECT_EQ(stream.live_files(), 100u);
}

TEST(OpStreamTest, DeleteTargetsExistingFilesAndShrinksSet) {
  OpStream stream(Mix::Only(OpKind::kDelete), 2);
  // With no files yet, deletes degrade to creates (always-valid ops).
  EXPECT_EQ(stream.Next().kind, OpKind::kCreate);
}

TEST(OpStreamTest, MixedStreamRoughlyHonorsWeights) {
  OpStream stream(Mix::Mixed(), 3);
  int creates = 0, stats = 0, mkdirs = 0;
  for (int i = 0; i < 2000; ++i) {
    switch (stream.Next().kind) {
      case OpKind::kCreate:
        ++creates;
        break;
      case OpKind::kGetFileInfo:
        ++stats;
        break;
      case OpKind::kMkdir:
        ++mkdirs;
        break;
      default:
        break;
    }
  }
  EXPECT_NEAR(creates / 2000.0, 0.4, 0.05);
  EXPECT_NEAR(stats / 2000.0, 0.4, 0.05);
  EXPECT_NEAR(mkdirs / 2000.0, 0.2, 0.05);
}

TEST(OpStreamTest, RenameKeepsTrackedPathFresh) {
  Mix mix;
  mix.create = 0.5;
  mix.rename = 0.5;
  OpStream stream(mix, 4);
  for (int i = 0; i < 200; ++i) {
    const Op op = stream.Next();
    if (op.kind == OpKind::kRename) {
      EXPECT_NE(op.path, op.path2);
    }
  }
}

TEST(DriverTest, ClosedLoopProducesThroughputOnCfs) {
  sim::Simulator sim(5);
  net::Network net(sim);
  cluster::CfsConfig cfg;
  cfg.groups = 1;
  cfg.standbys_per_group = 2;
  cfg.clients = 2;
  cfg.data_servers = 1;
  cluster::CfsCluster cfs(net, cfg);
  cfs.Start();
  sim.RunUntil(sim.Now() + kSecond);

  LoadEngine engine(sim, MakeApi(cfs.client(0)), Mix::Only(OpKind::kCreate),
                    11, LoadEngineOptions::Closed(4));
  engine.Start();
  sim.RunUntil(sim.Now() + 5 * kSecond);
  engine.Stop();
  EXPECT_GT(engine.completed(), 1000u);  // thousands of ops/s expected
  EXPECT_GT(engine.Throughput(), 500.0);
  EXPECT_GT(engine.latencies().count(), 0u);
}

TEST(DriverTest, MttrProbeMeasuresOutageOnCfs) {
  sim::Simulator sim(6);
  net::Network net(sim);
  cluster::CfsConfig cfg;
  cfg.groups = 1;
  cfg.standbys_per_group = 3;
  cfg.clients = 2;
  cfg.data_servers = 1;
  cfg.client.max_attempts = 1;  // fail fast: ops *return* failure
  cfg.client.rpc_timeout = kSecond;
  cluster::CfsCluster cfs(net, cfg);
  cfs.Start();
  sim.RunUntil(sim.Now() + kSecond);

  LoadEngine engine(sim, MakeApi(cfs.client(0)), Mix::Only(OpKind::kCreate),
                    12, LoadEngineOptions::Closed(2));
  engine.Start();
  sim.RunUntil(sim.Now() + 2 * kSecond);
  cfs.FindActive(0)->Crash();
  sim.RunUntil(sim.Now() + 20 * kSecond);
  engine.Stop();

  const auto& probe = engine.mttr_probe();
  ASSERT_TRUE(probe.complete());
  const double mttr = ToSeconds(probe.mttr());
  // Session timeout (5 s) dominates; election+switch+reconnect add <2 s.
  EXPECT_GT(mttr, 3.0);
  EXPECT_LT(mttr, 9.0);
  EXPECT_GT(engine.failed(), 0u);
}

TEST(MapReduceTest, JobCompletesWithoutFailures) {
  sim::Simulator sim(7);
  net::Network net(sim);
  cluster::CfsConfig cfg;
  cfg.groups = 1;
  cfg.standbys_per_group = 2;
  cfg.clients = 1;
  cfg.data_servers = 1;
  cluster::CfsCluster cfs(net, cfg);
  cfs.Start();
  sim.RunUntil(sim.Now() + kSecond);

  MapReduceJob::Options opts;
  opts.input_bytes = 1ull << 30;  // 1 GB -> 16 maps (fast test)
  opts.reduce_tasks = 4;
  MapReduceJob job(sim, MakeApi(cfs.client(0)), opts, 21);
  EXPECT_EQ(job.map_tasks(), 16);

  bool setup = false, finished = false;
  job.Setup([&] {
    setup = true;
    job.Run([&] { finished = true; });
  });
  sim.RunUntil(sim.Now() + 600 * kSecond);
  EXPECT_TRUE(setup);
  EXPECT_TRUE(finished);
  EXPECT_EQ(job.map_completions().size(), 16u);
  EXPECT_EQ(job.reduce_completions().size(), 4u);
  // Reduces only after all maps (shuffle barrier).
  EXPECT_GT(job.reduce_completions().front(), job.map_completions().back());
}

TEST(MapReduceTest, FailoverDelaysButDoesNotKillTheJob) {
  sim::Simulator sim(8);
  net::Network net(sim);
  cluster::CfsConfig cfg;
  cfg.groups = 1;
  cfg.standbys_per_group = 3;
  cfg.clients = 1;
  cfg.data_servers = 1;
  cluster::CfsCluster cfs(net, cfg);
  cfs.Start();
  sim.RunUntil(sim.Now() + kSecond);

  MapReduceJob::Options opts;
  opts.input_bytes = 1ull << 30;
  opts.reduce_tasks = 4;
  MapReduceJob job(sim, MakeApi(cfs.client(0)), opts, 22);
  bool finished = false;
  job.Setup([&] {
    job.Run([&] { finished = true; });
    // Crash the active a few seconds into the map phase.
    sim.After(5 * kSecond, [&] {
      if (auto* active = cfs.FindActive(0)) active->Crash();
    });
  });
  sim.RunUntil(sim.Now() + 900 * kSecond);
  EXPECT_TRUE(finished);
  EXPECT_EQ(job.map_completions().size(), 16u);
  EXPECT_EQ(job.reduce_completions().size(), 4u);
}

}  // namespace
}  // namespace mams::workload
