// Shard subsystem tests: PartitionMap invariants, parity with the legacy
// HashPartitioner, client redirect on map-epoch bounce, and the migration
// crash matrix (source/destination active killed at each migration stage).
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "cluster/cfs.hpp"
#include "fsns/partition.hpp"
#include "net/network.hpp"
#include "shard/partition_map.hpp"
#include "sim/simulator.hpp"
#include "test_util.hpp"

namespace mams::shard {
namespace {

TEST(PartitionMapTest, SeedCoversSpaceExactlyOnce) {
  for (GroupId groups : {1u, 2u, 3u, 4u, 5u, 8u}) {
    PartitionMap map = PartitionMap::Seed(groups);
    ASSERT_TRUE(map.Validate().ok()) << "groups=" << groups;
    EXPECT_EQ(map.epoch(), 1u);
    std::set<GroupId> seen;
    for (std::uint32_t s = 0; s < map.slot_count(); ++s) {
      EXPECT_EQ(map.OwnerOfSlot(s), s % groups);
      seen.insert(map.OwnerOfSlot(s));
    }
    EXPECT_EQ(seen.size(), groups);
  }
}

TEST(PartitionMapTest, SeedMatchesHashPartitioner) {
  // Routing through the map is bit-identical to the legacy direct hash
  // with the default 64-slot space when the group count divides 64, and
  // with one slot per group (the map CfsCluster gives clients when the
  // deployment has none) for every group count.
  std::vector<std::pair<GroupId, std::uint32_t>> seeds;
  for (GroupId groups : {1u, 2u, 4u, 8u}) {
    seeds.emplace_back(groups, PartitionMap::kDefaultSlots);
  }
  for (GroupId groups = 1; groups <= 7; ++groups) {
    seeds.emplace_back(groups, groups);
  }
  for (const auto& [groups, slots] : seeds) {
    PartitionMap map = PartitionMap::Seed(groups, slots);
    fsns::HashPartitioner legacy(groups);
    const std::vector<std::string> paths = {
        "/",     "/a",         "/a/b",     "/a/b/c.txt", "/dir/file",
        "/x/y0", "/deep/p/q/r", "/bench/d3/f17",         "/fuzz/c1/d2/f0",
    };
    for (const auto& p : paths) {
      EXPECT_EQ(map.OwnerOf(p), legacy.OwnerOf(p))
          << p << " groups=" << groups << " slots=" << slots;
      EXPECT_EQ(map.OwnerOfDir(p), legacy.OwnerOfDir(p))
          << p << " groups=" << groups << " slots=" << slots;
    }
  }
}

TEST(PartitionMapTest, AssignBumpsEpochAndPreservesCoverage) {
  PartitionMap map = PartitionMap::Seed(2);
  const std::uint64_t e0 = map.epoch();
  map.Assign(5, 1);
  EXPECT_GT(map.epoch(), e0);
  EXPECT_EQ(map.OwnerOfSlot(5), 1u);
  EXPECT_TRUE(map.Validate().ok());
  // Neighbors keep their previous owners.
  EXPECT_EQ(map.OwnerOfSlot(4), 0u);
  EXPECT_EQ(map.OwnerOfSlot(6), 0u);

  // Epoch strictly increases over a chain of reassignments and coverage
  // stays exact after every one.
  std::uint64_t prev = map.epoch();
  for (std::uint32_t slot : {0u, 1u, 62u, 63u, 31u}) {
    map.Assign(slot, 1);
    EXPECT_GT(map.epoch(), prev);
    prev = map.epoch();
    ASSERT_TRUE(map.Validate().ok()) << "after assign " << slot;
  }
}

TEST(PartitionMapTest, SplitAndMergeInvariants) {
  PartitionMap map = PartitionMap::Seed(1);  // single range [0,63]
  ASSERT_EQ(map.ranges().size(), 1u);
  const std::uint64_t e0 = map.epoch();

  map.Split(32);
  EXPECT_EQ(map.ranges().size(), 2u);
  EXPECT_GT(map.epoch(), e0);
  ASSERT_TRUE(map.Validate().ok());

  map.Split(32);  // already a boundary: no-op
  EXPECT_EQ(map.ranges().size(), 2u);

  map.MergeWithNext(0);
  EXPECT_EQ(map.ranges().size(), 1u);
  ASSERT_TRUE(map.Validate().ok());
  EXPECT_EQ(map.ranges()[0].lo, 0u);
  EXPECT_EQ(map.ranges()[0].hi, 63u);
}

TEST(PartitionMapTest, SerializeRoundTrip) {
  PartitionMap map = PartitionMap::Seed(3);
  map.Assign(7, 0);
  map.Assign(40, 2);
  const std::vector<char> bytes = map.Serialize();
  Result<PartitionMap> back = PartitionMap::Deserialize(bytes);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back.value(), map);
  EXPECT_EQ(back.value().epoch(), map.epoch());

  std::vector<char> truncated(bytes.begin(), bytes.end() - 3);
  EXPECT_FALSE(PartitionMap::Deserialize(truncated).ok());
}

TEST(PartitionMapTest, IsLocalOpMatchesSingleOwnerChecks) {
  // The satellite fix recomputes each owner exactly once; verify the
  // condensed predicate still agrees with the direct definition.
  fsns::HashPartitioner part(4);
  const std::vector<std::string> paths = {
      "/a/b", "/a/c", "/d/e/f", "/g", "/a/b/c/d", "/x/y/z",
  };
  for (const auto& src : paths) {
    for (const auto& dst : paths) {
      const bool expected = part.OwnerOf(src) == part.OwnerOfDir(src) &&
                            part.OwnerOf(src) == part.OwnerOf(dst) &&
                            part.OwnerOf(dst) == part.OwnerOfDir(dst);
      EXPECT_EQ(part.IsLocalOp(src, dst), expected) << src << " -> " << dst;
    }
  }
}

}  // namespace
}  // namespace mams::shard

// --- cluster-level: live migration and cross-group rename ---------------------

namespace mams::cluster {
namespace {

class ShardClusterTest : public ::testing::Test {
 protected:
  void Build(std::uint64_t seed = 7,
             const std::function<void(CfsConfig&)>& tweak = {}) {
    sim_ = std::make_unique<sim::Simulator>(seed);
    net_ = std::make_unique<net::Network>(*sim_);
    CfsConfig cfg;
    cfg.groups = 2;
    cfg.standbys_per_group = 2;
    cfg.data_servers = 1;
    cfg.clients = 2;
    cfg.mds.partition_map = shard::PartitionMap::Seed(2);
    if (tweak) tweak(cfg);
    cluster_ = std::make_unique<CfsCluster>(*net_, cfg);
    cluster_->Start();
    sim_->RunUntil(sim_->Now() + kSecond);
  }

  void Run(SimTime dt) { sim_->RunUntil(sim_->Now() + dt); }

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

  Status RenameSync(const std::string& src, const std::string& dst,
                    int client = 0) {
    Status out = Status::TimedOut("no reply");
    bool done = false;
    cluster_->client(client).Rename(src, dst, [&](Status s) {
      out = s;
      done = true;
    });
    testutil::WaitFor(*sim_, [&] { return done; }, 120 * kSecond);
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

  /// First "<base>N" directory whose *children* land in a slot owned by `g`.
  /// Files hash by their parent directory, so picking the directory picks the
  /// slot — every file inside it shares that slot.
  static std::string DirOwnedBy(GroupId g, const std::string& base,
                                std::uint32_t* slot_out = nullptr) {
    const shard::PartitionMap map = shard::PartitionMap::Seed(2);
    for (int i = 0;; ++i) {
      const std::string d = base + std::to_string(i);
      const std::uint32_t slot = map.SlotOfDir(d);
      if (map.OwnerOfSlot(slot) == g) {
        if (slot_out != nullptr) *slot_out = slot;
        return d;
      }
    }
  }

  /// A batch of paths that all live in one group-0-owned slot, so a single
  /// migration moves every one of them.
  static std::vector<std::string> SameSlotPaths(std::size_t n,
                                                std::uint32_t* slot_out) {
    const std::string dir = DirOwnedBy(0, "/mig", slot_out);
    std::vector<std::string> paths;
    paths.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      paths.push_back(dir + "/f" + std::to_string(i));
    }
    return paths;
  }

  /// Every path must exist on exactly one group's active (no loss, no
  /// duplication) and be reachable through a client.
  void ExpectExactlyOnce(const std::vector<std::string>& paths) {
    core::MdsServer* a0 = cluster_->FindActive(0);
    core::MdsServer* a1 = cluster_->FindActive(1);
    ASSERT_NE(a0, nullptr);
    ASSERT_NE(a1, nullptr);
    for (const std::string& p : paths) {
      EXPECT_NE(a0->tree().Exists(p), a1->tree().Exists(p)) << p;
      const Result<fsns::FileInfo> r = StatSync(p);
      EXPECT_TRUE(r.ok()) << p << ": " << r.status().ToString();
    }
  }

  std::unique_ptr<sim::Simulator> sim_;
  std::unique_ptr<net::Network> net_;
  std::unique_ptr<CfsCluster> cluster_;
};

TEST_F(ShardClusterTest, MigrationMovesSlotAndStaleClientFollowsBounce) {
  Build();
  std::uint32_t slot = 0;
  const std::vector<std::string> paths = SameSlotPaths(4, &slot);
  for (const std::string& p : paths) {
    ASSERT_TRUE(CreateFile(p).ok()) << p;
  }

  ASSERT_TRUE(cluster_->StartShardMigration(slot).ok());
  Run(10 * kSecond);

  core::MdsServer* a0 = cluster_->FindActive(0);
  core::MdsServer* a1 = cluster_->FindActive(1);
  ASSERT_NE(a0, nullptr);
  ASSERT_NE(a1, nullptr);
  EXPECT_EQ(a0->counters().migrations_completed, 1u);
  EXPECT_GT(a0->partition_map().epoch(), 1u);
  EXPECT_EQ(a0->partition_map().OwnerOfSlot(slot), 1u);
  for (const std::string& p : paths) {
    EXPECT_FALSE(a0->tree().Exists(p)) << p;
    EXPECT_TRUE(a1->tree().Exists(p)) << p;
  }
  ASSERT_FALSE(a0->migration_stats().empty());
  const core::MdsServer::MigrationStats& stats = a0->migration_stats().back();
  EXPECT_EQ(stats.slot, slot);
  EXPECT_FALSE(stats.aborted);
  EXPECT_GE(stats.entries, paths.size());

  // Client 1 never wrote, so it still routes by the seeded epoch-1 map; its
  // first read of a migrated path is bounced with the new map and retried
  // against the new owner.
  for (const std::string& p : paths) {
    const Result<fsns::FileInfo> r = StatSync(p, /*client=*/1);
    EXPECT_TRUE(r.ok()) << p << ": " << r.status().ToString();
  }
  EXPECT_GT(cluster_->client(1).counters().shard_bounces, 0u);
  EXPECT_GT(a0->counters().shard_bounces, 0u);
}

TEST_F(ShardClusterTest, MigrationSurvivesSourceActiveCrash) {
  Build();
  std::uint32_t slot = 0;
  const std::vector<std::string> paths = SameSlotPaths(6, &slot);
  for (const std::string& p : paths) {
    ASSERT_TRUE(CreateFile(p).ok()) << p;
  }

  ASSERT_TRUE(cluster_->StartShardMigration(slot).ok());
  cluster_->FindActive(0)->Crash();
  Run(20 * kSecond);  // failover + journal-driven abort or roll-forward

  // Whichever way the new source active resolved the half-done migration,
  // every entry survives exactly once and stays reachable.
  ExpectExactlyOnce(paths);

  // The subsystem is still live: migrating the slot again (from whichever
  // group now owns it) completes cleanly.
  ASSERT_TRUE(cluster_->StartShardMigration(slot).ok());
  Run(10 * kSecond);
  ExpectExactlyOnce(paths);
}

TEST_F(ShardClusterTest, MigrationSurvivesDestinationActiveCrash) {
  Build();
  std::uint32_t slot = 0;
  const std::vector<std::string> paths = SameSlotPaths(6, &slot);
  for (const std::string& p : paths) {
    ASSERT_TRUE(CreateFile(p).ok()) << p;
  }

  ASSERT_TRUE(cluster_->StartShardMigration(slot).ok());
  cluster_->FindActive(1)->Crash();
  Run(30 * kSecond);  // dst failover; source retries against the new active

  ExpectExactlyOnce(paths);
}

TEST_F(ShardClusterTest, CrossGroupRenameIsAtomic) {
  Build();
  // Materialize the destination directory on the destination group first:
  // rename never creates ancestors, matching the local path's semantics.
  const std::string rdir = DirOwnedBy(1, "/ren");
  const std::string dst_seed = rdir + "/seed";
  ASSERT_TRUE(CreateFile(dst_seed).ok());
  const std::string src = DirOwnedBy(0, "/mig") + "/f0";
  ASSERT_TRUE(CreateFile(src).ok());
  const std::string dst = rdir + "/moved";

  ASSERT_TRUE(RenameSync(src, dst).ok());

  core::MdsServer* a0 = cluster_->FindActive(0);
  core::MdsServer* a1 = cluster_->FindActive(1);
  EXPECT_FALSE(a0->tree().Exists(src));
  EXPECT_TRUE(a1->tree().Exists(dst));
  EXPECT_EQ(a0->counters().cross_group_renames, 1u);
  EXPECT_TRUE(StatSync(dst).ok());
  EXPECT_EQ(StatSync(src).status().code(), StatusCode::kNotFound);

  // Destination parent must already exist: a rename into a directory that
  // was never created fails with NotFound on both sides of the boundary.
  const std::string src2 = DirOwnedBy(0, "/mig") + "/other";
  ASSERT_TRUE(CreateFile(src2).ok());
  const std::string orphan = DirOwnedBy(1, rdir + "/nowhere") + "/x";
  EXPECT_EQ(RenameSync(src2, orphan).code(), StatusCode::kNotFound);
}

TEST_F(ShardClusterTest, CrossGroupRenameSurvivesDestinationCrash) {
  Build();
  const std::string rdir = DirOwnedBy(1, "/ren");
  const std::string dst_seed = rdir + "/seed";
  ASSERT_TRUE(CreateFile(dst_seed).ok());
  const std::string src = DirOwnedBy(0, "/mig") + "/f0";
  ASSERT_TRUE(CreateFile(src).ok());
  const std::string dst = rdir + "/moved";

  // Crash the destination active while the rename is in flight. The source
  // keeps the journaled intent and retries the commit against whoever wins
  // the destination election; the client's own retry rides the dedup table.
  Status result = Status::TimedOut("pending");
  bool done = false;
  cluster_->client(0).Rename(src, dst, [&](Status s) {
    result = s;
    done = true;
  });
  cluster_->FindActive(1)->Crash();
  ASSERT_TRUE(testutil::WaitFor(*sim_, [&] { return done; }, 120 * kSecond));
  EXPECT_TRUE(result.ok()) << result.ToString();

  Run(5 * kSecond);  // let the finish record replicate
  core::MdsServer* a0 = cluster_->FindActive(0);
  core::MdsServer* a1 = cluster_->FindActive(1);
  ASSERT_NE(a0, nullptr);
  ASSERT_NE(a1, nullptr);
  EXPECT_FALSE(a0->tree().Exists(src));
  EXPECT_TRUE(a1->tree().Exists(dst));
  EXPECT_TRUE(StatSync(dst).ok());
  EXPECT_EQ(StatSync(src).status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace mams::cluster
