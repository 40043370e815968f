// Coordination-service tests: sessions and expiry, the replicated global
// view, watches, and the election-window distributed lock with fencing.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "coord/client.hpp"
#include "coord/service.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"

namespace mams::coord {
namespace {

/// A minimal participant host: registers, watches, can bid for the lock.
class Member : public net::Host {
 public:
  Member(net::Network& net, std::string name, NodeId coord)
      : net::Host(net, std::move(name)) {
    client_ = std::make_unique<CoordClient>(*this, coord);
    client_->SetWatchHandler([this](const GroupView& v) {
      views_seen.push_back(v);
    });
  }

  CoordClient& client() { return *client_; }
  std::vector<GroupView> views_seen;

 protected:
  void OnCrash() override {
    net::Host::OnCrash();
    client_->Stop();
  }

 private:
  std::unique_ptr<CoordClient> client_;
};

class CoordTest : public ::testing::Test {
 protected:
  CoordTest() : sim_(5), net_(sim_) {
    CoordOptions opts;
    ensemble_ = std::make_unique<CoordEnsemble>(net_, 3, opts);
    for (int i = 0; i < 3; ++i) {
      members_.push_back(std::make_unique<Member>(
          net_, "m" + std::to_string(i), ensemble_->frontend_id()));
      members_.back()->Boot();
    }
  }

  /// Registers member i into group 0 with the given state and subscribes
  /// to watch events.
  void Join(int i, ServerState state) {
    bool done = false;
    members_[i]->client().Register(0, state, [&](Result<GroupView> r) {
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      done = true;
    });
    sim_.RunUntil(sim_.Now() + kSecond);
    ASSERT_TRUE(done);
    members_[i]->client().Watch(0, [](Status s) { ASSERT_TRUE(s.ok()); });
    sim_.RunUntil(sim_.Now() + kSecond);
  }

  sim::Simulator sim_;
  net::Network net_;
  std::unique_ptr<CoordEnsemble> ensemble_;
  std::vector<std::unique_ptr<Member>> members_;
};

TEST_F(CoordTest, RegisterPopulatesReplicatedView) {
  Join(0, ServerState::kActive);
  Join(1, ServerState::kStandby);
  const GroupView& v = ensemble_->frontend().PeekView(0);
  EXPECT_EQ(v.StateOf(members_[0]->id()), ServerState::kActive);
  EXPECT_EQ(v.StateOf(members_[1]->id()), ServerState::kStandby);
  EXPECT_EQ(v.FindActive(), members_[0]->id());
  EXPECT_EQ(v.CountInState(ServerState::kStandby), 1);
}

TEST_F(CoordTest, WatchersSeeStateChanges) {
  Join(0, ServerState::kActive);
  Join(1, ServerState::kStandby);
  members_[1]->views_seen.clear();
  // Member 0 flips its own state; member 1 must observe it.
  members_[0]->client().SetState(0, members_[0]->id(), ServerState::kJunior, 0,
                                 [](Result<GroupView> r) {
                                   ASSERT_TRUE(r.ok());
                                 });
  sim_.RunUntil(sim_.Now() + kSecond);
  ASSERT_FALSE(members_[1]->views_seen.empty());
  EXPECT_EQ(members_[1]->views_seen.back().StateOf(members_[0]->id()),
            ServerState::kJunior);
}

TEST_F(CoordTest, SessionExpiryMarksNodeDownAndNotifies) {
  Join(0, ServerState::kActive);
  Join(1, ServerState::kStandby);
  members_[1]->views_seen.clear();
  members_[0]->Crash();  // heartbeats stop
  sim_.RunUntil(sim_.Now() + 8 * kSecond);  // > 5 s session timeout
  const GroupView& v = ensemble_->frontend().PeekView(0);
  EXPECT_EQ(v.StateOf(members_[0]->id()), ServerState::kDown);
  EXPECT_EQ(v.FindActive(), kInvalidNode);
  ASSERT_FALSE(members_[1]->views_seen.empty());
  EXPECT_EQ(members_[1]->views_seen.back().StateOf(members_[0]->id()),
            ServerState::kDown);
}

TEST_F(CoordTest, ExpiryTakesRoughlySessionTimeout) {
  Join(0, ServerState::kActive);
  Join(1, ServerState::kStandby);
  const SimTime crash_at = sim_.Now();
  members_[0]->Crash();
  SimTime detected = -1;
  // Poll the view until the node is marked down.
  while (sim_.Now() < crash_at + 20 * kSecond) {
    sim_.RunUntil(sim_.Now() + 100 * kMillisecond);
    if (ensemble_->frontend().PeekView(0).StateOf(members_[0]->id()) ==
        ServerState::kDown) {
      detected = sim_.Now();
      break;
    }
  }
  ASSERT_GT(detected, 0);
  const double gap = ToSeconds(detected - crash_at);
  EXPECT_GT(gap, 3.0);   // not before the session timeout
  EXPECT_LT(gap, 7.9);   // timeout + scan period + heartbeat phase
}

TEST_F(CoordTest, LockElectionPicksLargestDraw) {
  Join(0, ServerState::kStandby);
  Join(1, ServerState::kStandby);
  Join(2, ServerState::kStandby);
  int grants = 0, denials = 0;
  NodeId winner = kInvalidNode;
  for (int i = 0; i < 3; ++i) {
    const std::uint64_t draw = 10 + static_cast<std::uint64_t>(i) * 10;
    members_[i]->client().TryLock(0, draw, 0,
                                  [&, i](Result<CoordClient::LockResult> r) {
                                    ASSERT_TRUE(r.ok());
                                    if (r.value().granted) {
                                      ++grants;
                                      winner = members_[i]->id();
                                    } else {
                                      ++denials;
                                    }
                                  });
  }
  sim_.RunUntil(sim_.Now() + 2 * kSecond);
  EXPECT_EQ(grants, 1);
  EXPECT_EQ(denials, 2);
  EXPECT_EQ(winner, members_[2]->id());  // largest draw
  EXPECT_EQ(ensemble_->frontend().PeekView(0).lock_holder, winner);
}

TEST_F(CoordTest, LockTieBrokenByMaxSn) {
  Join(0, ServerState::kJunior);
  Join(1, ServerState::kJunior);
  NodeId winner = kInvalidNode;
  for (int i = 0; i < 2; ++i) {
    // Equal draws (juniors bid draw=0); higher journal sn must win.
    const SerialNumber sn = (i == 0) ? 100 : 50;
    members_[i]->client().TryLock(0, 0, sn,
                                  [&, i](Result<CoordClient::LockResult> r) {
                                    ASSERT_TRUE(r.ok());
                                    if (r.value().granted) {
                                      winner = members_[i]->id();
                                    }
                                  });
  }
  sim_.RunUntil(sim_.Now() + 2 * kSecond);
  EXPECT_EQ(winner, members_[0]->id());
}

TEST_F(CoordTest, LockDeniedWhileHeld) {
  Join(0, ServerState::kStandby);
  Join(1, ServerState::kStandby);
  members_[0]->client().TryLock(0, 5, 0, [](Result<CoordClient::LockResult> r) {
    ASSERT_TRUE(r.ok());
    ASSERT_TRUE(r.value().granted);
  });
  sim_.RunUntil(sim_.Now() + kSecond);
  bool denied = false;
  NodeId holder = kInvalidNode;
  members_[1]->client().TryLock(0, 999, 0,
                                [&](Result<CoordClient::LockResult> r) {
                                  ASSERT_TRUE(r.ok());
                                  denied = !r.value().granted;
                                  holder = r.value().holder;
                                });
  sim_.RunUntil(sim_.Now() + kSecond);
  EXPECT_TRUE(denied);
  EXPECT_EQ(holder, members_[0]->id());
}

TEST_F(CoordTest, FenceTokenIncreasesPerGrant) {
  Join(0, ServerState::kStandby);
  Join(1, ServerState::kStandby);
  FenceToken t1 = 0, t2 = 0;
  members_[0]->client().TryLock(0, 1, 0, [&](Result<CoordClient::LockResult> r) {
    if (r.ok()) t1 = r.value().fence;
  });
  sim_.RunUntil(sim_.Now() + kSecond);
  members_[0]->client().ReleaseLock(0, [](Status) {});
  sim_.RunUntil(sim_.Now() + kSecond);
  members_[1]->client().TryLock(0, 1, 0, [&](Result<CoordClient::LockResult> r) {
    if (r.ok()) t2 = r.value().fence;
  });
  sim_.RunUntil(sim_.Now() + kSecond);
  EXPECT_GT(t1, 0u);
  EXPECT_GT(t2, t1);
}

TEST_F(CoordTest, LockFreedWhenHolderSessionExpires) {
  Join(0, ServerState::kActive);
  Join(1, ServerState::kStandby);
  members_[0]->client().TryLock(0, 1, 0, [](Result<CoordClient::LockResult>) {});
  sim_.RunUntil(sim_.Now() + kSecond);
  ASSERT_EQ(ensemble_->frontend().PeekView(0).lock_holder, members_[0]->id());
  members_[0]->Crash();
  sim_.RunUntil(sim_.Now() + 8 * kSecond);
  EXPECT_EQ(ensemble_->frontend().PeekView(0).lock_holder, kInvalidNode);
}

TEST_F(CoordTest, FencedSetStateOnPeerRequiresCurrentToken) {
  Join(0, ServerState::kActive);
  Join(1, ServerState::kStandby);
  FenceToken fence = 0;
  members_[1]->client().TryLock(0, 1, 0, [&](Result<CoordClient::LockResult> r) {
    if (r.ok()) fence = r.value().fence;
  });
  sim_.RunUntil(sim_.Now() + kSecond);
  ASSERT_GT(fence, 0u);

  // Wrong token: rejected.
  Status bad = Status::Ok();
  members_[1]->client().SetState(0, members_[0]->id(), ServerState::kStandby,
                                 fence + 1, [&](Result<GroupView> r) {
                                   bad = r.ok() ? Status::Ok() : r.status();
                                 });
  sim_.RunUntil(sim_.Now() + kSecond);
  EXPECT_FALSE(bad.ok());

  // Correct token: applied.
  bool ok = false;
  members_[1]->client().SetState(0, members_[0]->id(), ServerState::kStandby,
                                 fence, [&](Result<GroupView> r) {
                                   ok = r.ok();
                                 });
  sim_.RunUntil(sim_.Now() + kSecond);
  EXPECT_TRUE(ok);
  EXPECT_EQ(ensemble_->frontend().PeekView(0).StateOf(members_[0]->id()),
            ServerState::kStandby);
}

TEST_F(CoordTest, NonHolderCannotFlipPeers) {
  Join(0, ServerState::kActive);
  Join(1, ServerState::kStandby);
  const FenceToken fence = ensemble_->frontend().PeekView(0).fence_token;
  Status st = Status::Ok();
  members_[1]->client().SetState(0, members_[0]->id(), ServerState::kJunior,
                                 fence, [&](Result<GroupView> r) {
                                   st = r.ok() ? Status::Ok() : r.status();
                                 });
  sim_.RunUntil(sim_.Now() + kSecond);
  EXPECT_FALSE(st.ok());
}

TEST_F(CoordTest, AdminForceReleaseTriggersWatchers) {
  Join(0, ServerState::kActive);
  Join(1, ServerState::kStandby);
  members_[0]->client().TryLock(0, 1, 0, [](Result<CoordClient::LockResult>) {});
  sim_.RunUntil(sim_.Now() + kSecond);
  members_[1]->views_seen.clear();
  ensemble_->frontend().AdminForceReleaseLock(0);  // the paper's Test A
  sim_.RunUntil(sim_.Now() + kSecond);
  EXPECT_EQ(ensemble_->frontend().PeekView(0).lock_holder, kInvalidNode);
  ASSERT_FALSE(members_[1]->views_seen.empty());
  EXPECT_EQ(members_[1]->views_seen.back().lock_holder, kInvalidNode);
}

TEST_F(CoordTest, ViewSerializationRoundTrip) {
  GroupView v;
  v.group = 3;
  v.states[10] = ServerState::kActive;
  v.states[11] = ServerState::kStandby;
  v.states[12] = ServerState::kJunior;
  v.lock_holder = 10;
  v.fence_token = 9;
  v.version = 17;
  ByteWriter w;
  v.Serialize(w);
  ByteReader r(w.bytes());
  GroupView back = GroupView::Deserialize(r);
  EXPECT_EQ(back.group, v.group);
  EXPECT_EQ(back.states, v.states);
  EXPECT_EQ(back.lock_holder, v.lock_holder);
  EXPECT_EQ(back.fence_token, v.fence_token);
  EXPECT_EQ(back.version, v.version);
  EXPECT_EQ(back.Row(), "A S J");
}

TEST_F(CoordTest, ReRegisterAfterRestartRefreshesState) {
  Join(0, ServerState::kActive);
  members_[0]->Crash();
  sim_.RunUntil(sim_.Now() + 8 * kSecond);
  ASSERT_EQ(ensemble_->frontend().PeekView(0).StateOf(members_[0]->id()),
            ServerState::kDown);
  members_[0]->Restart();
  sim_.RunUntil(sim_.Now() + kSecond);
  bool ok = false;
  members_[0]->client().Register(0, ServerState::kJunior,
                                 [&](Result<GroupView> r) { ok = r.ok(); });
  sim_.RunUntil(sim_.Now() + kSecond);
  EXPECT_TRUE(ok);
  EXPECT_EQ(ensemble_->frontend().PeekView(0).StateOf(members_[0]->id()),
            ServerState::kJunior);
}

TEST_F(CoordTest, GetViewReflectsCurrentState) {
  Join(0, ServerState::kActive);
  GroupView got;
  members_[0]->client().GetView(0, [&](Result<GroupView> r) {
    ASSERT_TRUE(r.ok());
    got = std::move(r).value();
  });
  sim_.RunUntil(sim_.Now() + kSecond);
  EXPECT_EQ(got.StateOf(members_[0]->id()), ServerState::kActive);
}

}  // namespace
}  // namespace mams::coord
