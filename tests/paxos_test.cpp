// Paxos tests: acceptor/proposer safety logic (pure), and the networked
// replica (decision, ordering, contention, crash tolerance, determinism).
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "net/network.hpp"
#include "paxos/acceptor.hpp"
#include "paxos/proposer.hpp"
#include "paxos/replica.hpp"
#include "sim/simulator.hpp"

namespace mams::paxos {
namespace {

// --- AcceptorState -------------------------------------------------------

TEST(AcceptorTest, GrantsHigherBallotOnly) {
  AcceptorState a;
  EXPECT_TRUE(a.OnPrepare({2, 1}).granted);
  EXPECT_FALSE(a.OnPrepare({2, 1}).granted);  // equal: rejected
  EXPECT_FALSE(a.OnPrepare({1, 9}).granted);  // lower round
  EXPECT_TRUE(a.OnPrepare({3, 0}).granted);
}

TEST(AcceptorTest, BallotTieBrokenByProposer) {
  AcceptorState a;
  EXPECT_TRUE(a.OnPrepare({2, 1}).granted);
  EXPECT_TRUE(a.OnPrepare({2, 2}).granted);  // same round, higher node id
}

TEST(AcceptorTest, AcceptRequiresNoHigherPromise) {
  AcceptorState a;
  EXPECT_TRUE(a.OnPrepare({5, 0}).granted);
  EXPECT_FALSE(a.OnAccept({4, 0}, "v").accepted);
  EXPECT_TRUE(a.OnAccept({5, 0}, "v").accepted);
  // A later higher prepare reveals the accepted value.
  Promise p = a.OnPrepare({6, 1});
  EXPECT_TRUE(p.granted);
  ASSERT_TRUE(p.accepted_value.has_value());
  EXPECT_EQ(*p.accepted_value, "v");
  EXPECT_EQ(p.accepted_ballot, (Ballot{5, 0}));
}

TEST(AcceptorTest, AcceptWithoutPrepareAllowedIfNoPromise) {
  AcceptorState a;
  EXPECT_TRUE(a.OnAccept({1, 0}, "v").accepted);
}

TEST(AcceptorTest, NackCarriesPromisedBallot) {
  AcceptorState a;
  (void)a.OnPrepare({9, 3});
  auto reply = a.OnAccept({2, 0}, "v");
  EXPECT_FALSE(reply.accepted);
  EXPECT_EQ(reply.promised, (Ballot{9, 3}));
}

// --- ProposerState ----------------------------------------------------------

/// A promise granted for `b` that reports no previously accepted value.
Promise Granted(Ballot b) {
  return {.granted = true,
          .promised = b,
          .accepted_ballot = {},
          .accepted_value = std::nullopt};
}

TEST(ProposerTest, QuorumSizes) {
  EXPECT_EQ(ProposerState(0, 3).QuorumSize(), 2u);
  EXPECT_EQ(ProposerState(0, 5).QuorumSize(), 3u);
  EXPECT_EQ(ProposerState(0, 4).QuorumSize(), 3u);
}

TEST(ProposerTest, Phase1QuorumFiresOnce) {
  ProposerState p(0, 3);
  const Ballot b = p.StartRound("mine", {});
  const Promise granted = Granted(b);
  EXPECT_FALSE(p.OnPromise(0, granted));
  EXPECT_TRUE(p.OnPromise(1, granted));   // quorum reached now
  EXPECT_FALSE(p.OnPromise(2, granted));  // already past quorum
  EXPECT_EQ(p.ChooseValue(), "mine");
  EXPECT_TRUE(p.ChoseOwnCandidate());
}

TEST(ProposerTest, AdoptsHighestAcceptedValue) {
  ProposerState p(0, 3);
  const Ballot b = p.StartRound("mine", {});
  const Promise p1{.granted = true,
                   .promised = b,
                   .accepted_ballot = {1, 1},
                   .accepted_value = "old-low"};
  const Promise p2{.granted = true,
                   .promised = b,
                   .accepted_ballot = {2, 2},
                   .accepted_value = "old-high"};
  (void)p.OnPromise(0, p1);
  (void)p.OnPromise(1, p2);
  EXPECT_EQ(p.ChooseValue(), "old-high");
  EXPECT_FALSE(p.ChoseOwnCandidate());
}

TEST(ProposerTest, StalePromisesIgnored) {
  ProposerState p(0, 3);
  const Ballot b1 = p.StartRound("v", {});
  const Ballot b2 = p.StartRound("v", {});  // new round
  EXPECT_GT(b2, b1);
  const Promise stale = Granted(b1);
  EXPECT_FALSE(p.OnPromise(0, stale));
  EXPECT_FALSE(p.OnPromise(1, stale));  // never reaches quorum
}

TEST(ProposerTest, Phase2CountsVotes) {
  ProposerState p(0, 5);
  const Ballot b = p.StartRound("v", {});
  const Promise ok = Granted(b);
  (void)p.OnPromise(0, ok);
  (void)p.OnPromise(1, ok);
  (void)p.OnPromise(2, ok);
  EXPECT_FALSE(p.OnAccepted(0, b));
  EXPECT_FALSE(p.OnAccepted(1, b));
  EXPECT_TRUE(p.OnAccepted(2, b));
  EXPECT_FALSE(p.OnAccepted(3, b));
}

TEST(ProposerTest, StartRoundRespectsMaxSeenBallot) {
  ProposerState p(7, 3);
  const Ballot b = p.StartRound("v", {41, 2});
  EXPECT_GT(b, (Ballot{41, 2}));
  EXPECT_EQ(b.proposer, 7u);
}

// --- networked replica -----------------------------------------------------

class ReplicaTest : public ::testing::Test {
 protected:
  void Build(int n, std::uint64_t seed = 1) {
    sim_ = std::make_unique<sim::Simulator>(seed);
    net_ = std::make_unique<net::Network>(*sim_);
    std::vector<NodeId> ids;
    for (int i = 0; i < n; ++i) {
      const int idx = i;
      replicas_.push_back(std::make_unique<Replica>(
          *net_, "r" + std::to_string(i),
          [this, idx](InstanceId inst, const Value& v) {
            applied_[idx].emplace_back(inst, v);
          }));
      ids.push_back(replicas_.back()->id());
    }
    for (auto& r : replicas_) r->SetPeers(ids);
    for (auto& r : replicas_) r->Boot();
    applied_.resize(n);
  }

  std::unique_ptr<sim::Simulator> sim_;
  std::unique_ptr<net::Network> net_;
  std::vector<std::unique_ptr<Replica>> replicas_;
  std::vector<std::vector<std::pair<InstanceId, Value>>> applied_;
};

TEST_F(ReplicaTest, SingleProposalDecidesEverywhere) {
  Build(3);
  Status st = Status::Unavailable("pending");
  InstanceId slot = 0;
  replicas_[0]->Propose("hello", [&](Status s, InstanceId i) {
    st = s;
    slot = i;
  });
  sim_->RunAll();
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(slot, 1u);
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(applied_[i].size(), 1u) << "replica " << i;
    EXPECT_EQ(applied_[i][0].second, "hello");
  }
}

TEST_F(ReplicaTest, SequentialProposalsApplyInOrderEverywhere) {
  Build(3);
  for (int k = 0; k < 5; ++k) {
    replicas_[0]->Propose("v" + std::to_string(k), [](Status, InstanceId) {});
  }
  sim_->RunAll();
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(applied_[i].size(), 5u);
    for (int k = 0; k < 5; ++k) {
      EXPECT_EQ(applied_[i][k].first, static_cast<InstanceId>(k + 1));
      EXPECT_EQ(applied_[i][k].second, "v" + std::to_string(k));
    }
  }
}

TEST_F(ReplicaTest, ContendingProposersBothDecideDistinctSlots) {
  Build(3);
  int done = 0;
  replicas_[0]->Propose("from0", [&](Status s, InstanceId) {
    ASSERT_TRUE(s.ok());
    ++done;
  });
  replicas_[1]->Propose("from1", [&](Status s, InstanceId) {
    ASSERT_TRUE(s.ok());
    ++done;
  });
  sim_->RunAll();
  EXPECT_EQ(done, 2);
  // All replicas see both values, in the same order.
  ASSERT_EQ(applied_[0].size(), 2u);
  EXPECT_EQ(applied_[0], applied_[1]);
  EXPECT_EQ(applied_[1], applied_[2]);
}

TEST_F(ReplicaTest, SurvivesMinorityFailure) {
  Build(3);
  replicas_[2]->Crash();
  bool ok = false;
  replicas_[0]->Propose("v", [&](Status s, InstanceId) { ok = s.ok(); });
  sim_->RunAll();
  EXPECT_TRUE(ok);
  EXPECT_EQ(applied_[0].size(), 1u);
  EXPECT_EQ(applied_[1].size(), 1u);
  EXPECT_TRUE(applied_[2].empty());
}

TEST_F(ReplicaTest, MajorityFailureBlocksConsensus) {
  Build(3);
  replicas_[1]->Crash();
  replicas_[2]->Crash();
  Status st = Status::Ok();
  replicas_[0]->Propose("v", [&](Status s, InstanceId) { st = s; });
  sim_->RunUntil(120 * kSecond);
  EXPECT_FALSE(st.ok());  // exhausted rounds -> Unavailable
  EXPECT_TRUE(applied_[0].empty());
}

TEST_F(ReplicaTest, ChosenLogIsDurableAcrossRestart) {
  Build(3);
  replicas_[0]->Propose("v", [](Status, InstanceId) {});
  sim_->RunAll();
  replicas_[1]->Crash();
  replicas_[1]->Restart();
  sim_->RunAll();
  // After restart the replica re-applies its durable log from scratch.
  ASSERT_EQ(applied_[1].size(), 2u);
  EXPECT_EQ(applied_[1][1].second, "v");
  EXPECT_EQ(replicas_[1]->Chosen(1).value_or(""), "v");
}

TEST_F(ReplicaTest, AgreementUnderContentionManySeeds) {
  // Property: with two contending proposers and random jitter, all live
  // replicas always apply the same sequence.
  for (std::uint64_t seed : {11u, 22u, 33u, 44u, 55u}) {
    replicas_.clear();
    applied_.clear();
    Build(5, seed);
    for (int k = 0; k < 3; ++k) {
      replicas_[k]->Propose("p" + std::to_string(k),
                            [](Status, InstanceId) {});
    }
    sim_->RunAll();
    for (int i = 1; i < 5; ++i) {
      EXPECT_EQ(applied_[i], applied_[0]) << "seed " << seed << " replica " << i;
    }
    ASSERT_EQ(applied_[0].size(), 3u) << "seed " << seed;
  }
}

}  // namespace
}  // namespace mams::paxos
