// A networked multi-instance Paxos replica.
//
// Any replica may call Propose(); the value is decided in some log slot and
// every live replica applies the log in slot order through its ApplyFn.
// Design choices (sized for the coordination service and the Boom-FS
// baseline, which issue low-rate protocol operations):
//
//   * plain per-slot Paxos — every proposal runs both phases; no stable
//     leader lease. Contention on a slot is resolved by ballot and the
//     loser re-proposes its value on a later slot.
//   * randomized retry backoff prevents duelling-proposer livelock.
//   * acceptor state and the chosen log are durable (a real implementation
//     journals them): they survive Crash()/Restart().
//   * learners fill gaps: out-of-order Learn messages are buffered and the
//     apply function always sees consecutive instances.
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/bytes.hpp"
#include "common/logging.hpp"
#include "net/host.hpp"
#include "obs/observability.hpp"
#include "paxos/messages.hpp"
#include "paxos/proposer.hpp"

namespace mams::paxos {

/// Per-phase reply deadline, the randomized retry backoff range, and the
/// round budget after which a proposal fails Unavailable.
inline constexpr SimTime kPhaseTimeout = 200 * kMillisecond;
inline constexpr SimTime kRetryBackoffMin = 5 * kMillisecond;
inline constexpr SimTime kRetryBackoffMax = 50 * kMillisecond;
inline constexpr int kMaxRoundsPerProposal = 64;

class Replica : public net::Host {
 public:
  /// Called once per decided instance, in instance order, on every replica
  /// that is alive to learn it (restarted replicas catch up from peers'
  /// Learn retransmissions via proposals that touch later slots).
  using ApplyFn = std::function<void(InstanceId, const Value&)>;
  using ProposeCallback = std::function<void(Status, InstanceId)>;

  Replica(net::Network& network, std::string name, ApplyFn apply)
      : net::Host(network, std::move(name)),
        apply_(std::move(apply)),
        rng_(network.sim().rng().Fork(Fnv1a(this->name()))),
        obs_(&network.sim().obs()),
        proposals_(obs_->metrics().counter("paxos.propose")),
        rounds_(obs_->metrics().counter("paxos.rounds")),
        decided_(obs_->metrics().counter("paxos.decided")),
        propose_fails_(obs_->metrics().counter("paxos.propose_fail")),
        propose_rounds_(obs_->metrics().histogram("paxos.propose_rounds")),
        propose_ns_(obs_->metrics().histogram("paxos.propose_ns")) {
    RegisterHandlers();
  }

  /// Peers must include this replica's own id.
  void SetPeers(std::vector<NodeId> peers) { peers_ = std::move(peers); }
  const std::vector<NodeId>& peers() const noexcept { return peers_; }

  /// Proposes `value`; `done` fires with the slot where it was decided.
  /// Fails with Unavailable after exhausting rounds (e.g. no quorum alive).
  void Propose(Value value, ProposeCallback done) {
    queue_.push_back({std::move(value), std::move(done)});
    if (!proposing_) StartNextProposal();
  }

  /// Durable log accessors.
  std::optional<Value> Chosen(InstanceId instance) const {
    auto it = chosen_.find(instance);
    if (it == chosen_.end()) return std::nullopt;
    return it->second;
  }
  InstanceId applied_through() const noexcept { return applied_through_; }
  std::size_t chosen_count() const noexcept { return chosen_.size(); }

 protected:
  void OnRestart() override {
    // Volatile proposer state is gone; durable chosen_ log re-applies into
    // the layered state machine, which also restarts empty.
    applied_through_ = 0;
    DrainApplicable();
  }

  void OnCrash() override {
    net::Host::OnCrash();
    proposing_ = false;
    obs_->tracer().End(proposal_span_, {{"ok", "crashed"}});
    // Pending client proposals die with the process.
    queue_.clear();
  }

 private:
  struct PendingProposal {
    Value value;
    ProposeCallback done;
  };

  struct Attempt {
    InstanceId instance = 0;
    std::unique_ptr<ProposerState> state;
    int rounds = 0;
    bool phase2_started = false;
    sim::EventHandle timeout;
  };

  void RegisterHandlers() {
    OnRequest(net::kPaxosPrepare, [this](const net::Envelope&,
                                         const net::MessagePtr& msg,
                                         const ReplyFn& reply) {
      const auto& req = net::Cast<PrepareMsg>(msg);
      auto out = std::make_shared<PromiseMsg>();
      out->instance = req.instance;
      out->promise = acceptors_[req.instance].OnPrepare(req.ballot);
      reply(out);
    });

    OnRequest(net::kPaxosAccept, [this](const net::Envelope&,
                                        const net::MessagePtr& msg,
                                        const ReplyFn& reply) {
      const auto& req = net::Cast<AcceptMsg>(msg);
      auto out = std::make_shared<AcceptedMsg>();
      out->instance = req.instance;
      out->reply = acceptors_[req.instance].OnAccept(req.ballot, req.value);
      reply(out);
    });

    OnRequest(net::kPaxosLearn, [this](const net::Envelope&,
                                       const net::MessagePtr& msg,
                                       const ReplyFn&) {
      const auto& req = net::Cast<LearnMsg>(msg);
      Learn(req.instance, req.value);
    });
  }

  void StartNextProposal() {
    if (queue_.empty()) {
      proposing_ = false;
      return;
    }
    proposing_ = true;
    proposals_->Add();
    proposal_begin_ = network().sim().Now();
    proposal_span_ = obs_->tracer().Begin("paxos", "propose", id());
    attempt_ = Attempt{};
    attempt_.instance = NextFreeInstance();
    attempt_.state = std::make_unique<ProposerState>(id(), peers_.size());
    RunRound();
  }

  InstanceId NextFreeInstance() const {
    InstanceId i = applied_through_ + 1;
    while (chosen_.contains(i)) ++i;
    return i;
  }

  void RunRound() {
    if (queue_.empty()) return;
    if (++attempt_.rounds > kMaxRoundsPerProposal) {
      auto pending = std::move(queue_.front());
      queue_.pop_front();
      FinishProposalObs(false);
      pending.done(Status::Unavailable("paxos: no quorum after max rounds"),
                   0);
      StartNextProposal();
      return;
    }
    rounds_->Add();
    // A slot may have been learned (from another proposer) since we picked
    // it; move on if so.
    if (chosen_.contains(attempt_.instance)) {
      attempt_.instance = NextFreeInstance();
      attempt_.state = std::make_unique<ProposerState>(id(), peers_.size());
    }
    attempt_.phase2_started = false;
    const Ballot ballot =
        attempt_.state->StartRound(queue_.front().value, max_seen_ballot_);
    const InstanceId instance = attempt_.instance;

    ArmRoundTimeout();

    auto prepare = std::make_shared<PrepareMsg>();
    prepare->instance = instance;
    prepare->ballot = ballot;
    for (NodeId peer : peers_) {
      Call(peer, prepare, kPhaseTimeout,
           [this, instance, peer, ballot](Result<net::MessagePtr> r) {
             if (!r.ok() || !proposing_ || instance != attempt_.instance ||
                 ballot != attempt_.state->ballot()) {
               return;
             }
             const auto& promise = net::Cast<PromiseMsg>(r.value()).promise;
             if (promise.promised > max_seen_ballot_) {
               max_seen_ballot_ = promise.promised;
             }
             if (attempt_.state->OnPromise(peer, promise) &&
                 !attempt_.phase2_started) {
               attempt_.phase2_started = true;
               StartPhase2();
             }
           });
    }
  }

  void StartPhase2() {
    const InstanceId instance = attempt_.instance;
    const Ballot ballot = attempt_.state->ballot();
    auto accept = std::make_shared<AcceptMsg>();
    accept->instance = instance;
    accept->ballot = ballot;
    accept->value = attempt_.state->ChooseValue();
    for (NodeId peer : peers_) {
      Call(peer, accept, kPhaseTimeout,
           [this, instance, peer, ballot,
            value = accept->value](Result<net::MessagePtr> r) {
             if (!r.ok() || !proposing_ || instance != attempt_.instance ||
                 ballot != attempt_.state->ballot()) {
               return;
             }
             const auto& reply = net::Cast<AcceptedMsg>(r.value()).reply;
             if (!reply.accepted) {
               if (reply.promised > max_seen_ballot_) {
                 max_seen_ballot_ = reply.promised;
               }
               return;
             }
             if (attempt_.state->OnAccepted(peer, ballot)) {
               OnDecided(instance, value);
             }
           });
    }
  }

  void OnDecided(InstanceId instance, const Value& value) {
    attempt_.timeout.Cancel();
    // Broadcast the decision; everyone (including self) learns it.
    auto learn = std::make_shared<LearnMsg>();
    learn->instance = instance;
    learn->value = value;
    for (NodeId peer : peers_) {
      if (peer != id()) Send(peer, learn);
    }
    Learn(instance, value);

    if (attempt_.state->ChoseOwnCandidate()) {
      auto pending = std::move(queue_.front());
      queue_.pop_front();
      decided_->Add();
      FinishProposalObs(true, instance);
      pending.done(Status::Ok(), instance);
      StartNextProposal();
    } else {
      // Our slot was claimed by an older accepted value; our candidate
      // still needs a slot. Try again on the next one.
      AfterLocal(Backoff(), [this] { RunRound(); });
    }
  }

  void ArmRoundTimeout() {
    attempt_.timeout.Cancel();
    attempt_.timeout = AfterLocal(kPhaseTimeout + Backoff(), [this] {
      if (!proposing_) return;
      RunRound();  // higher ballot, fresh round
    });
  }

  SimTime Backoff() {
    return static_cast<SimTime>(
        rng_.Range(kRetryBackoffMin, kRetryBackoffMax));
  }

  /// Records latency/round histograms and closes the proposal span.
  void FinishProposalObs(bool ok, InstanceId instance = 0) {
    propose_rounds_->Record(attempt_.rounds);
    propose_ns_->Record(network().sim().Now() - proposal_begin_);
    if (!ok) propose_fails_->Add();
    obs_->tracer().End(
        proposal_span_,
        {{"ok", ok ? "true" : "false"},
         {"instance", static_cast<std::uint64_t>(instance)},
         {"rounds", static_cast<std::uint64_t>(attempt_.rounds)}});
  }

  void Learn(InstanceId instance, const Value& value) {
    chosen_.emplace(instance, value);  // first write wins; re-learn is a dup
    DrainApplicable();
  }

  void DrainApplicable() {
    while (true) {
      auto it = chosen_.find(applied_through_ + 1);
      if (it == chosen_.end()) break;
      ++applied_through_;
      if (apply_) apply_(it->first, it->second);
    }
  }

  ApplyFn apply_;
  Rng rng_;
  std::vector<NodeId> peers_;

  // Durable (survives crash/restart).
  std::map<InstanceId, AcceptorState> acceptors_;
  std::map<InstanceId, Value> chosen_;

  // Volatile.
  std::deque<PendingProposal> queue_;
  bool proposing_ = false;
  Attempt attempt_;
  Ballot max_seen_ballot_;
  InstanceId applied_through_ = 0;

  // Observability (per-simulator registry; handles are stable pointers).
  obs::Observability* obs_;
  obs::Counter* proposals_;
  obs::Counter* rounds_;
  obs::Counter* decided_;
  obs::Counter* propose_fails_;
  obs::Histogram* propose_rounds_;
  obs::Histogram* propose_ns_;
  obs::TraceRecorder::Span proposal_span_;
  SimTime proposal_begin_ = 0;
};

}  // namespace mams::paxos
