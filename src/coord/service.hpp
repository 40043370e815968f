// The coordination service frontend (the role ZooKeeper plays in the
// paper's prototype: "the Zookeeper was used to monitor nodes, trigger
// events and maintain the consistent global view", Section IV).
//
// The frontend is itself Paxos replica 0 of a small ensemble; every view
// mutation is proposed through consensus before it takes effect, and watch
// events fire only after the command commits. Sessions and watches are
// frontend-local soft state, exactly like ZooKeeper server-side session
// tracking.
//
// The distributed lock implements the paper's active election (Algorithm
// 1): while the lock is free, bids accumulate for one election window;
// the bid with the largest (draw, max_sn, node) triple wins and the grant
// bumps the fencing token. Everything a bidder needs to lose gracefully is
// in the response.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "coord/messages.hpp"
#include "coord/state_machine.hpp"
#include "obs/observability.hpp"
#include "paxos/replica.hpp"

namespace mams::coord {

/// How often the frontend scans for sessions older than kSessionTimeout.
inline constexpr SimTime kExpiryScanPeriod = 250 * kMillisecond;

struct CoordOptions {
  SimTime election_window = 50 * kMillisecond;
};

class CoordService : public paxos::Replica {
 public:
  CoordService(net::Network& network, std::string name,
               CoordOptions options = {});

  /// Wires the consensus peer set (frontend id must be peers[0]).
  using paxos::Replica::SetPeers;

  /// Read-only view snapshot for in-process observers (benches, tests).
  const GroupView& PeekView(GroupId group) { return machine_.view(group); }

  /// Fault injection for the paper's Test A: force the active to lose the
  /// lock by mutating the global view directly (committed via consensus
  /// like any other change, so watchers fire normally).
  void AdminForceReleaseLock(GroupId group);

  /// Fault injection: expire a session immediately (e.g. simulate a
  /// ZooKeeper-side hiccup for one node).
  void AdminExpireNode(NodeId node);

  /// Number of live sessions (observability).
  std::size_t session_count() const noexcept { return sessions_.size(); }

 protected:
  void OnStart() override;
  void OnCrash() override;

 private:
  struct Session {
    SessionId id = 0;
    NodeId node = kInvalidNode;
    GroupId group = 0;
    SimTime last_heartbeat = 0;
  };

  struct ElectionBid {
    NodeId node = kInvalidNode;
    std::uint64_t draw = 0;
    SerialNumber max_sn = 0;
    ReplyFn reply;

    /// Algorithm 1 ordering: largest random draw wins; sn breaks ties
    /// (and dominates for junior takeover when no standby bids exist);
    /// node id gives a total order.
    bool Beats(const ElectionBid& other) const noexcept {
      if (draw != other.draw) return draw > other.draw;
      if (max_sn != other.max_sn) return max_sn > other.max_sn;
      return node < other.node;
    }
  };

  void HandleRequest(const net::Envelope& env, const net::MessagePtr& msg,
                     const ReplyFn& reply);
  void HandleHeartbeat(const net::MessagePtr& msg, const ReplyFn& reply);

  void DoRegister(const CoordRequestMsg& req, const ReplyFn& reply);
  void DoSetState(const CoordRequestMsg& req, const ReplyFn& reply);
  void DoTryLock(const net::Envelope& env, const CoordRequestMsg& req,
                 const ReplyFn& reply);
  void DoReleaseLock(const CoordRequestMsg& req, const ReplyFn& reply);
  void DoCloseSession(const CoordRequestMsg& req, const ReplyFn& reply);
  void DoPublishMap(const CoordRequestMsg& req, const ReplyFn& reply);

  /// Proposes a command; `after_commit` runs on the frontend once the
  /// command has been applied to the local state machine.
  void Commit(const Command& cmd, std::function<void(Status)> after_commit);

  void CloseElectionWindow(GroupId group);
  void ScanSessions();
  void FireWatches(GroupId group);
  void Reply(const ReplyFn& reply, GroupId group, bool ok,
             std::string error = {});

  Session* FindSession(SessionId id);

  CoordOptions options_;
  ViewStateMachine machine_;
  std::map<SessionId, Session> sessions_;
  SessionId next_session_ = 0;
  /// group -> watcher node ids
  std::map<GroupId, std::set<NodeId>> watchers_;
  /// group -> open election window bids
  std::map<GroupId, std::vector<ElectionBid>> election_bids_;
  std::set<GroupId> election_window_open_;
  std::unique_ptr<sim::PeriodicTimer> expiry_timer_;

  // Observability: counters for the service's externally visible events,
  // plus one span per open election window.
  obs::Counter* sessions_opened_;
  obs::Counter* sessions_expired_;
  obs::Counter* lock_grants_;
  obs::Counter* elections_;
  obs::Counter* watch_events_;
  obs::Counter* revokes_relayed_;
  obs::Gauge* sessions_gauge_;
  std::map<GroupId, obs::TraceRecorder::Span> election_spans_;
};

/// Convenience bundle: a frontend plus (n-1) backend consensus replicas,
/// fully wired. Most call sites only ever talk to `frontend()`.
class CoordEnsemble {
 public:
  CoordEnsemble(net::Network& network, int replicas = 3,
                CoordOptions options = {});

  CoordService& frontend() noexcept { return *frontend_; }
  NodeId frontend_id() const noexcept { return frontend_->id(); }
  const std::vector<std::unique_ptr<paxos::Replica>>& backends() const {
    return backends_;
  }

 private:
  std::unique_ptr<CoordService> frontend_;
  std::vector<std::unique_ptr<paxos::Replica>> backends_;
  // Backends validate RSM convergence in tests via their own machines.
  std::vector<std::unique_ptr<ViewStateMachine>> backend_machines_;
};

}  // namespace mams::coord
