#include "coord/service.hpp"

#include <algorithm>

namespace mams::coord {

CoordService::CoordService(net::Network& network, std::string name,
                           CoordOptions options)
    : paxos::Replica(
          network, std::move(name),
          // ApplyFn: every committed command mutates the view machine. The
          // lambda runs on this replica in commit order.
          [this](paxos::InstanceId, const paxos::Value& v) {
            machine_.Apply(Command::Deserialize(v));
            // Every committed command can flip the global view, so this is
            // the one place where registered invariant probes are checked.
            sim().obs().probes().Evaluate();
          }),
      options_(options) {
  auto& metrics = sim().obs().metrics();
  sessions_opened_ = metrics.counter("coord.sessions_opened");
  sessions_expired_ = metrics.counter("coord.sessions_expired");
  lock_grants_ = metrics.counter("coord.lock_grants");
  elections_ = metrics.counter("coord.elections");
  watch_events_ = metrics.counter("coord.watch_events");
  revokes_relayed_ = metrics.counter("coord.revokes_relayed");
  sessions_gauge_ = metrics.gauge("coord.sessions");
  OnRequest(net::kCoordRequest,
            [this](const net::Envelope& env, const net::MessagePtr& msg,
                   const ReplyFn& reply) { HandleRequest(env, msg, reply); });
  OnRequest(net::kCoordHeartbeat,
            [this](const net::Envelope&, const net::MessagePtr& msg,
                   const ReplyFn& reply) { HandleHeartbeat(msg, reply); });
}

void CoordService::OnStart() {
  expiry_timer_ = std::make_unique<sim::PeriodicTimer>(
      sim(), kExpiryScanPeriod, [this] { ScanSessions(); });
  expiry_timer_->Start();
}

void CoordService::OnCrash() {
  paxos::Replica::OnCrash();
  expiry_timer_.reset();
  sessions_.clear();
  watchers_.clear();
  election_bids_.clear();
  election_window_open_.clear();
}

CoordService::Session* CoordService::FindSession(SessionId id) {
  auto it = sessions_.find(id);
  return it == sessions_.end() ? nullptr : &it->second;
}

void CoordService::HandleHeartbeat(const net::MessagePtr& msg,
                                   const ReplyFn& reply) {
  const auto& hb = net::Cast<HeartbeatMsg>(msg);
  auto out = std::make_shared<CoordResponseMsg>();
  if (Session* s = FindSession(hb.session)) {
    s->last_heartbeat = sim().Now();
    out->ok = true;
  } else {
    // Session expired (or never existed): the client learns it is dead —
    // ZooKeeper's SESSION_EXPIRED event. A deposed active reacts by
    // stepping down even if no watch event ever reached it.
    out->ok = false;
    out->error = "session expired";
  }
  reply(out);
}

void CoordService::HandleRequest(const net::Envelope& env,
                                 const net::MessagePtr& msg,
                                 const ReplyFn& reply) {
  const auto& req = net::Cast<CoordRequestMsg>(msg);
  switch (req.op) {
    case CoordOp::kRegister:
      DoRegister(req, reply);
      return;
    case CoordOp::kSetState:
      DoSetState(req, reply);
      return;
    case CoordOp::kTryLock:
      DoTryLock(env, req, reply);
      return;
    case CoordOp::kReleaseLock:
      DoReleaseLock(req, reply);
      return;
    case CoordOp::kGetView:
      Reply(reply, req.group, true);
      return;
    case CoordOp::kWatch: {
      Session* s = FindSession(req.session);
      if (s == nullptr) {
        Reply(reply, req.group, false, "no such session");
        return;
      }
      watchers_[req.group].insert(s->node);
      Reply(reply, req.group, true);
      return;
    }
    case CoordOp::kCloseSession:
      DoCloseSession(req, reply);
      return;
    case CoordOp::kPublishMap:
      DoPublishMap(req, reply);
      return;
    case CoordOp::kGetMap: {
      auto out = std::make_shared<CoordResponseMsg>();
      out->ok = true;
      out->view = machine_.view(req.group);
      out->map_epoch = machine_.map_epoch();
      out->map_bytes = machine_.map_bytes();
      reply(out);
      return;
    }
    case CoordOp::kRelayRevoke: {
      // Sessionless, like kGetMap: revocation fan-out is soft state on the
      // watch channel (clients hold no coordination sessions), and the
      // safety of the lease protocol rests on client acks reaching the
      // active plus the TTL backstop — not on this relay being reliable.
      for (const RevokeTarget& target : req.revoke_targets) {
        if (target.node == kInvalidNode || target.leases.empty()) continue;
        auto push = std::make_shared<LeaseRevokeMsg>();
        push->active = req.subject;
        push->leases = target.leases;
        revokes_relayed_->Add();
        Send(target.node, push);
      }
      Reply(reply, req.group, true);
      return;
    }
  }
  Reply(reply, req.group, false, "bad op");
}

void CoordService::Commit(const Command& cmd,
                          std::function<void(Status)> after_commit) {
  Propose(cmd.Serialize(),
          [after_commit = std::move(after_commit)](Status s, paxos::InstanceId) {
            after_commit(std::move(s));
          });
}

void CoordService::Reply(const ReplyFn& reply, GroupId group, bool ok,
                         std::string error) {
  auto out = std::make_shared<CoordResponseMsg>();
  out->ok = ok;
  out->error = std::move(error);
  out->view = machine_.view(group);
  out->lock_holder = out->view.lock_holder;
  out->fence_token = out->view.fence_token;
  reply(out);
}

void CoordService::DoRegister(const CoordRequestMsg& req,
                              const ReplyFn& reply) {
  // One session per (node, group); re-registering after restart replaces
  // the old session.
  for (auto it = sessions_.begin(); it != sessions_.end();) {
    if (it->second.node == req.subject && it->second.group == req.group) {
      it = sessions_.erase(it);
    } else {
      ++it;
    }
  }
  // A node that re-registers is a fresh process incarnation: a lock still
  // attributed to it belongs to its previous life and must be released
  // (otherwise a fast crash+restart of the active would wedge the group —
  // the session never expires and the lock never frees).
  if (machine_.view(req.group).lock_holder == req.subject) {
    Command release{CmdKind::kReleaseLock, req.group, req.subject,
                    ServerState::kDown};
    Commit(release, [this, group = req.group](Status st) {
      if (st.ok()) FireWatches(group);
    });
  }
  Session s;
  s.id = ++next_session_;
  s.node = req.subject;
  s.group = req.group;
  s.last_heartbeat = sim().Now();
  sessions_.emplace(s.id, s);
  sessions_opened_->Add();
  sessions_gauge_->Set(static_cast<std::int64_t>(sessions_.size()));

  Command cmd{CmdKind::kRegister, req.group, req.subject, req.state};
  const SessionId sid = s.id;
  Commit(cmd, [this, sid, group = req.group, reply](Status st) {
    if (!st.ok()) {
      Reply(reply, group, false, st.ToString());
      return;
    }
    auto out = std::make_shared<CoordResponseMsg>();
    out->ok = true;
    out->session = sid;
    out->view = machine_.view(group);
    out->lock_holder = out->view.lock_holder;
    out->fence_token = out->view.fence_token;
    reply(out);
    FireWatches(group);
  });
}

void CoordService::DoSetState(const CoordRequestMsg& req,
                              const ReplyFn& reply) {
  Session* s = FindSession(req.session);
  if (s == nullptr) {
    Reply(reply, req.group, false, "no such session");
    return;
  }
  const GroupView& view = machine_.view(req.group);
  // Mutating a *peer's* state requires holding the current fence token
  // (the elected standby flips others during the failover protocol).
  if (req.subject != s->node && req.fence != view.fence_token) {
    Reply(reply, req.group, false, "stale fence token");
    return;
  }
  // A fenced request must come from the current lock holder.
  if (req.subject != s->node && view.lock_holder != s->node) {
    Reply(reply, req.group, false, "not lock holder");
    return;
  }
  // Never resurrect a node whose session is gone: if the subject has no
  // live session, only kDown/kJunior annotations make sense. (The elected
  // standby may demote a dead previous active; it cannot make it standby.)
  if (req.subject != s->node && req.state != ServerState::kDown) {
    bool subject_alive = false;
    for (const auto& [id, sess] : sessions_) {
      if (sess.node == req.subject && sess.group == req.group) {
        subject_alive = true;
        break;
      }
    }
    if (!subject_alive && req.state != ServerState::kJunior) {
      Reply(reply, req.group, false, "subject session dead");
      return;
    }
  }
  Command cmd{CmdKind::kSetState, req.group, req.subject, req.state};
  Commit(cmd, [this, group = req.group, reply](Status st) {
    Reply(reply, group, st.ok(), st.ok() ? "" : st.ToString());
    if (st.ok()) FireWatches(group);
  });
}

void CoordService::DoTryLock(const net::Envelope&, const CoordRequestMsg& req,
                             const ReplyFn& reply) {
  Session* s = FindSession(req.session);
  if (s == nullptr) {
    Reply(reply, req.group, false, "no such session");
    return;
  }
  const GroupView& view = machine_.view(req.group);
  if (view.lock_holder != kInvalidNode) {
    auto out = std::make_shared<CoordResponseMsg>();
    out->ok = true;
    out->lock_granted = false;
    out->lock_holder = view.lock_holder;
    out->fence_token = view.fence_token;
    out->view = view;
    reply(out);
    return;
  }
  // Lock is free: enqueue the bid and open the election window on the
  // first bid. "Each standby generates a random number; the standby with
  // the largest random number obtains the lock" (Algorithm 1).
  ElectionBid bid;
  bid.node = s->node;
  bid.draw = req.draw;
  bid.max_sn = req.max_sn;
  bid.reply = reply;
  election_bids_[req.group].push_back(std::move(bid));
  if (!election_window_open_.contains(req.group)) {
    election_window_open_.insert(req.group);
    elections_->Add();
    election_spans_[req.group] = sim().obs().tracer().Begin(
        "coord", "election_window", id(), req.group,
        {{"first_bidder", static_cast<std::uint64_t>(s->node)}});
    AfterLocal(options_.election_window,
               [this, group = req.group] { CloseElectionWindow(group); });
  }
}

void CoordService::CloseElectionWindow(GroupId group) {
  election_window_open_.erase(group);
  auto bids = std::move(election_bids_[group]);
  election_bids_.erase(group);
  if (bids.empty()) {
    auto span = election_spans_.find(group);
    if (span != election_spans_.end()) {
      sim().obs().tracer().End(span->second, {{"winner", "none"}});
      election_spans_.erase(span);
    }
    return;
  }

  // Pick the winner.
  std::size_t best = 0;
  for (std::size_t i = 1; i < bids.size(); ++i) {
    if (bids[i].Beats(bids[best])) best = i;
  }
  const NodeId winner = bids[best].node;

  Command cmd{CmdKind::kGrantLock, group, winner, ServerState::kDown};
  Commit(cmd, [this, group, winner, bids = std::move(bids)](Status st) {
    const GroupView& view = machine_.view(group);
    if (st.ok()) lock_grants_->Add();
    auto span = election_spans_.find(group);
    if (span != election_spans_.end()) {
      sim().obs().tracer().End(
          span->second,
          {{"winner", static_cast<std::uint64_t>(winner)},
           {"bids", static_cast<std::uint64_t>(bids.size())},
           {"fence", static_cast<std::uint64_t>(view.fence_token)}});
      election_spans_.erase(span);
    }
    for (const auto& bid : bids) {
      auto out = std::make_shared<CoordResponseMsg>();
      out->ok = st.ok();
      out->lock_granted = st.ok() && bid.node == winner;
      out->lock_holder = view.lock_holder;
      out->fence_token = view.fence_token;
      out->view = view;
      if (!st.ok()) out->error = st.ToString();
      bid.reply(out);
    }
    if (st.ok()) FireWatches(group);
  });
}

void CoordService::DoReleaseLock(const CoordRequestMsg& req,
                                 const ReplyFn& reply) {
  Session* s = FindSession(req.session);
  if (s == nullptr) {
    Reply(reply, req.group, false, "no such session");
    return;
  }
  const GroupView& view = machine_.view(req.group);
  if (view.lock_holder != s->node) {
    Reply(reply, req.group, false, "not lock holder");
    return;
  }
  Command cmd{CmdKind::kReleaseLock, req.group, s->node, ServerState::kDown};
  Commit(cmd, [this, group = req.group, reply](Status st) {
    Reply(reply, group, st.ok(), st.ok() ? "" : st.ToString());
    if (st.ok()) FireWatches(group);
  });
}

void CoordService::DoCloseSession(const CoordRequestMsg& req,
                                  const ReplyFn& reply) {
  Session* s = FindSession(req.session);
  if (s == nullptr) {
    Reply(reply, req.group, false, "no such session");
    return;
  }
  const Session copy = *s;
  sessions_.erase(copy.id);
  sessions_gauge_->Set(static_cast<std::int64_t>(sessions_.size()));
  Command cmd{CmdKind::kExpire, copy.group, copy.node, ServerState::kDown};
  Commit(cmd, [this, group = copy.group, reply](Status st) {
    Reply(reply, group, st.ok(), st.ok() ? "" : st.ToString());
    if (st.ok()) FireWatches(group);
  });
}

void CoordService::DoPublishMap(const CoordRequestMsg& req,
                                const ReplyFn& reply) {
  if (req.map_epoch <= machine_.map_epoch()) {
    // Stale publication (a rolled-forward migration may re-publish a map
    // the previous active already installed): idempotent success.
    auto out = std::make_shared<CoordResponseMsg>();
    out->ok = true;
    out->map_epoch = machine_.map_epoch();
    out->map_bytes = machine_.map_bytes();
    reply(out);
    return;
  }
  Command cmd;
  cmd.kind = CmdKind::kPublishMap;
  cmd.group = req.group;
  cmd.epoch = req.map_epoch;
  cmd.payload.assign(req.map_bytes.begin(), req.map_bytes.end());
  Commit(cmd, [this, reply](Status st) {
    auto out = std::make_shared<CoordResponseMsg>();
    out->ok = st.ok();
    if (!st.ok()) out->error = st.ToString();
    out->map_epoch = machine_.map_epoch();
    out->map_bytes = machine_.map_bytes();
    reply(out);
    if (!st.ok()) return;
    // Routing changed for everyone: notify watchers of *all* groups, not
    // just the group that drove the migration.
    std::vector<GroupId> groups;
    for (const auto& [g, view] : machine_.views()) groups.push_back(g);
    for (GroupId g : groups) FireWatches(g);
  });
}

void CoordService::ScanSessions() {
  const SimTime now = sim().Now();
  std::vector<Session> expired;
  for (const auto& [id, s] : sessions_) {
    if (now - s.last_heartbeat > kSessionTimeout) {
      expired.push_back(s);
    }
  }
  for (const Session& s : expired) {
    sessions_.erase(s.id);
    sessions_expired_->Add();
    sessions_gauge_->Set(static_cast<std::int64_t>(sessions_.size()));
    sim().obs().tracer().Instant(
        "coord", "session_expired", s.node, s.group,
        {{"session", static_cast<std::uint64_t>(s.id)}});
    MAMS_INFO("coord", "session %llu (node %u, group %u) expired",
              static_cast<unsigned long long>(s.id), s.node, s.group);
    Command cmd{CmdKind::kExpire, s.group, s.node, ServerState::kDown};
    Commit(cmd, [this, group = s.group](Status st) {
      if (st.ok()) FireWatches(group);
    });
  }
}

void CoordService::FireWatches(GroupId group) {
  auto it = watchers_.find(group);
  if (it == watchers_.end()) return;
  auto event = std::make_shared<WatchEventMsg>();
  event->view = machine_.view(group);
  event->map_epoch = machine_.map_epoch();
  event->map_bytes = machine_.map_bytes();
  for (NodeId watcher : it->second) {
    if (watcher == id()) continue;
    watch_events_->Add();
    Send(watcher, event);
  }
}

void CoordService::AdminForceReleaseLock(GroupId group) {
  const GroupView& view = machine_.view(group);
  if (view.lock_holder == kInvalidNode) return;
  Command cmd{CmdKind::kReleaseLock, group, view.lock_holder,
              ServerState::kDown};
  Commit(cmd, [this, group](Status st) {
    if (st.ok()) FireWatches(group);
  });
}

void CoordService::AdminExpireNode(NodeId node) {
  std::vector<Session> doomed;
  for (const auto& [id, s] : sessions_) {
    if (s.node == node) doomed.push_back(s);
  }
  for (const Session& s : doomed) {
    sessions_.erase(s.id);
    Command cmd{CmdKind::kExpire, s.group, s.node, ServerState::kDown};
    Commit(cmd, [this, group = s.group](Status st) {
      if (st.ok()) FireWatches(group);
    });
  }
}

// --- CoordEnsemble -----------------------------------------------------------

CoordEnsemble::CoordEnsemble(net::Network& network, int replicas,
                             CoordOptions options) {
  frontend_ = std::make_unique<CoordService>(network, "coord0", options);
  std::vector<NodeId> peer_ids{frontend_->id()};
  for (int i = 1; i < replicas; ++i) {
    auto machine = std::make_unique<ViewStateMachine>();
    ViewStateMachine* m = machine.get();
    backend_machines_.push_back(std::move(machine));
    backends_.push_back(std::make_unique<paxos::Replica>(
        network, "coord" + std::to_string(i),
        [m](paxos::InstanceId, const paxos::Value& v) {
          m->Apply(Command::Deserialize(v));
        }));
    peer_ids.push_back(backends_.back()->id());
  }
  frontend_->SetPeers(peer_ids);
  for (auto& b : backends_) b->SetPeers(peer_ids);
  frontend_->Boot();
  for (auto& b : backends_) b->Boot();
}

}  // namespace mams::coord
