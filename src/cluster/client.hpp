// FsClient — the file-system client library.
//
// Routing: the partition map sends each path to its owner group; the
// client caches each group's active server (and standby list) and talks to
// them directly. Failover handling reproduces the paper's "client
// reconnection" stage (Figure 7): on an RPC timeout or a "not active"
// rejection the client invalidates its cache, polls the coordination
// service until the group view exposes a (new) active, pays a reconnection
// charge (TCP + session setup), and resends the request with the SAME
// ClientOpId — the server's duplicate suppression makes the retry
// idempotent, so an operation that committed just before the crash is
// acknowledged, not re-executed.
//
// Read offload: with ReadRouting::kRoundRobinStandby the client spreads
// GetFileInfo/ListDir round-robin over the group's live standbys. Session
// consistency rides the sn machinery: every response carries the
// responder's applied_sn, the client folds it into a per-group high-water
// token, and each read is stamped with that token as min_sn. A standby
// answers only once caught up to min_sn (parking briefly for small gaps),
// else it bounces the read and the client falls back to the active. A
// reply whose view epoch is older than the client's knowledge of the group
// comes from a deposed/renewing replica and is likewise retried at the
// active.
//
// Namespace cache: with ClientCacheOptions::enabled the client keeps a
// per-directory cache (child FileInfo entries and the directory listing)
// protected by leases the active grants on its read replies. A cache hit is
// served locally only while the lease is live AND the entry's stamped sn
// satisfies the client's session token, so cached reads stay session-
// consistent (read-your-writes: a completed own mutation both raises the
// token past older entries and invalidates the touched directories before
// its callback runs). Conflicting mutations by other clients revoke the
// lease — pushed through the coordination relay and acked here; the active
// holds the mutation's ack until that ack (or the lease TTL) — so a cache
// entry can never be served after a conflicting mutation was observed
// complete anywhere. Revoked lease ids are tombstoned until their TTL: a
// revocation and an in-flight reply carrying the same lease travel on
// different channels, and the tombstone stops the reply from resurrecting
// the grant.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "coord/client.hpp"
#include "core/messages.hpp"
#include "fsns/path.hpp"
#include "net/host.hpp"
#include "net/rpc.hpp"
#include "shard/partition_map.hpp"

namespace mams::cluster {

/// Where reads are routed. Mutations always go to the active.
enum class ReadRouting : std::uint8_t {
  kActiveOnly = 0,       ///< paper baseline: the active serves everything
  kRoundRobinStandby,    ///< reads round-robin over live standbys
};

/// Bound on cached directories; at capacity the earliest-expiring
/// directory is evicted.
inline constexpr std::size_t kCacheMaxDirs = 4096;
/// Latency-model charge for a locally served cache hit (no network hop).
inline constexpr SimTime kCacheHitLatency = 1 * kMicrosecond;
/// Latency-model charge for TCP + session setup on a fresh connection.
inline constexpr SimTime kReconnectCost = 1500 * kMicrosecond;

/// Lease-protected namespace cache (off by default). Pairs with the
/// server-side grant switch core::ClientLeaseOptions::grant_leases.
struct ClientCacheOptions {
  bool enabled = false;
  /// Mutation self-test (core::TestHooks::ignore_lease_revoke): keep
  /// serving a pushed-revoked lease until its TTL, while still acking the
  /// revocation so the conflicting mutation completes. Never set outside
  /// the checker.
  bool ignore_revoke = false;
};

struct FsClientOptions {
  SimTime rpc_timeout = 2 * kSecond;
  SimTime resolve_poll = 200 * kMillisecond;  ///< view polling backoff
  int max_attempts = 120;  ///< per op; ~ rpc_timeout * attempts budget
  ReadRouting read_routing = ReadRouting::kActiveOnly;
  ClientCacheOptions cache;
};

/// Per-read routing override (e.g. audit reads that must see the active's
/// authoritative state rather than a session-consistent standby view).
struct ReadOptions {
  bool require_active = false;
};

/// Per-operation observation for MTTR and throughput measurement.
struct OpOutcome {
  core::ClientOp op;
  SimTime issued = 0;     ///< first send
  SimTime completed = 0;  ///< final response
  bool ok = false;
  int attempts = 1;
};

/// Session-consistency metadata of the most recently completed op (set
/// just before its callback runs). Closed-loop harnesses — the history
/// recorder, benches — read this to tag the op they just observed.
struct OpStamp {
  SerialNumber applied_sn = 0;  ///< responder's applied sn (0: no response)
  SerialNumber min_sn = 0;      ///< session floor the request carried
  bool via_standby = false;     ///< final answer came from a standby
  bool via_cache = false;       ///< served locally from the lease cache
  NodeId server = kInvalidNode; ///< responder (kInvalidNode for cache hits)
};

/// Unit payload for acknowledged mutations: Result<Ack> is "committed" or
/// an error, with no further data to decode.
struct Ack {};

class FsClient : public net::Host {
 public:
  using OpCallback = std::function<void(Status)>;
  using InfoCallback = std::function<void(Result<fsns::FileInfo>)>;
  using ListCallback = std::function<void(Result<std::vector<std::string>>)>;
  using Observer = std::function<void(const OpOutcome&)>;

  FsClient(net::Network& network, std::string name, NodeId coord,
           shard::PartitionMap map, FsClientOptions options = {})
      : net::Host(network, std::move(name)),
        map_(std::move(map)),
        options_(options),
        rng_(network.sim().rng().Fork(Fnv1a(this->name()) | 2)) {
    coord_client_ = std::make_unique<coord::CoordClient>(*this, coord);
    auto& metrics = sim().obs().metrics();
    m_cache_hits_ = metrics.counter("client.cache_hits");
    m_cache_misses_ = metrics.counter("client.cache_misses");
    m_cache_revocations_ = metrics.counter("client.cache_revocations");
    m_cache_expiries_ = metrics.counter("client.cache_expiries");
    OnRequest(net::kLeaseRevoke,
              [this](const net::Envelope&, const net::MessagePtr& msg,
                     const net::Host::ReplyFn&) { HandleLeaseRevoke(msg); });
  }

  void set_observer(Observer observer) { observer_ = std::move(observer); }

  /// The versioned partition map, the client's routing truth. Servers
  /// bounce requests routed by a stale epoch and attach their newer map;
  /// the client adopts it and re-routes — no coordination-service round
  /// trip on the fast path.
  const shard::PartitionMap& partition_map() const noexcept { return map_; }

  /// Session metadata of the last completed op; see OpStamp.
  const OpStamp& last_stamp() const noexcept { return last_stamp_; }
  /// This client's high-water applied sn for `group` (its session token).
  SerialNumber session_sn(GroupId group) const {
    auto it = session_sn_.find(group);
    return it == session_sn_.end() ? 0 : it->second;
  }

  // --- metadata operations ---------------------------------------------------
  void Create(const std::string& path, OpCallback done,
              std::uint32_t replication = 3) {
    auto req = NewRequest(core::ClientOp::kCreate, path);
    req->replication = replication;
    Issue<Ack>(std::move(req), Acked(std::move(done)));
  }

  void Mkdir(const std::string& path, OpCallback done) {
    auto req = NewRequest(core::ClientOp::kMkdir, path);
    req->participant_group = map_.OwnerOfDir(path);
    Issue<Ack>(std::move(req), Acked(std::move(done)));
  }

  void Delete(const std::string& path, OpCallback done) {
    auto req = NewRequest(core::ClientOp::kDelete, path);
    req->participant_group = map_.OwnerOfDir(path);
    Issue<Ack>(std::move(req), Acked(std::move(done)));
  }

  void Rename(const std::string& src, const std::string& dst,
              OpCallback done) {
    auto req = NewRequest(core::ClientOp::kRename, src);
    req->path2 = dst;
    req->participant_group = map_.OwnerOf(dst);
    Issue<Ack>(std::move(req), Acked(std::move(done)));
  }

  void GetFileInfo(const std::string& path, InfoCallback done,
                   ReadOptions ro = {}) {
    Issue<fsns::FileInfo>(NewRequest(core::ClientOp::kGetFileInfo, path),
                          std::move(done), ro);
  }

  void ListDir(const std::string& path, ListCallback done,
               ReadOptions ro = {}) {
    Issue<std::vector<std::string>>(NewRequest(core::ClientOp::kListDir, path),
                                    std::move(done), ro);
  }

  void AddBlock(const std::string& path, OpCallback done) {
    Issue<Ack>(NewRequest(core::ClientOp::kAddBlock, path),
               Acked(std::move(done)));
  }

  void SetReplication(const std::string& path, std::uint32_t replication,
                      OpCallback done) {
    auto req = NewRequest(core::ClientOp::kSetReplication, path);
    req->replication = replication;
    Issue<Ack>(std::move(req), Acked(std::move(done)));
  }

  void SetOwner(const std::string& path, const std::string& owner,
                OpCallback done) {
    auto req = NewRequest(core::ClientOp::kSetOwner, path);
    req->owner = owner;
    Issue<Ack>(std::move(req), Acked(std::move(done)));
  }

  void SetPermission(const std::string& path, std::uint16_t permission,
                     OpCallback done) {
    auto req = NewRequest(core::ClientOp::kSetPermission, path);
    req->permission = permission;
    Issue<Ack>(std::move(req), Acked(std::move(done)));
  }

  void SetTimes(const std::string& path, OpCallback done) {
    Issue<Ack>(NewRequest(core::ClientOp::kSetTimes, path),
               Acked(std::move(done)));
  }

  void CompleteFile(const std::string& path, OpCallback done) {
    Issue<Ack>(NewRequest(core::ClientOp::kCompleteFile, path),
               Acked(std::move(done)));
  }

  struct Counters {
    std::uint64_t ops_ok = 0;
    std::uint64_t ops_failed = 0;
    std::uint64_t retries = 0;
    std::uint64_t reconnects = 0;
    std::uint64_t reads_offloaded = 0;   ///< read attempts sent to a standby
    std::uint64_t read_bounces = 0;      ///< standby declined (behind floor)
    std::uint64_t read_fallbacks = 0;    ///< standby unresponsive/unavailable
    std::uint64_t stale_epoch_rejections = 0;  ///< deposed-replica replies
    std::uint64_t shard_bounces = 0;     ///< re-routed after a map update
    // Lease-protected namespace cache.
    std::uint64_t cache_hits = 0;        ///< reads served locally
    std::uint64_t cache_misses = 0;      ///< reads that went to the wire
    std::uint64_t cache_revocations = 0; ///< leases dropped on server push/ack
    std::uint64_t cache_expiries = 0;    ///< leases dropped at their TTL
  };
  const Counters& counters() const noexcept { return counters_; }

 protected:
  void OnCrash() override {
    net::Host::OnCrash();
    coord_client_->Stop();
    targets_.clear();
    // The session dies with the process: a restarted client starts a new
    // session with an empty read floor — and an empty cache (its leases are
    // unreachable for revocation pushes once the process is gone; the
    // granter's TTL covers them).
    session_sn_.clear();
    cache_.clear();
    revoked_leases_.clear();
    last_stamp_ = OpStamp{};
  }

 private:
  using RespPtr = std::shared_ptr<const core::ClientResponseMsg>;
  using RawCallback = std::function<void(Result<RespPtr>)>;

  /// Per-group routing targets learned from the last view resolution,
  /// refreshed whenever an exchange fails and the view is re-polled.
  struct GroupTargets {
    NodeId active = kInvalidNode;
    std::vector<NodeId> standbys;
    FenceToken epoch = 0;  ///< highest view epoch observed for the group
  };

  std::shared_ptr<core::ClientRequestMsg> NewRequest(core::ClientOp op,
                                                     const std::string& path) {
    auto req = std::make_shared<core::ClientRequestMsg>();
    req->op = op;
    req->path = path;
    req->client = {.client_id = static_cast<std::uint64_t>(id()) + 1,
                   .op_seq = ++op_seq_};
    // Opting into the lease protocol: reads become grant-eligible, and the
    // server classifies this client's own grants as "own" on its mutations
    // (revoked ids ride the ack instead of a push round-trip).
    if (options_.cache.enabled) req->requester = id();
    return req;
  }

  /// The one response-decode point: every op's wire payload becomes a
  /// typed Result<T> here (Ack for plain mutations, FileInfo / listings
  /// for the reads), so no caller unwraps resp.ok/resp.code by hand.
  template <typename T>
  static Result<T> Decode(const core::ClientResponseMsg& resp) {
    if (!resp.ok) return Status(resp.code, resp.error);
    if constexpr (std::is_same_v<T, Ack>) {
      return Ack{};
    } else if constexpr (std::is_same_v<T, fsns::FileInfo>) {
      return resp.info;
    } else if constexpr (std::is_same_v<T, std::vector<std::string>>) {
      return resp.listing;
    } else {
      static_assert(!sizeof(T), "no decoder for this payload type");
    }
  }

  /// Adapts a Status-only completion to the typed pipeline.
  static std::function<void(Result<Ack>)> Acked(OpCallback done) {
    return [done = std::move(done)](Result<Ack> r) { done(r.status()); };
  }

  struct OpState {
    std::shared_ptr<core::ClientRequestMsg> request;
    RawCallback done;
    GroupId group = 0;
    OpOutcome outcome;
    bool require_active = false;  ///< never offload this read
    bool force_active = false;    ///< offload failed once; stay on active
    bool via_standby = false;     ///< current attempt targets a standby
    bool via_cache = false;       ///< answered locally from the lease cache
    NodeId target = kInvalidNode;
  };

  template <typename T>
  void Issue(std::shared_ptr<core::ClientRequestMsg> req,
             std::function<void(Result<T>)> done, ReadOptions ro = {}) {
    auto state = std::make_shared<OpState>();
    state->group = map_.OwnerOf(req->path);
    state->request = std::move(req);
    state->require_active = ro.require_active;
    if (!core::IsMutation(state->request->op)) {
      // Session floor fixed at issue time (the shared request must not
      // mutate between resends): the standby may answer once it has
      // applied everything this client has already been acked.
      state->request->min_sn = session_sn(state->group);
    }
    state->done = [done = std::move(done)](Result<RespPtr> r) {
      if (!r.ok()) {
        done(r.status());
        return;
      }
      done(Decode<T>(*r.value()));
    };
    state->outcome.op = state->request->op;
    state->outcome.issued = sim().Now();
    if (TryServeFromCache(state)) return;
    Attempt(state);
  }

  bool Offloadable(const OpState& state) const {
    return options_.read_routing == ReadRouting::kRoundRobinStandby &&
           !core::IsMutation(state.request->op) && !state.require_active &&
           !state.force_active;
  }

  void Attempt(const std::shared_ptr<OpState>& state) {
    if (state->outcome.attempts > options_.max_attempts) {
      Finish(state, Status::Unavailable("retries exhausted"));
      return;
    }
    const GroupTargets* targets = FindTargets(state->group);
    if (targets == nullptr || targets->active == kInvalidNode) {
      Resolve(state);
      return;
    }
    NodeId target = targets->active;
    state->via_standby = false;
    if (Offloadable(*state) && !targets->standbys.empty()) {
      target = targets->standbys[rr_++ % targets->standbys.size()];
      state->via_standby = true;
      ++counters_.reads_offloaded;
    }
    state->target = target;
    // One bounded send per cached target: a failed exchange re-resolves
    // the active through the coordination service before resending, so
    // the retry loop lives in Resolve's view-poll policy, not here. The
    // resend carries the SAME ClientOpId — the server's duplicate
    // suppression makes it idempotent end to end.
    net::RpcPolicy policy;
    policy.attempt_timeout = options_.rpc_timeout;
    policy.max_attempts = 1;
    net::RpcCall::Start(
        *this, target, state->request, policy,
        [this, state, target](Result<net::MessagePtr> r) {
          if (state->via_standby) {
            OnStandbyReadResult(state, std::move(r));
            return;
          }
          if (!r.ok()) {
            // Timeout: the active may be gone. Re-resolve and resend.
            InvalidateActive(state->group, target);
            ++counters_.retries;
            ++state->outcome.attempts;
            Resolve(state);
            return;
          }
          auto resp = std::static_pointer_cast<const core::ClientResponseMsg>(
              std::move(r).value());
          if (!resp->ok && resp->shard_bounce) {
            // The slot moved to another group: adopt the responder's map
            // and re-route. The active itself is healthy — do not
            // invalidate it.
            OnShardBounce(state, *resp);
            return;
          }
          if (!resp->ok && resp->code == StatusCode::kUnavailable) {
            // "not active" — the group is failing over.
            InvalidateActive(state->group, target);
            ++counters_.retries;
            ++state->outcome.attempts;
            Resolve(state);
            return;
          }
          Finish(state, std::move(resp));
        });
  }

  /// A standby exchange never invalidates the cached active: whatever went
  /// wrong (lagging standby, deposed replica, dead node) the recovery is
  /// the same — retry this read against the active.
  void OnStandbyReadResult(const std::shared_ptr<OpState>& state,
                           Result<net::MessagePtr> r) {
    auto fall_back = [this, state] {
      state->force_active = true;
      ++counters_.retries;
      ++state->outcome.attempts;
      Attempt(state);
    };
    if (!r.ok()) {
      ++counters_.read_fallbacks;
      fall_back();
      return;
    }
    auto resp = std::static_pointer_cast<const core::ClientResponseMsg>(
        std::move(r).value());
    auto it = targets_.find(state->group);
    const FenceToken known_epoch = it == targets_.end() ? 0 : it->second.epoch;
    if (resp->group_epoch < known_epoch) {
      // Deposed or renewing replica: its view predates what this client
      // already learned from the coordination service. Its answer may be
      // arbitrarily stale; drop it.
      ++counters_.stale_epoch_rejections;
      fall_back();
      return;
    }
    if (it != targets_.end() && resp->group_epoch > it->second.epoch) {
      it->second.epoch = resp->group_epoch;
    }
    if (!resp->ok && resp->shard_bounce) {
      OnShardBounce(state, *resp);
      return;
    }
    if (resp->bounced || (!resp->ok && resp->code == StatusCode::kUnavailable)) {
      // Behind the session floor, overloaded, or no longer a standby.
      ++counters_.read_bounces;
      fall_back();
      return;
    }
    Finish(state, std::move(resp));
  }

  /// The request hit a group that no longer owns its path's shard. Adopt
  /// the responder's (newer) map, re-route, and resend with the SAME
  /// ClientOpId. A bounce with no newer map means the migration is mid
  /// hand-off (cut over but not yet published everywhere) — back off one
  /// poll interval instead of spinning on the old owner.
  void OnShardBounce(const std::shared_ptr<OpState>& state,
                     const core::ClientResponseMsg& resp) {
    ++counters_.shard_bounces;
    ++counters_.retries;
    ++state->outcome.attempts;
    bool newer = false;
    if (resp.map_epoch > map_.epoch()) {
      auto m = shard::PartitionMap::Deserialize(resp.map_bytes);
      if (m.ok()) {
        map_ = std::move(m).value();
        newer = true;
      }
    }
    const GroupId group = map_.OwnerOf(state->request->path);
    if (group != state->group) {
      state->group = group;
      if (!core::IsMutation(state->request->op)) {
        // New responder group, new session floor. Safe to restamp: only
        // one attempt is ever in flight.
        state->request->min_sn = session_sn(group);
      }
    }
    if (newer) {
      // Shard bounce with a newer map: cached directories whose slots moved
      // to another group are no longer revocation-protected — drop them.
      if (options_.cache.enabled) DropMovedCacheLines();
      Attempt(state);
    } else {
      AfterLocal(options_.resolve_poll, [this, state] { Attempt(state); });
    }
  }

  // --- lease-protected namespace cache ---------------------------------------

  struct CachedInfo {
    fsns::FileInfo info;
    SerialNumber sn = 0;  ///< applied sn the entry was read at
  };
  /// One leased directory: child stat entries plus (optionally) the listing.
  struct DirCache {
    std::uint64_t lease_id = 0;
    FenceToken epoch = 0;   ///< granter's view epoch, stamped onto hits
    SimTime expire_at = 0;  ///< absolute virtual-time lease deadline
    GroupId group = 0;      ///< owner group at fill time (shard bounces)
    bool has_listing = false;
    std::vector<std::string> listing;
    SerialNumber listing_sn = 0;
    std::map<std::string, CachedInfo> entries;  ///< by child basename
  };

  /// The directory a read's answer lives under: the listing's own path, or
  /// the stat target's parent — matching the server's grant key.
  static std::string CacheDirOf(const core::ClientRequestMsg& req) {
    return req.op == core::ClientOp::kListDir ? req.path
                                              : fsns::ParentPath(req.path);
  }

  /// Serves the read locally when a live lease covers it AND the cached
  /// value satisfies the session token (entry sn >= the read's min_sn) —
  /// the same admission a standby applies, so cache hits inherit the
  /// session-consistency story. Returns false to fall through to the wire.
  bool TryServeFromCache(const std::shared_ptr<OpState>& state) {
    const core::ClientRequestMsg& req = *state->request;
    if (!options_.cache.enabled || core::IsMutation(req.op) ||
        state->require_active) {
      return false;
    }
    auto miss = [this] {
      ++counters_.cache_misses;
      m_cache_misses_->Add();
      return false;
    };
    auto it = cache_.find(CacheDirOf(req));
    if (it == cache_.end()) return miss();
    DirCache& dc = it->second;
    if (sim().Now() >= dc.expire_at) {
      // TTL: the lease is dead whether or not a revocation ever reached us
      // (this is the backstop for a lost push — and the window the
      // ignore_revoke mutant exploits).
      ++counters_.cache_expiries;
      m_cache_expiries_->Add();
      cache_.erase(it);
      return miss();
    }
    auto resp = std::make_shared<core::ClientResponseMsg>();
    resp->ok = true;
    resp->group_epoch = dc.epoch;
    if (req.op == core::ClientOp::kListDir) {
      if (!dc.has_listing || dc.listing_sn < req.min_sn) return miss();
      resp->listing = dc.listing;
      resp->applied_sn = dc.listing_sn;
    } else {
      auto e = dc.entries.find(std::string(fsns::BaseName(req.path)));
      if (e == dc.entries.end() || e->second.sn < req.min_sn) return miss();
      resp->info = e->second.info;
      resp->applied_sn = e->second.sn;
    }
    ++counters_.cache_hits;
    m_cache_hits_->Add();
    state->via_cache = true;
    AfterLocal(kCacheHitLatency,
               [this, state, resp] { Finish(state, RespPtr(resp)); });
    return true;
  }

  /// Folds an active-served read reply's grant and payload into the cache.
  void AdoptLease(const std::shared_ptr<OpState>& state,
                  const core::ClientResponseMsg& resp) {
    PruneTombstones();
    // The grant raced a revocation push: the reply was serialized at the
    // server before the conflicting mutation, the push after it — the push
    // wins no matter which arrived here first (the server never reissues a
    // revoked id, so the tombstone can't shadow a legitimate newer grant).
    if (revoked_leases_.count(resp.lease_id) != 0) return;
    auto it = cache_.find(resp.lease_dir);
    if (it == cache_.end()) {
      if (cache_.size() >= kCacheMaxDirs) EvictEarliest();
      it = cache_.emplace(resp.lease_dir, DirCache{}).first;
    }
    DirCache& dc = it->second;
    if (dc.lease_id != resp.lease_id) {
      // Different id = different grant generation (the old lease lapsed or
      // was revoked while we held stale state): drop everything the old
      // lease was protecting before trusting the new one.
      dc = DirCache{};
      dc.lease_id = resp.lease_id;
    }
    dc.epoch = std::max(dc.epoch, resp.lease_epoch);
    // The server's recorded deadline is monotone per grant, so a reordered
    // pair of replies must not shorten the lease.
    dc.expire_at = std::max(dc.expire_at, resp.lease_expire_at);
    dc.group = state->group;
    const core::ClientRequestMsg& req = *state->request;
    if (req.op == core::ClientOp::kListDir) {
      dc.has_listing = true;
      dc.listing = resp.listing;
      dc.listing_sn = resp.applied_sn;
    } else if (req.op == core::ClientOp::kGetFileInfo) {
      dc.entries[std::string(fsns::BaseName(req.path))] =
          CachedInfo{resp.info, resp.applied_sn};
    }
  }

  /// Read-your-writes: before a mutation's callback runs, every cache line
  /// its paths could cover is dropped — on errors and indeterminate
  /// outcomes too, since the mutation may still have committed.
  void InvalidateForMutation(const core::ClientRequestMsg& req) {
    InvalidatePath(req.path);
    if (req.op == core::ClientOp::kRename && !req.path2.empty()) {
      InvalidatePath(req.path2);
    }
  }

  void InvalidatePath(const std::string& path) {
    const std::string parent = fsns::ParentPath(path);
    if (!parent.empty()) cache_.erase(parent);
    // `path` itself and any cached directory beneath it. The string-prefix
    // region is contiguous in the sorted map; IsPrefixPath filters
    // siblings ("/a/bc") that share the byte prefix of "/a/b".
    for (auto it = cache_.lower_bound(path);
         it != cache_.end() && it->first.compare(0, path.size(), path) == 0;) {
      if (it->first == path || fsns::IsPrefixPath(path, it->first)) {
        it = cache_.erase(it);
      } else {
        ++it;
      }
    }
  }

  /// Revocation push (active -> coordination relay -> here). Always acked —
  /// the ack releases the conflicting mutation's reply barrier at the
  /// granter; even the ignore_revoke mutant acks, because its deliberate
  /// bug is serving stale state *after* the mutation completes normally.
  void HandleLeaseRevoke(const net::MessagePtr& msg) {
    const auto& push = net::Cast<coord::LeaseRevokeMsg>(msg);
    std::vector<std::uint64_t> acked;
    acked.reserve(push.leases.size());
    for (const coord::LeaseRevocation& rev : push.leases) {
      acked.push_back(rev.lease_id);
      Tombstone(rev.lease_id);
      ++counters_.cache_revocations;
      m_cache_revocations_->Add();
      if (options_.cache.ignore_revoke) continue;  // self-test mutant
      auto it = cache_.find(rev.dir);
      if (it != cache_.end() && it->second.lease_id == rev.lease_id) {
        cache_.erase(it);
      }
    }
    if (push.active != kInvalidNode && !acked.empty()) {
      auto ack = std::make_shared<coord::LeaseRevokeAckMsg>();
      ack->client = id();
      ack->lease_ids = std::move(acked);
      Send(push.active, std::move(ack));
    }
  }

  /// A revoked id stays dead past any possible grant lifetime, so a reply
  /// that left the active before the revocation can never resurrect it.
  void Tombstone(std::uint64_t lease_id) {
    if (lease_id == 0) return;
    revoked_leases_[lease_id] = sim().Now() + 30 * kSecond;
  }

  void PruneTombstones() {
    const SimTime now = sim().Now();
    for (auto it = revoked_leases_.begin(); it != revoked_leases_.end();) {
      it = it->second <= now ? revoked_leases_.erase(it) : std::next(it);
    }
  }

  void EvictEarliest() {
    if (cache_.empty()) return;
    auto victim = cache_.begin();
    for (auto it = std::next(cache_.begin()); it != cache_.end(); ++it) {
      if (it->second.expire_at < victim->second.expire_at) victim = it;
    }
    cache_.erase(victim);
  }

  /// After adopting a newer partition map: a cached directory whose owner
  /// group changed was leased by a group that can no longer see (or
  /// revoke against) the mutations now committing at the new owner.
  void DropMovedCacheLines() {
    for (auto it = cache_.begin(); it != cache_.end();) {
      // Children of `dir` route by its container slot, so the group that
      // granted the lease (and executes conflicting mutations) is the
      // dir-slot owner for stats and listings alike.
      if (map_.OwnerOfDir(it->first) != it->second.group) {
        ++counters_.cache_revocations;
        m_cache_revocations_->Add();
        it = cache_.erase(it);
      } else {
        ++it;
      }
    }
  }

  /// Polls the coordination service until the group exposes an active,
  /// then pays the reconnection charge and resends. Each fruitless poll
  /// consumes an attempt, so a client configured with max_attempts = 1
  /// fails fast during an outage — that is how the MTTR benches observe
  /// the paper's "operation returns failure" timestamps.
  void Resolve(const std::shared_ptr<OpState>& state) {
    net::RpcPolicy policy;
    policy.attempt_timeout = coord::kCoordRpcTimeout;
    // Remaining op budget = remaining view polls; at least one.
    policy.max_attempts =
        std::max(1, options_.max_attempts - state->outcome.attempts + 1);
    policy.backoff_base = options_.resolve_poll;
    policy.backoff_multiplier = 1.0;
    policy.backoff_cap = options_.resolve_poll;
    policy.jitter = 1.0;  // decorrelates a reconnecting herd of clients
    coord_client_->WaitForActive(
        state->group, policy,
        [state](int, const Status&) { ++state->outcome.attempts; },
        [this, state](Result<coord::GroupView> r) {
          if (!r.ok()) {
            ++state->outcome.attempts;  // the final fruitless poll
            Finish(state, Status::Unavailable("no active (failing over)"));
            return;
          }
          const coord::GroupView& view = r.value();
          GroupTargets& targets = targets_[state->group];
          const NodeId active = view.FindActive();
          const bool fresh = targets.active != active;
          targets.active = active;
          targets.standbys = view.Standbys();
          targets.epoch = std::max(targets.epoch, view.fence_token);
          if (fresh) {
            ++counters_.reconnects;
            // Latency-model charge, not a retry timer.
            AfterLocal(kReconnectCost, [this, state] { Attempt(state); });
          } else {
            Attempt(state);
          }
        });
  }

  void Finish(const std::shared_ptr<OpState>& state, Result<RespPtr> result) {
    state->outcome.completed = sim().Now();
    state->outcome.ok = result.ok() && result.value()->ok;
    if (state->outcome.ok) {
      ++counters_.ops_ok;
    } else {
      ++counters_.ops_failed;
    }
    last_stamp_ = OpStamp{};
    last_stamp_.min_sn = state->request->min_sn;
    if (result.ok()) {
      const core::ClientResponseMsg& resp = *result.value();
      // Fold the responder's applied sn into the session token: later
      // reads must observe at least this much of the journal.
      SerialNumber& token = session_sn_[state->group];
      token = std::max(token, resp.applied_sn);
      last_stamp_.applied_sn = resp.applied_sn;
      last_stamp_.via_standby = state->via_standby;
      last_stamp_.via_cache = state->via_cache;
      last_stamp_.server = state->target;
    }
    if (options_.cache.enabled) {
      if (result.ok()) {
        const core::ClientResponseMsg& resp = *result.value();
        // Own-ack piggyback: ids of this client's grants the mutation
        // revoked. Tombstoned before the callback runs, so no in-flight
        // read reply can re-adopt them afterwards.
        for (std::uint64_t lease_id : resp.revoke_lease_ids) {
          Tombstone(lease_id);
          ++counters_.cache_revocations;
          m_cache_revocations_->Add();
        }
        if (!core::IsMutation(state->request->op) && resp.ok &&
            resp.lease_id != 0 && !state->via_cache && !state->via_standby) {
          AdoptLease(state, resp);
        }
      }
      if (core::IsMutation(state->request->op)) {
        InvalidateForMutation(*state->request);
      }
    }
    if (observer_) observer_(state->outcome);
    state->done(std::move(result));
  }

  const GroupTargets* FindTargets(GroupId group) const {
    auto it = targets_.find(group);
    return it == targets_.end() ? nullptr : &it->second;
  }

  void InvalidateActive(GroupId group, NodeId stale) {
    auto it = targets_.find(group);
    if (it != targets_.end() && it->second.active == stale) {
      it->second.active = kInvalidNode;
    }
  }

  /// Routing truth; updated from shard bounces. Survives crashes (it is
  /// config-like: any staleness is corrected by the next bounce).
  shard::PartitionMap map_;
  FsClientOptions options_;
  Rng rng_;
  std::unique_ptr<coord::CoordClient> coord_client_;
  std::map<GroupId, GroupTargets> targets_;
  std::map<GroupId, SerialNumber> session_sn_;
  std::uint64_t rr_ = 0;  ///< round-robin cursor over standbys
  std::uint64_t op_seq_ = 0;
  Observer observer_;
  OpStamp last_stamp_;
  Counters counters_;
  // Lease-protected namespace cache (see ClientCacheOptions).
  std::map<std::string, DirCache> cache_;  ///< by leased directory path
  /// Tombstones for revoked lease ids (id -> prune deadline): a revocation
  /// and an in-flight grant-carrying reply race on different channels, and
  /// the tombstone keeps the reply from resurrecting the dead lease.
  std::map<std::uint64_t, SimTime> revoked_leases_;
  obs::Counter* m_cache_hits_ = nullptr;
  obs::Counter* m_cache_misses_ = nullptr;
  obs::Counter* m_cache_revocations_ = nullptr;
  obs::Counter* m_cache_expiries_ = nullptr;
};

}  // namespace mams::cluster
