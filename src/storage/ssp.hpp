// SspClient — the metadata servers' view of the shared storage pool.
//
// Placement: each shared file is replicated on kSspReplication pool nodes
// chosen by consistent hashing of the file name over the pool membership.
// Appends go to every replica; the operation completes on the first ACK
// (standby 2PC, not the SSP, is the primary redundancy path for journal
// data — the pool is the catch-up medium for juniors, per Section III.A).
// Index reads (images) try replicas in placement order and fall over on
// timeout, so a junior can keep recovering while a pool node is down.
// Journal reads go to one named replica each (ReadAfterOn); the caller
// consults every replica of the placement and merges.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/bytes.hpp"
#include "net/host.hpp"
#include "net/rpc.hpp"
#include "obs/observability.hpp"
#include "storage/ssp_messages.hpp"

namespace mams::storage {

/// Replicas per shared file, per-call write/read deadlines, and the most
/// bytes one read returns.
inline constexpr std::size_t kSspReplication = 2;
inline constexpr SimTime kSspWriteTimeout = 2 * kSecond;
inline constexpr SimTime kSspReadTimeout = 5 * kSecond;
inline constexpr std::uint64_t kSspReadChunkBytes = 4u << 20;

class SspClient {
 public:
  SspClient(net::Host& host, std::vector<NodeId> pool)
      : host_(host),
        pool_(std::move(pool)),
        obs_(&host.network().sim().obs()),
        appends_(obs_->metrics().counter("ssp.append")),
        append_fails_(obs_->metrics().counter("ssp.append_fail")),
        append_ns_(obs_->metrics().histogram("ssp.append_ns")),
        reads_(obs_->metrics().counter("ssp.read")),
        read_failovers_(obs_->metrics().counter("ssp.read_failover")) {}

  const std::vector<NodeId>& pool() const noexcept { return pool_; }
  void set_pool(std::vector<NodeId> pool) { pool_ = std::move(pool); }

  /// Replica placement for a file (deterministic, membership-stable).
  std::vector<NodeId> Placement(const std::string& file) const {
    std::vector<NodeId> replicas;
    if (pool_.empty()) return replicas;
    const std::size_t n = pool_.size();
    const std::size_t start = Fnv1a(file) % n;
    const std::size_t count = std::min(kSspReplication, n);
    for (std::size_t i = 0; i < count; ++i) {
      replicas.push_back(pool_[(start + i) % n]);
    }
    return replicas;
  }

  /// Appends a record to a shared file on all replicas; `done` fires on the
  /// first ACK (or with an error after every replica failed).
  void Append(const std::string& file, SspRecord record,
              std::function<void(Status)> done) {
    auto replicas = Placement(file);
    appends_->Add();
    if (replicas.empty()) {
      append_fails_->Add();
      done(Status::Unavailable("ssp pool empty"));
      return;
    }
    auto state = std::make_shared<AppendState>();
    state->remaining = replicas.size();
    // Wrap the completion so every append records latency and a span,
    // whichever replica (or timeout) finishes it.
    state->done = [this, done = std::move(done),
                   begin = host_.network().sim().Now(),
                   span = obs_->tracer().Begin("ssp", "append", host_.id(), 0,
                                               {{"file", file}})](
                      Status status) mutable {
      append_ns_->Record(host_.network().sim().Now() - begin);
      if (!status.ok()) append_fails_->Add();
      obs_->tracer().End(span, {{"status", status.ok() ? "ok" : "fail"}});
      done(status);
    };
    for (NodeId replica : replicas) {
      auto msg = std::make_shared<SspWriteMsg>();
      msg->file = file;
      msg->record = record;
      host_.Call(replica, msg, kSspWriteTimeout,
                 [state](Result<net::MessagePtr> result) {
                   --state->remaining;
                   if (state->finished) return;
                   const bool accepted =
                       result.ok() &&
                       net::Cast<SspWriteAckMsg>(result.value()).ok;
                   if (accepted) {
                     state->finished = true;
                     state->done(Status::Ok());
                   } else if (state->remaining == 0) {
                     state->finished = true;
                     state->done(result.ok()
                                     ? Status::Aborted("fenced by the pool")
                                     : Status::Unavailable(
                                           "all ssp replicas failed"));
                   }
                 });
    }
  }

  /// Reads return one chunk per call; the reply's next_index/eof let the
  /// caller resume (checkpointed recovery).
  using ReadCallback =
      std::function<void(Result<std::shared_ptr<const SspReadReplyMsg>>)>;

  /// Reads records with sn > `after_sn` from ONE specific replica, with no
  /// failover. Appends ack on the first replica, so replicas may hold
  /// different subsequences of a file (a pool node that was down during a
  /// write has a hole after restart) — recovery paths that must not trust
  /// a single, possibly stale replica use this to consult each member of
  /// the placement in turn and merge.
  void ReadAfterOn(NodeId replica, const std::string& file,
                   SerialNumber after_sn, ReadCallback done) {
    auto msg = std::make_shared<SspReadMsg>();
    msg->file = file;
    msg->after_sn = after_sn;
    msg->max_bytes = kSspReadChunkBytes;
    reads_->Add();
    host_.Call(replica, std::move(msg), kSspReadTimeout,
               [done = std::move(done)](Result<net::MessagePtr> result) {
                 if (!result.ok()) {
                   done(result.status());
                   return;
                 }
                 done(std::static_pointer_cast<const SspReadReplyMsg>(
                     std::move(result).value()));
               });
  }

  void ReadIndex(const std::string& file, std::size_t from_index,
                 ReadCallback done) {
    auto msg = std::make_shared<SspReadMsg>();
    msg->file = file;
    msg->use_index = true;
    msg->from_index = from_index;
    msg->max_bytes = kSspReadChunkBytes;
    ReadWithFailover(file, std::move(msg), std::move(done));
  }

  /// Lists files under a prefix (used to discover images/segments).
  void List(const std::string& prefix,
            std::function<void(Result<std::shared_ptr<const SspListReplyMsg>>)>
                done) {
    auto replicas = pool_;  // any pool node can answer for its own store;
                            // union-of-replies is unnecessary because every
                            // group file set is fully replicated rf-ways.
    if (replicas.empty()) {
      done(Status::Unavailable("ssp pool empty"));
      return;
    }
    auto msg = std::make_shared<SspListMsg>();
    msg->prefix = prefix;
    ListWithFailover(std::move(msg), std::move(done));
  }

 private:
  struct AppendState {
    std::size_t remaining = 0;
    bool finished = false;
    std::function<void(Status)> done;
  };

  /// One read attempt per replica in `targets` order, no backoff between
  /// them — pool-node failover should be as fast as the timeout allows.
  /// Each attempt goes to a *different* node, so server-side dedup would
  /// never trigger; the policy marks the call non-idempotent to keep
  /// replica caches out of the picture.
  net::RpcPolicy FailoverPolicy(std::size_t targets) const {
    net::RpcPolicy policy;
    policy.attempt_timeout = kSspReadTimeout;
    policy.max_attempts = static_cast<int>(targets);
    policy.backoff_base = 0;
    policy.backoff_cap = 0;
    policy.idempotent = false;
    return policy;
  }

  void ReadWithFailover(const std::string& file,
                        std::shared_ptr<SspReadMsg> msg, ReadCallback done) {
    auto replicas = Placement(file);
    reads_->Add();
    if (replicas.empty()) {
      done(Status::Unavailable("all ssp replicas failed for " + file));
      return;
    }
    net::RpcHooks hooks;
    hooks.target = [replicas](int attempt) {
      return replicas[(static_cast<std::size_t>(attempt) - 1) %
                      replicas.size()];
    };
    hooks.on_retry = [this, file](int attempt, const Status&) {
      read_failovers_->Add();
      obs_->tracer().Instant(
          "ssp", "read_failover", host_.id(), 0,
          {{"file", file},
           {"attempt", static_cast<std::uint64_t>(attempt - 1)}});
    };
    net::RpcCall::Start(
        host_, replicas.front(), std::move(msg),
        FailoverPolicy(replicas.size()),
        [file, done = std::move(done)](Result<net::MessagePtr> result) {
          if (!result.ok()) {
            done(Status::Unavailable("all ssp replicas failed for " + file));
            return;
          }
          done(std::static_pointer_cast<const SspReadReplyMsg>(
              std::move(result).value()));
        },
        std::move(hooks));
  }

  void ListWithFailover(
      std::shared_ptr<SspListMsg> msg,
      std::function<void(Result<std::shared_ptr<const SspListReplyMsg>>)>
          done) {
    net::RpcHooks hooks;
    hooks.target = [pool = pool_](int attempt) {
      return pool[(static_cast<std::size_t>(attempt) - 1) % pool.size()];
    };
    net::RpcCall::Start(
        host_, pool_.front(), std::move(msg), FailoverPolicy(pool_.size()),
        [done = std::move(done)](Result<net::MessagePtr> result) {
          if (!result.ok()) {
            done(Status::Unavailable("all ssp pool nodes failed"));
            return;
          }
          done(std::static_pointer_cast<const SspListReplyMsg>(
              std::move(result).value()));
        },
        std::move(hooks));
  }

  net::Host& host_;
  std::vector<NodeId> pool_;
  obs::Observability* obs_;
  obs::Counter* appends_;
  obs::Counter* append_fails_;
  obs::Histogram* append_ns_;
  obs::Counter* reads_;
  obs::Counter* read_failovers_;
};

}  // namespace mams::storage
