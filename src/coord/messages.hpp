// RPC payloads between coordination clients (metadata servers, node
// monitors, file-system clients) and the coordination service frontend.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "coord/view.hpp"
#include "net/message.hpp"
#include "net/message_types.hpp"

namespace mams::coord {

using SessionId = std::uint64_t;

/// The service expires a session that has not heartbeated for this long
/// (paper §IV.B: 2 s heartbeats, 5 s timeout). The one definition: the
/// service's expiry scan and the active's lease-grant bound both read it.
inline constexpr SimTime kSessionTimeout = 5 * kSecond;

enum class CoordOp : std::uint8_t {
  kRegister,       ///< join a group with an initial state; opens a session
  kSetState,       ///< change own or (as lock holder) a peer's state
  kTryLock,        ///< bid for the group lock (election)
  kReleaseLock,    ///< voluntary release
  kGetView,        ///< read-only snapshot
  kWatch,          ///< subscribe to group-view changes
  kCloseSession,   ///< graceful shutdown
  kPublishMap,     ///< install a newer namespace partition map
  kGetMap,         ///< fetch the current partition map
  kRelayRevoke,    ///< fan lease revocations out to client nodes
};

/// One revoked directory lease, as pushed to the client that holds it.
struct LeaseRevocation {
  std::string dir;            ///< leased directory path
  std::uint64_t lease_id = 0;
};

/// kRelayRevoke: all revocations destined for one client node.
struct RevokeTarget {
  NodeId node = kInvalidNode;
  std::vector<LeaseRevocation> leases;
};

struct CoordRequestMsg final : net::Message {
  CoordOp op = CoordOp::kGetView;
  SessionId session = 0;
  GroupId group = 0;
  NodeId subject = kInvalidNode;       ///< node whose state is being set
  ServerState state = ServerState::kDown;
  // Election bid (Algorithm 1): random draw, tie-broken by journal sn.
  std::uint64_t draw = 0;
  SerialNumber max_sn = 0;
  FenceToken fence = 0;                ///< for fenced SetState by the holder
  // kPublishMap: the serialized shard::PartitionMap and its epoch (opaque
  // to the coordination layer; ordered by epoch).
  std::uint64_t map_epoch = 0;
  std::vector<char> map_bytes;
  // kRelayRevoke: per-client revocation batches; `subject` carries the
  // revoking active's node id (clients ack to it directly).
  std::vector<RevokeTarget> revoke_targets;

  net::MsgType type() const noexcept override { return net::kCoordRequest; }
};

struct CoordResponseMsg final : net::Message {
  bool ok = false;
  std::string error;
  SessionId session = 0;       ///< for kRegister
  bool lock_granted = false;   ///< for kTryLock
  NodeId lock_holder = kInvalidNode;
  FenceToken fence_token = 0;
  GroupView view;              ///< snapshot after the operation
  std::uint64_t map_epoch = 0;     ///< for kGetMap (0: none published)
  std::vector<char> map_bytes;     ///< for kGetMap

  net::MsgType type() const noexcept override { return net::kCoordResponse; }
};

/// Pushed to watchers on every group-view change. Carries the full new
/// view: the three watchers the paper describes (on self, on the active,
/// on the lock) are all satisfied by inspecting the snapshot.
struct WatchEventMsg final : net::Message {
  GroupView view;
  // Current partition map piggybacked on every event (epoch 0: none
  // published yet); servers adopt newer maps from any watch delivery.
  std::uint64_t map_epoch = 0;
  std::vector<char> map_bytes;
  net::MsgType type() const noexcept override { return net::kCoordWatchEvent; }
};

/// One-way session keep-alive.
struct HeartbeatMsg final : net::Message {
  SessionId session = 0;
  net::MsgType type() const noexcept override { return net::kCoordHeartbeat; }
};

/// Lease revocation push, relayed by the coordination frontend to the
/// client node that holds the leases. The client drops the named cache
/// entries and acks straight to `active` (not the relay): the ack is what
/// releases the mutation's reply barrier on the granter.
struct LeaseRevokeMsg final : net::Message {
  NodeId active = kInvalidNode;  ///< granter to ack to
  std::vector<LeaseRevocation> leases;
  net::MsgType type() const noexcept override { return net::kLeaseRevoke; }
};

/// Client -> active: the pushed revocations have been applied locally.
struct LeaseRevokeAckMsg final : net::Message {
  NodeId client = kInvalidNode;
  std::vector<std::uint64_t> lease_ids;
  net::MsgType type() const noexcept override { return net::kLeaseRevokeAck; }
};

}  // namespace mams::coord
