// Wire messages for the MAMS replica-group protocol: client metadata RPCs,
// journal synchronization (the modified two-phase commit of Section III.A),
// post-election registration (step 5 of the failover protocol), and the
// renewing protocol (Section III.D).
#pragma once

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "fsns/tree.hpp"
#include "journal/record.hpp"
#include "net/message.hpp"
#include "net/message_types.hpp"

namespace mams::core {

// --- client <-> MDS ----------------------------------------------------------

enum class ClientOp : std::uint8_t {
  kCreate = 1,
  kMkdir,
  kDelete,
  kRename,
  kGetFileInfo,
  kListDir,
  kSetReplication,
  kAddBlock,
  kCompleteFile,
  kSetOwner,
  kSetPermission,
  kSetTimes,
};

const char* ClientOpName(ClientOp op) noexcept;

/// True for operations that mutate the namespace (and hence journal).
constexpr bool IsMutation(ClientOp op) noexcept {
  return op != ClientOp::kGetFileInfo && op != ClientOp::kListDir;
}

/// True for operations CFS executes as distributed transactions (Section
/// IV.A: "delete, mkdir and rename belong to distributed transactions in
/// the CFS") — they carry an extra cross-group coordination round.
constexpr bool IsDistributedTx(ClientOp op) noexcept {
  return op == ClientOp::kMkdir || op == ClientOp::kDelete ||
         op == ClientOp::kRename;
}

struct ClientRequestMsg final : net::Message {
  ClientOp op = ClientOp::kGetFileInfo;
  std::string path;
  std::string path2;              ///< rename destination
  std::uint32_t replication = 1;  ///< kSetReplication / kCreate
  std::uint16_t permission = 0;   ///< kSetPermission
  std::string owner;              ///< kSetOwner
  /// Session-consistency floor for reads: the client's high-water applied
  /// sn for this group. A standby may answer only once its applied sn has
  /// reached this value; the active ignores it (it is always current).
  SerialNumber min_sn = 0;
  ClientOpId client;
  /// Requesting client's node id; the active uses it to address directory
  /// lease grants and revocation pushes. kInvalidNode opts out of leases
  /// (internal traffic: audits, migration legs, participant probes).
  NodeId requester = kInvalidNode;
  /// Set on cross-group coordination legs (participant side of a tx);
  /// participants only validate/charge, they do not mutate.
  bool tx_participant = false;
  /// For distributed transactions: the group owning the other side of the
  /// operation (directory container / rename destination), resolved by the
  /// client's partitioner. kInvalidNode-like sentinel = no participant.
  GroupId participant_group = 0xffffffffu;

  net::MsgType type() const noexcept override { return net::kClientRequest; }
  std::size_t ByteSize() const noexcept override {
    return 96 + path.size() + path2.size() + owner.size();
  }
};

struct ClientResponseMsg final : net::Message {
  bool ok = false;
  StatusCode code = StatusCode::kOk;
  std::string error;
  fsns::FileInfo info;                 ///< kGetFileInfo
  std::vector<std::string> listing;    ///< kListDir
  /// Serial number of the responder's last applied batch. Write acks carry
  /// the sn the mutation committed at (or later); the client folds it into
  /// its per-group session token.
  SerialNumber applied_sn = 0;
  /// Responder's view epoch (the group's fence token as the responder knows
  /// it). A reply stamped with an epoch older than the client's view of the
  /// group comes from a deposed/renewing replica and is rejected.
  FenceToken group_epoch = 0;
  /// Standby could not serve the read at the requested min_sn and the
  /// client should retry against the active.
  bool bounced = false;
  /// The responder does not own the namespace shard for the request's path
  /// (the partition map moved it). The current map rides along so the
  /// client re-routes without an extra round trip — the shard analogue of
  /// the group_epoch rejection above.
  bool shard_bounce = false;
  std::uint64_t map_epoch = 0;
  std::vector<char> map_bytes;
  // Directory lease grant riding on an active-served read (lease_id 0 = no
  // grant). The client may serve `lease_dir`'s cached entries locally until
  // `lease_expire_at` (absolute virtual time) or until the lease is revoked.
  std::string lease_dir;
  std::uint64_t lease_id = 0;
  FenceToken lease_epoch = 0;
  SimTime lease_expire_at = 0;
  /// Revocations piggybacked on the requester's own ack (its mutation
  /// conflicted with leases it holds itself — no relay round needed).
  std::vector<std::uint64_t> revoke_lease_ids;

  net::MsgType type() const noexcept override { return net::kClientResponse; }
  std::size_t ByteSize() const noexcept override {
    std::size_t n = 128 + error.size();
    for (const auto& s : listing) n += s.size() + 8;
    return n;
  }
};

// --- journal synchronization (active -> standbys) -----------------------------

/// Phase 1+implicit-commit of the modified 2PC: the active has already
/// decided; the standby applies iff the batch's sn exceeds its current
/// maximum (the duplicate-suppression rule of failover step 4).
struct JournalPrepareMsg final : net::Message {
  GroupId group = 0;
  FenceToken fence = 0;             ///< sender's fencing token (IO fencing)
  /// Shared, immutable payload: the active fans one sealed batch out to
  /// every sync target (and keeps it in recent_batches_ / pending_sync_),
  /// so the message references the batch instead of copying its records
  /// once per recipient.
  std::shared_ptr<const journal::Batch> batch;

  net::MsgType type() const noexcept override { return net::kJournalPrepare; }
  std::size_t ByteSize() const noexcept override {
    return 96 + (batch ? batch->EncodedSize() : 0);
  }
};

struct JournalAckMsg final : net::Message {
  bool applied = false;
  SerialNumber max_sn = 0;   ///< receiver's max sn after processing
  bool stale_fence = false;  ///< sender is deposed; stop sending

  net::MsgType type() const noexcept override { return net::kJournalAck; }
};

// --- post-election registration (failover step 5) ------------------------------

/// The elected standby polls every configured group member: "register with
/// me". Peers reply with their journal position; equal-sn peers become
/// standbys, laggards become juniors.
///
/// Registration runs in two rounds. The first is a non-destructive probe
/// (`discard_ahead` false): peers only report their position, so the
/// elected standby can first catch up from any peer holding committed
/// batches it never saw. The second round (`discard_ahead` true) is final:
/// a peer still ahead of `active_sn` holds only uncommitted partial
/// replications and must discard them before the group settles.
struct GroupRegisterMsg final : net::Message {
  GroupId group = 0;
  NodeId new_active = kInvalidNode;
  FenceToken fence = 0;
  SerialNumber active_sn = 0;
  bool discard_ahead = true;

  net::MsgType type() const noexcept override { return net::kGroupRegister; }
};

struct GroupRegisterAckMsg final : net::Message {
  SerialNumber max_sn = 0;
  ServerState previous_state = ServerState::kDown;

  net::MsgType type() const noexcept override { return net::kGroupRegisterAck; }
};

// --- renewing protocol (active <-> junior) -----------------------------------

struct RenewCommandMsg final : net::Message {
  GroupId group = 0;
  FenceToken fence = 0;
  std::string image_file;        ///< newest image; empty when none
  SerialNumber image_sn = 0;     ///< sn folded into that image
  SerialNumber active_sn = 0;

  net::MsgType type() const noexcept override { return net::kRenewCommand; }
};

/// Junior -> active progress report ("the junior records the current sn and
/// sends it to the active periodically").
struct RenewProgressMsg final : net::Message {
  GroupId group = 0;
  SerialNumber current_sn = 0;
  bool failed = false;

  net::MsgType type() const noexcept override { return net::kRenewProgress; }
};

/// Reads a peer's recent-batch window: the peer stage of the journal pull
/// (renewing, failover step 5, live-stream gap repair).
struct RenewJournalFetchMsg final : net::Message {
  GroupId group = 0;
  SerialNumber after_sn = 0;
  std::uint32_t max_batches = 256;

  net::MsgType type() const noexcept override {
    return net::kRenewJournalFetch;
  }
};

struct RenewJournalReplyMsg final : net::Message {
  std::vector<journal::Batch> batches;
  SerialNumber active_sn = 0;
  std::uint64_t payload_bytes = 0;

  net::MsgType type() const noexcept override { return net::kRenewJournalReply; }
  std::size_t ByteSize() const noexcept override {
    return 96 + payload_bytes;
  }
};

// --- shard migration (source active <-> destination active) -----------------

/// One chunk of a shard's contents, streamed source -> destination. The
/// records are journal install/erase/dedup records the destination applies
/// and journals through its own group's 2PC before acking, so a chunk ack
/// means the data is as durable at the destination as any client write.
struct ShardTransferMsg final : net::Message {
  GroupId from_group = 0;
  std::uint32_t slot = 0;
  TxId migration_id = 0;      ///< source's kShardMigrateBegin txid
  std::uint32_t seq = 0;      ///< chunk sequence within the migration
  bool final_chunk = false;   ///< cutover complete: last delta + dedup table
  std::vector<journal::LogRecord> records;

  net::MsgType type() const noexcept override { return net::kShardTransfer; }
  std::size_t ByteSize() const noexcept override {
    std::size_t n = 96;
    for (const auto& r : records) n += r.EncodedSize();
    return n;
  }
};

struct ShardTransferAckMsg final : net::Message {
  bool ok = false;
  std::string error;

  net::MsgType type() const noexcept override { return net::kShardTransferAck; }
};

enum class ShardControlKind : std::uint8_t {
  kActivate = 1,      ///< src -> dst: cutover done, own the slot (journals
                      ///< kShardAcquire; idempotent)
  kAbort = 2,         ///< src -> dst: migration abandoned, discard the slot
  kQuery = 3,         ///< dst -> src: what happened to migration_id?
  kRenameCommit = 4,  ///< rename src-owner -> dst-owner: install dst entry
};

struct ShardControlMsg final : net::Message {
  ShardControlKind kind = ShardControlKind::kActivate;
  GroupId from_group = 0;
  std::uint32_t slot = 0;
  TxId migration_id = 0;
  // kRenameCommit payload: the entry to install at the destination group,
  // carrying everything needed to rebuild the inode.
  std::string rename_src;
  std::string rename_dst;
  ClientOpId client;
  std::uint32_t replication = 1;
  std::uint16_t permission = 0644;
  std::string owner;
  SimTime mtime = 0;
  bool complete = true;
  std::vector<BlockId> blocks;

  net::MsgType type() const noexcept override { return net::kShardControl; }
  std::size_t ByteSize() const noexcept override {
    return 128 + rename_src.size() + rename_dst.size() + owner.size() +
           blocks.size() * 8;
  }
};

/// kQuery outcome: how the source's journal remembers the migration.
enum class MigrationOutcome : std::uint8_t {
  kUnknown = 0,      ///< no trace (source never began it)
  kInProgress = 1,   ///< begun, not yet cut over
  kEnded = 2,        ///< cut over (or finished): destination owns the slot
  kAborted = 3,      ///< abandoned before cutover: destination must discard
};

struct ShardControlAckMsg final : net::Message {
  bool ok = false;
  StatusCode code = StatusCode::kOk;
  std::string error;
  MigrationOutcome outcome = MigrationOutcome::kUnknown;  ///< kQuery reply

  net::MsgType type() const noexcept override { return net::kShardControlAck; }
};

// --- data servers --------------------------------------------------------

struct BlockReportMsg final : net::Message {
  NodeId data_server = kInvalidNode;
  std::vector<BlockId> blocks;        ///< real ids (correctness paths)
  std::uint64_t synthetic_count = 0;  ///< timing model (Table I scale)

  std::uint64_t EffectiveCount() const noexcept {
    return std::max<std::uint64_t>(blocks.size(), synthetic_count);
  }
  /// Reports are large in real clusters; the logical size scales with the
  /// number of blocks so ingest bandwidth is modelled.
  net::MsgType type() const noexcept override { return net::kBlockReport; }
  std::size_t ByteSize() const noexcept override {
    return 64 + static_cast<std::size_t>(EffectiveCount()) * 24;
  }
};

struct BlockReportAckMsg final : net::Message {
  net::MsgType type() const noexcept override { return net::kBlockReportAck; }
};

}  // namespace mams::core
