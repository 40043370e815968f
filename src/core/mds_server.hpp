// MdsServer — one member of a MAMS replica group. Depending on its current
// role it behaves as:
//
//   ACTIVE   serves client metadata RPCs for its namespace partition,
//            aggregates mutations into journal batches (sn-stamped),
//            replicates them to every standby through the modified 2PC and
//            to the SSP, checkpoints images, and drives the renewing
//            protocol for juniors.
//   STANDBY  applies replicated batches in sn order (buffering gaps and
//            back-filling from the active), keeps block locations fresh
//            from data-server reports, and runs Algorithm 1 elections when
//            the global view loses its active.
//   JUNIOR   lags; rebuilds from the latest SSP image + journal tail under
//            the renewing protocol until the active upgrades it.
//
// Role flips follow the failover protocol of Section III.C (six steps,
// implemented in Upgrade*) and the renewing protocol of Section III.D.
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "coord/client.hpp"
#include "core/messages.hpp"
#include "core/options.hpp"
#include "fsns/blockmap.hpp"
#include "fsns/tree.hpp"
#include "journal/writer.hpp"
#include "net/host.hpp"
#include "net/rpc.hpp"
#include "obs/observability.hpp"
#include "storage/ssp.hpp"

namespace mams::core {

/// Shared lookup table "group -> current active node", maintained by the
/// servers from their watch events; used to route cross-group transaction
/// legs. (Clients do their own view polling; see cluster::FsClient.)
struct GroupDirectory {
  std::map<GroupId, NodeId> active_of;

  NodeId Active(GroupId g) const {
    auto it = active_of.find(g);
    return it == active_of.end() ? kInvalidNode : it->second;
  }
};

/// One-shot fetches (journal pulls, cross-group tx legs, shard migration
/// legs): callers have their own recovery story, so no retries.
inline constexpr net::RpcPolicy kFetchRpc{.attempt_timeout = kSecond,
                                          .max_attempts = 1};

/// One completed failover, read back from the `failover` spans MdsServer
/// records (Fig. 7); the tracer must be on for the run. The election span
/// begins when the standby sees the active gone and sends its first bid,
/// and ends with won=true when the lock is granted. The switch span begins
/// there and ends with ok=true once the 6-step upgrade is done.
struct FailoverStages {
  NodeId elected = kInvalidNode;
  GroupId group = 0;
  SimTime election_started = 0;
  SimTime lock_granted = 0;
  SimTime switch_completed = 0;

  SimTime ElectionTime() const { return lock_granted - election_started; }
  SimTime SwitchTime() const { return switch_completed - lock_granted; }
};

/// Every completed failover in `tracer`, in completion order.
std::vector<FailoverStages> CompletedFailovers(
    const obs::TraceRecorder& tracer);

class MdsServer : public net::Host {
 public:
  MdsServer(net::Network& network, std::string name, MdsOptions options,
            NodeId coord, std::vector<NodeId> ssp_pool,
            GroupDirectory* directory);
  ~MdsServer() override;

  /// All group members (node ids), including this server. Must be set
  /// before boot; used for registration (failover step 5) and re-flushes.
  void SetGroupMembers(std::vector<NodeId> members) {
    members_ = std::move(members);
  }

  /// Routes cross-group transaction legs; owner is the cluster.
  GroupDirectory* directory() noexcept { return directory_; }

  /// Boots the server in the given initial role. kActive additionally
  /// acquires the group lock before serving.
  void Start(ServerState initial_role);

  /// Elastic scale-down: takes this server out of service cleanly. Parked
  /// reads are bounced first (clients retry elsewhere immediately instead
  /// of timing out), the coordination view is annotated kDown right away
  /// (no 5 s session-expiry lag), then the process stops. Safety-wise a
  /// retirement is indistinguishable from a tolerated crash; rejoining
  /// later rides Restart() -> junior -> renewing, the same catch-up path
  /// as any other admission.
  void Retire();

  /// Elastic scale-up nudge: runs the renewing-protocol scan immediately
  /// instead of waiting for the periodic timer — the autoscaler calls this
  /// right after admitting a junior so promotion latency is one RPC round,
  /// not one scan period. No-op unless this server is the active.
  void KickRenewScan() {
    if (role_ == ServerState::kActive) RenewScan();
  }

  /// Reads currently parked on this standby waiting for a journal batch
  /// (the autoscaler's "drained" criterion for demotion candidates).
  std::size_t parked_read_count() const noexcept {
    return parked_reads_.size();
  }

  /// Instantaneous commit-path backlog: syncs in flight plus sealed
  /// batches deferred past the pipeline window. One of the autoscaler's
  /// pressure signals (nonzero only on an active).
  std::size_t commit_queue_depth() const noexcept {
    return pending_sync_.size() + deferred_batches_.size();
  }

  // --- observability -----------------------------------------------------
  ServerState role() const noexcept { return role_; }
  SerialNumber last_sn() const noexcept { return last_sn_; }
  /// Highest sn this server completed a 2PC sync for with at least one
  /// standby ack or a durable SSP copy — i.e. acknowledged work that some
  /// other party also holds. Invariant probes compare the post-failover
  /// active against the cluster-wide max of this value.
  SerialNumber committed_sn() const noexcept { return committed_sn_; }
  FenceToken fence() const noexcept { return fence_; }
  const fsns::Tree& tree() const noexcept { return tree_; }
  fsns::Tree& mutable_tree() noexcept { return tree_; }
  const fsns::BlockMap& blocks() const noexcept { return blocks_; }
  GroupId group() const noexcept { return options_.group; }

  struct Counters {
    std::uint64_t ops_served = 0;
    std::uint64_t mutations = 0;
    std::uint64_t reads = 0;
    std::uint64_t batches_synced = 0;
    std::uint64_t batches_applied = 0;
    std::uint64_t duplicate_batches = 0;
    std::uint64_t elections_won = 0;
    std::uint64_t elections_lost = 0;
    std::uint64_t renews_completed = 0;
    std::uint64_t fenced_rejections = 0;
    std::uint64_t buffered_during_upgrade = 0;
    std::uint64_t standby_reads_served = 0;
    std::uint64_t standby_reads_parked = 0;
    std::uint64_t standby_reads_bounced = 0;
    std::uint64_t shard_bounces = 0;
    /// Client-cache directory leases (active side).
    std::uint64_t leases_granted = 0;
    std::uint64_t leases_revoked = 0;
    std::uint64_t lease_replies_held = 0;   ///< acks held on a revoke barrier
    std::uint64_t lease_barrier_expiries = 0;  ///< barriers released by TTL
    /// Parallel-apply and pipeline observability (bench/micro_apply).
    std::uint64_t apply_waves = 0;           ///< dependency waves executed
    std::uint64_t apply_records = 0;         ///< records applied via plans
    std::uint64_t apply_serial_fallbacks = 0;  ///< barrier batches
    std::uint64_t pipeline_deferred = 0;     ///< batches parked by the window
    std::uint64_t migrations_started = 0;
    std::uint64_t migrations_completed = 0;
    std::uint64_t migrations_aborted = 0;
    std::uint64_t cross_group_renames = 0;
  };
  const Counters& counters() const noexcept { return counters_; }

  // --- shard subsystem ------------------------------------------------------
  /// This server's current partition map (routing truth as it knows it).
  const shard::PartitionMap& partition_map() const noexcept { return map_; }

  /// Per-migration timeline measured on the source active, in virtual time.
  /// `fence_time..publish_time` is the cutover write-unavailability window
  /// the bench reports; entries/chunks size the transfer.
  struct MigrationStats {
    std::uint32_t slot = 0;
    GroupId dst = 0;
    TxId migration_id = 0;
    SimTime begin_time = 0;
    SimTime fence_time = 0;
    SimTime publish_time = 0;
    SimTime end_time = 0;
    std::uint64_t entries = 0;
    std::uint64_t chunks = 0;
    bool aborted = false;
  };
  const std::vector<MigrationStats>& migration_stats() const noexcept {
    return migration_stats_;
  }

  /// Starts migrating `slot` to group `dst`. Only valid on the active of
  /// the slot's current owner group; at most one migration per slot at a
  /// time. The engine runs asynchronously; completion is observable through
  /// the partition map epoch and migration_stats().
  Status StartShardMigration(std::uint32_t slot, GroupId dst);

  /// Pre-populates the namespace directly (bench setup; bypasses journal).
  void Preload(const std::function<void(fsns::Tree&)>& fn) { fn(tree_); }
  void SetLastSn(SerialNumber sn) { last_sn_ = sn; }

 protected:
  void OnStart() override;
  void OnCrash() override;
  void OnRestart() override;

 private:
  // --- wiring -------------------------------------------------------------
  void RegisterHandlers();
  void OnStartRetry(ServerState initial);
  void JoinGroup(ServerState state,
                 std::function<void(Status)> done = nullptr);
  void OnWatchEvent(const coord::GroupView& view);

  // --- active: client ops ---------------------------------------------------
  void HandleClientRequest(const net::Envelope& env,
                           const net::MessagePtr& msg, const ReplyFn& reply);
  void ProcessClientRequest(const std::shared_ptr<const ClientRequestMsg>& req,
                            const ReplyFn& reply);
  void ExecuteMutation(const std::shared_ptr<const ClientRequestMsg>& req,
                       const ReplyFn& reply, bool tx_commit);
  void ExecuteRead(const ClientRequestMsg& req, const ReplyFn& reply);
  SimTime ChargeCpu(SimTime cost);
  void ReplyStatus(const ReplyFn& reply, const Status& status);
  /// Stamps every client-visible reply with this server's applied sn and
  /// view epoch (the session-consistency metadata of the standby read
  /// path). Write acks may pass an explicit sn the mutation committed at.
  void StampReply(ClientResponseMsg& out, SerialNumber applied_sn) const;

  // --- standby: session-consistent read offload -----------------------------
  void HandleStandbyRead(const std::shared_ptr<const ClientRequestMsg>& req,
                         const ReplyFn& reply);
  void ServeStandbyRead(const std::shared_ptr<const ClientRequestMsg>& req,
                        const ReplyFn& reply);
  void BounceRead(const ReplyFn& reply, const char* why);
  void DrainParkedReads();
  void FlushParkedReads(const char* why);

  // --- active: client-cache directory leases (src/core/mds_server.cpp) ------
  struct LeaseBarrier {
    /// (client node, lease id) acks still missing.
    std::set<std::pair<NodeId, std::uint64_t>> outstanding;
    /// Latest expire_at among the revoked grants: past this instant no
    /// client can serve them anyway, so the barrier self-releases.
    SimTime release_at = 0;
    /// Deferred completions (client acks, cross-group legs) run on release.
    std::vector<std::function<void()>> held;
  };
  /// Stamps a directory lease grant onto an active-served read reply.
  void MaybeGrantLease(const ClientRequestMsg& req, ClientResponseMsg& out);
  /// Drops every grant conflicting with the mutation's path footprint,
  /// pushes revocations to remote holders (coordination relay), installs a
  /// reply barrier under `txid` when any remote holder exists, and returns
  /// the requester's own revoked ids for ack piggybacking.
  std::vector<std::uint64_t> RevokeConflictingLeases(
      const ClientRequestMsg& req, TxId txid);
  /// Collection core shared with the migration cutover: drops grants on
  /// `path`'s parent, `path` itself, and its subtree.
  void CollectRevocations(
      const std::string& path, NodeId own, std::vector<std::uint64_t>& own_ids,
      std::map<NodeId, std::vector<coord::LeaseRevocation>>& pushes,
      LeaseBarrier& barrier);
  void PushRevocations(
      std::map<NodeId, std::vector<coord::LeaseRevocation>> pushes);
  void InstallLeaseBarrier(TxId txid, LeaseBarrier barrier);
  /// Runs `action` now, or holds it until `txid`'s barrier releases.
  void RunOrHoldOnBarrier(TxId txid, std::function<void()> action);
  void ReleaseLeaseBarrier(TxId txid, bool expired);
  void HandleLeaseRevokeAck(const net::MessagePtr& msg);
  /// Migration cutover: revoke every grant under the migrating slot into
  /// the slot barrier; activation of the destination waits on it.
  void RevokeSlotLeases(std::uint32_t slot);
  bool SlotLeaseBarrierPending(std::uint32_t slot);
  /// Crash teardown: drops the grant table and every barrier. Held
  /// completions die with the process — their replies were lost anyway,
  /// clients retry, and the TTL bounds how long a revoked copy stays
  /// servable. (A live step-down keeps the barriers: see BecomeRole.)
  void ResetLeaseState();

  // --- active: journal sync (modified 2PC, pipelined) -----------------------
  void OnBatchSealed(journal::Batch batch, std::vector<char> bytes);
  void StartBatchSync(std::shared_ptr<const journal::Batch> batch,
                      std::vector<char> bytes);
  void MaybeCompleteSync(SerialNumber sn);
  /// Finalizes completed syncs strictly from the front of pending_sync_
  /// (sn order), then refills the pipeline window from deferred_batches_.
  void FinalizeCompletedSyncs();
  std::size_t PipelineDepth() const noexcept {
    return options_.commit_pipeline_depth == 0 ? 1
                                               : options_.commit_pipeline_depth;
  }
  void DemoteUnresponsiveStandby(NodeId peer);
  void RetrySspAppend(SerialNumber sn);

  // --- standby/junior: replication intake ----------------------------------
  void HandleJournalPrepare(const net::Envelope& env,
                            const net::MessagePtr& msg, const ReplyFn& reply);
  /// Applies parked batches from last_sn_ + 1 on, in sn order, and drops
  /// the ones at or below it. Returns the replay CPU cost of what applied.
  SimTime ApplyReadyBatches();
  /// Applies a replicated batch through its dependency plan (see
  /// journal/apply_plan.hpp); returns the plan's critical-path slot count
  /// under kApplyThreads, which the replay cost model uses.
  std::size_t ApplyBatch(const std::shared_ptr<const journal::Batch>& batch);

  // --- catch-up: the one journal pull ---------------------------------------
  struct PullResult {
    /// A source holds batches past last_sn_ that nothing could connect.
    bool hole = false;
    std::optional<SerialNumber> peer_sn;  ///< in the peer's last reply
  };
  struct Pull;
  /// Brings this replica forward from every SSP placement replica of the
  /// journal (when `from_ssp`), then from `peer`'s recent-batch window
  /// (kInvalidNode: none); docs/PROTOCOLS.md "Catching up" gives the stop
  /// rule. `done` runs once no source is left; a `live` that turns false
  /// drops the pull.
  void PullJournal(bool from_ssp, NodeId peer, std::function<bool()> live,
                   std::function<void(const PullResult&)> done);
  void PullNext(const std::shared_ptr<Pull>& pull);

  // --- election + failover protocol (Section III.C) -------------------------
  void MaybeStartElection(const coord::GroupView& view);
  void BidForLock();
  void UpgradeStep1CheckState();
  void UpgradeStep2FlipStates();
  void UpgradeStep4ReflushJournals();
  void UpgradeStep5Round(bool final_round);
  void UpgradeStep5Classify(const std::map<NodeId, SerialNumber>& acks);
  void UpgradeStep6BecomeActive();
  void UpgradeStep6Serve();
  void AbortUpgrade(const std::string& why);
  void StepDownFromActive(const char* why);

  // --- renewing protocol (Section III.D) ------------------------------------
  void RenewScan();
  void HandleRenewCommand(const net::MessagePtr& msg);
  void RenewFetchImageChunk();
  void RenewPullJournal();
  void HandleRenewProgress(const net::Envelope& env,
                           const net::MessagePtr& msg);
  void SendRenewProgress(bool failed = false);

  // --- shard subsystem (src/core/mds_shard.cpp) -------------------------------
  // Map + admission.
  void AdoptMap(std::uint64_t epoch, const std::vector<char>& bytes);
  void FetchMapFromCoord();
  bool OwnsSlotForRead(std::uint32_t slot) const;
  bool OwnsSlotForWrite(std::uint32_t slot) const;
  /// Returns false and replies with a shard bounce (current map attached)
  /// when this server must not serve the request; also enforces the
  /// rename-intent fences and the migration-time structural restriction.
  bool ShardAdmitRead(const ClientRequestMsg& req, const ReplyFn& reply);
  bool ShardAdmitMutation(const ClientRequestMsg& req, const ReplyFn& reply);
  void ShardBounce(const ReplyFn& reply, const char* why);
  /// Path touches a pending cross-group rename (src, dst, or an ancestor
  /// of a src) — such requests stall until the rename resolves.
  bool RenameFenced(const ClientRequestMsg& req) const;
  /// Appends one shard control/install record to the journal, applies it to
  /// the tree, and notes it for a capturing migration. Returns its txid.
  TxId AppendShardRecord(journal::LogRecord rec);
  /// AppendShardRecord + flush + `done(ok)` once the batch commits (standby
  /// ack or SSP); the record is then as durable as any client mutation.
  TxId JournalShardRecord(journal::LogRecord rec,
                          std::function<void(bool)> done);
  /// ExecuteMutation hook: while a migration is capturing, note mutated
  /// paths that live in the migrating slot (shipped in the final chunk).
  void CaptureMigrationDelta(const journal::LogRecord& rec);

  // Source-side migration engine.
  struct MigrationDrive;
  /// Emits the install record(s) reconstructing `node` at `path` (dir or
  /// file + its blocks) into `out`; shared by snapshot and delta shipping.
  void AppendInstallRecords(const std::string& path, const fsns::Inode& node,
                            std::vector<journal::LogRecord>& out);
  void SnapshotShard(MigrationDrive& d);
  void SendNextChunk(std::uint32_t slot);
  void StartCutover(std::uint32_t slot);
  void DrainThenShip(std::uint32_t slot, int polls_left);
  void ShipFinalChunk(std::uint32_t slot);
  void SendActivate(std::uint32_t slot);
  void PublishMapForSlot(std::uint32_t slot);
  void FinishMigration(std::uint32_t slot);
  void AbortOutbound(std::uint32_t slot);
  void SendAbortToDst(std::uint32_t slot, TxId migration_id, GroupId dst);
  void RollForwardOutbound(std::uint32_t slot);

  // Destination side.
  void HandleShardTransfer(const net::Envelope& env, const net::MessagePtr& msg,
                           const ReplyFn& reply);
  void HandleShardControl(const net::Envelope& env, const net::MessagePtr& msg,
                          const ReplyFn& reply);
  MigrationOutcome AnswerMigrationQuery(std::uint32_t slot,
                                        TxId migration_id) const;
  /// While an inbound migration is pending, periodically asks the source
  /// group what happened — covers a source that crashed after deciding
  /// but before telling us.
  void ArmInboundWatchdog(std::uint32_t slot);

  // Cross-group rename (two-group coordinated transaction).
  void StartCrossGroupRename(std::shared_ptr<const ClientRequestMsg> req,
                             GroupId dst_group, const ReplyFn& reply);
  void SendRenameCommit(const std::string& src);
  void HandleRenameCommit(const std::shared_ptr<const ShardControlMsg>& ctl,
                          const ReplyFn& reply);
  void FinishRename(const std::string& src, bool committed,
                    const Status& abort_status);

  /// Called on becoming active: re-drives whatever the journal says was in
  /// flight (outbound migrations roll forward past cutover or abort before
  /// it; inbound migrations arm the watchdog; rename intents re-send).
  void ResumeShardState();
  void ResetShardVolatileState();

  // --- checkpointing ----------------------------------------------------------
  void WriteCheckpoint();

  // --- helpers ---------------------------------------------------------------
  std::string JournalFile() const {
    return "g" + std::to_string(options_.group) + "/journal";
  }
  std::string ImageFile(SerialNumber sn) const;
  void BecomeRole(ServerState role);
  /// Drops the namespace and every journal position derived from it; the
  /// replica then renews from scratch as a junior.
  void DiscardNamespace();

  // --- immutable wiring ------------------------------------------------------
  MdsOptions options_;
  NodeId coord_;
  GroupDirectory* directory_;
  std::unique_ptr<coord::CoordClient> coord_client_;
  std::unique_ptr<storage::SspClient> ssp_;
  std::vector<NodeId> members_;
  Rng rng_;

  // --- role & view ----------------------------------------------------------
  ServerState role_ = ServerState::kDown;
  /// True when this (possibly deposed) server holds batches that were
  /// acknowledged locally but never made it to any standby or the SSP.
  bool dirty_ = false;
  coord::GroupView view_;
  FenceToken fence_ = 0;  ///< valid while this node holds the lock

  // --- namespace ----------------------------------------------------------
  fsns::Tree tree_;
  fsns::BlockMap blocks_;
  SerialNumber last_sn_ = 0;
  SerialNumber committed_sn_ = 0;
  SimTime cpu_free_at_ = 0;

  // --- active-side sync state ---------------------------------------------
  std::unique_ptr<journal::Writer> writer_;
  struct PendingSync {
    std::shared_ptr<const journal::Batch> batch;
    std::set<NodeId> awaiting;  ///< standbys not yet acked
    int acks = 0;               ///< successful standby replications
    bool ssp_done = false;
    bool ssp_ok = false;
    bool completed = false;
    SimTime begin = 0;
    obs::TraceRecorder::Span span;
  };
  std::map<SerialNumber, PendingSync> pending_sync_;
  /// Sealed batches past the pipeline window, in sn order, each with its
  /// serialized bytes; shipped FIFO as earlier syncs finalize. Part of the
  /// uncommitted window a deposed active must discard (StepDownFromActive).
  std::deque<std::pair<std::shared_ptr<const journal::Batch>,
                       std::vector<char>>>
      deferred_batches_;
  bool finalizing_syncs_ = false;  ///< re-entrancy guard
  std::map<TxId, std::vector<ReplyFn>> pending_replies_;
  std::set<NodeId> sync_targets_;  ///< peers included in 2PC
  std::deque<std::shared_ptr<const journal::Batch>> recent_batches_;
  static constexpr std::size_t kRecentBatchCap = 2048;
  int inflight_tx_ = 0;
  std::deque<std::pair<std::shared_ptr<const ClientRequestMsg>, ReplyFn>>
      tx_queue_;
  static constexpr int kTxWindow = 3;

  // --- standby-side intake ---------------------------------------------------
  std::map<SerialNumber, std::shared_ptr<const journal::Batch>>
      pending_batches_;
  bool backfill_inflight_ = false;

  // --- active-side client-cache leases ----------------------------------------
  /// Volatile grant table: leased directory -> holder node -> grant. Never
  /// persisted or replicated — a successor active starts lease-free, which
  /// is safe because no grant may outlive the granter's coordination
  /// session (see ClientLeaseOptions).
  struct LeaseGrant {
    std::uint64_t id = 0;
    SimTime expire_at = 0;
  };
  std::map<std::string, std::map<NodeId, LeaseGrant>> leases_;
  std::size_t lease_count_ = 0;
  std::uint64_t next_lease_id_ = 0;
  /// Mutation reply barriers: a conflicting mutation's client ack is held
  /// until every revoked holder acked (fast path) or the latest revoked
  /// grant expired (TTL backstop), so no client can observe the mutation
  /// complete while a stale cached copy is still servable somewhere.
  std::map<TxId, LeaseBarrier> lease_barriers_;
  /// Migration cutover barriers keyed by slot: SendActivate polls until
  /// the moved slot's revocations drain before the destination activates.
  std::map<std::uint32_t, LeaseBarrier> slot_lease_barriers_;

  // --- standby-side parked reads ---------------------------------------------
  /// Reads whose min_sn is slightly ahead of last_sn_, keyed by the sn they
  /// are waiting for; drained as batches apply, bounced on timeout or role
  /// change. Volatile: cleared on crash like every queue here.
  struct ParkedRead {
    std::shared_ptr<const ClientRequestMsg> req;
    ReplyFn reply;
    std::uint64_t token = 0;  ///< identifies the entry to its timeout timer
  };
  std::multimap<SerialNumber, ParkedRead> parked_reads_;
  std::uint64_t parked_token_seq_ = 0;

  // --- election/upgrade state -------------------------------------------------
  bool election_in_progress_ = false;
  bool upgrade_in_progress_ = false;
  /// First sn step 4 re-flushed; step 6 appends every cached batch from
  /// here on to the SSP before serving (the SSP rule).
  SerialNumber inherited_from_sn_ = 0;
  int join_retries_ = 0;  ///< feeds kJoinRetry backoff; reset on success
  std::deque<std::pair<std::shared_ptr<const ClientRequestMsg>, ReplyFn>>
      buffered_requests_;

  // --- renewing state ---------------------------------------------------------
  // Active side.
  NodeId renew_target_ = kInvalidNode;
  std::unique_ptr<sim::PeriodicTimer> renew_scan_timer_;
  // Junior side (volatile cursor; resumable across *active* failures).
  struct RenewCursor {
    bool running = false;
    std::string image_file;
    SerialNumber image_sn = 0;
    std::size_t image_next_index = 0;
    std::vector<char> image_bytes;
  };
  RenewCursor renew_;
  std::unique_ptr<sim::PeriodicTimer> renew_progress_timer_;

  // --- shard state -------------------------------------------------------------
  /// Current partition map. Empty on direct-server tests (no admission);
  /// clusters seed it via MdsOptions::partition_map and servers adopt newer
  /// maps from coordination-service publications and peer bounces.
  shard::PartitionMap map_;
  /// Volatile per-slot engine state on the *source* active. The durable
  /// truth (begun/cutover/ended/aborted) lives in the journal via the
  /// tree's ShardState; a drive only exists while this process is driving.
  struct MigrationDrive {
    TxId migration_id = 0;
    GroupId dst = 0;
    std::vector<std::vector<journal::LogRecord>> chunks;
    std::size_t next_chunk = 0;
    std::uint32_t next_seq = 0;
    bool capturing = false;  ///< record mutated slot paths into `dirty`
    bool fence = false;      ///< cutover: bounce writes for this slot
    std::set<std::string> dirty;
    MigrationStats stats;
  };
  std::map<std::uint32_t, MigrationDrive> drives_;
  /// Volatile side of a pending cross-group rename this active coordinates,
  /// keyed by source path (the durable intent is in the tree). Holds the
  /// client reply and the in-flight guard for the commit RPC.
  struct RenameDrive {
    ReplyFn reply;  ///< may be null after crash-resume (client already lost)
    bool inflight = false;
  };
  std::map<std::string, RenameDrive> rename_drives_;
  std::vector<MigrationStats> migration_stats_;

  // --- checkpoint state -------------------------------------------------------
  std::unique_ptr<sim::PeriodicTimer> checkpoint_timer_;
  std::optional<std::pair<std::string, SerialNumber>> latest_image_;

  Counters counters_;

  // --- observability ----------------------------------------------------------
  // Spans over the failover/renewing machinery; the step helpers keep one
  // span open per sequential stage, while buffer/switch spans overlap them.
  void StartStep(std::string step_name);
  void EndUpgradeSpans(bool ok);
  void StartRenewPhase(std::string phase);
  void EndRenewSpan(const char* outcome);

  obs::Observability* obs_;
  struct MetricHandles {
    obs::Counter* ops_served;
    obs::Counter* mutations;
    obs::Counter* reads;
    obs::Counter* batches_synced;
    obs::Counter* batches_applied;
    obs::Counter* duplicate_batches;
    obs::Counter* elections_won;
    obs::Counter* elections_lost;
    obs::Counter* renews_completed;
    obs::Counter* fenced_rejections;
    obs::Counter* buffered_during_upgrade;
    obs::Counter* resolve_cache_hits;
    obs::Counter* resolve_cache_misses;
    obs::Counter* resolve_cache_invalidations;
    obs::Counter* standby_reads_served;
    obs::Counter* standby_reads_parked;
    obs::Counter* standby_reads_bounced;
    obs::Counter* shard_bounces;
    obs::Counter* leases_granted;
    obs::Counter* leases_revoked;
    obs::Counter* lease_replies_held;
    obs::Counter* lease_barrier_expiries;
    obs::Counter* migrations_completed;
    obs::Counter* cross_group_renames;
    obs::Histogram* sync_batch_ns;
    obs::Histogram* batch_records;
    obs::Histogram* resolve_ns;
    obs::Histogram* standby_read_staleness_sn;
    obs::Gauge* last_sn;
  } m_{};
  /// Publishes the tree's cumulative resolve-cache stats into the metrics
  /// registry as deltas since the previous publish.
  void PublishCacheStats();
  fsns::ResolveCache::Stats cache_published_{};
  obs::TraceRecorder::Span election_span_;
  obs::TraceRecorder::Span switch_span_;
  obs::TraceRecorder::Span step_span_;
  obs::TraceRecorder::Span buffer_span_;
  obs::TraceRecorder::Span renew_span_;
  obs::TraceRecorder::Span renew_phase_span_;
  obs::TraceRecorder::Span checkpoint_span_;
};

}  // namespace mams::core
