// Tunables for a MAMS metadata server. Defaults mirror the paper's
// testbed (Section IV): 2 s heartbeats, 5 s session timeout, aggregated
// asynchronous journaling, SSP-backed synchronization. Values that no
// configuration varies (RPC policies, retry delays, chunk sizes, park and
// lease bounds) are constants in mds_server.cpp / mds_shard.cpp.
#pragma once

#include "common/types.hpp"
#include "journal/writer.hpp"
#include "shard/partition_map.hpp"

namespace mams::core {

struct OpCosts {
  // Pure CPU service time per operation at the metadata server, before
  // journaling/synchronization. Calibrated so a single server sustains on
  // the order of 10^4 metadata ops/s, as HDFS-class namenodes do.
  SimTime create = 45 * kMicrosecond;
  SimTime mkdir = 55 * kMicrosecond;
  SimTime remove = 60 * kMicrosecond;
  SimTime rename = 70 * kMicrosecond;
  SimTime getfileinfo = 18 * kMicrosecond;
  SimTime listdir = 30 * kMicrosecond;
  SimTime add_block = 30 * kMicrosecond;
  SimTime tx_participant = 25 * kMicrosecond;  ///< cross-group prepare leg
  SimTime block_report_per_1k = 150 * kMicrosecond;
  /// Journal replication fan-out: per-sync-target CPU on the active
  /// (serialize + checksum + send) — base charge plus streaming rate.
  SimTime sync_cpu_base = 25 * kMicrosecond;
  double sync_bytes_per_sec = 500.0e6;
};

/// Deliberate-fault switches for the checker's mutation self-tests
/// (tests/check_test.cpp): each hook disables one safety mechanism so the
/// history checker can prove it would catch that mechanism's absence.
/// Production configurations never set these.
struct TestHooks {
  /// Skip the standby-side "sn must exceed current maximum" duplicate
  /// check and re-apply replayed batches, as if the serial-number
  /// suppression of Section III.C did not exist.
  bool disable_sn_dedup = false;
  /// Skip the fence-token comparison on journal intake, as if IO fencing
  /// did not exist: a deposed active's replication traffic is accepted.
  bool disable_fencing = false;
  /// Standby serves reads regardless of the request's min_sn session floor,
  /// as if the session-consistency token did not exist: a lagging standby
  /// hands out stale state the client already wrote past.
  bool ignore_min_sn = false;
  /// Shard migration runs its cutover without the write fence (and without
  /// capturing the writes as deltas), as if the unavailability window did
  /// not exist: writes the source accepts during cutover never reach the
  /// destination and vanish when the slot is dropped.
  bool skip_cutover_fence = false;
  /// Replay journal batches through the parallel-apply machinery but with
  /// a single reversed wave instead of the dependency plan, as if the
  /// conflict graph did not exist: dependent records apply before the
  /// records they depend on, so standby replicas drop creates into missing
  /// parents and scramble parent mtimes — divergence the checker's replica
  /// audit (and any post-failover read) must flag.
  bool ignore_apply_deps = false;
  /// Client keeps serving a revoked directory lease until its TTL (it still
  /// acks the revocation, so conflicting mutations complete normally), as
  /// if the revocation push did not exist: cache hits return pre-mutation
  /// state after the mutation's ack. The harness mirrors this flag into
  /// FsClientOptions::cache.ignore_revoke — the faulty behaviour lives on
  /// the client; this switch keeps all self-test knobs in one place.
  bool ignore_lease_revoke = false;
};

/// Standby read offload (session-consistent reads against hot standbys).
struct StandbyReadOptions {
  /// Master switch: standbys answer GetFileInfo/ListDir instead of
  /// bouncing every client request to the active. The park bounds (gap
  /// 64 batches, 64 reads, 500 ms wait) are constants in mds_server.cpp.
  bool serve_reads = false;
};

/// Per-directory client cache leases issued by the active (off by default).
/// TTLs are absolute virtual-time deadlines, so expiry is deterministic and
/// needs no clock-skew margin; what the margin must cover instead is
/// failover: a lease may never outlive its granter's coordination session,
/// or a successor active (which starts lease-free) could commit conflicting
/// mutations while a client still trusts its cache. Grants are therefore
/// issued only while `now + ttl <= last confirmed session contact +
/// coord::kSessionTimeout`, and the ttl (2 s, kLeaseTtl in mds_server.cpp,
/// as is the 4096-grant cap) must stay below that timeout (5 s) for the
/// window to ever be open; a static_assert there checks it.
struct ClientLeaseOptions {
  /// Master switch: active-served GetFileInfo/ListDir replies carry a
  /// directory lease for the read's parent (stat) or target (listdir).
  bool grant_leases = false;
};

struct MdsOptions {
  GroupId group = 0;

  /// Seed namespace partition map (slot -> group routing truth at cluster
  /// birth). Servers adopt newer maps published through the coordination
  /// service; requests for slots the group does not own bounce with the
  /// server's current map attached.
  shard::PartitionMap partition_map;

  // Namespace resolution.
  /// Entries in the tree's LRU path->inode resolution cache; 0 disables
  /// (the cache-off ablation measured by bench/micro_namespace). Keep it
  /// above the hot path set — an undersized LRU thrashes.
  std::size_t resolve_cache_capacity = 65536;

  // Coordination (paper Section IV.B).
  SimTime heartbeat_interval = 2 * kSecond;

  // Journal synchronization.
  journal::Writer::Options writer;

  /// Group-commit pipeline window: sealed batches the active keeps in
  /// flight through the 2PC at once. 1 reproduces the original
  /// stop-and-wait behaviour (flush only when no sync is pending); higher
  /// values stream batch N+1 while batch N's acks are outstanding.
  /// Completion stays sn-ordered regardless — a batch finalizes (replies,
  /// committed_sn) only once every earlier batch has — so the loss prefix
  /// on failover remains closed, and the window is drained wholesale on
  /// view change/fence.
  std::size_t commit_pipeline_depth = 4;

  /// When true (MAMS as specified) a batch completes only after the SSP
  /// copy is durable; false writes the SSP copy asynchronously (the
  /// ablation_ssp_vs_direct variant).
  bool ssp_in_commit_path = true;

  // Renewing protocol (Section III.D).
  SimTime renew_scan_period = 1 * kSecond;
  SerialNumber image_gap_threshold = 512;  ///< batches behind -> image first

  // Checkpointing.
  SimTime checkpoint_interval = 30 * kSecond;
  /// Multiplies the real serialized image size in the timing model, letting
  /// benches emulate the paper's multi-GB images without materializing
  /// millions of inodes (EXPERIMENTS.md, "image scaling"). 1 = honest.
  double image_inflation = 1.0;

  OpCosts costs;

  /// Session-consistent read offload to standbys (off by default; the
  /// paper's active serves all client traffic).
  StandbyReadOptions standby_reads;

  /// Client-cache directory leases (off by default).
  ClientLeaseOptions client_leases;

  /// Deliberate-fault switches for checker self-tests; see TestHooks.
  TestHooks test_hooks;
};

}  // namespace mams::core
