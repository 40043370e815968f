// ScheduleFuzzer — randomized op streams plus randomized fault schedules,
// executed against a full CfsCluster in the deterministic simulator, with
// every client observation recorded for the linearizability checker.
//
// A RunSpec is the complete, replayable description of one run: the seed,
// the per-client operation schedule (with think times), and the fault
// schedule at absolute virtual times. All randomness is consumed at
// GENERATION time (MakeSpec), so executing a spec is deterministic and a
// shrunk spec replays bit-for-bit — the property the .repro files and the
// shrinker rely on.
//
// Fault palette (all self-healing, symmetric), as cluster::Fault values
// applied through cluster::FaultExecutor:
//   * link flap of an MDS replica (unplug for a duration)
//   * crash/restart of an MDS replica or the current active
//   * storage-pool node loss (crash + restart)
//   * delivery-jitter burst (clock-independent queueing noise)
//   * shard migration of a slot (multi-group profiles)
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "check/checker.hpp"
#include "check/history.hpp"
#include "cluster/fault.hpp"
#include "common/types.hpp"
#include "workload/opstream.hpp"

namespace mams::check {

/// Which deliberately-broken server configuration to run (the checker's
/// mutation self-tests); kNone is the production configuration.
/// kIgnoreMinSn makes standbys serve reads regardless of the session
/// floor (it implies standby reads are enabled for the run).
/// kSkipCutoverFence knocks out the snapshot-delta guarantee the cutover
/// fence exists to close: the source never captures post-snapshot deltas
/// and keeps admitting writes through the cutover, so any mutation
/// accepted after the snapshot is acknowledged but vanishes when the
/// shard is erased — a lost-write the checker must catch.
/// kIgnoreApplyDeps replaces the batch dependency planner with a naive
/// single-wave reversal on every replica apply path: records that
/// conflict (two creates in one directory, delete-then-create) land in
/// the wrong order, so standby fingerprints drift from the active — the
/// replica-divergence audit must catch it.
/// kIgnoreLeaseRevoke makes the client cache drop lease-revocation pushes
/// on the floor (it still acks them, so mutation replies are not held
/// forever): a conflicting mutation's ack then races ahead of a cache
/// entry that keeps serving the old value until TTL expiry — the
/// checker's completed-mutation floor for cache-served reads must catch
/// it (it implies client caching is enabled for the run).
enum class Mutation : std::uint8_t {
  kNone,
  kNoSnDedup,
  kNoFencing,
  kIgnoreMinSn,
  kSkipCutoverFence,
  kIgnoreApplyDeps,
  kIgnoreLeaseRevoke,
};

const char* MutationName(Mutation m);
bool ParseMutation(const std::string& name, Mutation* out);

struct OpEntry {
  int client = 0;
  SimTime think = 0;  ///< delay after the client's previous completion
  workload::Op op;
};

struct RunSpec {
  std::uint64_t seed = 1;
  int clients = 2;
  /// Replica groups. With more than one, the cluster boots with a seeded
  /// partition map (shard::PartitionMap::Seed) and clients route by slot;
  /// migrate faults then move live shards between groups mid-run.
  int groups = 1;
  int standbys = 2;
  Mutation mutation = Mutation::kNone;
  /// Serve reads from standbys (session-consistent offload) and route the
  /// fuzz clients' reads round-robin over them. Audit reads always go to
  /// the active regardless.
  bool standby_reads = false;
  /// Enable the client-side lease-protected namespace cache: actives grant
  /// per-directory leases on reads and clients answer repeat reads locally
  /// while the lease lives. Audit reads bypass the cache (require_active).
  bool client_cache = false;
  /// Run an aggressive cluster::Autoscaler over the whole op/fault phase,
  /// so elastic membership (junior promotion, standby retirement, member
  /// reuse) interleaves with the fault schedule. Stopped at heal time so
  /// the audit sees a stable fleet.
  bool autoscale = false;
  SimTime warmup = 2 * kSecond;     ///< boot -> first op
  SimTime run_for = 30 * kSecond;   ///< op/fault phase -> heal
  SimTime quiesce = 45 * kSecond;   ///< heal -> audit reads
  /// Non-zero overrides the writer's aggregation window, so batches grow
  /// wide enough for intra-batch reordering to matter (the apply_race
  /// profile raises this; 0 keeps the production default).
  SimTime batch_delay = 0;
  /// Non-zero overrides MdsOptions::commit_pipeline_depth. Fuzz clients
  /// are closed-loop (at most `clients` mutations outstanding), so with
  /// the default window a flush slot is always free and every batch
  /// carries one record; a window narrower than the client count forces
  /// a backlog that group commit aggregates into multi-record batches.
  int pipeline_depth = 0;
  std::vector<OpEntry> ops;
  std::vector<cluster::Fault> faults;  ///< each applied at its `at`
};

/// Generation profile: how MakeSpec shapes a spec for a given seed.
struct FuzzProfile {
  int clients = 2;
  int ops_per_client = 40;
  int faults = 5;
  workload::Mix mix;   ///< zero-initialized: MakeSpec fills a default mix
  /// One client issues ops with multi-second think times — an
  /// infrequently-writing client holds a stale active cache across
  /// failovers, which is what exposes fencing bugs.
  bool slow_client = true;
  /// Longest link-flap outage; flaps longer than the 5 s session timeout
  /// depose the active while it keeps serving its last lease.
  SimTime max_outage = 12 * kSecond;
  /// Copied into RunSpec::standby_reads by MakeSpec.
  bool standby_reads = false;
  /// Copied into RunSpec::client_cache by MakeSpec.
  bool client_cache = false;
  /// Copied into RunSpec::autoscale by MakeSpec.
  bool autoscale = false;
  /// Copied into RunSpec::groups by MakeSpec.
  int groups = 1;
  /// Shard migrations to schedule as migrate faults (in addition to
  /// `faults`); ignored when groups == 1. A deterministic count — rather
  /// than a roll in the fault palette — guarantees every seed actually
  /// exercises migrations.
  int migrations = 0;
  /// All clients work one shared directory tree instead of disjoint
  /// per-client roots. Disjoint roots make every same-batch record pair
  /// conflict-free, which is exactly the case where the apply planner has
  /// nothing to order — a shared namespace is what makes intra-batch
  /// dependencies (and planner bugs) reachable.
  bool shared_namespace = false;
  /// Copied into RunSpec::batch_delay by MakeSpec (0 = writer default).
  SimTime batch_delay = 0;
  /// Copied into RunSpec::pipeline_depth by MakeSpec (0 = default).
  int pipeline_depth = 0;
  /// Clients issue ops with sub-10ms think times instead of 20-400ms.
  /// Group commit only aggregates records that arrive while the pipeline
  /// window is full — clients slower than a sync round produce
  /// single-record batches, which reordering cannot disturb. Hot clients
  /// outrun the sync rounds, so batches grow genuinely multi-record.
  bool hot_clients = false;
};

RunSpec MakeSpec(std::uint64_t seed, const FuzzProfile& profile = {});

struct RunResult {
  CheckResult check;
  std::vector<Violation> violations;  ///< check violations + divergence
  History history;
  std::uint64_t run_digest = 0;
  SimTime virtual_end = 0;

  bool violated() const noexcept { return !violations.empty(); }
};

/// Executes one spec end to end: boot, op/fault phase, heal, quiesce,
/// audit reads of every touched path, replica-divergence audit, history
/// check.
RunResult RunSpecOnce(const RunSpec& spec);

}  // namespace mams::check
