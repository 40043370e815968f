// One benchmark trial: build a CfsCluster, build its namespace, drive it
// with workload::LoadEngine through a ClientApi wrapper this benchmark
// owns, and measure everything from outside the program — virtual time
// around each client call, wall time around Simulator::RunUntil and the
// client calls, and the public counters of the simulator, the clients and
// the metadata servers.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "stats.hpp"
#include "workload/opstream.hpp"

namespace mamsbench {

inline constexpr int kClosedLoopSessions = 128;
/// Ladder SLO: the read p99 a step must stay within.
inline constexpr double kSloReadP99Ms = 2.0;
/// Fault workloads: the first crash comes this far into the window, and
/// each victim restarts this long after its crash, rejoining as a junior.
inline constexpr double kFirstCrashS = 2.0;
inline constexpr double kRestartAfterS = 10.0;

struct WorkloadSpec {
  std::string name;

  // Cluster: 4 FsClients, 2 data servers, 3 standbys per group.
  int groups = 1;
  bool standby_reads = false;  ///< standby read offload (round-robin)
  bool client_cache = false;   ///< lease cache on clients, grants on actives

  // Load.
  bool closed_loop = false;  ///< kClosedLoopSessions sessions
  mams::workload::Mix mix;
  int dirs = 64;
  int files_per_dir = 16;
  /// Build the namespace with FsClient creates (through the journal)
  /// instead of loading every replica's tree directly.
  bool namespace_via_clients = false;
  /// Open loop: offered op rates, one ladder step each (a single entry is a
  /// fixed rate). Sessions of 4 ops arrive at rate/4.
  std::vector<double> ladder_ops_s;
  std::size_t nominal_step = 0;  ///< step whose window gives the headline
  double warmup_s = 0.5;         ///< virtual warm-up before measuring
  double step_s = 1.0;           ///< virtual length of each step / window

  /// Faults: crash the active `crash_cycles` times, `cycle_s` apart. Each
  /// victim restarts `restart_after_s` after its crash (0: it stays down).
  int crash_cycles = 0;
  double cycle_s = 20.0;
  double restart_after_s = kRestartAfterS;

  /// Trials (derived seeds) pooled into the virtual metrics of one run.
  int virtual_trials = 2;
};

const std::vector<WorkloadSpec>& Workloads();
const WorkloadSpec* FindWorkload(const std::string& name);

struct TrialOptions {
  bool trace = false;  ///< tracer on, spans folded, fsns/journal replay
  /// Multiplies every virtual window (self-tests run short trials).
  double scale = 1.0;
  /// Return right after the headline step (repeats that only re-measure
  /// the wall clock); the result then holds the headline fields only.
  bool headline_only = false;
  /// Return right after set-up; the result then holds setup_wall_s only.
  bool setup_only = false;
};

struct TrialResult {
  std::uint64_t digest = 0;
  std::vector<std::string> gate_failures;

  // Virtual clock. Latencies are of the ops due in the headline window.
  std::vector<double> read_ms;
  std::vector<double> write_ms;
  std::uint64_t headline_served = 0;
  double headline_virtual_s = 0;
  std::uint64_t attempted = 0;  ///< ops due in any measured step
  std::uint64_t failed = 0;     ///< failed, or unfinished after the drain
  std::uint64_t rejected = 0;   ///< served with NotFound / AlreadyExists
  std::vector<LadderStep> ladder;
  std::vector<double> crashes_s;
  std::vector<Completion> completions;  ///< fault workloads only
  double end_s = 0;

  /// Digest when the headline step ends; repeats at one seed must match.
  std::uint64_t headline_digest = 0;

  // Wall clock.
  double setup_wall_s = 0;
  double ops_per_wall_s = 0;  ///< ops served in the headline step / its wall
  double rss_mb = 0;          ///< process max RSS when the headline step ends
  double window_wall_s = 0;   ///< wall time of all measured steps
  std::uint64_t window_served = 0;

  /// Per-layer metrics by name (see the README beside this file).
  std::map<std::string, double> layer;
};

TrialResult RunTrial(const WorkloadSpec& spec, std::uint64_t seed,
                     const TrialOptions& options);

/// Seed of the i-th pooled trial of a run at `seed`.
std::uint64_t TrialSeed(std::uint64_t seed, int i);

}  // namespace mamsbench
