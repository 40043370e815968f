// One fault language. The checker's fuzzer and shrinker, the .repro format,
// the scenario DSL and the Table II drills (fig8, failover_tour) all
// describe a fault as a cluster::Fault and apply it through one
// FaultExecutor.
//
// The paper's Table II injects three classes: lose the lock
// (force-lock-release), unplug the wires (unplug/replug) and restart the
// processes (crash/restart). On top of those sit pool-node loss, gray
// failures (slow-disk, asymmetry, jitter), membership changes and shard
// migrations.
//
// FaultKinds() is the one kind table. For each kind it gives the name in
// the scenario language and in .repro files, how the kind addresses its
// target, and the help text the scenario runner's `help` prints. Adding a
// fault kind is one row there plus one case in FaultExecutor::Apply.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <string>

#include "cluster/cfs.hpp"

namespace mams::cluster {

struct Fault {
  enum class Kind : std::uint8_t {
    kCrash,
    kRestart,
    kCrashActive,
    kCrashPool,
    kRestartPool,
    kUnplug,
    kReplug,
    kForceLockRelease,
    kAddStandby,
    kRemoveStandby,
    kPromote,
    kSlowDisk,
    kAsymmetry,
    kJitter,
    kMigrate,
  };
  Kind kind = Kind::kCrash;
  /// When a schedule applies the fault (absolute virtual time). Apply
  /// itself always acts now.
  SimTime at = 0;
  int group = 0;
  /// Member index within the group (member and pool-node kinds), or the
  /// partition slot (kMigrate).
  int member = 0;
  /// Timed kinds heal after this long: the process restarts, the wire is
  /// replugged, the disk or link is restored, the burst ends. 0 = no heal.
  SimTime duration = 0;
  /// kJitter: extra delivery jitter. kSlowDisk: disk slowdown factor in
  /// thousandths (1000 = full speed). kAsymmetry: one of kAsymmetry*.
  SimTime param = 0;

  bool operator==(const Fault&) const = default;
};

/// kAsymmetry params: restore both halves, kill the receive half, or kill
/// the transmit half of the member's link.
inline constexpr SimTime kAsymmetryOff = 0;
inline constexpr SimTime kAsymmetryIn = 1;
inline constexpr SimTime kAsymmetryOut = 2;

/// One row of the kind table.
struct FaultKindInfo {
  /// How the kind's (group, member) fields address its target. Pool-node
  /// kinds address the pool node co-hosted with a member (kMember).
  enum class Target : std::uint8_t { kNone, kGroup, kMember, kSlot };
  /// What `param` holds, and how the scenario form spells it.
  enum class Param : std::uint8_t { kNone, kJitter, kFactor, kDirection };

  Fault::Kind kind;
  const char* command;  ///< scenario-language name
  const char* repro;    ///< .repro v1 name
  Target target;
  Param param;
  bool timed;  ///< accepts a duration (scenario form `for <duration>`)
  const char* help;
};

/// Every fault kind, in Fault::Kind order.
std::span<const FaultKindInfo> FaultKinds();
const FaultKindInfo& KindInfo(Fault::Kind kind);
/// The scenario-language synopsis, e.g. "crash <group> <member> [for <d>]".
std::string FaultUsage(const FaultKindInfo& info);

/// Applies faults to one cluster. Timed heals are epoch-guarded: a later
/// fault on the same wire, link half, disk or jitter knob supersedes an
/// earlier pending heal, and HealAll supersedes them all. Process restarts
/// need no epoch; sim::Process::Restart is incarnation-guarded.
class FaultExecutor {
 public:
  explicit FaultExecutor(CfsCluster& cfs) : cfs_(cfs) {}

  FaultExecutor(const FaultExecutor&) = delete;
  FaultExecutor& operator=(const FaultExecutor&) = delete;

  /// Applies `fault` now. Returns the name of what it acted on (empty for
  /// cluster-wide kinds). InvalidArgument means the address is outside
  /// the cluster; any other error means the cluster refused the fault
  /// (no active to crash, no junior to promote, migration refused).
  Result<std::string> Apply(const Fault& fault);

  /// Ends every fault: wires and link halves restored, jitter and disk
  /// slowdowns cleared, every crashed or retired member and every crashed
  /// pool node restarted. Pending timed heals become no-ops.
  void HealAll();

 private:
  Status CheckGroup(const Fault& fault) const;
  Result<core::MdsServer*> Member(const Fault& fault);
  /// Index of the pool node co-hosted with (group, member).
  Result<int> PoolIndex(const Fault& fault) const;
  /// Bumps `epoch`, superseding any pending heal on it, and when `after`
  /// is positive runs `heal` then unless the epoch has moved on.
  void HealAfter(std::uint64_t& epoch, SimTime after,
                 std::function<void()> heal);

  CfsCluster& cfs_;
  std::map<NodeId, std::uint64_t> unplug_epoch_;
  std::map<NodeId, std::uint64_t> asymmetry_epoch_;
  std::map<int, std::uint64_t> disk_epoch_;  ///< by pool-node index
  std::uint64_t jitter_epoch_ = 0;
};

}  // namespace mams::cluster
