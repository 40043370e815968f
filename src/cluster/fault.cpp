#include "cluster/fault.hpp"

#include "shard/partition_map.hpp"

namespace mams::cluster {

namespace {

using Kind = Fault::Kind;
using Target = FaultKindInfo::Target;
using Param = FaultKindInfo::Param;

constexpr FaultKindInfo kKinds[] = {
    {Kind::kCrash, "crash", "crash", Target::kMember, Param::kNone, true,
     "Kills one member (kill -9); with `for`, restarts it that much later "
     "as a junior."},
    {Kind::kRestart, "restart", "restart", Target::kMember, Param::kNone,
     false,
     "Restarts a crashed member; it rejoins as a junior and is renewed."},
    {Kind::kCrashActive, "crash-active", "crash_active", Target::kGroup,
     Param::kNone, true,
     "Kills the group's current active (the paper's failover trigger); "
     "with `for`, restarts it that much later."},
    {Kind::kCrashPool, "crash-pool", "crash_pool", Target::kMember,
     Param::kNone, true,
     "Kills the pool (SSP) node co-hosted with member (group, member)."},
    {Kind::kRestartPool, "restart-pool", "restart_pool", Target::kMember,
     Param::kNone, false,
     "Restarts the co-hosted pool node killed by crash-pool."},
    {Kind::kUnplug, "unplug", "cut", Target::kMember, Param::kNone, true,
     "Pulls the member's network cable (paper Test B); in-flight messages "
     "are lost. With `for`, plugs it back in that much later."},
    {Kind::kReplug, "replug", "replug", Target::kMember, Param::kNone, false,
     "Plugs the cable back in."},
    {Kind::kForceLockRelease, "force-lock-release", "force_lock_release",
     Target::kGroup, Param::kNone, false,
     "Admin-releases the group lock (the paper's Test A injection)."},
    {Kind::kAddStandby, "add-standby", "add_standby", Target::kGroup,
     Param::kNone, false,
     "Grows the group by one standby via the membership API (joins as a "
     "junior, renewed by the active)."},
    {Kind::kRemoveStandby, "remove-standby", "remove_standby", Target::kGroup,
     Param::kNone, false,
     "Retires one drained standby via the membership API."},
    {Kind::kPromote, "promote", "promote", Target::kGroup, Param::kNone, false,
     "Nudges the active to renew a junior into a standby now."},
    {Kind::kSlowDisk, "slow-disk", "slow_disk", Target::kMember,
     Param::kFactor, true,
     "Gray failure: multiplies the co-hosted pool node's disk time "
     "(`off` restores it)."},
    {Kind::kAsymmetry, "asymmetry", "asymmetry", Target::kMember,
     Param::kDirection, true,
     "Directional link failure: kill only the member's receive half (in), "
     "its transmit half (out), or restore both (off)."},
    {Kind::kJitter, "jitter", "jitter", Target::kNone, Param::kJitter, true,
     "Adds delivery jitter to every non-loopback message (a congested "
     "switch) until `jitter 0` or the `for` window ends."},
    {Kind::kMigrate, "migrate", "migrate", Target::kSlot, Param::kNone, false,
     "Starts an online migration of a partition slot to the next group."},
};

constexpr bool RowsInKindOrder() {
  for (std::size_t i = 0; i < std::size(kKinds); ++i) {
    if (kKinds[i].kind != static_cast<Kind>(i)) return false;
  }
  return true;
}
static_assert(RowsInKindOrder(), "KindInfo indexes kKinds by Fault::Kind");

/// InvalidArgument unless 0 <= value < bound.
Status InRange(const Fault& f, const char* what, int value, int bound) {
  if (value >= 0 && value < bound) return Status::Ok();
  const char* command = kKinds[static_cast<std::size_t>(f.kind)].command;
  return Status::InvalidArgument(std::string(command) + ": " + what + " " +
                                 std::to_string(value) + " out of range [0, " +
                                 std::to_string(bound) + ")");
}

}  // namespace

std::span<const FaultKindInfo> FaultKinds() { return kKinds; }

const FaultKindInfo& KindInfo(Fault::Kind kind) {
  return kKinds[static_cast<std::size_t>(kind)];
}

std::string FaultUsage(const FaultKindInfo& info) {
  static constexpr const char* kTargetArgs[] = {"", " <group>",
                                                " <group> <member>", " <slot>"};
  static constexpr const char* kParamArgs[] = {"", " <extra>", " <factor|off>",
                                               " in|out|off"};
  return std::string(info.command) +
         kTargetArgs[static_cast<int>(info.target)] +
         kParamArgs[static_cast<int>(info.param)] +
         (info.timed ? " [for <duration>]" : "");
}

Status FaultExecutor::CheckGroup(const Fault& fault) const {
  return InRange(fault, "group", fault.group,
                 static_cast<int>(cfs_.config().groups));
}

Result<core::MdsServer*> FaultExecutor::Member(const Fault& fault) {
  if (Status s = CheckGroup(fault); !s.ok()) return s;
  const auto g = static_cast<GroupId>(fault.group);
  const int size = static_cast<int>(cfs_.group_size(g));
  if (Status s = InRange(fault, "member", fault.member, size); !s.ok()) {
    return s;
  }
  return &cfs_.mds(g, fault.member);
}

Result<int> FaultExecutor::PoolIndex(const Fault& fault) const {
  if (Status s = CheckGroup(fault); !s.ok()) return s;
  // One pool node per initially configured member, allocated group-major.
  const CfsConfig& cfg = cfs_.config();
  const int members = 1 + cfg.standbys_per_group + cfg.juniors_per_group;
  if (Status s = InRange(fault, "member", fault.member, members); !s.ok()) {
    return s;
  }
  return fault.group * members + fault.member;
}

void FaultExecutor::HealAfter(std::uint64_t& epoch, SimTime after,
                              std::function<void()> heal) {
  const std::uint64_t mine = ++epoch;
  if (after <= 0) return;
  cfs_.network().sim().After(after, [&epoch, mine, heal = std::move(heal)] {
    if (epoch == mine) heal();
  });
}

Result<std::string> FaultExecutor::Apply(const Fault& f) {
  net::Network& net = cfs_.network();
  const auto g = static_cast<GroupId>(f.group);
  switch (f.kind) {
    case Kind::kCrash:
    case Kind::kCrashActive: {
      core::MdsServer* victim = nullptr;
      if (f.kind == Kind::kCrash) {
        Result<core::MdsServer*> m = Member(f);
        if (!m.ok()) return m.status();
        victim = m.value();
      } else {
        if (Status s = CheckGroup(f); !s.ok()) return s;
        victim = cfs_.FindActive(g);
        if (victim == nullptr) {
          return Status::NotFound("group " + std::to_string(f.group) +
                                  " has no active");
        }
      }
      if (victim->alive()) {
        victim->Crash();
        if (f.duration > 0) victim->Restart(f.duration);
      }
      return victim->name();
    }
    case Kind::kRestart: {
      Result<core::MdsServer*> m = Member(f);
      if (!m.ok()) return m.status();
      m.value()->Restart();
      return m.value()->name();
    }
    case Kind::kCrashPool:
    case Kind::kRestartPool:
    case Kind::kSlowDisk: {
      Result<int> index = PoolIndex(f);
      if (!index.ok()) return index.status();
      storage::PoolNode& pool = cfs_.pool_node(index.value());
      if (f.kind == Kind::kRestartPool) {
        pool.Restart();
      } else if (f.kind == Kind::kSlowDisk) {
        pool.SetDiskSlowdown(static_cast<double>(f.param) / 1000.0);
        HealAfter(disk_epoch_[index.value()], f.duration,
                  [&pool] { pool.SetDiskSlowdown(1.0); });
      } else if (pool.alive()) {
        pool.Crash();
        if (f.duration > 0) pool.Restart(f.duration);
      }
      return pool.name();
    }
    case Kind::kUnplug:
    case Kind::kReplug:
    case Kind::kAsymmetry: {
      Result<core::MdsServer*> m = Member(f);
      if (!m.ok()) return m.status();
      const NodeId id = m.value()->id();
      if (f.kind == Kind::kAsymmetry) {
        const bool off = f.param == kAsymmetryOff;
        if (f.param != kAsymmetryIn) net.SetSendUp(id, off);
        if (f.param != kAsymmetryOut) net.SetRecvUp(id, off);
        HealAfter(asymmetry_epoch_[id], f.duration, [&net, id] {
          net.SetSendUp(id, true);
          net.SetRecvUp(id, true);
        });
      } else {
        net.SetLinkUp(id, f.kind == Kind::kReplug);
        HealAfter(unplug_epoch_[id], f.duration,
                  [&net, id] { net.SetLinkUp(id, true); });
      }
      return m.value()->name();
    }
    case Kind::kForceLockRelease:
    case Kind::kAddStandby:
    case Kind::kRemoveStandby:
    case Kind::kPromote: {
      if (Status s = CheckGroup(f); !s.ok()) return s;
      if (f.kind == Kind::kAddStandby) return cfs_.AddStandby(g).name();
      if (f.kind == Kind::kForceLockRelease) {
        cfs_.coord().frontend().AdminForceReleaseLock(g);
        return std::string();
      }
      const Status s = f.kind == Kind::kPromote ? cfs_.PromoteJunior(g)
                                                : cfs_.RemoveStandby(g);
      if (!s.ok()) return s;
      return std::string();
    }
    case Kind::kJitter:
      net.set_extra_jitter(f.param);
      HealAfter(jitter_epoch_, f.duration, [&net] { net.set_extra_jitter(0); });
      return std::string();
    case Kind::kMigrate: {
      if (Status s = InRange(
              f, "slot", f.member,
              static_cast<int>(shard::PartitionMap::kDefaultSlots));
          !s.ok()) {
        return s;
      }
      const Status s =
          cfs_.StartShardMigration(static_cast<std::uint32_t>(f.member));
      if (!s.ok()) return s;
      return std::string();
    }
  }
  return Status::InvalidArgument("unknown fault kind");
}

void FaultExecutor::HealAll() {
  net::Network& net = cfs_.network();
  for (auto& [id, epoch] : unplug_epoch_) {
    ++epoch;
    net.SetLinkUp(id, true);
  }
  for (auto& [id, epoch] : asymmetry_epoch_) {
    ++epoch;
    net.SetSendUp(id, true);
    net.SetRecvUp(id, true);
  }
  for (auto& [index, epoch] : disk_epoch_) {
    ++epoch;
    cfs_.pool_node(index).SetDiskSlowdown(1.0);
  }
  ++jitter_epoch_;
  net.set_extra_jitter(0);
  // Members(g) covers elastic additions and retirees too, not just the
  // configured membership.
  const CfsConfig& cfg = cfs_.config();
  for (GroupId g = 0; g < cfg.groups; ++g) {
    for (const auto& mi : cfs_.Members(g)) {
      if (!mi.server->alive()) mi.server->Restart(0);
    }
  }
  const int pool_nodes = static_cast<int>(cfg.groups) *
                         (1 + cfg.standbys_per_group + cfg.juniors_per_group);
  for (int i = 0; i < pool_nodes; ++i) {
    if (!cfs_.pool_node(i).alive()) cfs_.pool_node(i).Restart(0);
  }
}

}  // namespace mams::cluster
