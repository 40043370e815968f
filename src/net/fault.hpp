// FaultInjector — a unified fault-injection facade over net::Network and
// sim::Process, replacing the ad-hoc SetLinkUp/Partition/Crash snippets
// scattered through the tests.
//
// Every injected fault is tracked, and timed faults (CutLinkFor,
// JitterBurst) self-heal through epoch-guarded timers: a later fault on
// the same target supersedes the earlier restore, and HealEverything()
// wins over all pending restores. That makes a randomized schedule of
// overlapping faults safe to compose — the schedule fuzzer's whole fault
// palette goes through this class.
#pragma once

#include <map>

#include "net/network.hpp"
#include "sim/process.hpp"

namespace mams::net {

class FaultInjector {
 public:
  explicit FaultInjector(Network& network) : net_(network) {}

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  // --- link faults ----------------------------------------------------------

  /// "Unplug the wire": all traffic to/from `node` is dropped, including
  /// messages already in flight (paper Test B).
  void CutLink(NodeId node) {
    ++cut_epoch_[node];
    net_.SetLinkUp(node, false);
  }

  void RestoreLink(NodeId node) {
    ++cut_epoch_[node];
    net_.SetLinkUp(node, true);
  }

  /// Cuts the link now and restores it after `duration`, unless a later
  /// fault on the same node (or HealEverything) supersedes the restore.
  void CutLinkFor(NodeId node, SimTime duration) {
    CutLink(node);
    const std::uint64_t epoch = cut_epoch_[node];
    net_.sim().After(duration, [this, node, epoch] {
      if (cut_epoch_[node] == epoch) RestoreLink(node);
    });
  }

  // --- timing faults --------------------------------------------------------

  /// Raises delivery jitter by `extra` for `duration` (a congested-switch
  /// burst). Overlapping bursts: the newest wins, and its expiry clears
  /// the jitter.
  void JitterBurst(SimTime extra, SimTime duration) {
    ++jitter_epoch_;
    net_.set_extra_jitter(extra);
    const std::uint64_t epoch = jitter_epoch_;
    net_.sim().After(duration, [this, epoch] {
      if (jitter_epoch_ == epoch) {
        ++jitter_epoch_;
        net_.set_extra_jitter(0);
      }
    });
  }

  // --- process faults -------------------------------------------------------

  /// Crashes a process now and schedules its restart `downtime` later.
  /// (Process::Restart is incarnation-guarded, so this composes with other
  /// crash/restart faults on the same process.)
  static void CrashFor(sim::Process& process, SimTime downtime) {
    if (!process.alive()) return;
    process.Crash();
    process.Restart(downtime);
  }

  // --- global heal ----------------------------------------------------------

  /// Restores every link this injector cut and clears any jitter burst.
  /// Pending timed restores
  /// become no-ops. Does not restart crashed processes — the caller owns
  /// process lifecycles.
  void HealEverything() {
    for (auto& [node, epoch] : cut_epoch_) {
      ++epoch;
      net_.SetLinkUp(node, true);
    }
    ++jitter_epoch_;
    net_.set_extra_jitter(0);
  }

  Network& network() noexcept { return net_; }

 private:
  Network& net_;
  std::map<NodeId, std::uint64_t> cut_epoch_;
  std::uint64_t jitter_epoch_ = 0;
};

}  // namespace mams::net
