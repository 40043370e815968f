// A guided tour of the three failure scenarios from the paper's Section
// IV.C (Table II): lock loss, network partition of multiple servers, and
// process restart — printing every group-view transition as it happens.
// Each injection is a cluster::Fault applied through the FaultExecutor.
// Exits non-zero if any invariant probe fires during a scenario.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "cluster/cfs.hpp"
#include "cluster/fault.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"

using namespace mams;
using Kind = cluster::Fault::Kind;

namespace {

/// Runs `inject` against a fresh 1A3S cluster and prints view changes.
void RunScenario(const char* title,
                 const std::function<void(sim::Simulator&,
                                          cluster::FaultExecutor&)>& inject) {
  std::printf("\n=== %s ===\n", title);
  sim::Simulator sim(7);
  net::Network network(sim);
  cluster::CfsConfig config;
  config.groups = 1;
  config.standbys_per_group = 3;
  config.clients = 1;
  config.data_servers = 1;
  cluster::CfsCluster cfs(network, config);
  cluster::FaultExecutor faults(cfs);
  cfs.Start();
  sim.RunUntil(sim.Now() + kSecond);

  inject(sim, faults);

  std::string last;
  const SimTime t0 = sim.Now();
  while (sim.Now() < t0 + 60 * kSecond) {
    sim.RunUntil(sim.Now() + 100 * kMillisecond);
    const auto& view = cfs.coord().frontend().PeekView(0);
    const std::string row = view.Row();
    if (row != last) {
      std::printf("  t=%6.1fs  [%s]  lock=%s\n", ToSeconds(sim.Now() - t0),
                  row.c_str(),
                  view.lock_holder == kInvalidNode ? "free" : "held");
      last = row;
    }
  }
  std::printf("  final: active=%s\n",
              cfs.FindActive(0) ? cfs.FindActive(0)->name().c_str() : "NONE");

  // The cluster's invariant probes ran on every view flip; a violation
  // here means the scenario produced split-brain or lost committed work.
  const auto& probes = sim.obs().probes();
  if (probes.violation_count() != 0) {
    for (const auto& v : probes.violations()) {
      std::fprintf(stderr, "  PROBE VIOLATION t=%.3fs %s: %s\n",
                   ToSeconds(v.at), v.probe.c_str(), v.detail.c_str());
    }
    std::exit(1);
  }
  std::printf("  probes: %llu evaluations, 0 violations\n",
              static_cast<unsigned long long>(probes.evaluations()));
}

}  // namespace

int main() {
  std::printf("Server states: A=active  S=standby  J=junior  -=down\n");

  RunScenario("Test A: the active loses the distributed lock",
              [](sim::Simulator& sim, cluster::FaultExecutor& faults) {
                sim.After(2 * kSecond, [&faults] {
                  std::printf("  >> forcing lock release (global view edit)\n");
                  (void)faults.Apply({.kind = Kind::kForceLockRelease});
                });
              });

  RunScenario("Test B: two servers lose their network, then re-plug",
              [](sim::Simulator& sim, cluster::FaultExecutor& faults) {
                sim.After(2 * kSecond, [&sim, &faults] {
                  std::printf("  >> unplugging active + one standby\n");
                  (void)faults.Apply({.kind = Kind::kUnplug, .member = 0});
                  (void)faults.Apply({.kind = Kind::kUnplug, .member = 1});
                  sim.After(20 * kSecond, [&faults] {
                    std::printf("  >> plugging both back\n");
                    (void)faults.Apply({.kind = Kind::kReplug, .member = 0});
                    (void)faults.Apply({.kind = Kind::kReplug, .member = 1});
                  });
                });
              });

  RunScenario("Test C: kill the active process, restart it later",
              [](sim::Simulator& sim, cluster::FaultExecutor& faults) {
                sim.After(2 * kSecond, [&faults] {
                  std::printf("  >> kill -9 the active\n");
                  // ops restarts it 15 s later
                  (void)faults.Apply(
                      {.kind = Kind::kCrashActive, .duration = 15 * kSecond});
                });
              });
  return 0;
}
