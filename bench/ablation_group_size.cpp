// Ablation — how many standbys per replica group?
//
// The paper's core claim is that MULTIPLE standbys (not one) are what make
// the metadata service survive multiple points of failure. This ablation
// sweeps the standby count and measures:
//
//   * failure-free mixed throughput (the cost of each extra standby),
//   * MTTR for a single active failure,
//   * survival of a double failure (active + one standby at once),
//   * survival of a triple failure.
#include <memory>

#include "bench_common.hpp"
#include "cluster/cfs.hpp"
#include "net/network.hpp"
#include "workload/load_engine.hpp"

namespace {

using namespace mams;
using workload::Mix;
using workload::OpKind;

struct Outcome {
  double throughput = 0;
  double mttr_single = -1;
  bool survived_double = false;
  bool survived_triple = false;
};

double MeasureThroughput(int standbys, std::uint64_t seed) {
  sim::Simulator sim(seed);
  net::Network net(sim);
  cluster::CfsConfig cfg;
  cfg.groups = 1;
  cfg.standbys_per_group = standbys;
  cfg.clients = 4;
  cfg.data_servers = 1;
  cluster::CfsCluster cfs(net, cfg);
  cfs.Start();
  sim.RunUntil(sim.Now() + kSecond);
  std::vector<std::unique_ptr<workload::LoadEngine>> engines;
  for (int c = 0; c < 4; ++c) {
    const auto opts = workload::LoadEngineOptions::Closed(8);
    engines.push_back(std::make_unique<workload::LoadEngine>(
        sim, workload::MakeApi(cfs.client(c)), Mix::Mixed(), seed * 3 + c,
        opts));
    engines.back()->Start();
  }
  sim.RunUntil(sim.Now() + bench::BenchSeconds() * kSecond);
  double total = 0;
  for (auto& d : engines) {
    d->Stop();
    total += bench::SteadyThroughput(d->rate());
  }
  return total;
}

/// Kills the active plus `extra_kills` standbys simultaneously; returns
/// MTTR seconds or -1 when the service never came back.
double FailureMttr(int standbys, int extra_kills, std::uint64_t seed) {
  sim::Simulator sim(seed);
  net::Network net(sim);
  cluster::CfsConfig cfg;
  cfg.groups = 1;
  cfg.standbys_per_group = standbys;
  cfg.clients = 2;
  cfg.data_servers = 1;
  cfg.client.max_attempts = 1;
  cfg.client.rpc_timeout = kSecond;
  cluster::CfsCluster cfs(net, cfg);
  cfs.Start();
  sim.RunUntil(sim.Now() + kSecond);

  workload::LoadEngine engine(sim, workload::MakeApi(cfs.client(0)),
                              Mix::Only(OpKind::kCreate), seed,
                              workload::LoadEngineOptions::Closed(2));
  engine.Start();
  sim.RunUntil(sim.Now() + 2 * kSecond);

  int kills = 0;
  if (auto* active = cfs.FindActive(0)) {
    active->Crash();
    ++kills;
  }
  for (std::size_t m = 0; m < cfs.group_size(0) && kills < 1 + extra_kills;
       ++m) {
    auto& mds = cfs.mds(0, static_cast<int>(m));
    if (mds.alive() && mds.role() == ServerState::kStandby) {
      mds.Crash();
      ++kills;
    }
  }

  const SimTime cap = sim.Now() + 120 * kSecond;
  while (!engine.mttr_probe().complete() && sim.Now() < cap) {
    sim.RunUntil(sim.Now() + 250 * kMillisecond);
  }
  engine.Stop();
  return engine.mttr_probe().complete()
             ? ToSeconds(engine.mttr_probe().mttr())
             : -1.0;
}

}  // namespace

int main() {
  bench::PrintHeader("ablation_group_size — standbys per replica group",
                     "design-choice ablation (Sections I, III.A)");

  metrics::Table table({"standbys", "mixed ops/s", "MTTR single (s)",
                        "MTTR double (s)", "MTTR triple (s)"});
  for (int standbys = 1; standbys <= 5; ++standbys) {
    const std::uint64_t seed = bench::BenchSeed() + standbys;
    const double tput = MeasureThroughput(standbys, seed);
    const double single = FailureMttr(standbys, 0, seed + 10);
    const double dbl = FailureMttr(standbys, 1, seed + 20);
    const double triple = FailureMttr(standbys, 2, seed + 30);
    auto fmt = [](double v) {
      return v < 0 ? std::string("UNAVAILABLE") : metrics::Table::Num(v, 2);
    };
    table.AddRow({std::to_string(standbys), metrics::Table::Num(tput, 0),
                  fmt(single), fmt(dbl), fmt(triple)});
    std::printf("  ... %d standbys done\n", standbys);
  }
  std::printf("\n");
  table.Print();
  std::printf(
      "\nReading: one standby (the classic primary/backup pair) dies with "
      "a double failure; two or more keep the group available, which is "
      "exactly the paper's argument for multiple standbys per active. Each "
      "extra standby costs a few percent of throughput (Figure 5).\n");
  return 0;
}
