// Ablation — SSP-in-commit-path vs direct-only journal synchronization.
//
// The paper credits the SSP ("built on existing active or backup servers,
// needs no additional device") for cheap state synchronization and for
// junior catch-up without burdening the active. This ablation compares:
//
//   (a) MAMS as specified: a batch completes when every standby acked AND
//       the SSP copy is durable;
//   (b) direct-only: batches complete on standby acks alone; the SSP copy
//       is written asynchronously (off the commit path).
//
// Measured: failure-free mixed throughput, and the renewing time of a
// freshly restarted junior (which in (b) can lag the SSP and must lean on
// the active's direct backfill).
#include <memory>

#include "bench_common.hpp"
#include "cluster/cfs.hpp"
#include "net/network.hpp"
#include "workload/load_engine.hpp"

namespace {

using namespace mams;
using workload::Mix;

double Throughput(bool ssp_in_commit_path, std::uint64_t seed) {
  sim::Simulator sim(seed);
  net::Network net(sim);
  cluster::CfsConfig cfg;
  cfg.groups = 1;
  cfg.standbys_per_group = 3;
  cfg.clients = 4;
  cfg.data_servers = 2;
  cfg.mds.ssp_in_commit_path = ssp_in_commit_path;
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

double RenewTime(bool ssp_in_commit_path, std::uint64_t seed) {
  sim::Simulator sim(seed);
  net::Network net(sim);
  cluster::CfsConfig cfg;
  cfg.groups = 1;
  cfg.standbys_per_group = 3;
  cfg.clients = 2;
  cfg.data_servers = 1;
  cfg.mds.ssp_in_commit_path = ssp_in_commit_path;
  cluster::CfsCluster cfs(net, cfg);
  cfs.Start();
  sim.RunUntil(sim.Now() + kSecond);

  // Build up some journal history.
  workload::LoadEngine engine(sim, workload::MakeApi(cfs.client(0)),
                              Mix::Only(workload::OpKind::kCreate), seed,
                              workload::LoadEngineOptions::Closed(4));
  engine.Start();
  sim.RunUntil(sim.Now() + 5 * kSecond);

  // Restart a standby: it rejoins as a junior and must be renewed.
  auto& victim = cfs.mds(0, 2);
  victim.Crash();
  victim.Restart(500 * kMillisecond);
  const SimTime down_at = sim.Now();
  const SimTime cap = sim.Now() + 300 * kSecond;
  while (victim.role() != ServerState::kStandby && sim.Now() < cap) {
    sim.RunUntil(sim.Now() + 250 * kMillisecond);
  }
  engine.Stop();
  return ToSeconds(sim.Now() - down_at);
}

}  // namespace

int main() {
  bench::PrintHeader(
      "ablation_ssp_vs_direct — SSP in vs off the journal commit path",
      "design-choice ablation (DESIGN.md; paper Section III.A)");

  const std::uint64_t seed = bench::BenchSeed();
  metrics::Table table(
      {"variant", "mixed ops/s", "junior renew time (s)"});
  table.AddRow({"MAMS (SSP in commit path)",
                metrics::Table::Num(Throughput(true, seed), 0),
                metrics::Table::Num(RenewTime(true, seed), 1)});
  table.AddRow({"direct-only (SSP async)",
                metrics::Table::Num(Throughput(false, seed), 0),
                metrics::Table::Num(RenewTime(false, seed), 1)});
  std::printf("\n");
  table.Print();
  std::printf(
      "\nReading: taking the SSP off the commit path buys a little "
      "throughput but the SSP may lag, so junior catch-up depends on the "
      "active's direct backfill — and a failover while every standby is "
      "demoted could lose acked batches (the step-4 SSP drain would miss "
      "them). MAMS keeps it in the path.\n");
  return 0;
}
