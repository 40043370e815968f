// micro_reads — read throughput scaling with session-consistent standby
// read offload.
//
// A single replica group under a read-heavy workload (90% getfileinfo,
// 5% listdir, 5% create — the creates keep every session's sn token
// moving, so the standbys must continuously prove they are at the floor).
// Sweeps standby count with read routing kActiveOnly (every read lands on
// the active) vs kRoundRobinStandby (reads fan out over the standbys):
// offload should scale read throughput with the standby count while the
// active-only rows stay flat.
//
// Emits BENCH_reads.json (override the path with MAMS_BENCH_OUT).
//
// Environment knobs:
//   MAMS_BENCH_SECONDS — measured window per run (default 6)
//   MAMS_BENCH_SEED    — base RNG seed (default 42)
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "metrics/table.hpp"
#include "net/network.hpp"
#include "workload/client_api.hpp"

namespace {

using namespace mams;
using bench::BenchSeconds;
using bench::BenchSeed;
using workload::Mix;

constexpr int kPreloadFiles = 60'000;
constexpr int kClients = 4;
constexpr int kSessionsPerClient = 16;

Mix ReadHeavyMix() {
  Mix mix;
  mix.getfileinfo = 0.90;
  mix.listdir = 0.05;
  mix.create = 0.05;
  return mix;
}

struct RunStats {
  double ops_per_sec = 0;
  std::uint64_t reads_offloaded = 0;
  std::uint64_t read_bounces = 0;
  std::uint64_t standby_reads_served = 0;
  std::uint64_t standby_reads_parked = 0;
};

RunStats RunOnce(int standbys, bool offload, std::uint64_t seed) {
  sim::Simulator sim(seed);
  net::Network net(sim);
  cluster::CfsConfig cfg;
  cfg.groups = 1;
  cfg.standbys_per_group = standbys;
  cfg.clients = kClients;
  cfg.data_servers = 2;
  cfg.mds.standby_reads.serve_reads = offload;
  if (offload) {
    cfg.client.read_routing = cluster::ReadRouting::kRoundRobinStandby;
  }
  cluster::CfsCluster cfs(net, cfg);
  cfs.Start();
  sim.RunUntil(sim.Now() + kSecond);

  auto paths = bench::PreloadPaths(kPreloadFiles);
  cfs.PreloadGroup(0, [&paths](fsns::Tree& tree) {
    bench::PreloadTree(tree, paths);
  });

  std::vector<std::unique_ptr<workload::LoadEngine>> engines;
  for (int c = 0; c < kClients; ++c) {
    const auto opts =
        workload::LoadEngineOptions::Closed(kSessionsPerClient, &paths);
    engines.push_back(std::make_unique<workload::LoadEngine>(
        sim, workload::MakeApi(cfs.client(c)), ReadHeavyMix(), seed * 7 + c,
        opts));
    engines.back()->Start();
  }
  sim.RunUntil(sim.Now() + BenchSeconds() * kSecond);

  RunStats stats;
  for (auto& d : engines) {
    d->Stop();
    stats.ops_per_sec += bench::SteadyThroughput(d->rate());
  }
  for (int c = 0; c < kClients; ++c) {
    const auto& cc = cfs.client(c).counters();
    stats.reads_offloaded += cc.reads_offloaded;
    stats.read_bounces += cc.read_bounces;
  }
  for (std::size_t m = 0; m < cfs.group_size(0); ++m) {
    const auto& mc = cfs.mds(0, static_cast<int>(m)).counters();
    stats.standby_reads_served += mc.standby_reads_served;
    stats.standby_reads_parked += mc.standby_reads_parked;
  }
  return stats;
}

}  // namespace

int main() {
  bench::PrintHeader(
      "micro_reads — read throughput vs standby count, offload on/off",
      "standby read offload (session consistency), Section III");

  const int kStandbys[] = {1, 2, 3};
  metrics::Table table({"standbys", "active-only op/s", "offload op/s",
                        "offloaded", "served", "bounced"});
  double active_only[4] = {};
  double offload[4] = {};
  for (const int s : kStandbys) {
    const RunStats base = RunOnce(s, /*offload=*/false, BenchSeed());
    const RunStats off = RunOnce(s, /*offload=*/true, BenchSeed());
    active_only[s] = base.ops_per_sec;
    offload[s] = off.ops_per_sec;
    table.AddRow({std::to_string(s), std::to_string(base.ops_per_sec),
                  std::to_string(off.ops_per_sec),
                  std::to_string(off.reads_offloaded),
                  std::to_string(off.standby_reads_served),
                  std::to_string(off.read_bounces)});
  }
  table.Print();

  const double speedup_3s = active_only[3] > 0
                                ? offload[3] / active_only[3]
                                : 0.0;
  const double scaling_3s_vs_1s =
      offload[1] > 0 ? offload[3] / offload[1] : 0.0;
  std::printf("\noffload speedup at 3 standbys: %.2fx (vs active-only)\n",
              speedup_3s);
  std::printf("offload scaling 3 standbys vs 1: %.2fx\n", scaling_3s_vs_1s);

  using bench::Json;
  auto by_standbys = [](const double (&ops)[4]) {
    return Json::Object()
        .Set("1", Json::Num(ops[1], 1))
        .Set("2", Json::Num(ops[2], 1))
        .Set("3", Json::Num(ops[3], 1));
  };
  return bench::WriteReport(
      "BENCH_reads.json",
      Json::Object().Set(
          "reads",
          Json::Object()
              .Set("mix", bench::MixLabel(ReadHeavyMix()))
              .Set("clients", kClients)
              .Set("sessions_per_client", kSessionsPerClient)
              .Set("active_only_ops_per_sec", by_standbys(active_only))
              .Set("offload_ops_per_sec", by_standbys(offload))
              .Set("speedup_offload_vs_active_only_3s",
                   Json::Num(speedup_3s, 3))
              .Set("scaling_offload_3s_vs_1s",
                   Json::Num(scaling_3s_vs_1s, 3))));
}
