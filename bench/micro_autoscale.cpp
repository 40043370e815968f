// micro_autoscale — elastic standby fleet vs a static one under a flash
// crowd.
//
// One replica group serving a pure-stat read load (getfileinfo cost
// raised to 200us, so a single replica tops out near 5k reads/s) with
// session-consistent standby offload. An open-loop flash crowd arrives:
// a modest base rate, then a 20 s burst at many times the single-standby
// capacity. Two configs:
//   * static   — 1 standby, fixed for the whole run (the paper's MAMS-xAyS
//                sizing, provisioned for the base load)
//   * elastic  — the same boot, plus a cluster::Autoscaler (min 1, max 4)
//                that may promote the spare junior and admit new members
//                as burst pressure builds
// The figure of merit is read throughput inside the burst window. The
// static group is capacity-bound at one standby; the elastic group grows
// through the junior->renewing->standby path mid-burst and must clear
// 1.5x the static burst-window throughput (in practice ~2x: the early
// burst seconds are spent detecting the breach and catching members up).
//
// Emits BENCH_autoscale.json (override with MAMS_BENCH_OUT). Exits
// nonzero when the elastic fleet fails the 1.5x gate, never scaled up,
// or ended the run outside [min,max] — so CI can gate on it.
//
// Environment knobs:
//   MAMS_BENCH_SEED — base RNG seed (default 42)
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "cluster/autoscaler.hpp"
#include "metrics/table.hpp"
#include "net/network.hpp"

namespace {

using namespace mams;

constexpr int kDirs = 16;
constexpr int kFilesPerDir = 4;
constexpr int kClients = 4;
constexpr double kBaseRate = 800.0;    ///< arrivals/s before the burst
constexpr double kBurstMult = 15.0;    ///< burst = 12k/s, ~2.4x one standby
constexpr double kBurstStart = 5.0;    ///< absolute virtual seconds
constexpr double kBurstLen = 20.0;

struct RunStats {
  double burst_ops_per_sec = 0;  ///< completed reads/s inside the burst
  double p99_ms = 0;             ///< whole-run read latency p99
  std::uint64_t failed = 0;
  int standbys_end = 0;
  std::uint64_t scale_ups = 0;
  std::uint64_t scale_downs = 0;
};

RunStats RunOnce(bool elastic, std::uint64_t seed) {
  sim::Simulator sim(seed);
  net::Network net(sim);
  cluster::CfsConfig cfg;
  cfg.groups = 1;
  cfg.standbys_per_group = 1;
  cfg.juniors_per_group = 1;  // the elastic fleet's cheap first promotion
  cfg.clients = kClients;
  cfg.data_servers = 2;
  // Raise the stat cost so one replica saturates near 5k reads/s — the
  // burst has to exceed a machine, not just a timer.
  cfg.mds.costs.getfileinfo = 200 * kMicrosecond;
  cfg.mds.standby_reads.serve_reads = true;
  cfg.client.read_routing = cluster::ReadRouting::kRoundRobinStandby;
  cluster::CfsCluster cfs(net, cfg);
  cfs.Start();
  sim.RunUntil(sim.Now() + kSecond);

  auto paths = bench::PreloadPathsPerDir(kDirs, kFilesPerDir);
  cfs.PreloadGroup(0, [&paths](fsns::Tree& tree) {
    bench::PreloadTree(tree, paths);
  });

  std::unique_ptr<cluster::Autoscaler> scaler;
  if (elastic) {
    cluster::AutoscalerOptions aopts;
    aopts.evaluate_period = 250 * kMillisecond;
    aopts.min_standbys = 1;
    aopts.max_standbys = 4;
    // Slightly under the true per-replica ceiling so utilization breaches
    // before the standby is fully wedged.
    aopts.reads_per_standby_capacity = 4000.0;
    aopts.scale_up_utilization = 0.7;
    aopts.scale_down_utilization = 0.05;
    aopts.breach_ticks = 2;
    aopts.cooldown = kSecond;
    scaler = std::make_unique<cluster::Autoscaler>(cfs, aopts);
    scaler->Start();
  }

  workload::Mix mix;
  mix.getfileinfo = 1.0;
  workload::LoadEngineOptions opts;
  opts.loop = workload::LoadEngineOptions::Loop::kOpen;
  opts.arrival = workload::ArrivalCurve::FlashCrowd(kBaseRate, kBurstStart,
                                                    kBurstLen, kBurstMult);
  opts.ops_per_session = 4;
  opts.directories = kDirs;
  opts.files_per_dir = kFilesPerDir;
  workload::LoadEngine engine(sim, bench::MakeApis(cfs), mix, seed * 7 + 1,
                              opts);
  engine.Start();

  // Burst times are absolute virtual seconds; measure completed reads
  // strictly inside the window.
  sim.RunUntil(static_cast<SimTime>(kBurstStart * kSecond));
  const std::uint64_t before = engine.completed();
  sim.RunUntil(static_cast<SimTime>((kBurstStart + kBurstLen) * kSecond));
  const std::uint64_t during = engine.completed() - before;
  engine.Stop();
  sim.RunUntil(sim.Now() + 2 * kSecond);  // drain in-flight reads
  if (scaler != nullptr) scaler->Stop();

  RunStats stats;
  stats.burst_ops_per_sec = static_cast<double>(during) / kBurstLen;
  stats.p99_ms = ToMillis(engine.latencies().Quantile(0.99));
  stats.failed = engine.failed();
  stats.standbys_end = cfs.CountRole(0, ServerState::kStandby);
  if (scaler != nullptr) {
    stats.scale_ups = scaler->stats().scale_ups;
    stats.scale_downs = scaler->stats().scale_downs;
  }
  return stats;
}

}  // namespace

int main() {
  bench::PrintHeader(
      "micro_autoscale — elastic standby fleet vs static under flash crowd",
      "cluster::Autoscaler burst absorption (min 1 / max 4 standbys)");

  const RunStats fixed = RunOnce(/*elastic=*/false, bench::BenchSeed());
  const RunStats elastic = RunOnce(/*elastic=*/true, bench::BenchSeed());

  metrics::Table table({"config", "burst op/s", "p99 ms", "failed",
                        "standbys@end", "ups", "downs"});
  table.AddRow({"static", std::to_string(fixed.burst_ops_per_sec),
                std::to_string(fixed.p99_ms), std::to_string(fixed.failed),
                std::to_string(fixed.standbys_end), "-", "-"});
  table.AddRow({"elastic", std::to_string(elastic.burst_ops_per_sec),
                std::to_string(elastic.p99_ms),
                std::to_string(elastic.failed),
                std::to_string(elastic.standbys_end),
                std::to_string(elastic.scale_ups),
                std::to_string(elastic.scale_downs)});
  table.Print();

  const double speedup = fixed.burst_ops_per_sec > 0
                             ? elastic.burst_ops_per_sec /
                                   fixed.burst_ops_per_sec
                             : 0.0;
  std::printf("\nelastic burst capacity: %.2fx static\n", speedup);

  using bench::Json;
  if (bench::WriteReport(
          "BENCH_autoscale.json",
          Json::Object().Set(
              "autoscale",
              Json::Object()
                  .Set("base_rate", Json::Num(kBaseRate, 0))
                  .Set("burst_rate", Json::Num(kBaseRate * kBurstMult, 0))
                  .Set("burst_seconds", Json::Num(kBurstLen, 0))
                  .Set("static_burst_ops_per_sec",
                       Json::Num(fixed.burst_ops_per_sec, 1))
                  .Set("elastic_burst_ops_per_sec",
                       Json::Num(elastic.burst_ops_per_sec, 1))
                  .Set("speedup_elastic_vs_static", Json::Num(speedup, 3))
                  .Set("static_p99_ms", Json::Num(fixed.p99_ms, 2))
                  .Set("elastic_p99_ms", Json::Num(elastic.p99_ms, 2))
                  .Set("elastic_scale_ups", elastic.scale_ups)
                  .Set("elastic_scale_downs", elastic.scale_downs)
                  .Set("elastic_standbys_end", elastic.standbys_end))) != 0) {
    return 1;
  }

  // Gate: elasticity must buy real burst capacity through the ordinary
  // catch-up path, and the controller must respect its bounds.
  if (elastic.scale_ups == 0) {
    std::fprintf(stderr, "FAIL: the autoscaler never scaled up\n");
    return 1;
  }
  if (elastic.standbys_end < 1 || elastic.standbys_end > 4) {
    std::fprintf(stderr, "FAIL: %d standbys at end, outside [1,4]\n",
                 elastic.standbys_end);
    return 1;
  }
  if (speedup < 1.5) {
    std::fprintf(stderr,
                 "FAIL: elastic burst capacity %.2fx static, need 1.5x\n",
                 speedup);
    return 1;
  }
  return 0;
}
