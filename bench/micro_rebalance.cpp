// micro_rebalance — online shard migration: throughput, cutover window,
// and client-visible resolve latency.
//
// Two replica groups behind a seeded partition map. Group 0 is preloaded
// with a file population, then a series of slots is migrated live to
// group 1. For every migration the source active records MigrationStats;
// from those this bench reports:
//   * migration throughput (namespace entries moved per virtual second)
//   * the cutover unavailability window per migration (fence raised ->
//     new map published; writes to the slot stall only inside it)
//   * client stat latency before the migrations, immediately after (the
//     first read pays one map bounce + retry), and once settled
//
// Emits BENCH_rebalance.json (override the path with MAMS_BENCH_OUT).
//
// Environment knobs:
//   MAMS_BENCH_SEED — base RNG seed (default 42)
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "metrics/table.hpp"
#include "net/network.hpp"
#include "shard/partition_map.hpp"

namespace {

using namespace mams;
using bench::BenchSeed;

constexpr int kPreloadFiles = 6'000;
constexpr int kMigrations = 6;
constexpr int kLatencyProbes = 24;

/// Average round-trip of a client stat over the first `n` paths, in ms of
/// virtual time (closed loop, includes any bounce/retry the client pays).
double AvgStatLatencyMs(sim::Simulator& sim, cluster::CfsCluster& cfs,
                        const std::vector<std::string>& paths, int n) {
  double total = 0;
  int measured = 0;
  for (int i = 0; i < n && i < static_cast<int>(paths.size()); ++i) {
    const SimTime t0 = sim.Now();
    bool done = false;
    cfs.client(0).GetFileInfo(paths[static_cast<std::size_t>(i)],
                              [&done](Result<fsns::FileInfo>) { done = true; });
    while (!done) sim.RunUntil(sim.Now() + kMillisecond);
    total += static_cast<double>(sim.Now() - t0) /
             static_cast<double>(kMillisecond);
    ++measured;
  }
  return measured > 0 ? total / measured : 0.0;
}

}  // namespace

int main() {
  bench::PrintHeader(
      "micro_rebalance — live shard migration between replica groups",
      "online namespace repartitioning (shard subsystem)");

  sim::Simulator sim(BenchSeed());
  net::Network net(sim);
  cluster::CfsConfig cfg;
  cfg.groups = 2;
  cfg.standbys_per_group = 2;
  cfg.clients = 1;
  cfg.data_servers = 1;
  cfg.mds.partition_map = shard::PartitionMap::Seed(2);
  cluster::CfsCluster cfs(net, cfg);
  cfs.Start();
  sim.RunUntil(sim.Now() + 2 * kSecond);

  // Preload group 0 with its share of the namespace (only paths the seeded
  // map routes to group 0 — the rest would be unreachable dead weight).
  const shard::PartitionMap map = shard::PartitionMap::Seed(2);
  std::vector<std::string> paths;
  for (const std::string& p : bench::PreloadPaths(kPreloadFiles)) {
    if (map.OwnerOf(p) == 0) paths.push_back(p);
  }
  cfs.PreloadGroup(0, [&paths](fsns::Tree& tree) {
    bench::PreloadTree(tree, paths);
  });

  const double pre_ms = AvgStatLatencyMs(sim, cfs, paths, kLatencyProbes);

  // Migrate the slots holding the probe paths, one at a time (the engine
  // serializes per-slot anyway; sequential keeps the stats attributable).
  core::MdsServer* active = cfs.FindActive(0);
  if (active == nullptr) {
    std::fprintf(stderr, "no settled active in group 0\n");
    return 1;
  }
  std::vector<std::uint32_t> slots;
  for (const std::string& p : paths) {
    const std::uint32_t s = map.SlotOf(p);
    bool seen = false;
    for (const std::uint32_t have : slots) seen = seen || have == s;
    if (!seen) slots.push_back(s);
    if (static_cast<int>(slots.size()) == kMigrations) break;
  }
  const SimTime migrate_begin = sim.Now();
  for (const std::uint32_t slot : slots) {
    const Status st = cfs.StartShardMigration(slot);
    if (!st.ok()) {
      std::fprintf(stderr, "migration of slot %u refused: %s\n", slot,
                   st.ToString().c_str());
      return 1;
    }
    int guard = 200;
    while (active->partition_map().OwnerOfSlot(slot) == 0 && guard-- > 0) {
      sim.RunUntil(sim.Now() + 100 * kMillisecond);
    }
    if (guard <= 0) {
      std::fprintf(stderr, "migration of slot %u did not complete\n", slot);
      return 1;
    }
  }
  const double migrate_seconds =
      static_cast<double>(sim.Now() - migrate_begin) /
      static_cast<double>(kSecond);

  // First reads after the epoch bump pay the bounce; later ones are settled.
  const double post_ms = AvgStatLatencyMs(sim, cfs, paths, kLatencyProbes);
  const double settled_ms = AvgStatLatencyMs(sim, cfs, paths, kLatencyProbes);

  std::uint64_t entries = 0;
  std::uint64_t chunks = 0;
  double cutover_sum_ms = 0;
  double cutover_max_ms = 0;
  metrics::Table table(
      {"slot", "entries", "chunks", "migrate ms", "cutover ms"});
  for (const auto& s : active->migration_stats()) {
    if (s.aborted) continue;
    entries += s.entries;
    chunks += s.chunks;
    const double total_ms = static_cast<double>(s.end_time - s.begin_time) /
                            static_cast<double>(kMillisecond);
    const double cutover_ms =
        static_cast<double>(s.publish_time - s.fence_time) /
        static_cast<double>(kMillisecond);
    cutover_sum_ms += cutover_ms;
    cutover_max_ms = cutover_ms > cutover_max_ms ? cutover_ms : cutover_max_ms;
    table.AddRow({std::to_string(s.slot), std::to_string(s.entries),
                  std::to_string(s.chunks), std::to_string(total_ms),
                  std::to_string(cutover_ms)});
  }
  table.Print();

  const std::size_t completed = active->migration_stats().size();
  const double entries_per_sec =
      migrate_seconds > 0 ? static_cast<double>(entries) / migrate_seconds
                          : 0.0;
  const double cutover_mean_ms =
      completed > 0 ? cutover_sum_ms / static_cast<double>(completed) : 0.0;
  std::printf("\n%zu migrations, %llu entries in %.3f s (%.0f entries/s)\n",
              completed, static_cast<unsigned long long>(entries),
              migrate_seconds, entries_per_sec);
  std::printf("cutover window: mean %.2f ms, max %.2f ms\n", cutover_mean_ms,
              cutover_max_ms);
  std::printf("stat latency: pre %.2f ms, post-migration %.2f ms, settled "
              "%.2f ms (client bounces: %llu)\n",
              pre_ms, post_ms, settled_ms,
              static_cast<unsigned long long>(
                  cfs.client(0).counters().shard_bounces));

  using bench::Json;
  return bench::WriteReport(
      "BENCH_rebalance.json",
      Json::Object().Set(
          "rebalance",
          Json::Object()
              .Set("preload_files", paths.size())
              .Set("migrations", completed)
              .Set("entries_moved", entries)
              .Set("chunks", chunks)
              .Set("migrate_seconds", Json::Num(migrate_seconds, 3))
              .Set("entries_per_sec", Json::Num(entries_per_sec, 1))
              .Set("cutover_unavail_ms_mean", Json::Num(cutover_mean_ms, 3))
              .Set("cutover_unavail_ms_max", Json::Num(cutover_max_ms, 3))
              .Set("stat_latency_ms_pre", Json::Num(pre_ms, 3))
              .Set("stat_latency_ms_post", Json::Num(post_ms, 3))
              .Set("stat_latency_ms_settled", Json::Num(settled_ms, 3))
              .Set("client_shard_bounces",
                   cfs.client(0).counters().shard_bounces)));
}
