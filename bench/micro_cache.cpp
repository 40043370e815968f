// micro_cache — read throughput with the client-side lease-protected
// namespace cache, against standby read offload at equal fan-in.
//
// A single replica group under a skewed read-dominant workload (repeat
// stats of a small hot file set, with a trickle of creates and addblocks
// so leases are continuously revoked and re-granted). Three configs at
// identical closed-loop fan-in:
//   * active-only   — every read lands on the active
//   * offload       — session-consistent standby read offload
//   * cache         — the lease-protected client cache (active routing:
//                     only the active grants leases; repeat reads under a
//                     live lease never leave the client)
// The cache rows must clear 2x the offload-only rows — locally-served
// hits cost a cache lookup, not a network round trip — and the run then
// proves the hits were honest: every sampled path is read once through
// the cache and once with require_active (the active's authoritative
// answer) and the two views must be identical.
//
// Emits BENCH_cache.json (override the path with MAMS_BENCH_OUT). Exits
// nonzero when the speedup, hit-rate, or cached==uncached assertions
// fail, so CI can gate on it.
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

constexpr int kHotDirs = 16;
constexpr int kFilesPerDir = 4;  // 64 hot files — one per session
constexpr int kClients = 4;
constexpr int kSessions = 64;  ///< total closed-loop fan-in, all configs
constexpr int kStandbys = 3;

Mix HotReadMix() {
  // Repeat stats dominate; a thin trickle of creates and addblocks keeps
  // revocations (and session sn tokens) moving so the cache is exercised
  // under churn, not in a mutation-free vacuum. The trickle must stay
  // thin: every acked mutation anywhere in the group raises applied_sn,
  // and the next miss on any client lifts its session token past every
  // older cached entry — session consistency makes mutations group-wide
  // cache flushes, so hundreds per second is already heavy churn.
  Mix mix;
  mix.getfileinfo = 0.9795;
  mix.listdir = 0.02;
  mix.create = 0.0002;
  mix.add_block = 0.0003;
  return mix;
}

enum class Config { kActiveOnly, kOffload, kCache };

struct RunStats {
  double ops_per_sec = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_revocations = 0;
  double hit_rate = 0;
  bool equivalent = true;      ///< cache-served == require_active views
  std::uint64_t sampled_hits = 0;  ///< equivalence reads served from cache
};

/// One synchronous GetFileInfo through `client`.
Result<fsns::FileInfo> StatSync(sim::Simulator& sim,
                                cluster::FsClient& client,
                                const std::string& path, bool require_active) {
  Result<fsns::FileInfo> out = Status::TimedOut("no reply");
  bool done = false;
  client.GetFileInfo(
      path,
      [&](Result<fsns::FileInfo> r) {
        out = std::move(r);
        done = true;
      },
      cluster::ReadOptions{.require_active = require_active});
  const SimTime deadline = sim.Now() + 30 * kSecond;
  while (!done && sim.Now() < deadline && sim.Step()) {
  }
  return out;
}

RunStats RunOnce(Config config, std::uint64_t seed) {
  sim::Simulator sim(seed);
  net::Network net(sim);
  cluster::CfsConfig cfg;
  cfg.groups = 1;
  cfg.standbys_per_group = kStandbys;
  cfg.clients = kClients;
  cfg.data_servers = 2;
  if (config == Config::kOffload) {
    cfg.mds.standby_reads.serve_reads = true;
    cfg.client.read_routing = cluster::ReadRouting::kRoundRobinStandby;
  }
  if (config == Config::kCache) {
    // Leases are granted by the active only (the node that serializes the
    // conflicting mutations), so the cache config keeps active routing:
    // misses go to the active and come back lease-protected, hits never
    // leave the client. The cache substitutes for offload, not on top.
    cfg.mds.client_leases.grant_leases = true;
    cfg.client.cache.enabled = true;
  }
  cluster::CfsCluster cfs(net, cfg);
  cfs.Start();
  sim.RunUntil(sim.Now() + kSecond);

  auto paths = bench::PreloadPathsPerDir(kHotDirs, kFilesPerDir);
  cfs.PreloadGroup(0, [&paths](fsns::Tree& tree) {
    bench::PreloadTree(tree, paths);
  });

  workload::LoadEngineOptions opts;
  opts.loop = workload::LoadEngineOptions::Loop::kClosed;
  opts.sessions = kSessions;
  opts.seed_files = &paths;
  workload::LoadEngine engine(sim, bench::MakeApis(cfs), HotReadMix(),
                              seed * 7 + 1, opts);
  engine.Start();
  sim.RunUntil(sim.Now() + BenchSeconds() * kSecond);
  engine.Stop();
  sim.RunUntil(sim.Now() + kSecond);  // drain in-flight ops

  RunStats stats;
  stats.ops_per_sec = bench::SteadyThroughput(engine.rate());
  for (int c = 0; c < kClients; ++c) {
    const auto& cc = cfs.client(c).counters();
    stats.cache_hits += cc.cache_hits;
    stats.cache_misses += cc.cache_misses;
    stats.cache_revocations += cc.cache_revocations;
  }
  const std::uint64_t looked = stats.cache_hits + stats.cache_misses;
  stats.hit_rate = looked > 0
                       ? static_cast<double>(stats.cache_hits) /
                             static_cast<double>(looked)
                       : 0.0;

  // cached == uncached: with the workload quiesced, read every hot path
  // twice through the normal path (the second is a cache hit under a
  // fresh lease) and once with require_active; the locally-served view
  // and the active's authoritative view must agree exactly.
  if (config == Config::kCache) {
    cluster::FsClient& client = cfs.client(0);
    for (const std::string& p : paths) {
      (void)StatSync(sim, client, p, false);  // populate
      const Result<fsns::FileInfo> cached = StatSync(sim, client, p, false);
      if (client.last_stamp().via_cache) ++stats.sampled_hits;
      const Result<fsns::FileInfo> truth = StatSync(sim, client, p, true);
      if (!cached.ok() || !truth.ok() ||
          cached.value().is_dir != truth.value().is_dir ||
          cached.value().block_count != truth.value().block_count ||
          cached.value().replication != truth.value().replication ||
          cached.value().complete != truth.value().complete) {
        std::fprintf(stderr, "cached view of %s diverges from active\n",
                     p.c_str());
        stats.equivalent = false;
      }
    }
  }
  return stats;
}

}  // namespace

int main() {
  bench::PrintHeader(
      "micro_cache — lease-protected client cache vs standby offload",
      "client-side namespace caching under directory leases");

  const RunStats base = RunOnce(Config::kActiveOnly, BenchSeed());
  const RunStats off = RunOnce(Config::kOffload, BenchSeed());
  const RunStats cache = RunOnce(Config::kCache, BenchSeed());

  metrics::Table table({"config", "op/s", "hits", "misses", "revoked",
                        "hit rate"});
  table.AddRow({"active-only", std::to_string(base.ops_per_sec), "-", "-",
                "-", "-"});
  table.AddRow({"offload", std::to_string(off.ops_per_sec), "-", "-", "-",
                "-"});
  table.AddRow({"cache", std::to_string(cache.ops_per_sec),
                std::to_string(cache.cache_hits),
                std::to_string(cache.cache_misses),
                std::to_string(cache.cache_revocations),
                std::to_string(cache.hit_rate)});
  table.Print();

  const double vs_offload =
      off.ops_per_sec > 0 ? cache.ops_per_sec / off.ops_per_sec : 0.0;
  const double vs_active =
      base.ops_per_sec > 0 ? cache.ops_per_sec / base.ops_per_sec : 0.0;
  std::printf("\ncache speedup: %.2fx vs offload, %.2fx vs active-only\n",
              vs_offload, vs_active);
  std::printf("equivalence sample: %llu/%d cache-served, %s\n",
              static_cast<unsigned long long>(cache.sampled_hits),
              kHotDirs * kFilesPerDir,
              cache.equivalent ? "all views identical" : "DIVERGED");

  using bench::Json;
  if (bench::WriteReport(
          "BENCH_cache.json",
          Json::Object().Set(
              "cache",
              Json::Object()
                  .Set("mix", bench::MixLabel(HotReadMix()))
                  .Set("sessions", kSessions)
                  .Set("standbys", kStandbys)
                  .Set("active_only_ops_per_sec",
                       Json::Num(base.ops_per_sec, 1))
                  .Set("offload_ops_per_sec", Json::Num(off.ops_per_sec, 1))
                  .Set("cache_ops_per_sec", Json::Num(cache.ops_per_sec, 1))
                  .Set("speedup_cache_vs_offload", Json::Num(vs_offload, 3))
                  .Set("speedup_cache_vs_active_only", Json::Num(vs_active, 3))
                  .Set("hit_rate", Json::Num(cache.hit_rate, 4))
                  .Set("revocations", cache.cache_revocations)
                  .Set("equivalence_ok", cache.equivalent))) != 0) {
    return 1;
  }

  // Gate: the cache must actually pay for itself and must never lie.
  if (!cache.equivalent) {
    std::fprintf(stderr, "FAIL: cached views diverged from the active\n");
    return 1;
  }
  if (cache.sampled_hits == 0) {
    std::fprintf(stderr, "FAIL: equivalence sample never hit the cache\n");
    return 1;
  }
  if (vs_offload < 2.0) {
    std::fprintf(stderr, "FAIL: cache speedup %.2fx < 2x over offload\n",
                 vs_offload);
    return 1;
  }
  if (cache.hit_rate < 0.5) {
    std::fprintf(stderr, "FAIL: hit rate %.2f < 0.5\n", cache.hit_rate);
    return 1;
  }
  return 0;
}
