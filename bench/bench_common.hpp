// Shared helpers for the experiment harness binaries. Each bench binary
// regenerates one table or figure from the paper (see EXPERIMENTS.md for
// the index and for paper-vs-measured numbers).
//
// Environment knobs (all optional):
//   MAMS_BENCH_SECONDS  — measured window per throughput run (default 6)
//   MAMS_BENCH_TRIALS   — trials per MTTR cell (default 10, like the paper)
//   MAMS_BENCH_SEED     — base RNG seed (default 42)
#pragma once

#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench_report.hpp"
#include "cluster/cfs.hpp"
#include "common/types.hpp"
#include "metrics/series.hpp"
#include "metrics/table.hpp"
#include "sim/simulator.hpp"
#include "workload/load_engine.hpp"

namespace mams::bench {

inline int BenchSeconds() { return EnvInt("MAMS_BENCH_SECONDS", 6); }
inline int BenchTrials() { return EnvInt("MAMS_BENCH_TRIALS", 10); }
inline std::uint64_t BenchSeed() {
  return static_cast<std::uint64_t>(EnvInt("MAMS_BENCH_SEED", 42));
}

/// Pre-populates `count` files (spread over `dirs` directories under
/// /bench) directly into a namespace tree — zero virtual time, used to
/// seed read/delete/rename workloads and to scale images.
inline std::vector<std::string> PreloadPaths(int count, int dirs = 64) {
  std::vector<std::string> paths;
  paths.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    paths.push_back("/bench/d" + std::to_string(i % dirs) + "/f" +
                    std::to_string(i));
  }
  return paths;
}

inline void PreloadTree(fsns::Tree& tree, const std::vector<std::string>& paths) {
  for (const auto& p : paths) {
    ClientOpId none{};
    (void)tree.Create(p, 3, 0, none);
  }
}

/// Per-directory numbering (/bench/dD/f0 … f{files_per_dir-1}) — the file
/// population the open-loop LoadEngine's read targets assume
/// (LoadEngineOptions::files_per_dir).
inline std::vector<std::string> PreloadPathsPerDir(int dirs,
                                                   int files_per_dir) {
  std::vector<std::string> paths;
  paths.reserve(static_cast<std::size_t>(dirs) *
                static_cast<std::size_t>(files_per_dir));
  for (int d = 0; d < dirs; ++d) {
    const std::string prefix = "/bench/d" + std::to_string(d) + "/f";
    for (int f = 0; f < files_per_dir; ++f) {
      paths.push_back(prefix + std::to_string(f));
    }
  }
  return paths;
}

/// One ClientApi per cluster client — the endpoint set a LoadEngine
/// round-robins its sessions over.
inline std::vector<workload::ClientApi> MakeApis(cluster::CfsCluster& cfs) {
  std::vector<workload::ClientApi> apis;
  apis.reserve(static_cast<std::size_t>(cfs.client_count()));
  for (int c = 0; c < cfs.client_count(); ++c) {
    apis.push_back(workload::MakeApi(cfs.client(c)));
  }
  return apis;
}

/// Steady-state throughput from an engine's rate series, skipping warmup
/// and the final (partial) bucket.
inline double SteadyThroughput(const metrics::RateSeries& rate,
                               std::size_t warmup_buckets = 2) {
  if (rate.bucket_count() <= warmup_buckets + 1) return 0.0;
  double sum = 0;
  std::size_t n = 0;
  for (std::size_t b = warmup_buckets; b + 1 < rate.bucket_count(); ++b) {
    sum += rate.RatePerSecond(b);
    ++n;
  }
  return n > 0 ? sum / static_cast<double>(n) : 0.0;
}

/// Paper scale: ~7 million files at a 1 GB image.
inline std::uint64_t FilesForImageMb(int mb) {
  return static_cast<std::uint64_t>(mb) * 7'000'000ull / 1024ull;
}
inline std::uint64_t BlocksForImageMb(int mb) {
  return FilesForImageMb(mb) * 11 / 10;  // ~1.1 blocks per file
}

/// "97.95% getfileinfo / 2% listdir / ..." for the non-zero shares of
/// `mix`, largest first — bench JSON labels come from the mix it runs.
inline std::string MixLabel(const workload::Mix& mix) {
  std::vector<std::pair<double, const char*>> shares = {
      {mix.create, "create"},           {mix.mkdir, "mkdir"},
      {mix.remove, "delete"},           {mix.rename, "rename"},
      {mix.getfileinfo, "getfileinfo"}, {mix.listdir, "listdir"},
      {mix.add_block, "addblock"}};
  std::stable_sort(shares.begin(), shares.end(),
                   [](const auto& a, const auto& b) {
                     return a.first > b.first;
                   });
  std::string label;
  for (const auto& [share, name] : shares) {
    if (share <= 0) continue;
    if (!label.empty()) label += " / ";
    char part[40];
    std::snprintf(part, sizeof(part), "%g%% %s", share * 100, name);
    label += part;
  }
  return label;
}

inline void PrintHeader(const char* title, const char* paper_ref) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title);
  std::printf("Reproduces: %s\n", paper_ref);
  std::printf("================================================================\n");
}

}  // namespace mams::bench
