// micro_namespace — namespace hot-path microbenchmark (resolve / create /
// list / rename), measuring the fsns::Tree directly with wall-clock time
// (no simulator in the loop). Seeds the bench trajectory for the
// resolution-cache work: the headline number is resolve throughput with
// the LRU path cache on vs off vs the seed-style sorted-map walk.
//
// Emits BENCH_namespace.json (override the path with MAMS_BENCH_OUT) and a
// human-readable summary on stdout.
//
// Environment knobs:
//   MAMS_NS_DEPTH         — directory depth of the namespace (default 8)
//   MAMS_NS_DIRS          — leaf directories (default 64)
//   MAMS_NS_FILES_PER_DIR — files per leaf directory (default 256)
//   MAMS_NS_RESOLVE_OPS   — resolve ops per mode (default 2,000,000)
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_report.hpp"
#include "common/rng.hpp"
#include "fsns/path.hpp"
#include "fsns/tree.hpp"

namespace {

using mams::bench::EnvInt;
using mams::bench::Json;
using mams::bench::WallSeconds;
using mams::fsns::Inode;
using mams::fsns::Tree;

/// Builds the deep namespace and returns every file path. Layout:
/// /bench/p0/p1/.../p{depth-3}/d{k}/f{i} — `depth` directory levels
/// between the root and each file.
std::vector<std::string> BuildPaths(int depth, int dirs, int files_per_dir) {
  std::string spine = "/bench";
  for (int level = 0; level + 2 < depth; ++level) {
    spine += "/p" + std::to_string(level);
  }
  std::vector<std::string> paths;
  paths.reserve(static_cast<std::size_t>(dirs) *
                static_cast<std::size_t>(files_per_dir));
  for (int k = 0; k < dirs; ++k) {
    const std::string dir = spine + "/d" + std::to_string(k);
    for (int i = 0; i < files_per_dir; ++i) {
      paths.push_back(dir + "/f" + std::to_string(i));
    }
  }
  return paths;
}

void Populate(Tree& tree, const std::vector<std::string>& paths) {
  for (const auto& p : paths) {
    mams::ClientOpId none{};
    if (!tree.Create(p, 3, 0, none).ok()) {
      std::fprintf(stderr, "populate failed at %s\n", p.c_str());
      std::exit(1);
    }
  }
}

/// Replicates the seed's Tree::Resolve: SplitPath vector + sorted
/// std::map lookups keyed by a freshly allocated std::string per
/// component. The baseline the cache speedup is measured against.
const Inode* LegacyResolve(const Tree& tree, std::string_view path) {
  const Inode* cur = tree.inode(mams::kRootInode);
  for (std::string_view comp : mams::fsns::SplitPath(path)) {
    if (cur == nullptr || !cur->is_dir) return nullptr;
    auto it = cur->children.find(std::string(comp));
    if (it == cur->children.end()) return nullptr;
    cur = tree.inode(it->second);
  }
  return cur;
}

struct Throughput {
  double ops_per_sec = 0;
  std::uint64_t checksum = 0;  ///< defeats dead-code elimination
};

template <typename Fn>
Throughput Measure(std::uint64_t ops, Fn&& op) {
  Throughput t;
  const double begin = WallSeconds();
  for (std::uint64_t i = 0; i < ops; ++i) t.checksum += op(i);
  const double elapsed = WallSeconds() - begin;
  t.ops_per_sec = elapsed > 0 ? static_cast<double>(ops) / elapsed : 0;
  return t;
}

}  // namespace

int main() {
  const int depth = EnvInt("MAMS_NS_DEPTH", 8);
  const int dirs = EnvInt("MAMS_NS_DIRS", 64);
  const int files_per_dir = EnvInt("MAMS_NS_FILES_PER_DIR", 256);
  const auto resolve_ops = static_cast<std::uint64_t>(
      EnvInt("MAMS_NS_RESOLVE_OPS", 2'000'000));
  const std::vector<std::string> paths = BuildPaths(depth, dirs, files_per_dir);

  std::printf("micro_namespace: depth=%d dirs=%d files=%zu resolve_ops=%" PRIu64
              "\n",
              depth, dirs, paths.size(), resolve_ops);

  // Pre-shuffled lookup order (deterministic), shared by every resolve mode.
  std::vector<std::uint32_t> order(paths.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    order[i] = static_cast<std::uint32_t>(i);
  }
  mams::Rng rng(42);
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.Below(i)]);
  }
  auto pick = [&](std::uint64_t i) -> const std::string& {
    return paths[order[i % order.size()]];
  };

  // --- create ---------------------------------------------------------------
  Tree tree;
  double create_ops_per_sec = 0;
  {
    const double begin = WallSeconds();
    Populate(tree, paths);
    const double elapsed = WallSeconds() - begin;
    create_ops_per_sec =
        elapsed > 0 ? static_cast<double>(paths.size()) / elapsed : 0;
  }

  // --- resolve: cache on / cache off / seed-style walk ----------------------
  auto resolve_once = [&](std::uint64_t i) -> std::uint64_t {
    const Inode* node = tree.FindInode(pick(i));
    return node != nullptr ? node->id : 0;
  };
  tree.SetResolveCacheCapacity(mams::fsns::ResolveCache::kDefaultCapacity);
  const Throughput warm = Measure(resolve_ops / 10 + 1, resolve_once);
  const Throughput cache_on = Measure(resolve_ops, resolve_once);
  const auto cache_stats = tree.resolve_cache().stats();
  tree.SetResolveCacheCapacity(0);
  const Throughput cache_off = Measure(resolve_ops, resolve_once);
  const Throughput legacy = Measure(resolve_ops, [&](std::uint64_t i) {
    const Inode* node = LegacyResolve(tree, pick(i));
    return node != nullptr ? node->id : std::uint64_t{0};
  });
  tree.SetResolveCacheCapacity(mams::fsns::ResolveCache::kDefaultCapacity);

  // --- list -----------------------------------------------------------------
  std::vector<std::string> leaf_dirs;
  leaf_dirs.reserve(static_cast<std::size_t>(dirs));
  for (const auto& p : paths) {
    const std::string parent = mams::fsns::ParentPath(p);
    if (leaf_dirs.empty() || leaf_dirs.back() != parent) {
      leaf_dirs.push_back(parent);
    }
  }
  const Throughput list = Measure(
      static_cast<std::uint64_t>(leaf_dirs.size()) * 16, [&](std::uint64_t i) {
        auto names = tree.ListDir(leaf_dirs[i % leaf_dirs.size()]);
        return names.ok() ? names.value().size() : 0;
      });

  // --- rename ---------------------------------------------------------------
  const auto rename_ops =
      std::min<std::uint64_t>(paths.size(), 4096);
  std::uint64_t rename_seq = 0;
  const Throughput rename = Measure(rename_ops, [&](std::uint64_t i) {
    mams::ClientOpId none{};
    const std::string& src = paths[i];
    const std::string dst =
        mams::fsns::ParentPath(src) + "/r" + std::to_string(rename_seq++);
    auto r = tree.Rename(src, dst, 1, none);
    if (r.ok()) (void)tree.Rename(dst, src, 2, none);  // restore
    return r.ok() ? std::uint64_t{1} : std::uint64_t{0};
  });

  const double speedup_vs_off =
      cache_off.ops_per_sec > 0 ? cache_on.ops_per_sec / cache_off.ops_per_sec
                                : 0;
  const double speedup_vs_legacy =
      legacy.ops_per_sec > 0 ? cache_on.ops_per_sec / legacy.ops_per_sec : 0;

  std::printf("  create:            %12.0f ops/s\n", create_ops_per_sec);
  std::printf("  resolve cache-on:  %12.0f ops/s (checksum %" PRIu64 ")\n",
              cache_on.ops_per_sec, cache_on.checksum + warm.checksum);
  std::printf("  resolve cache-off: %12.0f ops/s\n", cache_off.ops_per_sec);
  std::printf("  resolve seed-walk: %12.0f ops/s (checksum %" PRIu64 ")\n",
              legacy.ops_per_sec, legacy.checksum);
  std::printf("  listdir:           %12.0f ops/s\n", list.ops_per_sec);
  std::printf("  rename:            %12.0f ops/s\n", rename.ops_per_sec);
  std::printf("  speedup cache-on vs cache-off: %.2fx\n", speedup_vs_off);
  std::printf("  speedup cache-on vs seed walk: %.2fx\n", speedup_vs_legacy);
  std::printf("  cache: hits=%" PRIu64 " misses=%" PRIu64
              " invalidations=%" PRIu64 "\n",
              cache_stats.hits, cache_stats.misses, cache_stats.invalidations);

  return mams::bench::WriteReport(
      "BENCH_namespace.json",
      Json::Object()
          .Set("bench", "micro_namespace")
          .Set("namespace", Json::Object()
                                .Set("depth", depth)
                                .Set("leaf_dirs", dirs)
                                .Set("files", paths.size()))
          .Set("resolve",
               Json::Object()
                   .Set("cache_on_ops_per_sec",
                        Json::Num(cache_on.ops_per_sec, 0))
                   .Set("cache_off_ops_per_sec",
                        Json::Num(cache_off.ops_per_sec, 0))
                   .Set("seed_walk_ops_per_sec",
                        Json::Num(legacy.ops_per_sec, 0))
                   .Set("speedup_cache_on_vs_off", Json::Num(speedup_vs_off, 3))
                   .Set("speedup_cache_on_vs_seed_walk",
                        Json::Num(speedup_vs_legacy, 3)))
          .Set("create_ops_per_sec", Json::Num(create_ops_per_sec, 0))
          .Set("listdir_ops_per_sec", Json::Num(list.ops_per_sec, 0))
          .Set("rename_ops_per_sec", Json::Num(rename.ops_per_sec, 0))
          .Set("cache", Json::Object()
                            .Set("hits", cache_stats.hits)
                            .Set("misses", cache_stats.misses)
                            .Set("invalidations", cache_stats.invalidations)));
}
