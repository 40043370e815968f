// ResolveCache — an LRU full-path -> inode-id cache for namespace
// resolution (the HopsFS/λFS-style path cache, adapted to a single-node
// in-memory tree).
//
// Correctness model: the cache holds only POSITIVE entries (paths that
// resolved successfully), so creates and mkdirs never require
// invalidation — a path absent from the cache just falls back to the tree
// walk. Structural mutations that remove or move inodes (delete, rename)
// erase the current path of every inode in the affected subtree, which the
// tree walks anyway (Tree::InvalidateSubtree), so a file costs one hash
// erase and the cache is never scanned; LoadImage/Reset clear the
// mappings wholesale. The cached value is an InodeId, never a pointer:
// a hit is re-validated against the inode table, and ids are monotonically
// allocated and never reused, so an entry whose inode was deleted just
// misses. A renamed inode keeps its id, though, so its old path would
// still hit: rename must erase the moved subtree's old paths eagerly.
//
// Because only resolved paths are cached, Tree::Resolve probes the cache
// before validating the path: a hit skips IsValidPath.
//
// The index is keyed by string_views that alias the owning LRU entries'
// strings (stable under list splice), so cache HITS perform exactly one
// hash lookup and zero allocations.
#pragma once

#include <cstdint>
#include <list>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>

#include "common/types.hpp"

namespace mams::fsns {

class ResolveCache {
 public:
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t invalidations = 0;  ///< entries dropped by Erase/Clear
  };

  /// An entry costs about 120 bytes of list node, index node and bucket,
  /// plus its path string when that outgrows the 15-byte inline buffer, so
  /// the default capacity costs roughly 8–12 MB per tree (about a tenth of
  /// a 131k-file inode table). Size generously: an LRU whose capacity is
  /// below the hot path set thrashes (every miss pays an insert + evict)
  /// and can be slower than no cache at all.
  static constexpr std::size_t kDefaultCapacity = 65536;

  explicit ResolveCache(std::size_t capacity = kDefaultCapacity)
      : capacity_(capacity) {}

  ResolveCache(ResolveCache&&) = default;
  ResolveCache& operator=(ResolveCache&&) = default;

  /// Capacity 0 disables the cache entirely (benchmark ablation; the
  /// lookup fast path is compiled but never taken).
  void set_capacity(std::size_t capacity) {
    capacity_ = capacity;
    if (capacity_ == 0) {
      Clear();
      return;
    }
    while (lru_.size() > capacity_) EvictOldest();
  }
  std::size_t capacity() const noexcept { return capacity_; }
  bool enabled() const noexcept { return capacity_ > 0; }
  std::size_t size() const noexcept { return lru_.size(); }
  const Stats& stats() const noexcept { return stats_; }

  /// Hit: the id cached for `path`, promoted to most-recently-used and
  /// counted. A path that is not cached counts nothing here: the caller
  /// counts a miss with CountMiss only once it walks the tree, so probing
  /// an invalid path first costs no miss.
  std::optional<InodeId> Lookup(std::string_view path) {
    auto it = index_.find(path);
    if (it == index_.end()) return std::nullopt;
    ++stats_.hits;
    lru_.splice(lru_.begin(), lru_, it->second);
    return it->second->id;
  }

  /// Counts a resolution that missed the cache and walked the tree.
  void CountMiss() noexcept { ++stats_.misses; }

  void Insert(std::string_view path, InodeId id) {
    auto it = index_.find(path);
    if (it != index_.end()) {
      it->second->id = id;
      lru_.splice(lru_.begin(), lru_, it->second);
      return;
    }
    lru_.push_front(Entry{std::string(path), id});
    index_.emplace(std::string_view(lru_.front().path), lru_.begin());
    if (lru_.size() > capacity_) EvictOldest();
  }

  /// Drops the entry for exactly `path`, if cached. Delete and rename call
  /// it once per inode of the subtree they remove or move.
  void Erase(std::string_view path) {
    auto it = index_.find(path);
    if (it == index_.end()) return;
    const auto node = it->second;
    index_.erase(it);
    lru_.erase(node);
    ++stats_.invalidations;
  }

  /// Visits every cached (path, id) mapping, most recently used first.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const Entry& e : lru_) fn(std::string_view(e.path), e.id);
  }

  /// Drops every mapping; keeps capacity and cumulative stats.
  void Clear() {
    stats_.invalidations += lru_.size();
    index_.clear();
    lru_.clear();
  }

 private:
  struct Entry {
    std::string path;
    InodeId id;
  };

  void EvictOldest() {
    index_.erase(std::string_view(lru_.back().path));
    lru_.pop_back();
  }

  std::size_t capacity_;
  std::list<Entry> lru_;  ///< front = most recently used
  std::unordered_map<std::string_view, std::list<Entry>::iterator> index_;
  Stats stats_;
};

}  // namespace mams::fsns
