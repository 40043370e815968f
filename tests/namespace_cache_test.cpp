// Property tests for the path-resolution cache: a cached tree must be
// observationally identical to an uncached one under arbitrary mutation
// sequences, batch replay (BatchHint fast path), and failover-style
// image-load + catch-up replay. The cache is pure accelerator state — if
// any of these fingerprints or lookups diverge, it leaked into semantics.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.hpp"
#include "fsns/partition.hpp"
#include "fsns/path.hpp"
#include "fsns/tree.hpp"
#include "journal/record.hpp"

namespace mams::fsns {
namespace {

using journal::LogRecord;

/// Drives identical random namespace mutations through several trees at
/// once, asserting op-by-op status parity and collecting the journal
/// records the "active" (first tree) would ship to replicas.
class Fuzzer {
 public:
  explicit Fuzzer(std::uint64_t seed) : rng_(seed) { dirs_.push_back("/"); }

  void Attach(Tree* tree) { trees_.push_back(tree); }

  void Step() {
    const std::uint64_t dice = rng_.Below(100);
    if (dice < 25) {
      Mkdir();
    } else if (dice < 55) {
      Create();
    } else if (dice < 70) {
      Delete();
    } else if (dice < 85) {
      Rename();
    } else {
      AddBlock();
    }
    // Interleave reads so the cache is hot when the next invalidation hits.
    for (int i = 0; i < 3; ++i) Probe(RandomKnownPath());
    Probe(RandomKnownPath() + "/definitely-missing");
  }

  /// Asserts every attached tree answers FindInode identically for `path`.
  void Probe(const std::string& path) {
    const Inode* expect = trees_.front()->FindInode(path);
    for (std::size_t t = 1; t < trees_.size(); ++t) {
      const Inode* got = trees_[t]->FindInode(path);
      ASSERT_EQ(expect == nullptr, got == nullptr) << path;
      if (expect != nullptr && got != nullptr) {
        ASSERT_EQ(expect->id, got->id) << path;
        ASSERT_EQ(expect->is_dir, got->is_dir) << path;
      }
    }
  }

  void ProbeAllKnown() {
    for (const auto& d : dirs_) Probe(d);
    for (const auto& f : files_) Probe(f);
  }

  const std::vector<LogRecord>& records() const { return records_; }
  std::string RandomKnownPath() {
    if (!files_.empty() && rng_.Chance(0.5)) {
      return files_[rng_.Below(files_.size())];
    }
    return dirs_[rng_.Below(dirs_.size())];
  }

 private:
  ClientOpId NextOp() { return {.client_id = 7, .op_seq = ++seq_}; }

  template <typename Fn>
  Result<LogRecord> ApplyToAll(Fn&& op) {
    const ClientOpId client = NextOp();
    Result<LogRecord> first = op(*trees_.front(), client);
    for (std::size_t t = 1; t < trees_.size(); ++t) {
      Result<LogRecord> other = op(*trees_[t], client);
      EXPECT_EQ(first.ok(), other.ok());
      if (!first.ok()) {
        EXPECT_EQ(first.status().code(), other.status().code());
      }
    }
    if (first.ok()) {
      LogRecord rec = first.value();
      rec.txid = ++next_txid_;
      // Mirror the MDS: it stamps the txid and keeps the live tree's
      // replay cursor in step (Fingerprint covers last_txid).
      for (Tree* t : trees_) t->set_last_txid(rec.txid);
      records_.push_back(std::move(rec));
    }
    return first;
  }

  void Mkdir() {
    const std::string path =
        JoinPath(dirs_[rng_.Below(dirs_.size())], "d" + std::to_string(++uid_));
    auto r = ApplyToAll([&](Tree& t, ClientOpId c) {
      return t.Mkdir(path, static_cast<SimTime>(seq_), c);
    });
    if (r.ok()) dirs_.push_back(path);
  }

  void Create() {
    const std::string path =
        JoinPath(dirs_[rng_.Below(dirs_.size())], "f" + std::to_string(++uid_));
    auto r = ApplyToAll([&](Tree& t, ClientOpId c) {
      return t.Create(path, 3, static_cast<SimTime>(seq_), c);
    });
    if (r.ok()) files_.push_back(path);
  }

  void Delete() {
    const std::string path = RandomKnownPath();
    if (path == "/") return;
    auto r = ApplyToAll([&](Tree& t, ClientOpId c) {
      return t.Delete(path, static_cast<SimTime>(seq_), c);
    });
    if (r.ok()) Forget(path);
  }

  void Rename() {
    const std::string src = RandomKnownPath();
    if (src == "/") return;
    const std::string dst =
        JoinPath(dirs_[rng_.Below(dirs_.size())], "r" + std::to_string(++uid_));
    if (IsPrefixPath(src, dst)) return;  // cannot move a dir under itself
    auto r = ApplyToAll([&](Tree& t, ClientOpId c) {
      return t.Rename(src, dst, static_cast<SimTime>(seq_), c);
    });
    if (r.ok()) Redirect(src, dst);
  }

  void AddBlock() {
    if (files_.empty()) return;
    const std::string path = files_[rng_.Below(files_.size())];
    (void)ApplyToAll([&](Tree& t, ClientOpId c) {
      return t.AddBlock(path, static_cast<SimTime>(seq_), c);
    });
  }

  /// Drops `path` and everything beneath it from the tracked sets.
  void Forget(const std::string& path) {
    auto prune = [&](std::vector<std::string>& v) {
      std::erase_if(v, [&](const std::string& p) {
        return IsPrefixPath(path, p);
      });
    };
    prune(dirs_);
    prune(files_);
  }

  /// Rewrites tracked paths under `src` to live under `dst`.
  void Redirect(const std::string& src, const std::string& dst) {
    auto move = [&](std::vector<std::string>& v) {
      for (std::string& p : v) {
        if (IsPrefixPath(src, p)) p = dst + p.substr(src.size());
      }
    };
    move(dirs_);
    move(files_);
  }

  Rng rng_;
  std::vector<Tree*> trees_;
  std::vector<std::string> dirs_;
  std::vector<std::string> files_;
  std::vector<LogRecord> records_;
  std::uint64_t seq_ = 0;
  std::uint64_t uid_ = 0;
  TxId next_txid_ = 0;
};

/// Replays `records[first..last)` into `tree` through the batch fast path.
void Replay(Tree& tree, const std::vector<LogRecord>& records,
            std::size_t first, std::size_t last, std::size_t batch_size = 16) {
  Tree::BatchHint hint;
  for (std::size_t i = first; i < last; ++i) {
    if ((i - first) % batch_size == 0) hint = Tree::BatchHint{};  // new batch
    ASSERT_TRUE(tree.Apply(records[i], &hint).ok())
        << "replay diverged at txid " << records[i].txid;
  }
}

TEST(NamespaceCacheTest, CachedEqualsUncachedUnderRandomMutations) {
  Tree cached;  // default capacity
  Tree uncached;
  uncached.SetResolveCacheCapacity(0);
  Tree tiny;  // pathological capacity: constant eviction
  tiny.SetResolveCacheCapacity(2);

  Fuzzer fuzz(0x5eed);
  fuzz.Attach(&cached);
  fuzz.Attach(&uncached);
  fuzz.Attach(&tiny);
  for (int i = 0; i < 2000; ++i) fuzz.Step();

  fuzz.ProbeAllKnown();
  fuzz.ProbeAllKnown();  // second pass: every hit served from the cache
  EXPECT_EQ(cached.Fingerprint(), uncached.Fingerprint());
  EXPECT_EQ(cached.Fingerprint(), tiny.Fingerprint());
  // The cache actually engaged — this run is not vacuous.
  EXPECT_GT(cached.resolve_cache().stats().hits, 0u);
  EXPECT_GT(cached.resolve_cache().stats().invalidations, 0u);
}

TEST(NamespaceCacheTest, BatchReplayMatchesLiveExecution) {
  Tree active;
  Fuzzer fuzz(0xbeef);
  fuzz.Attach(&active);
  for (int i = 0; i < 1500; ++i) fuzz.Step();

  // A standby replaying the journal through BatchHint, and one replaying
  // with the cache disabled, must both converge on the active's state.
  Tree standby;
  Tree standby_nocache;
  standby_nocache.SetResolveCacheCapacity(0);
  Replay(standby, fuzz.records(), 0, fuzz.records().size());
  Replay(standby_nocache, fuzz.records(), 0, fuzz.records().size());

  EXPECT_EQ(active.Fingerprint(), standby.Fingerprint());
  EXPECT_EQ(active.Fingerprint(), standby_nocache.Fingerprint());
  EXPECT_EQ(active.last_txid(), standby.last_txid());

  fuzz.Attach(&standby);
  fuzz.Attach(&standby_nocache);
  fuzz.ProbeAllKnown();
}

TEST(NamespaceCacheTest, FailoverImageLoadDropsStaleCacheEntries) {
  Tree active;
  Fuzzer fuzz(0xfa11);
  fuzz.Attach(&active);
  for (int i = 0; i < 1000; ++i) fuzz.Step();
  const std::size_t checkpoint = fuzz.records().size();
  const std::vector<char> image = active.SaveImage();

  for (int i = 0; i < 1000; ++i) fuzz.Step();  // active keeps going

  // The junior has unrelated state and a warm cache before it formats and
  // catches up — exactly the failover sequence. Stale entries must never
  // survive LoadImage.
  Tree junior;
  ClientOpId none{};
  ASSERT_TRUE(junior.Mkdir("/stale", 1, none).ok());
  ASSERT_TRUE(junior.Create("/stale/old", 1, 1, none).ok());
  ASSERT_NE(junior.FindInode("/stale/old"), nullptr);  // warms the cache

  ASSERT_TRUE(junior.LoadImage(image).ok());
  EXPECT_EQ(junior.FindInode("/stale/old"), nullptr);
  Replay(junior, fuzz.records(), checkpoint, fuzz.records().size());

  EXPECT_EQ(active.Fingerprint(), junior.Fingerprint());
  EXPECT_EQ(active.last_txid(), junior.last_txid());
  fuzz.Attach(&junior);
  fuzz.ProbeAllKnown();
}

TEST(NamespaceCacheTest, HintSurvivesInterleavedStructuralRecords) {
  // Dense single-directory batch with deletes and renames sprinkled in —
  // the worst case for a parent memo that must be dropped on structural
  // records.
  Tree live;
  ClientOpId none{};
  ASSERT_TRUE(live.Mkdir("/hot", 1, none).ok());
  std::vector<LogRecord> records;
  TxId txid = 0;
  // Failed ops (e.g. renaming an already-deleted file) are not journaled —
  // exactly like the real active.
  auto push = [&](Result<LogRecord> r) {
    if (!r.ok()) return;
    LogRecord rec = r.value();
    rec.txid = ++txid;
    live.set_last_txid(rec.txid);
    records.push_back(std::move(rec));
  };
  push(live.Mkdir("/hot", 1, none));  // idempotent mkdir lands in the journal
  for (int i = 0; i < 200; ++i) {
    const std::string f = "/hot/f" + std::to_string(i);
    push(live.Create(f, 3, i, none));
    if (i % 7 == 3) push(live.Delete(f, i, none));
    if (i % 11 == 5) {
      push(live.Rename("/hot/f" + std::to_string(i - 1),
                       "/hot/g" + std::to_string(i), i, none));
    }
  }
  ASSERT_GT(records.size(), 200u);

  Tree replayed;
  Replay(replayed, records, 0, records.size(), 64);
  EXPECT_EQ(live.Fingerprint(), replayed.Fingerprint());
}

TEST(NamespaceCacheTest, OnlyResolutionsThatWalkCountAsMisses) {
  Tree tree;
  ClientOpId none{};
  ASSERT_TRUE(tree.Mkdir("/a/b", 1, none).ok());
  tree.SetResolveCacheCapacity(0);  // empty the cache; stats survive
  tree.SetResolveCacheCapacity(16);
  const ResolveCache::Stats before = tree.resolve_cache().stats();
  auto hits = [&] { return tree.resolve_cache().stats().hits - before.hits; };
  auto misses = [&] {
    return tree.resolve_cache().stats().misses - before.misses;
  };

  // The cache is probed before the path is validated; neither the root
  // nor an invalid path walks, so neither counts.
  EXPECT_NE(tree.FindInode("/"), nullptr);
  EXPECT_EQ(tree.FindInode("/a//b"), nullptr);
  EXPECT_EQ(tree.FindInode("/a/./b"), nullptr);
  EXPECT_EQ(tree.FindInode("a/b"), nullptr);
  EXPECT_EQ(hits(), 0u);
  EXPECT_EQ(misses(), 0u);

  EXPECT_NE(tree.FindInode("/a/b"), nullptr);  // walks, then cached
  EXPECT_EQ(tree.FindInode("/a/zz"), nullptr);  // walks, not cached
  EXPECT_EQ(misses(), 2u);
  EXPECT_NE(tree.FindInode("/a/b"), nullptr);
  EXPECT_EQ(hits(), 1u);
  EXPECT_EQ(misses(), 2u);
}

/// Reference model for cache invalidation: a linear scan that drops every
/// cached path under a deleted or renamed root. The tree instead erases the
/// paths of the subtree it walks; both must leave the same (path, id) set
/// and count the same invalidations.
struct PrefixScanModel {
  std::map<std::string, InodeId> entries;
  std::uint64_t invalidations = 0;

  void InvalidatePrefix(std::string_view prefix) {
    for (auto it = entries.begin(); it != entries.end();) {
      if (IsPrefixPath(prefix, it->first)) {
        it = entries.erase(it);
        ++invalidations;
      } else {
        ++it;
      }
    }
  }
};

std::map<std::string, InodeId> CacheContents(const Tree& tree) {
  std::map<std::string, InodeId> out;
  tree.resolve_cache().ForEach([&](std::string_view path, InodeId id) {
    out.emplace(std::string(path), id);
  });
  return out;
}

TEST(NamespaceCacheTest, SubtreeInvalidationMatchesPrefixScanModel) {
  constexpr std::uint32_t kSlots = 8;
  Tree cached;
  cached.SetResolveCacheCapacity(1 << 20);  // no evictions: a pure set
  Tree plain;                               // ground truth for lookups
  plain.SetResolveCacheCapacity(0);
  Rng rng(0xd1ff);
  ClientOpId none{};
  SimTime now = 0;
  int structural = 0;

  auto known = [&](bool want_dir) {
    std::vector<std::string> out;
    plain.ForEachNode([&](const std::string& path, const Inode& node) {
      if (node.is_dir == want_dir) out.push_back(path);
    });
    return out;
  };
  auto pick = [&](const std::vector<std::string>& v) -> std::string {
    return v.empty() ? std::string("/") : v[rng.Below(v.size())];
  };
  auto warm = [&](std::string_view path) { (void)cached.FindInode(path); };

  for (int step = 0; step < 1500; ++step) {
    ++now;
    const std::vector<std::string> dirs = known(true);
    const std::vector<std::string> files = known(false);
    // Warm random entries so every invalidation has something to find.
    for (int i = 0; i < 4; ++i) warm(pick(rng.Chance(0.5) ? dirs : files));

    PrefixScanModel model;
    const std::uint64_t dice = rng.Below(100);
    bool exact = true;  // structural ops: the cache must equal the model
    auto snapshot = [&] {
      model.entries = CacheContents(cached);
      model.invalidations = cached.resolve_cache().stats().invalidations;
    };
    auto both = [&](auto&& op) {
      const bool a = op(cached).ok();
      const bool b = op(plain).ok();
      EXPECT_EQ(a, b) << "step " << step;
      return a;
    };

    if (dice < 20) {
      const std::string dir = pick(dirs);
      const std::string path = JoinPath(dir, "d" + std::to_string(step));
      snapshot();
      exact = false;
      both([&](Tree& t) { return t.Mkdir(path, now, none); });
    } else if (dice < 50) {
      const std::string dir = pick(dirs);
      const std::string path = JoinPath(dir, "f" + std::to_string(step));
      snapshot();
      exact = false;
      both([&](Tree& t) { return t.Create(path, 3, now, none); });
    } else if (dice < 65) {
      const std::string path = pick(rng.Chance(0.4) ? dirs : files);
      if (path == "/") continue;
      warm(path);  // the op's own resolution must not add an entry
      snapshot();
      if (both([&](Tree& t) { return t.Delete(path, now, none); })) {
        model.InvalidatePrefix(path);
        ++structural;
      }
    } else if (dice < 92) {
      const std::string src = pick(rng.Chance(0.5) ? dirs : files);
      const std::string dst =
          JoinPath(pick(dirs), "r" + std::to_string(step));
      if (src == "/" || IsPrefixPath(src, dst)) continue;
      warm(src);
      warm(dst);
      warm(ParentDir(dst));
      snapshot();
      if (both([&](Tree& t) { return t.Rename(src, dst, now, none); })) {
        model.InvalidatePrefix(src);
        model.InvalidatePrefix(dst);
        ++structural;
      }
    } else {
      // A discarded migration slot: every file whose entry hashes to it
      // goes, one DoDelete per file, in DFS order.
      const auto slot = static_cast<std::uint32_t>(rng.Below(kSlots));
      snapshot();
      for (const std::string& f : files) {
        if (PathSlot(f, kSlots) != slot) continue;
        model.entries[f] = plain.FindInode(f)->id;  // DoDelete resolves it
        model.InvalidatePrefix(f);
      }
      LogRecord discard;
      discard.op = journal::OpCode::kShardDiscard;
      discard.block = slot;
      discard.replication = kSlots;
      discard.mtime = now;
      ASSERT_TRUE(cached.Apply(discard).ok());
      ASSERT_TRUE(plain.Apply(discard).ok());
      ++structural;
    }

    const std::map<std::string, InodeId> got = CacheContents(cached);
    EXPECT_EQ(cached.resolve_cache().stats().invalidations,
              model.invalidations)
        << "step " << step;
    if (exact) {
      ASSERT_EQ(got, model.entries) << "step " << step;
    } else {
      for (const auto& [path, id] : model.entries) {
        auto it = got.find(path);
        ASSERT_TRUE(it != got.end() && it->second == id)
            << "step " << step << ": lost " << path;
      }
    }
    // Every cached mapping is current.
    for (const auto& [path, id] : got) {
      const Inode* truth = plain.FindInode(path);
      ASSERT_NE(truth, nullptr) << "step " << step << ": stale " << path;
      ASSERT_EQ(truth->id, id) << "step " << step << ": " << path;
    }
  }
  EXPECT_EQ(cached.Fingerprint(), plain.Fingerprint());
  EXPECT_GT(structural, 300);
  EXPECT_GT(cached.resolve_cache().stats().invalidations, 1000u);
}

}  // namespace
}  // namespace mams::fsns
