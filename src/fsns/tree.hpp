// The in-memory namespace: an inode tree with deterministic mutation,
// journal replay, image save/load, and a structural fingerprint used by the
// property tests ("standby state equals active state at quiescence").
//
// Determinism contract: applying the same sequence of LogRecords to two
// empty trees yields byte-identical images and equal Fingerprint() values —
// inode ids come from a counter carried in the image, timestamps come from
// the records, and iteration orders are sorted.
//
// Duplicate suppression: mutating entry points take a ClientOpId. The tree
// remembers the last op_seq applied per client together with its outcome;
// a resent operation (same client, op_seq <= remembered) returns the
// remembered outcome instead of re-executing. This is what makes client
// retries across failover idempotent (Section III.C step 4 discusses the
// server-side analogue for journal batches).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include <functional>

#include "common/bytes.hpp"
#include "common/status.hpp"
#include "common/types.hpp"
#include "fsns/resolve_cache.hpp"
#include "journal/apply_plan.hpp"
#include "journal/record.hpp"

namespace mams::fsns {

/// Transparent string hash so unordered containers keyed by std::string
/// accept std::string_view lookups without materializing a temporary.
struct StringViewHash {
  using is_transparent = void;
  std::size_t operator()(std::string_view s) const noexcept {
    return std::hash<std::string_view>{}(s);
  }
};

struct Inode {
  InodeId id = kInvalidInode;
  InodeId parent = kInvalidInode;
  std::string name;
  bool is_dir = false;
  std::uint32_t replication = 1;
  std::uint16_t permission = 0644;   ///< POSIX-style bits (HDFS FsPermission)
  std::string owner = "hdfs";        ///< "user:group"
  SimTime mtime = 0;
  bool complete = true;              ///< files: closed vs under construction
  std::vector<BlockId> blocks;       ///< files only

  // Directory entries are kept twice: the sorted map drives everything
  // that needs deterministic order (listing, image export, fingerprint),
  // the hash index serves the resolve hot path with O(1) heterogeneous
  // string_view lookups. AddChild/RemoveChild keep the two in lock-step.
  std::map<std::string, InodeId> children;  ///< dirs only, sorted
  std::unordered_map<std::string, InodeId, StringViewHash, std::equal_to<>>
      child_index;  ///< dirs only, mirrors `children`

  const InodeId* FindChild(std::string_view name_sv) const {
    auto it = child_index.find(name_sv);
    return it == child_index.end() ? nullptr : &it->second;
  }
  void AddChild(const std::string& child_name, InodeId child_id) {
    children.emplace(child_name, child_id);
    child_index.emplace(child_name, child_id);
  }
  void RemoveChild(const std::string& child_name) {
    children.erase(child_name);
    child_index.erase(child_name);
  }
};

struct FileInfo {
  std::string path;
  bool is_dir = false;
  std::uint32_t replication = 1;
  std::uint16_t permission = 0644;
  std::string owner = "hdfs";
  SimTime mtime = 0;
  std::uint64_t block_count = 0;
  bool complete = true;
};

class Tree {
 public:
  Tree();

  // --- queries (never journaled) -----------------------------------------
  Result<FileInfo> GetFileInfo(std::string_view path) const;
  Result<std::vector<std::string>> ListDir(std::string_view path) const;
  bool Exists(std::string_view path) const;
  const Inode* FindInode(std::string_view path) const;
  const Inode* inode(InodeId id) const;

  std::size_t inode_count() const noexcept { return inodes_.size(); }
  std::uint64_t file_count() const noexcept { return file_count_; }

  // --- mutations ----------------------------------------------------------
  // Each returns the applied LogRecord (for journaling) on success. The
  // caller supplies the timestamp so that replay is deterministic.
  Result<journal::LogRecord> Create(std::string_view path,
                                    std::uint32_t replication, SimTime mtime,
                                    ClientOpId client);
  Result<journal::LogRecord> Mkdir(std::string_view path, SimTime mtime,
                                   ClientOpId client);
  Result<journal::LogRecord> Delete(std::string_view path, SimTime mtime,
                                    ClientOpId client);
  Result<journal::LogRecord> Rename(std::string_view src, std::string_view dst,
                                    SimTime mtime, ClientOpId client);
  Result<journal::LogRecord> SetReplication(std::string_view path,
                                            std::uint32_t replication,
                                            SimTime mtime, ClientOpId client);
  /// Allocates a new block id for a file; the id is recorded for replay.
  Result<journal::LogRecord> AddBlock(std::string_view path, SimTime mtime,
                                      ClientOpId client);
  Result<journal::LogRecord> CompleteFile(std::string_view path, SimTime mtime,
                                          ClientOpId client);
  Result<journal::LogRecord> SetOwner(std::string_view path,
                                      std::string_view owner, SimTime mtime,
                                      ClientOpId client);
  Result<journal::LogRecord> SetPermission(std::string_view path,
                                           std::uint16_t permission,
                                           SimTime mtime, ClientOpId client);
  Result<journal::LogRecord> SetTimes(std::string_view path, SimTime mtime,
                                      ClientOpId client);

  // --- replay ---------------------------------------------------------------
  /// Applies a journal record from the active (standby/junior path). Replay
  /// is forgiving about client-visible errors: a record journaled by the
  /// active always applied successfully there, so failure here means state
  /// divergence and returns Internal.
  Status Apply(const journal::LogRecord& record);

  /// Parent-directory memo for batch replay. Journal batches are bursty:
  /// long runs of records target the same directory (create + addBlock +
  /// completeFile streams into one hot dir), so the batch-apply fast path
  /// resolves each record's parent once and reuses it across consecutive
  /// records. Pass one hint across all Apply() calls of a batch; the tree
  /// keeps it coherent (structural records — delete/rename — drop it).
  class BatchHint {
   public:
    BatchHint() = default;

   private:
    friend class Tree;
    std::string parent_path;
    InodeId parent = kInvalidInode;
  };
  Status Apply(const journal::LogRecord& record, BatchHint* hint);

  /// Conflict-checked batch apply: executes `records` wave by wave per
  /// `plan` (journal::BuildApplyPlan). Records within a wave have
  /// pairwise-disjoint footprints, so the tree may apply them in any order
  /// — this implementation walks each wave left to right, which is
  /// equivalent by construction; the point of the plan is that the
  /// simulator's cost model (and a real deployment's thread pool) can
  /// charge/execute a wave concurrently. Records already folded in when
  /// the call started (txid <= entry last_txid) are skipped, mirroring
  /// Apply()'s idempotent-replay guard but against the entry snapshot so
  /// a wave-mate's higher txid cannot mask an unapplied record. BatchHint,
  /// the ResolveCache, and the per-directory child indexes stay coherent
  /// through the same mechanisms serial Apply() uses. Applies every
  /// record even after a failure; returns the first non-OK status
  /// (divergence, as in Apply).
  Status ApplyPlanned(const std::vector<journal::LogRecord>& records,
                      const journal::ApplyPlan& plan, BatchHint* hint);

  // --- resolution cache ------------------------------------------------------
  /// Sizes the LRU path->inode cache consulted by every resolution;
  /// capacity 0 disables it (benchmark ablation). Survives Reset() and
  /// LoadImage() (mappings are dropped, configuration and stats persist).
  void SetResolveCacheCapacity(std::size_t capacity) {
    resolve_cache_.set_capacity(capacity);
  }
  const ResolveCache& resolve_cache() const noexcept { return resolve_cache_; }

  /// Highest txid folded into this tree (from mutations or replay).
  TxId last_txid() const noexcept { return last_txid_; }
  void set_last_txid(TxId txid) noexcept { last_txid_ = txid; }

  // --- image ---------------------------------------------------------------
  std::vector<char> SaveImage() const;
  Status LoadImage(const std::vector<char>& bytes);

  /// Structural fingerprint covering the whole tree + dedup table; equal
  /// fingerprints imply (w.h.p.) equal namespaces.
  std::uint64_t Fingerprint() const;

  /// Clears everything back to an empty root (junior formats before a full
  /// image fetch).
  void Reset();

  // --- duplicate suppression ------------------------------------------------
  // A client may have several operations in flight at once and the network
  // may reorder them, so "largest seq seen" is not enough: the table keeps
  // a bounded window of recently applied seqs per client. Anything older
  // than the window is assumed applied (clients never have that many
  // concurrent ops).
  struct ClientEntry {
    std::uint64_t max_seq = 0;
    std::set<std::uint64_t> recent;  ///< applied seqs in (max_seq-W, max_seq]
  };
  static constexpr std::uint64_t kDedupWindow = 128;

  /// True when <client, op_seq> was already applied.
  bool IsDuplicate(ClientOpId client) const;

  /// Read access to the dedup table (wholesale transfer during migration;
  /// iteration order is not deterministic — callers must sort).
  const std::unordered_map<std::uint64_t, ClientEntry>& client_table() const {
    return client_table_;
  }

  // --- shard migration state -------------------------------------------------
  // Durable bookkeeping for the shard subsystem, replicated as part of the
  // tree itself: every replica (standby, junior, promoted active) derives
  // migration/rename progress from its journal and image alone, so a
  // failover never forgets an in-flight migration. Updated exclusively by
  // Apply() on the kShard*/kRename* records; serialized in the image and
  // folded into the fingerprint.
  struct ShardState {
    struct Outbound {
      TxId migration_id = 0;
      GroupId dst_group = 0;
      bool cutover = false;
    };
    struct Inbound {
      TxId migration_id = 0;
      GroupId from_group = 0;
    };
    struct RenameIntent {
      std::string dst;
      GroupId dst_group = 0;
      ClientOpId client;
      SimTime mtime = 0;
    };
    struct History {
      TxId migration_id = 0;
      bool ended = false;  ///< true: rolled forward; false: aborted
    };
    std::set<std::uint32_t> acquired;      ///< slots owned beyond the map
    std::set<std::uint32_t> migrated_out;  ///< slots given away (stale map)
    std::map<std::uint32_t, Outbound> outbound;  ///< migrations we source
    std::map<std::uint32_t, Inbound> inbound;    ///< migrations we receive
    std::map<std::string, RenameIntent> rename_intents;  ///< by src path
    std::map<std::uint32_t, History> history;    ///< finished, by slot
  };
  const ShardState& shard() const noexcept { return shard_; }

  /// Deterministic DFS over every inode except the root, with the full path
  /// materialized (directories before their children, children in sorted
  /// order). Used by the migration snapshot.
  void ForEachNode(
      const std::function<void(const std::string&, const Inode&)>& fn) const;

 private:
  const Inode* Resolve(std::string_view path) const;
  Inode* ResolveMutable(std::string_view path);

  /// Inode ids are normally drawn from `next_inode_`, which makes replay
  /// order-sensitive — the one piece of tree state a conflict-free
  /// reordering would still diverge (ids are fingerprinted and serialized
  /// in the image). So execution *records* its draws (`alloc_trace_`, see
  /// Dedup) into LogRecord::inode_ids, and replay *consumes* them
  /// (`alloc_script_`, see ApplyUnguarded) instead of the counter, exactly
  /// as kAddBlock already carries its block id. The counter is bumped past
  /// each scripted id (max-monotone, so wave order doesn't matter) and
  /// still serves records without ids (shard installs, legacy tests).
  InodeId AllocateInode() {
    InodeId id;
    if (alloc_script_ != nullptr && alloc_script_pos_ < alloc_script_->size()) {
      id = (*alloc_script_)[alloc_script_pos_++];
      if (id >= next_inode_) next_inode_ = id + 1;
    } else {
      id = next_inode_++;
    }
    alloc_trace_.push_back(id);
    return id;
  }

  /// Apply() minus the idempotent-replay txid guard; ApplyPlanned guards
  /// against its entry snapshot instead of the live `last_txid_`.
  Status ApplyUnguarded(const journal::LogRecord& record, BatchHint* hint);

  /// Points `hint` at the parent directory of `record.path`, reusing the
  /// memo when the parent is unchanged from the previous record.
  void PrimeHint(BatchHint& hint, const journal::LogRecord& record) const;

  /// Remembers a successfully applied client op for duplicate suppression.
  void RememberApplied(ClientOpId client);

  /// Shared implementation: executes `op` unless it is a duplicate, and
  /// remembers its outcome.
  template <typename Fn>
  Result<journal::LogRecord> Dedup(ClientOpId client, Fn&& op);

  // Mutation cores, shared by the public API and Apply().
  Status DoCreate(std::string_view path, std::uint32_t replication,
                  SimTime mtime);
  Status DoMkdir(std::string_view path, SimTime mtime);
  Status DoDelete(std::string_view path, SimTime mtime);
  Status DoRename(std::string_view src, std::string_view dst, SimTime mtime);
  Status DoSetReplication(std::string_view path, std::uint32_t replication,
                          SimTime mtime);
  Status DoAddBlock(std::string_view path, BlockId block, SimTime mtime);
  Status DoCompleteFile(std::string_view path, SimTime mtime);
  Status DoSetOwner(std::string_view path, std::string_view owner,
                    SimTime mtime);
  Status DoSetPermission(std::string_view path, std::uint16_t permission,
                         SimTime mtime);
  Status DoSetTimes(std::string_view path, SimTime mtime);

  // Shard-record cores (idempotent upserts / erases — see record.hpp).
  Status DoInstallFile(const journal::LogRecord& record);
  Status DoInstallDir(const journal::LogRecord& record);
  Status DoErase(std::string_view path, SimTime mtime);
  /// Removes every *file* whose entry hashes to `slot`; ghost directories
  /// stay behind (other slots' files may live under them).
  void DropSlotFiles(std::uint32_t slot, std::uint32_t slot_count,
                     SimTime mtime);
  /// Applies one shard/rename control record to shard_.
  Status ApplyShardControl(const journal::LogRecord& record);

  void CountInode(const Inode& inode, int delta);

  std::unordered_map<InodeId, Inode> inodes_;
  InodeId next_inode_ = kRootInode + 1;
  BlockId next_block_ = 1;
  TxId last_txid_ = 0;
  std::uint64_t file_count_ = 0;
  std::unordered_map<std::uint64_t, ClientEntry> client_table_;
  ShardState shard_;

  /// Pure accelerator state: never serialized, never fingerprinted, never
  /// observable through query results — only through resolve speed.
  mutable ResolveCache resolve_cache_;
  /// Set only while Apply(record, hint) executes its mutation core; lets
  /// Resolve() answer hinted lookups without threading the hint through
  /// every Do* signature.
  const BatchHint* active_hint_ = nullptr;

  /// Inode ids drawn while the current op executes (cleared per op); on a
  /// successful mutation they move into the returned record's inode_ids.
  std::vector<InodeId> alloc_trace_;
  /// Replay script: ids the active recorded for the record currently being
  /// applied. Null/exhausted falls back to the counter.
  const std::vector<InodeId>* alloc_script_ = nullptr;
  std::size_t alloc_script_pos_ = 0;
};

}  // namespace mams::fsns
