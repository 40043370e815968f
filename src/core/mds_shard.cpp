// Shard subsystem engine for MdsServer: partition-map adoption and
// enforcement, the journal-backed shard MigrationEngine (source and
// destination sides), and the two-group cross-group rename transaction.
//
// Durability model: every state transition that must survive a failover is
// a journal record replicated through the group's modified 2PC before it
// takes externally visible effect (chunk acks, activation acks, client
// replies). The volatile MigrationDrive/RenameDrive structures only *drive*
// progress; a promoted active reconstructs what was in flight from the
// tree's ShardState alone (ResumeShardState) and rolls forward or aborts.
#include <algorithm>

#include "core/mds_server.hpp"
#include "fsns/path.hpp"
#include "net/rpc.hpp"

namespace mams::core {

namespace {
/// Records per transfer chunk streamed to the destination active.
constexpr std::size_t kMigrationChunkRecords = 32;
/// Cutover drain poll cadence and bound: the source waits for its writer
/// and in-flight syncs to drain before shipping the final delta chunk.
constexpr SimTime kMigrationDrainPoll = 50 * kMillisecond;
constexpr int kMigrationDrainPolls = 40;
/// Pacing for migration RPC retries (chunk resend, control resend, map
/// publication) — each awaits the peer group's next active.
constexpr SimTime kMigrationRetryDelay = 500 * kMillisecond;
}  // namespace

// --- partition map ------------------------------------------------------------

void MdsServer::AdoptMap(std::uint64_t epoch, const std::vector<char>& bytes) {
  if (epoch == 0 || epoch <= map_.epoch()) return;
  auto m = shard::PartitionMap::Deserialize(bytes);
  if (!m.ok()) {
    MAMS_WARN("shard", "%s: undecodable partition map epoch %llu",
              name().c_str(), (unsigned long long)epoch);
    return;
  }
  MAMS_INFO("shard", "%s: adopting partition map epoch %llu (was %llu)",
            name().c_str(), (unsigned long long)epoch,
            (unsigned long long)map_.epoch());
  map_ = std::move(m).value();
}

void MdsServer::FetchMapFromCoord() {
  coord_client_->GetMap(
      [this](Status s, std::uint64_t epoch, const std::vector<char>& bytes) {
        if (s.ok()) AdoptMap(epoch, bytes);
      });
}

bool MdsServer::OwnsSlotForRead(std::uint32_t slot) const {
  if (map_.empty()) return true;  // no map: legacy single-partition serving
  const fsns::Tree::ShardState& sh = tree_.shard();
  // Journal-derived ownership overrides the cached map in both directions:
  // an acquired slot is served before the new map arrives, and a slot we
  // cut away is bounced even while the map still names us its owner.
  if (sh.acquired.contains(slot)) return true;
  if (map_.OwnerOfSlot(slot) != options_.group) return false;
  if (sh.migrated_out.contains(slot)) return false;
  auto ob = sh.outbound.find(slot);
  if (ob != sh.outbound.end() && ob->second.cutover) return false;
  return true;
}

bool MdsServer::OwnsSlotForWrite(std::uint32_t slot) const {
  if (!OwnsSlotForRead(slot)) return false;
  auto it = drives_.find(slot);
  return it == drives_.end() || !it->second.fence;
}

bool MdsServer::RenameFenced(const ClientRequestMsg& req) const {
  const auto& intents = tree_.shard().rename_intents;
  if (intents.empty()) return false;
  auto under = [](const std::string& ancestor, const std::string& path) {
    if (ancestor.size() >= path.size()) return false;
    if (path.compare(0, ancestor.size(), ancestor) != 0) return false;
    return ancestor == "/" || path[ancestor.size()] == '/';
  };
  for (const auto& [src, intent] : intents) {
    if (req.path == src || req.path == intent.dst) return true;
    if (under(req.path, src)) return true;
    if (!req.path2.empty()) {
      if (req.path2 == src || req.path2 == intent.dst) return true;
      if (under(req.path2, src)) return true;
    }
  }
  return false;
}

void MdsServer::ShardBounce(const ReplyFn& reply, const char* why) {
  ++counters_.shard_bounces;
  m_.shard_bounces->Add();
  auto out = std::make_shared<ClientResponseMsg>();
  out->ok = false;
  out->code = StatusCode::kUnavailable;
  out->error = why;
  out->shard_bounce = true;
  out->map_epoch = map_.epoch();
  out->map_bytes = map_.Serialize();
  StampReply(*out, last_sn_);
  reply(out);
}

bool MdsServer::ShardAdmitRead(const ClientRequestMsg& req,
                               const ReplyFn& reply) {
  if (map_.empty()) return true;
  if (RenameFenced(req)) {
    // The entry is mid-flight between two groups; its linearization point
    // is the destination commit, so neither side may answer for it yet. A
    // bounce (not a bare Unavailable) so the client paces its retries
    // instead of burning its attempt budget against the fence.
    ShardBounce(reply, "cross-group rename in progress");
    return false;
  }
  // A listing enumerates the directory's children, which all hash by this
  // directory; a stat resolves the entry itself, which hashes by its parent.
  const std::uint32_t slot = req.op == ClientOp::kListDir
                                 ? map_.SlotOfDir(req.path)
                                 : map_.SlotOf(req.path);
  if (!OwnsSlotForRead(slot)) {
    ShardBounce(reply, "slot not owned");
    return false;
  }
  return true;
}

bool MdsServer::ShardAdmitMutation(const ClientRequestMsg& req,
                                   const ReplyFn& reply) {
  if (map_.empty()) return true;
  if (RenameFenced(req)) {
    ShardBounce(reply, "cross-group rename in progress");
    return false;
  }
  const std::uint32_t slot = map_.SlotOf(req.path);
  if (!OwnsSlotForRead(slot)) {
    ShardBounce(reply, "slot not owned");
    return false;
  }
  if (!OwnsSlotForWrite(slot)) {
    // Cutover fence: the slot is mid hand-off. The bounce carries the
    // *current* map, which the client already has — it backs off one poll
    // interval rather than spinning its attempt budget away.
    ShardBounce(reply, "shard cutover in progress");
    return false;
  }
  if (req.op == ClientOp::kRename) {
    const std::uint32_t dslot = map_.SlotOf(req.path2);
    if (dslot != slot) {
      if (!OwnsSlotForRead(dslot)) {
        ShardBounce(reply, "slot not owned");
        return false;
      }
      if (!OwnsSlotForWrite(dslot)) {
        ShardBounce(reply, "shard cutover in progress");
        return false;
      }
    }
  }
  // Structural restriction: deleting or renaming a *directory* relocates
  // every descendant entry's slot, which the per-path snapshot/delta
  // machinery cannot track mid-migration. Such ops stall until the
  // namespace stops moving.
  if (req.op == ClientOp::kDelete || req.op == ClientOp::kRename) {
    const fsns::Inode* node = tree_.FindInode(req.path);
    if (node != nullptr && node->is_dir) {
      const fsns::Tree::ShardState& sh = tree_.shard();
      if (!drives_.empty() || !sh.outbound.empty() || !sh.inbound.empty()) {
        ShardBounce(reply, "namespace repartitioning in progress");
        return false;
      }
    }
  }
  return true;
}

// --- journaling helpers -------------------------------------------------------

TxId MdsServer::AppendShardRecord(journal::LogRecord rec) {
  journal::LogRecord applied = rec;
  const TxId txid = writer_->Append(std::move(rec));
  applied.txid = txid;
  CaptureMigrationDelta(applied);
  Status s = tree_.Apply(applied);
  if (!s.ok()) {
    MAMS_ERROR("shard", "%s: shard record apply failed: %s", name().c_str(),
               s.ToString().c_str());
  }
  return txid;
}

TxId MdsServer::JournalShardRecord(journal::LogRecord rec,
                                   std::function<void(bool)> done) {
  if (role_ != ServerState::kActive || !writer_) {
    if (done) done(false);
    return 0;
  }
  const TxId txid = AppendShardRecord(std::move(rec));
  if (done) {
    pending_replies_[txid].push_back([done](net::MessagePtr m) {
      const auto& resp = net::Cast<ClientResponseMsg>(m);
      done(resp.ok);
    });
  }
  if (pending_sync_.size() < PipelineDepth() && deferred_batches_.empty()) {
    writer_->Flush();
  }
  return txid;
}

void MdsServer::CaptureMigrationDelta(const journal::LogRecord& rec) {
  if (drives_.empty()) return;
  auto note = [this](const std::string& path) {
    if (path.empty()) return;
    auto it = drives_.find(map_.SlotOf(path));
    if (it != drives_.end() && it->second.capturing) {
      it->second.dirty.insert(path);
    }
  };
  note(rec.path);
  note(rec.path2);
}

// --- migration engine: source side --------------------------------------------

Status MdsServer::StartShardMigration(std::uint32_t slot, GroupId dst) {
  if (role_ != ServerState::kActive || !alive()) {
    return Status::FailedPrecondition("not active");
  }
  if (map_.empty()) return Status::FailedPrecondition("no partition map");
  if (slot >= map_.slot_count()) return Status::InvalidArgument("bad slot");
  if (dst == options_.group) return Status::InvalidArgument("dst is self");
  if (!OwnsSlotForWrite(slot)) {
    return Status::FailedPrecondition("slot not owned");
  }
  const fsns::Tree::ShardState& sh = tree_.shard();
  if (drives_.contains(slot) || sh.outbound.contains(slot) ||
      sh.inbound.contains(slot)) {
    return Status::FailedPrecondition("migration already in flight");
  }
  ++counters_.migrations_started;
  MigrationDrive& d = drives_[slot];
  d.dst = dst;
  d.stats.slot = slot;
  d.stats.dst = dst;
  d.stats.begin_time = sim().Now();

  journal::LogRecord begin;
  begin.op = journal::OpCode::kShardMigrateBegin;
  begin.block = slot;
  begin.replication = dst;
  begin.mtime = sim().Now();
  const TxId mid = JournalShardRecord(
      std::move(begin), [this, slot](bool ok) {
        auto it = drives_.find(slot);
        if (it == drives_.end()) return;
        if (!ok) {
          ++counters_.migrations_aborted;
          it->second.stats.aborted = true;
          migration_stats_.push_back(it->second.stats);
          drives_.erase(it);
          return;
        }
        // Begin is durable across the group; start streaming. The
        // destination's watchdog covers us if we die from here on.
        SendNextChunk(slot);
      });
  d.migration_id = mid;
  d.stats.migration_id = mid;
  // Snapshot synchronously at the begin record and capture deltas from the
  // same instant — nothing can slip between image and delta stream. The
  // cutover_fence mutation knocks out exactly this guarantee: accepted
  // writes are never captured, so everything after the snapshot is lost.
  d.capturing = !options_.test_hooks.skip_cutover_fence;
  SnapshotShard(d);
  MAMS_INFO("shard",
            "%s: migration %llu: slot %u -> group %u (%llu entries, %zu chunks)",
            name().c_str(), (unsigned long long)mid, slot, dst,
            (unsigned long long)d.stats.entries, d.chunks.size());
  return Status::Ok();
}

void MdsServer::AppendInstallRecords(const std::string& path,
                                     const fsns::Inode& node,
                                     std::vector<journal::LogRecord>& out) {
  journal::LogRecord rec;
  rec.path = path;
  rec.path2 = node.owner;
  rec.replication = node.replication;
  rec.mtime = node.mtime;
  if (node.is_dir) {
    rec.op = journal::OpCode::kShardInstallDir;
    rec.block = static_cast<BlockId>(node.permission) << 2;
    out.push_back(std::move(rec));
    return;
  }
  rec.op = journal::OpCode::kShardInstallFile;
  rec.block = (static_cast<BlockId>(node.permission) << 2) |
              (node.complete ? 0x2u : 0x0u);
  out.push_back(std::move(rec));
  // Blocks ride in the same chunk as their install record: a retried chunk
  // re-runs install (which rebuilds the file from scratch) before re-adding
  // them, so whole-chunk replay cannot duplicate blocks.
  for (BlockId b : node.blocks) {
    journal::LogRecord br;
    br.op = journal::OpCode::kAddBlock;
    br.path = path;
    br.block = b;
    br.mtime = node.mtime;
    out.push_back(std::move(br));
  }
}

void MdsServer::SnapshotShard(MigrationDrive& d) {
  const std::uint32_t slot = d.stats.slot;
  std::vector<journal::LogRecord> cur;
  tree_.ForEachNode([&](const std::string& path, const fsns::Inode& node) {
    if (map_.SlotOf(path) != slot) return;
    if (cur.size() >= kMigrationChunkRecords) {
      d.chunks.push_back(std::move(cur));
      cur.clear();
    }
    AppendInstallRecords(path, node, cur);
    ++d.stats.entries;
  });
  if (!cur.empty()) d.chunks.push_back(std::move(cur));
}

void MdsServer::SendNextChunk(std::uint32_t slot) {
  auto it = drives_.find(slot);
  if (it == drives_.end() || role_ != ServerState::kActive || !alive()) return;
  MigrationDrive& d = it->second;
  if (d.next_chunk >= d.chunks.size()) {
    StartCutover(slot);
    return;
  }
  const TxId mid = d.migration_id;
  auto retry = [this, slot, mid] {
    AfterLocal(kMigrationRetryDelay, [this, slot, mid] {
      auto it = drives_.find(slot);
      if (it == drives_.end() || it->second.migration_id != mid) return;
      SendNextChunk(slot);
    });
  };
  const NodeId peer = directory_ ? directory_->Active(d.dst) : kInvalidNode;
  if (peer == kInvalidNode) {
    retry();
    return;
  }
  auto msg = std::make_shared<ShardTransferMsg>();
  msg->from_group = options_.group;
  msg->slot = slot;
  msg->migration_id = mid;
  msg->seq = d.next_seq;
  msg->records = d.chunks[d.next_chunk];
  net::RpcCall::Start(
      *this, peer, msg, kFetchRpc,
      [this, slot, mid, retry](Result<net::MessagePtr> r) {
        auto it = drives_.find(slot);
        if (it == drives_.end() || it->second.migration_id != mid) return;
        if (role_ != ServerState::kActive || !alive()) return;
        if (!r.ok() || !net::Cast<ShardTransferAckMsg>(r.value()).ok) {
          MAMS_DEBUG("shard", "%s: chunk for slot %u not acked (%s); retrying",
                     name().c_str(), slot,
                     r.ok() ? net::Cast<ShardTransferAckMsg>(r.value()).error.c_str()
                            : r.status().ToString().c_str());
          retry();
          return;
        }
        MigrationDrive& d = it->second;
        d.chunks[d.next_chunk].clear();  // shipped; free the memory
        ++d.next_chunk;
        ++d.next_seq;
        ++d.stats.chunks;
        SendNextChunk(slot);
      });
}

void MdsServer::StartCutover(std::uint32_t slot) {
  auto it = drives_.find(slot);
  if (it == drives_.end()) return;
  MigrationDrive& d = it->second;
  if (options_.test_hooks.skip_cutover_fence) {
    // Mutation self-test: keep accepting writes through the cutover but
    // stop capturing them — they are acknowledged, never shipped, and
    // vanish when kShardMigrateEnd drops the slot. The checker must flag
    // the resulting lost updates.
    d.capturing = false;
  } else {
    d.fence = true;
  }
  // Client-cache leases on directories whose children live in this slot are
  // revoked now: after cutover their mutations commit at the destination,
  // which cannot reach grants recorded here. SendActivate waits for the
  // revocations to drain before the destination starts serving.
  RevokeSlotLeases(slot);
  d.stats.fence_time = sim().Now();
  DrainThenShip(slot, kMigrationDrainPolls);
}

void MdsServer::DrainThenShip(std::uint32_t slot, int polls_left) {
  auto it = drives_.find(slot);
  if (it == drives_.end() || role_ != ServerState::kActive || !alive()) return;
  // Every fenced-out writer has already been bounced; what remains is the
  // journal pipeline — in-flight 2PC syncs, sealed batches parked behind
  // the pipeline window, and unsealed records. Once all three are empty,
  // every accepted slot write is committed and sits in `dirty`.
  const bool drained = pending_sync_.empty() && deferred_batches_.empty() &&
                       (!writer_ || writer_->pending_records() == 0);
  if (drained || polls_left <= 0) {
    MAMS_DEBUG("shard", "%s: slot %u drained (polls left %d); shipping final",
               name().c_str(), slot, polls_left);
    ShipFinalChunk(slot);
    return;
  }
  AfterLocal(kMigrationDrainPoll, [this, slot, polls_left] {
    DrainThenShip(slot, polls_left - 1);
  });
}

void MdsServer::ShipFinalChunk(std::uint32_t slot) {
  auto it = drives_.find(slot);
  if (it == drives_.end() || role_ != ServerState::kActive || !alive()) return;
  MigrationDrive& d = it->second;
  const TxId mid = d.migration_id;
  d.capturing = false;

  auto msg = std::make_shared<ShardTransferMsg>();
  msg->from_group = options_.group;
  msg->slot = slot;
  msg->migration_id = mid;
  msg->seq = d.next_seq;
  msg->final_chunk = true;
  // Delta records: for each path mutated since the snapshot, ship its
  // current state (install) or its absence (erase). std::set iteration
  // keeps the order deterministic.
  for (const std::string& path : d.dirty) {
    const fsns::Inode* node = tree_.FindInode(path);
    if (node == nullptr) {
      journal::LogRecord er;
      er.op = journal::OpCode::kShardErase;
      er.path = path;
      er.mtime = sim().Now();
      msg->records.push_back(std::move(er));
    } else {
      AppendInstallRecords(path, *node, msg->records);
    }
  }
  d.dirty.clear();
  // The whole dedup table rides with the final chunk so client retries that
  // land at the destination after cutover are suppressed exactly as they
  // would have been here. Ascending (client, seq) replay reproduces each
  // entry's max_seq/recent window bit-for-bit.
  std::vector<std::uint64_t> clients;
  clients.reserve(tree_.client_table().size());
  for (const auto& [cid, entry] : tree_.client_table()) clients.push_back(cid);
  std::sort(clients.begin(), clients.end());
  for (std::uint64_t cid : clients) {
    const fsns::Tree::ClientEntry& entry = tree_.client_table().at(cid);
    for (std::uint64_t seq : entry.recent) {
      journal::LogRecord dr;
      dr.op = journal::OpCode::kShardInstallDedup;
      dr.client = ClientOpId{cid, seq};
      msg->records.push_back(std::move(dr));
    }
  }

  // The final chunk is built once and retried verbatim: the dirty set is
  // consumed above and cannot be rebuilt.
  auto send = std::make_shared<std::function<void()>>();
  *send = [this, slot, mid, msg, send] {
    auto it = drives_.find(slot);
    if (it == drives_.end() || it->second.migration_id != mid) return;
    if (role_ != ServerState::kActive || !alive()) return;
    const NodeId peer = directory_ ? directory_->Active(it->second.dst)
                                   : kInvalidNode;
    if (peer == kInvalidNode) {
      AfterLocal(kMigrationRetryDelay, [send] { (*send)(); });
      return;
    }
    net::RpcCall::Start(
        *this, peer, msg, kFetchRpc,
        [this, slot, mid, send](Result<net::MessagePtr> r) {
          auto it = drives_.find(slot);
          if (it == drives_.end() || it->second.migration_id != mid) return;
          if (role_ != ServerState::kActive || !alive()) return;
          if (!r.ok() || !net::Cast<ShardTransferAckMsg>(r.value()).ok) {
            MAMS_DEBUG("shard",
                       "%s: final chunk for slot %u not acked (%s); retrying",
                       name().c_str(), slot,
                       r.ok()
                           ? net::Cast<ShardTransferAckMsg>(r.value()).error.c_str()
                           : r.status().ToString().c_str());
            AfterLocal(kMigrationRetryDelay, [send] { (*send)(); });
            return;
          }
          ++it->second.stats.chunks;
          // The destination holds the full image; make the hand-off durable
          // on our side. From the moment this record applies, reads for the
          // slot bounce too (OwnsSlotForRead checks outbound.cutover).
          journal::LogRecord rec;
          rec.op = journal::OpCode::kShardMigrateCutover;
          rec.block = slot;
          rec.mtime = sim().Now();
          JournalShardRecord(std::move(rec), [this, slot, mid](bool ok) {
            auto it = drives_.find(slot);
            if (it == drives_.end() || it->second.migration_id != mid) return;
            if (!ok) return;  // deposed; the successor resumes off the journal
            MAMS_DEBUG("shard", "%s: slot %u cutover durable; activating",
                       name().c_str(), slot);
            SendActivate(slot);
          });
        });
  };
  (*send)();
}

void MdsServer::SendActivate(std::uint32_t slot) {
  auto it = drives_.find(slot);
  if (it == drives_.end() || role_ != ServerState::kActive || !alive()) return;
  const TxId mid = it->second.migration_id;
  if (SlotLeaseBarrierPending(slot)) {
    // The destination must not commit mutations for the slot while a client
    // could still serve a cached entry leased here. Wait for every revoked
    // holder's ack — bounded by the lease TTL, which is under the failover
    // window, so this never stalls a migration indefinitely. (A crash-
    // resumed migration skips this: the crash dropped the grant table, and
    // the successor's election already outwaited every possible TTL.)
    AfterLocal(kMigrationDrainPoll, [this, slot, mid] {
      auto it2 = drives_.find(slot);
      if (it2 == drives_.end() || it2->second.migration_id != mid) return;
      SendActivate(slot);
    });
    return;
  }
  auto retry = [this, slot, mid] {
    AfterLocal(kMigrationRetryDelay, [this, slot, mid] {
      auto it = drives_.find(slot);
      if (it == drives_.end() || it->second.migration_id != mid) return;
      SendActivate(slot);
    });
  };
  const NodeId peer =
      directory_ ? directory_->Active(it->second.dst) : kInvalidNode;
  if (peer == kInvalidNode) {
    retry();
    return;
  }
  auto msg = std::make_shared<ShardControlMsg>();
  msg->kind = ShardControlKind::kActivate;
  msg->from_group = options_.group;
  msg->slot = slot;
  msg->migration_id = mid;
  net::RpcCall::Start(
      *this, peer, msg, kFetchRpc,
      [this, slot, mid, retry](Result<net::MessagePtr> r) {
        auto it = drives_.find(slot);
        if (it == drives_.end() || it->second.migration_id != mid) return;
        if (role_ != ServerState::kActive || !alive()) return;
        if (!r.ok() || !net::Cast<ShardControlAckMsg>(r.value()).ok) {
          MAMS_DEBUG("shard", "%s: activate for slot %u not acked (%s); retrying",
                     name().c_str(), slot,
                     r.ok() ? net::Cast<ShardControlAckMsg>(r.value()).error.c_str()
                            : r.status().ToString().c_str());
          retry();
          return;
        }
        MAMS_DEBUG("shard", "%s: slot %u activated at destination; publishing",
                   name().c_str(), slot);
        PublishMapForSlot(slot);
      });
}

void MdsServer::PublishMapForSlot(std::uint32_t slot) {
  auto it = drives_.find(slot);
  if (it == drives_.end() || role_ != ServerState::kActive || !alive()) return;
  const TxId mid = it->second.migration_id;
  const GroupId dst = it->second.dst;
  auto retry = [this, slot, mid] {
    AfterLocal(kMigrationRetryDelay, [this, slot, mid] {
      auto it = drives_.find(slot);
      if (it == drives_.end() || it->second.migration_id != mid) return;
      PublishMapForSlot(slot);
    });
  };
  if (map_.empty()) {  // resumed before the map fetch landed
    FetchMapFromCoord();
    retry();
    return;
  }
  shard::PartitionMap next = map_;
  next.Assign(slot, dst);
  coord_client_->PublishMap(
      next.epoch(), next.Serialize(), [this, slot, mid, dst, retry](Status) {
        // Publish-then-verify: concurrent publishers can collide on the
        // epoch and the service keeps the first arrival, silently dropping
        // the loser. Read the decided map back; if our assignment lost,
        // re-assign on the winner's map (newer epoch) and republish.
        coord_client_->GetMap([this, slot, mid, dst, retry](
                                  Status s, std::uint64_t epoch,
                                  const std::vector<char>& bytes) {
          auto it = drives_.find(slot);
          if (it == drives_.end() || it->second.migration_id != mid) return;
          if (role_ != ServerState::kActive || !alive()) return;
          if (s.ok()) AdoptMap(epoch, bytes);
          if (!map_.empty() && map_.OwnerOfSlot(slot) == dst) {
            it->second.stats.publish_time = sim().Now();
            FinishMigration(slot);
            return;
          }
          MAMS_DEBUG("shard",
                     "%s: publish verify for slot %u: epoch %llu owner %u "
                     "(want %u); retrying",
                     name().c_str(), slot, (unsigned long long)map_.epoch(),
                     map_.empty() ? 0xffffffffu : map_.OwnerOfSlot(slot), dst);
          retry();
        });
      });
}

void MdsServer::FinishMigration(std::uint32_t slot) {
  auto it = drives_.find(slot);
  if (it == drives_.end() || role_ != ServerState::kActive || !alive()) return;
  const TxId mid = it->second.migration_id;
  journal::LogRecord rec;
  rec.op = journal::OpCode::kShardMigrateEnd;
  rec.block = slot;
  rec.replication = map_.slot_count();
  rec.mtime = sim().Now();
  JournalShardRecord(std::move(rec), [this, slot, mid](bool ok) {
    auto it = drives_.find(slot);
    if (it == drives_.end() || it->second.migration_id != mid) return;
    if (!ok) return;  // deposed; the successor re-runs the end off the journal
    it->second.stats.end_time = sim().Now();
    ++counters_.migrations_completed;
    m_.migrations_completed->Add();
    MAMS_INFO("shard", "%s: migration %llu done: slot %u -> group %u",
              name().c_str(), (unsigned long long)mid, slot, it->second.dst);
    migration_stats_.push_back(it->second.stats);
    drives_.erase(it);
  });
}

void MdsServer::AbortOutbound(std::uint32_t slot) {
  const fsns::Tree::ShardState& sh = tree_.shard();
  auto ob = sh.outbound.find(slot);
  if (ob == sh.outbound.end() || ob->second.cutover) return;
  const TxId mid = ob->second.migration_id;
  const GroupId dst = ob->second.dst_group;
  journal::LogRecord rec;
  rec.op = journal::OpCode::kShardMigrateAbort;
  rec.block = slot;
  rec.mtime = sim().Now();
  JournalShardRecord(std::move(rec), [this, slot, mid, dst](bool ok) {
    if (!ok) return;
    ++counters_.migrations_aborted;
    SendAbortToDst(slot, mid, dst);
  });
}

void MdsServer::SendAbortToDst(std::uint32_t slot, TxId migration_id,
                               GroupId dst) {
  if (role_ != ServerState::kActive || !alive()) return;
  auto retry = [this, slot, migration_id, dst] {
    AfterLocal(kMigrationRetryDelay, [this, slot, migration_id, dst] {
      SendAbortToDst(slot, migration_id, dst);
    });
  };
  const NodeId peer = directory_ ? directory_->Active(dst) : kInvalidNode;
  if (peer == kInvalidNode) {
    // Best effort: the destination's watchdog queries us and learns the
    // abort from our journal history even if this never gets through.
    retry();
    return;
  }
  auto msg = std::make_shared<ShardControlMsg>();
  msg->kind = ShardControlKind::kAbort;
  msg->from_group = options_.group;
  msg->slot = slot;
  msg->migration_id = migration_id;
  net::RpcCall::Start(*this, peer, msg, kFetchRpc,
                      [this, retry](Result<net::MessagePtr> r) {
                        if (role_ != ServerState::kActive || !alive()) return;
                        if (!r.ok() ||
                            !net::Cast<ShardControlAckMsg>(r.value()).ok) {
                          retry();
                        }
                      });
}

void MdsServer::RollForwardOutbound(std::uint32_t slot) {
  const fsns::Tree::ShardState& sh = tree_.shard();
  auto ob = sh.outbound.find(slot);
  if (ob == sh.outbound.end() || !ob->second.cutover) return;
  // The previous active journaled the cutover, so the destination holds
  // the complete image: activation, map publication and the end record are
  // all idempotent — drive them again from here.
  MigrationDrive& d = drives_[slot];
  d.migration_id = ob->second.migration_id;
  d.dst = ob->second.dst_group;
  d.stats.slot = slot;
  d.stats.dst = d.dst;
  d.stats.migration_id = d.migration_id;
  d.stats.begin_time = sim().Now();  // resumed; source-side timings are gone
  d.stats.fence_time = sim().Now();
  MAMS_INFO("shard", "%s: rolling migration %llu forward (slot %u -> %u)",
            name().c_str(), (unsigned long long)d.migration_id, slot, d.dst);
  SendActivate(slot);
}

// --- migration engine: destination side ---------------------------------------

void MdsServer::HandleShardTransfer(const net::Envelope&,
                                    const net::MessagePtr& msg,
                                    const ReplyFn& reply) {
  auto req = std::static_pointer_cast<const ShardTransferMsg>(msg);
  // Applying a chunk costs CPU like the equivalent client writes would.
  const SimTime cost =
      options_.costs.create * static_cast<SimTime>(1 + req->records.size() / 4);
  AfterLocal(ChargeCpu(cost), [this, req, reply] {
    auto nack = [&reply](const char* why) {
      auto out = std::make_shared<ShardTransferAckMsg>();
      out->ok = false;
      out->error = why;
      reply(out);
    };
    if (role_ != ServerState::kActive || upgrade_in_progress_ || !writer_) {
      nack("not active");
      return;
    }
    const fsns::Tree::ShardState& sh = tree_.shard();
    if (sh.acquired.contains(req->slot)) {
      // Stale duplicate after activation: ack without touching the tree —
      // replaying the transfer would clobber post-activation client writes.
      auto out = std::make_shared<ShardTransferAckMsg>();
      out->ok = true;
      reply(out);
      return;
    }
    auto ib = sh.inbound.find(req->slot);
    if (ib != sh.inbound.end() &&
        ib->second.migration_id != req->migration_id) {
      nack("busy with another migration");
      return;
    }
    if (ib == sh.inbound.end() && req->seq > 0) {
      // Mid-stream chunk with no inbound state: the migration this chunk
      // belongs to was discarded here. Refuse; the source re-queries.
      nack("no inbound migration");
      return;
    }
    const bool fresh = ib == sh.inbound.end();
    TxId last = 0;
    if (fresh) {
      journal::LogRecord begin;
      begin.op = journal::OpCode::kShardInboundBegin;
      begin.block = req->slot;
      begin.replication = req->from_group;
      begin.mtime = static_cast<SimTime>(req->migration_id);
      last = AppendShardRecord(std::move(begin));
    }
    for (journal::LogRecord rec : req->records) {
      rec.txid = 0;  // assigned by our writer; source txids mean nothing here
      last = AppendShardRecord(std::move(rec));
    }
    if (last == 0) {
      // Nothing new to make durable (an empty delta/dedup final chunk, or a
      // retried chunk whose records were all applied before): every earlier
      // chunk was only acked after its batch committed, so the slot image is
      // already safely replicated — ack right away. Registering under an
      // already-committed txid would never fire and the source would retry
      // this chunk forever.
      auto out = std::make_shared<ShardTransferAckMsg>();
      out->ok = true;
      reply(out);
      return;
    }
    pending_replies_[last].push_back([reply](net::MessagePtr m) {
      const auto& resp = net::Cast<ClientResponseMsg>(m);
      auto out = std::make_shared<ShardTransferAckMsg>();
      out->ok = resp.ok;
      out->error = resp.error;
      reply(out);
    });
    if (pending_sync_.size() < PipelineDepth() && deferred_batches_.empty()) {
      writer_->Flush();
    }
    if (fresh) ArmInboundWatchdog(req->slot);
  });
}

MigrationOutcome MdsServer::AnswerMigrationQuery(std::uint32_t slot,
                                                 TxId migration_id) const {
  const fsns::Tree::ShardState& sh = tree_.shard();
  auto ob = sh.outbound.find(slot);
  if (ob != sh.outbound.end() && ob->second.migration_id == migration_id) {
    return ob->second.cutover ? MigrationOutcome::kEnded
                              : MigrationOutcome::kInProgress;
  }
  auto h = sh.history.find(slot);
  if (h != sh.history.end()) {
    if (h->second.migration_id == migration_id) {
      return h->second.ended ? MigrationOutcome::kEnded
                             : MigrationOutcome::kAborted;
    }
    // The slot's last migration is a different one; the queried migration
    // can only have been superseded after aborting.
    return MigrationOutcome::kAborted;
  }
  return MigrationOutcome::kUnknown;
}

void MdsServer::ArmInboundWatchdog(std::uint32_t slot) {
  // Covers a source that decided (cutover, abort) or vanished without
  // telling us: periodically ask the source group's active what its journal
  // says happened and converge on that verdict.
  AfterLocal(4 * kMigrationRetryDelay, [this, slot] {
    if (role_ != ServerState::kActive || !alive()) return;
    const fsns::Tree::ShardState& sh = tree_.shard();
    auto ib = sh.inbound.find(slot);
    if (ib == sh.inbound.end()) return;  // resolved meanwhile
    const TxId mid = ib->second.migration_id;
    const GroupId from = ib->second.from_group;
    const NodeId peer = directory_ ? directory_->Active(from) : kInvalidNode;
    if (peer == kInvalidNode) {
      ArmInboundWatchdog(slot);
      return;
    }
    auto q = std::make_shared<ShardControlMsg>();
    q->kind = ShardControlKind::kQuery;
    q->from_group = options_.group;
    q->slot = slot;
    q->migration_id = mid;
    net::RpcCall::Start(
        *this, peer, q, kFetchRpc,
        [this, slot, mid](Result<net::MessagePtr> r) {
          if (role_ != ServerState::kActive || !alive()) return;
          const fsns::Tree::ShardState& sh = tree_.shard();
          auto ib = sh.inbound.find(slot);
          if (ib == sh.inbound.end() || ib->second.migration_id != mid) return;
          if (!r.ok()) {
            ArmInboundWatchdog(slot);
            return;
          }
          const auto& ack = net::Cast<ShardControlAckMsg>(r.value());
          if (!ack.ok || ack.outcome == MigrationOutcome::kInProgress) {
            ArmInboundWatchdog(slot);
            return;
          }
          journal::LogRecord rec;
          if (ack.outcome == MigrationOutcome::kEnded) {
            // The source cut over; the image we journaled is authoritative.
            rec.op = journal::OpCode::kShardAcquire;
            rec.block = slot;
            rec.mtime = sim().Now();
          } else {  // kAborted / kUnknown: drop the half-received slot
            rec.op = journal::OpCode::kShardDiscard;
            rec.block = slot;
            rec.replication = map_.slot_count();
            rec.mtime = sim().Now();
          }
          JournalShardRecord(std::move(rec), nullptr);
        });
  });
}

void MdsServer::HandleShardControl(const net::Envelope&,
                                   const net::MessagePtr& msg,
                                   const ReplyFn& reply) {
  auto ctl = std::static_pointer_cast<const ShardControlMsg>(msg);
  // By value: the ack often fires from a journal-commit callback long after
  // this frame is gone.
  auto ack_status = [reply](const Status& s) {
    auto out = std::make_shared<ShardControlAckMsg>();
    out->ok = s.ok();
    out->code = s.code();
    out->error = s.message();
    reply(out);
  };

  if (ctl->kind == ShardControlKind::kQuery) {
    // Answered at the *source* active, from journal-derived state.
    auto out = std::make_shared<ShardControlAckMsg>();
    if (role_ != ServerState::kActive) {
      out->ok = false;
      out->code = StatusCode::kUnavailable;
      out->error = "not active";
    } else {
      out->ok = true;
      out->outcome = AnswerMigrationQuery(ctl->slot, ctl->migration_id);
    }
    reply(out);
    return;
  }

  if (role_ != ServerState::kActive || upgrade_in_progress_ || !writer_) {
    ack_status(Status::Unavailable("not active"));
    return;
  }

  if (ctl->kind == ShardControlKind::kRenameCommit) {
    AfterLocal(ChargeCpu(options_.costs.rename),
               [this, ctl, reply] { HandleRenameCommit(ctl, reply); });
    return;
  }

  const fsns::Tree::ShardState& sh = tree_.shard();
  if (ctl->kind == ShardControlKind::kActivate) {
    if (sh.acquired.contains(ctl->slot)) {
      ack_status(Status::Ok());  // duplicate after a lost ack
      return;
    }
    auto ib = sh.inbound.find(ctl->slot);
    if (ib == sh.inbound.end() ||
        ib->second.migration_id != ctl->migration_id) {
      ack_status(Status::FailedPrecondition("no matching inbound migration"));
      return;
    }
    journal::LogRecord rec;
    rec.op = journal::OpCode::kShardAcquire;
    rec.block = ctl->slot;
    rec.mtime = sim().Now();
    JournalShardRecord(std::move(rec), [ack_status](bool ok) {
      ack_status(ok ? Status::Ok() : Status::Unavailable("not committed"));
    });
    return;
  }

  // kAbort
  auto ib = sh.inbound.find(ctl->slot);
  if (ib == sh.inbound.end() || ib->second.migration_id != ctl->migration_id) {
    ack_status(Status::Ok());  // nothing to discard (already resolved)
    return;
  }
  journal::LogRecord rec;
  rec.op = journal::OpCode::kShardDiscard;
  rec.block = ctl->slot;
  rec.replication = map_.slot_count();
  rec.mtime = sim().Now();
  JournalShardRecord(std::move(rec), [ack_status](bool ok) {
    ack_status(ok ? Status::Ok() : Status::Unavailable("not committed"));
  });
}

// --- cross-group rename -------------------------------------------------------

void MdsServer::StartCrossGroupRename(
    std::shared_ptr<const ClientRequestMsg> req, GroupId dst_group,
    const ReplyFn& reply) {
  if (tree_.IsDuplicate(req->client)) {
    // The rename finished in a previous life of this request.
    ReplyStatus(reply, Status::Ok());
    return;
  }
  if (RenameFenced(*req)) {
    ShardBounce(reply, "cross-group rename in progress");
    return;
  }
  const std::uint32_t slot = map_.SlotOf(req->path);
  if (!OwnsSlotForRead(slot)) {
    ShardBounce(reply, "slot not owned");
    return;
  }
  if (!OwnsSlotForWrite(slot)) {
    ShardBounce(reply, "shard cutover in progress");
    return;
  }
  // Verdict precedence mirrors the local rename (and the checker's model):
  // argument validity, then rename-under-itself, then source existence.
  if (!fsns::IsValidPath(req->path) || !fsns::IsValidPath(req->path2) ||
      req->path == "/") {
    ReplyStatus(reply, Status::InvalidArgument("bad rename path"));
    return;
  }
  if (fsns::IsPrefixPath(req->path, req->path2)) {
    ReplyStatus(reply,
                Status::FailedPrecondition("rename under its own subtree"));
    return;
  }
  const fsns::Inode* node = tree_.FindInode(req->path);
  if (node == nullptr) {
    ReplyStatus(reply, Status::NotFound(req->path));
    return;
  }
  if (node->is_dir) {
    // A directory's descendants rehash under the new name across arbitrary
    // groups; moving a subtree between groups is out of scope (mirrors
    // real metadata services, which fence or forbid cross-volume renames).
    ReplyStatus(reply,
                Status::FailedPrecondition("cross-group rename of a directory"));
    return;
  }
  // Prepare: journal the intent. From the moment it applies, the fences
  // stall every request touching src or dst until the outcome commits.
  journal::LogRecord rec;
  rec.op = journal::OpCode::kRenameIntent;
  rec.path = req->path;
  rec.path2 = req->path2;
  rec.replication = dst_group;
  rec.mtime = sim().Now();
  rec.client = req->client;
  JournalShardRecord(std::move(rec), [this, src = req->path, reply](bool ok) {
    if (!ok) {
      ReplyStatus(reply, Status::Unavailable("server deposed"));
      return;
    }
    rename_drives_[src].reply = reply;
    SendRenameCommit(src);
  });
}

void MdsServer::SendRenameCommit(const std::string& src) {
  if (role_ != ServerState::kActive || !alive()) return;
  auto it = rename_drives_.find(src);
  if (it == rename_drives_.end() || it->second.inflight) return;
  const auto& intents = tree_.shard().rename_intents;
  auto in = intents.find(src);
  if (in == intents.end()) {
    rename_drives_.erase(it);
    return;
  }
  const fsns::Tree::ShardState::RenameIntent& intent = in->second;
  auto retry = [this, src] {
    AfterLocal(kMigrationRetryDelay,
               [this, src] { SendRenameCommit(src); });
  };
  const NodeId peer =
      directory_ ? directory_->Active(intent.dst_group) : kInvalidNode;
  if (peer == kInvalidNode) {
    MAMS_DEBUG("shard", "%s: rename %s: no destination active; retrying",
               name().c_str(), src.c_str());
    retry();
    return;
  }
  const fsns::Inode* node = tree_.FindInode(src);
  if (node == nullptr || node->is_dir) {
    // The fences make this unreachable in normal operation; abort rather
    // than install garbage at the destination.
    FinishRename(src, /*committed=*/false, Status::NotFound(src));
    return;
  }
  auto msg = std::make_shared<ShardControlMsg>();
  msg->kind = ShardControlKind::kRenameCommit;
  msg->from_group = options_.group;
  msg->slot = map_.SlotOf(intent.dst);
  msg->rename_src = src;
  msg->rename_dst = intent.dst;
  msg->client = intent.client;
  msg->replication = node->replication;
  msg->permission = node->permission;
  msg->owner = node->owner;
  msg->mtime = intent.mtime;
  msg->complete = node->complete;
  msg->blocks = node->blocks;
  it->second.inflight = true;
  net::RpcCall::Start(
      *this, peer, msg, kFetchRpc,
      [this, src, retry](Result<net::MessagePtr> r) {
        if (role_ != ServerState::kActive || !alive()) return;
        auto it = rename_drives_.find(src);
        if (it == rename_drives_.end()) return;
        it->second.inflight = false;
        if (!r.ok() || !net::Cast<ShardControlAckMsg>(r.value()).ok) {
          MAMS_DEBUG("shard", "%s: rename %s commit attempt: %s",
                     name().c_str(), src.c_str(),
                     r.ok() ? net::Cast<ShardControlAckMsg>(r.value()).error.c_str()
                            : r.status().ToString().c_str());
        }
        if (!r.ok()) {
          // Indeterminate: the destination may have committed and the ack
          // was lost. The intent stays; the retry resolves it (the dedup
          // point at the destination makes the commit idempotent). The
          // waiting client is failed now — its own retry is idempotent too.
          if (it->second.reply) {
            ReplyStatus(it->second.reply,
                        Status::Unavailable("rename destination unreachable"));
            it->second.reply = nullptr;
          }
          retry();
          return;
        }
        const auto& ack = net::Cast<ShardControlAckMsg>(r.value());
        if (ack.ok) {
          FinishRename(src, /*committed=*/true, Status::Ok());
          return;
        }
        if (ack.code == StatusCode::kUnavailable) {
          retry();  // destination mid-failover or bouncing; not a verdict
          return;
        }
        FinishRename(src, /*committed=*/false, Status(ack.code, ack.error));
      });
}

void MdsServer::HandleRenameCommit(
    const std::shared_ptr<const ShardControlMsg>& ctl, const ReplyFn& reply) {
  // By value: fired from the commit callback after this frame returns.
  auto ack_status = [reply](const Status& s) {
    auto out = std::make_shared<ShardControlAckMsg>();
    out->ok = s.ok();
    out->code = s.code();
    out->error = s.message();
    reply(out);
  };
  if (role_ != ServerState::kActive || upgrade_in_progress_ || !writer_) {
    ack_status(Status::Unavailable("not active"));
    return;
  }
  if (tree_.IsDuplicate(ctl->client)) {
    ack_status(Status::Ok());  // committed in a previous attempt
    return;
  }
  if (!map_.empty()) {
    const std::uint32_t slot = map_.SlotOf(ctl->rename_dst);
    if (!OwnsSlotForRead(slot)) {
      ack_status(Status::Unavailable("slot not owned"));
      return;
    }
    if (!OwnsSlotForWrite(slot)) {
      ack_status(Status::Unavailable("shard cutover in progress"));
      return;
    }
  }
  if (tree_.FindInode(ctl->rename_dst) != nullptr) {
    ack_status(Status::AlreadyExists(ctl->rename_dst));
    return;
  }
  // Rename never materializes ancestors (unlike create): the destination's
  // parent must already exist as a directory, same as the local path.
  const std::string dst_parent(fsns::ParentDir(ctl->rename_dst));
  const fsns::Inode* parent = tree_.FindInode(dst_parent);
  if (parent == nullptr || !parent->is_dir) {
    ack_status(Status::NotFound(dst_parent));
    return;
  }
  // Commit: install the entry (anonymous — the dedup point is the commit
  // record) and stamp the transaction with the real client id.
  journal::LogRecord inst;
  inst.op = journal::OpCode::kShardInstallFile;
  inst.path = ctl->rename_dst;
  inst.path2 = ctl->owner;
  inst.replication = ctl->replication;
  inst.block = (static_cast<BlockId>(ctl->permission) << 2) |
               (ctl->complete ? 0x2u : 0x0u);
  inst.mtime = ctl->mtime;
  AppendShardRecord(std::move(inst));
  for (BlockId b : ctl->blocks) {
    journal::LogRecord br;
    br.op = journal::OpCode::kAddBlock;
    br.path = ctl->rename_dst;
    br.block = b;
    br.mtime = ctl->mtime;
    AppendShardRecord(std::move(br));
  }
  journal::LogRecord commit;
  commit.op = journal::OpCode::kRenameCommitDst;
  commit.path = ctl->rename_dst;
  commit.client = ctl->client;
  commit.mtime = ctl->mtime;
  const TxId txid = AppendShardRecord(std::move(commit));
  if (!leases_.empty()) {
    // Installing the destination entry conflicts with leases on its parent
    // (and, defensively, its subtree). Every holder is remote to this
    // transaction — even the renaming client's own grant is pushed, which
    // keeps read-your-writes: the push round-trip completes before the
    // barrier lets the ack (and hence the client's reply at the source)
    // leave.
    std::vector<std::uint64_t> own;
    std::map<NodeId, std::vector<coord::LeaseRevocation>> pushes;
    LeaseBarrier barrier;
    CollectRevocations(ctl->rename_dst, kInvalidNode, own, pushes, barrier);
    PushRevocations(std::move(pushes));
    InstallLeaseBarrier(txid, std::move(barrier));
  }
  pending_replies_[txid].push_back([ack_status](net::MessagePtr m) {
    const auto& resp = net::Cast<ClientResponseMsg>(m);
    ack_status(resp.ok ? Status::Ok()
                       : Status::Unavailable("not committed"));
  });
  if (pending_sync_.size() < PipelineDepth() && deferred_batches_.empty()) {
    writer_->Flush();
  }
}

void MdsServer::FinishRename(const std::string& src, bool committed,
                             const Status& abort_status) {
  const auto& intents = tree_.shard().rename_intents;
  auto in = intents.find(src);
  if (in == intents.end()) return;
  journal::LogRecord rec;
  rec.op = committed ? journal::OpCode::kRenameFinish
                     : journal::OpCode::kRenameAbort;
  rec.path = src;
  rec.path2 = in->second.dst;
  rec.mtime = sim().Now();
  // Finish remembers the real client (the transaction is now durable on
  // both sides); abort stays anonymous so the client's retry re-executes.
  if (committed) rec.client = in->second.client;
  const TxId txid = JournalShardRecord(
      std::move(rec), [this, src, committed, abort_status](bool ok) {
        auto it = rename_drives_.find(src);
        if (it == rename_drives_.end()) return;
        ReplyFn reply = std::move(it->second.reply);
        rename_drives_.erase(it);
        if (!reply) return;  // crash-resumed drive: the client is long gone
        if (!ok) {
          ReplyStatus(reply, Status::Unavailable("server deposed"));
          return;
        }
        if (committed) {
          ++counters_.cross_group_renames;
          m_.cross_group_renames->Add();
          ReplyStatus(reply, Status::Ok());
        } else {
          ReplyStatus(reply, abort_status);
        }
      });
  if (committed && txid != 0 && !leases_.empty()) {
    // The source entry disappears: revoke leases on its parent (and
    // subtree) and hold the client's reply on the barrier, mirroring the
    // destination side of the transaction.
    std::vector<std::uint64_t> own;
    std::map<NodeId, std::vector<coord::LeaseRevocation>> pushes;
    LeaseBarrier barrier;
    CollectRevocations(src, kInvalidNode, own, pushes, barrier);
    PushRevocations(std::move(pushes));
    InstallLeaseBarrier(txid, std::move(barrier));
  }
}

// --- failover resume ----------------------------------------------------------

void MdsServer::ResumeShardState() {
  FetchMapFromCoord();
  const fsns::Tree::ShardState& sh = tree_.shard();
  std::vector<std::uint32_t> roll_forward;
  std::vector<std::uint32_t> abort;
  std::vector<std::uint32_t> inbound;
  for (const auto& [slot, ob] : sh.outbound) {
    (ob.cutover ? roll_forward : abort).push_back(slot);
  }
  for (const auto& [slot, ib] : sh.inbound) inbound.push_back(slot);
  for (std::uint32_t slot : roll_forward) RollForwardOutbound(slot);
  // Pre-cutover outbound migrations abort: the volatile snapshot/delta
  // state died with the previous active, so the transfer cannot be
  // completed faithfully — and nothing was promised to anyone yet.
  for (std::uint32_t slot : abort) AbortOutbound(slot);
  for (std::uint32_t slot : inbound) ArmInboundWatchdog(slot);
  for (const auto& [src, intent] : sh.rename_intents) {
    // Re-drive the prepared transaction to its commit or abort. The client
    // reply is gone; its retry is answered by the dedup table either way.
    rename_drives_[src];
    SendRenameCommit(src);
  }
}

void MdsServer::ResetShardVolatileState() {
  drives_.clear();
  for (auto& [src, rd] : rename_drives_) {
    if (rd.reply) {
      ReplyStatus(rd.reply, Status::Unavailable("server deposed"));
    }
  }
  rename_drives_.clear();
}

}  // namespace mams::core
