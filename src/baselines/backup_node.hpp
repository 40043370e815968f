// The HDFS BackupNode baseline (ref [5] in the paper).
//
// The primary NameNode streams journal batches to a single backup node
// asynchronously — cheap in the failure-free case (Figure 6 shows
// BackupNode as the fastest reliable variant) but with two weaknesses the
// paper calls out: no consistency guarantee (the stream is fire-and-
// forget) and a long takeover. On failover the backup has the namespace
// but NOT the block map: it must re-collect block reports from every data
// server before it can serve, which is why its MTTR in Table I grows
// linearly with file-system size (2.8 s at 16 MB -> 142 s at 1 GB).
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <set>

#include "baselines/namenode_base.hpp"
#include "net/message_types.hpp"
#include "sim/simulator.hpp"
#include "storage/disk.hpp"

namespace mams::baselines {

struct NnEditStreamMsg final : net::Message {
  journal::Batch batch;
  net::MsgType type() const noexcept override { return net::kNnEditStream; }
  std::size_t ByteSize() const noexcept override {
    return 64 + batch.EncodedSize();
  }
};

/// Primary NameNode: local edit log + async stream to the backup.
class BackupNodePrimary : public NameNodeBase {
 public:
  BackupNodePrimary(net::Network& network, std::string name,
                    core::OpCosts costs = {})
      : NameNodeBase(network, std::move(name), costs) {}

  void SetBackup(NodeId backup) { backup_ = backup; }

 protected:
  bool Serving() const override { return alive(); }

  void PersistBatch(journal::Batch batch) override {
    const auto bytes = static_cast<std::uint64_t>(batch.EncodedSize());
    const SimTime start = std::max(sim().Now(), disk_free_at_);
    disk_free_at_ = start + disk_.AppendCost(bytes);
    // Async stream to the backup: no ack awaited (the paper's "incorrect
    // states ... without consistency guarantee" risk).
    if (backup_ != kInvalidNode) {
      ChargeCpu(15 * kMicrosecond);  // serialize + send the stream copy
      auto msg = std::make_shared<NnEditStreamMsg>();
      msg->batch = batch;
      Send(backup_, msg);
    }
    AfterLocal(disk_free_at_ - sim().Now(), [this, batch = std::move(batch)] {
      CompleteBatch(batch);
    });
  }

 private:
  storage::DiskModel disk_;
  SimTime disk_free_at_ = 0;
  NodeId backup_ = kInvalidNode;
};

/// The backup: replays the stream in memory; serves only after takeover.
class BackupNodeServer : public NameNodeBase {
 public:
  BackupNodeServer(net::Network& network, std::string name,
                   core::OpCosts costs = {})
      : NameNodeBase(network, std::move(name), costs) {
    OnRequest(net::kNnEditStream,
              [this](const net::Envelope&, const net::MessagePtr& msg,
                     const ReplyFn&) {
                const auto& stream = net::Cast<NnEditStreamMsg>(msg);
                if (serving_) return;  // already promoted
                pending_.emplace(stream.batch.sn, stream.batch);
                Drain();
              });
  }

  /// Blocks (synthetic count) that must be re-collected before serving.
  void SetExpectedBlocks(std::uint64_t blocks) { expected_blocks_ = blocks; }

  /// Recovery-time per-block processing charge (Table I's slope).
  void SetRecoveryIngestCost(SimTime per_block) {
    recovery_ingest_per_block_ = per_block;
  }

  /// Called by the monitor when the primary is declared dead. `redirect`
  /// makes every data server send a full report to this node.
  void TakeOver(const std::function<void()>& redirect_datanodes) {
    if (taking_over_ || serving_) return;
    taking_over_ = true;
    ingested_blocks_ = 0;
    recovery_charged_.clear();
    recovery_ingested_.clear();
    redirect_datanodes();
  }

  bool serving() const noexcept { return serving_; }
  std::uint64_t ingested_blocks() const noexcept { return ingested_blocks_; }

 protected:
  bool Serving() const override { return alive() && serving_; }

  void PersistBatch(journal::Batch batch) override {
    // Once promoted, the backup journals locally like a vanilla NN.
    const auto bytes = static_cast<std::uint64_t>(batch.EncodedSize());
    const SimTime start = std::max(sim().Now(), disk_free_at_);
    disk_free_at_ = start + disk_.AppendCost(bytes);
    AfterLocal(disk_free_at_ - sim().Now(), [this, batch = std::move(batch)] {
      CompleteBatch(batch);
    });
  }

  /// Bills the full-scan recollection cost exactly once per data server —
  /// the first (full) report after takeover pays blocks x per-block cost;
  /// subsequent periodic re-reports are incremental and cheap.
  SimTime BlockReportCost(const core::BlockReportMsg& report) override {
    SimTime cost = NameNodeBase::BlockReportCost(report);
    if (taking_over_ && !recovery_charged_.contains(report.data_server)) {
      recovery_charged_.insert(report.data_server);
      cost += recovery_ingest_per_block_ *
              static_cast<SimTime>(report.EffectiveCount());
    }
    return cost;
  }

  void OnBlockReportIngested(const core::BlockReportMsg& report) override {
    if (!taking_over_) return;
    // Count each data server's recollection once (re-reports are dups).
    if (!recovery_ingested_.insert(report.data_server).second) return;
    ingested_blocks_ += report.EffectiveCount();
    if (ingested_blocks_ >= expected_blocks_) {
      taking_over_ = false;
      serving_ = true;
      MAMS_INFO("backup", "%s: takeover complete, %llu blocks recollected",
                name().c_str(), (unsigned long long)ingested_blocks_);
    }
  }

  void OnCrash() override {
    NameNodeBase::OnCrash();
    pending_.clear();
    serving_ = false;
    taking_over_ = false;
  }

 private:
  void Drain() {
    while (true) {
      auto it = pending_.find(last_sn_ + 1);
      if (it == pending_.end()) break;
      for (const auto& rec : it->second.records) ReplayRecord(rec);
      last_sn_ = it->second.sn;
      pending_.erase(it);
    }
  }

  storage::DiskModel disk_;
  SimTime disk_free_at_ = 0;
  std::map<SerialNumber, journal::Batch> pending_;
  bool serving_ = false;
  bool taking_over_ = false;
  std::uint64_t expected_blocks_ = 0;
  std::uint64_t ingested_blocks_ = 0;
  std::set<NodeId> recovery_charged_;
  std::set<NodeId> recovery_ingested_;
  SimTime recovery_ingest_per_block_ = 18 * kMicrosecond;
};

/// Failure monitor: pings the primary; after `misses` consecutive silent
/// intervals it commands the backup to take over and redirects the DNs.
struct FailureMonitorOptions {
  SimTime ping_interval = 500 * kMillisecond;
  SimTime ping_timeout = 400 * kMillisecond;
  int misses_to_declare_dead = 2;
};

class FailureMonitor : public net::Host {
 public:
  using Options = FailureMonitorOptions;

  FailureMonitor(net::Network& network, std::string name, NodeId target,
                 std::function<void()> on_dead, Options options = {})
      : net::Host(network, std::move(name)),
        target_(target),
        on_dead_(std::move(on_dead)),
        options_(options) {}

 protected:
  void OnStart() override {
    timer_ = std::make_unique<sim::PeriodicTimer>(
        sim(), options_.ping_interval, [this] { Ping(); });
    timer_->Start();
  }

  void OnCrash() override {
    net::Host::OnCrash();
    timer_.reset();
  }

 private:
  struct PingMsg final : net::Message {
    net::MsgType type() const noexcept override { return net::kTestPing; }
  };

  void Ping() {
    if (declared_dead_) return;
    auto msg = std::make_shared<PingMsg>();
    Call(target_, msg, options_.ping_timeout, [this](Result<net::MessagePtr> r) {
      if (declared_dead_) return;
      if (r.ok()) {
        misses_ = 0;
        return;
      }
      if (++misses_ >= options_.misses_to_declare_dead) {
        declared_dead_ = true;
        on_dead_();
      }
    });
  }

  NodeId target_;
  std::function<void()> on_dead_;
  Options options_;
  std::unique_ptr<sim::PeriodicTimer> timer_;
  int misses_ = 0;
  bool declared_dead_ = false;
};

}  // namespace mams::baselines
