// Ready-wired deployments of each baseline system, so benchmarks and tests
// instantiate "a BackupNode cluster" the same way they instantiate a CFS
// cluster. Each assembly exposes clients, the failure-injection entry
// point (KillPrimary), and the promoted server for state inspection.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "baselines/avatar.hpp"
#include "baselines/backup_node.hpp"
#include "baselines/boomfs.hpp"
#include "baselines/client.hpp"
#include "baselines/hadoop_ha.hpp"
#include "baselines/hdfs.hpp"
#include "cluster/data_server.hpp"
#include "storage/pool_node.hpp"

namespace mams::baselines {

/// Vanilla HDFS: one NameNode, no failover.
class HdfsSystem {
 public:
  HdfsSystem(net::Network& network, int clients = 4, int data_servers = 2,
             core::OpCosts costs = {}) {
    nn_ = std::make_unique<HdfsNameNode>(network, "hdfs-nn", costs);
    for (int d = 0; d < data_servers; ++d) {
      dns_.push_back(std::make_unique<cluster::DataServer>(
          network, "hdfs-dn" + std::to_string(d)));
      dns_.back()->SetMetadataNodes({nn_->id()});
    }
    for (int c = 0; c < clients; ++c) {
      clients_.push_back(std::make_unique<BaselineClient>(
          network, "hdfs-client" + std::to_string(c),
          std::vector<NodeId>{nn_->id()}));
    }
    nn_->Boot();
    for (auto& d : dns_) d->Boot();
    for (auto& c : clients_) c->Boot();
  }

  HdfsNameNode& namenode() { return *nn_; }
  BaselineClient& client(int i) { return *clients_[i]; }
  int client_count() const { return static_cast<int>(clients_.size()); }

 private:
  std::unique_ptr<HdfsNameNode> nn_;
  std::vector<std::unique_ptr<cluster::DataServer>> dns_;
  std::vector<std::unique_ptr<BaselineClient>> clients_;
};

/// HDFS + BackupNode.
struct BackupNodeSystemOptions {
  int clients = 4;
  int data_servers = 4;
  std::uint64_t total_blocks = 0;  ///< synthetic scale (spread over DNs)
  SimTime recovery_ingest_per_block = 18 * kMicrosecond;
  FailureMonitor::Options monitor;
  BaselineClientOptions client;
  core::OpCosts costs;
};

class BackupNodeSystem {
 public:
  using Options = BackupNodeSystemOptions;

  BackupNodeSystem(net::Network& network, Options options = {})
      : options_(options) {
    primary_ = std::make_unique<BackupNodePrimary>(network, "bn-primary",
                                                   options.costs);
    backup_ = std::make_unique<BackupNodeServer>(network, "bn-backup",
                                                 options.costs);
    primary_->SetBackup(backup_->id());
    backup_->SetRecoveryIngestCost(options.recovery_ingest_per_block);

    const auto per_dn = options.total_blocks /
                        static_cast<std::uint64_t>(
                            std::max(1, options.data_servers));
    for (int d = 0; d < options.data_servers; ++d) {
      dns_.push_back(std::make_unique<cluster::DataServer>(
          network, "bn-dn" + std::to_string(d)));
      dns_.back()->SetMetadataNodes({primary_->id()});
      dns_.back()->SetSyntheticBlockCount(per_dn);
    }
    // Expect exactly what the data servers will report (integer division
    // above may shave a remainder off the nominal total).
    backup_->SetExpectedBlocks(per_dn *
                               static_cast<std::uint64_t>(
                                   std::max(1, options.data_servers)));
    monitor_ = std::make_unique<FailureMonitor>(
        network, "bn-monitor", primary_->id(),
        [this] {
          backup_->TakeOver([this] {
            for (auto& dn : dns_) {
              dn->SetMetadataNodes({backup_->id()});
              dn->ReportNow();
            }
          });
        },
        options.monitor);

    options.client.failover_backoff = 500 * kMillisecond;
    for (int c = 0; c < options.clients; ++c) {
      clients_.push_back(std::make_unique<BaselineClient>(
          network, "bn-client" + std::to_string(c),
          std::vector<NodeId>{primary_->id(), backup_->id()},
          options.client));
    }
    primary_->Boot();
    backup_->Boot();
    monitor_->Boot();
    for (auto& d : dns_) d->Boot();
    for (auto& c : clients_) c->Boot();
  }

  void KillPrimary() { primary_->Crash(); }

  BackupNodePrimary& primary() { return *primary_; }
  BackupNodeServer& backup() { return *backup_; }
  BaselineClient& client(int i) { return *clients_[i]; }

 private:
  Options options_;
  std::unique_ptr<BackupNodePrimary> primary_;
  std::unique_ptr<BackupNodeServer> backup_;
  std::unique_ptr<FailureMonitor> monitor_;
  std::vector<std::unique_ptr<cluster::DataServer>> dns_;
  std::vector<std::unique_ptr<BaselineClient>> clients_;
};

/// Facebook AvatarNode pair over an NFS filer.
struct AvatarSystemOptions {
  int clients = 4;
  int data_servers = 4;
  BaselineClientOptions client;
  core::OpCosts costs;
};

class AvatarSystem {
 public:
  using Options = AvatarSystemOptions;

  AvatarSystem(net::Network& network, Options options = {}) {
    // A network filer's synchronous write latency dominates the Avatar
    // active's journal commit path (Figure 6's gap vs HDFS/BackupNode).
    storage::DiskParams nfs_disk;
    nfs_disk.sequential_latency = 1800 * kMicrosecond;
    nfs_ = std::make_unique<storage::PoolNode>(network, "avatar-nfs",
                                               nfs_disk);
    active_ = std::make_unique<AvatarActive>(network, "avatar-active",
                                             nfs_->id(), options.costs);
    standby_ = std::make_unique<AvatarStandby>(
        network, "avatar-standby", nfs_->id(), options.costs);
    for (int d = 0; d < options.data_servers; ++d) {
      dns_.push_back(std::make_unique<cluster::DataServer>(
          network, "avatar-dn" + std::to_string(d)));
      // Data nodes talk to BOTH avatars (the paper's hot-standby trick).
      dns_.back()->SetMetadataNodes({active_->id(), standby_->id()});
    }
    FailureMonitor::Options mon;
    mon.ping_interval = kAvatarDetectionInterval;
    mon.ping_timeout = kAvatarDetectionInterval / 2;
    mon.misses_to_declare_dead =
        static_cast<int>(kAvatarDetectionTimeout / kAvatarDetectionInterval);
    monitor_ = std::make_unique<FailureMonitor>(
        network, "avatar-monitor", active_->id(),
        [this] { standby_->TakeOver(); }, mon);

    options.client.failover_backoff = 2 * kSecond;
    for (int c = 0; c < options.clients; ++c) {
      clients_.push_back(std::make_unique<BaselineClient>(
          network, "avatar-client" + std::to_string(c),
          std::vector<NodeId>{active_->id(), standby_->id()},
          options.client));
    }
    nfs_->Boot();
    active_->Boot();
    standby_->Boot();
    monitor_->Boot();
    for (auto& d : dns_) d->Boot();
    for (auto& c : clients_) c->Boot();
  }

  void KillPrimary() { active_->Crash(); }

  AvatarActive& active() { return *active_; }
  AvatarStandby& standby() { return *standby_; }
  BaselineClient& client(int i) { return *clients_[i]; }

 private:
  std::unique_ptr<storage::PoolNode> nfs_;
  std::unique_ptr<AvatarActive> active_;
  std::unique_ptr<AvatarStandby> standby_;
  std::unique_ptr<FailureMonitor> monitor_;
  std::vector<std::unique_ptr<cluster::DataServer>> dns_;
  std::vector<std::unique_ptr<BaselineClient>> clients_;
};

/// Hadoop HA with a quorum journal manager.
struct HadoopHaSystemOptions {
  int clients = 4;
  int data_servers = 4;
  BaselineClientOptions client;
  core::OpCosts costs;
};

class HadoopHaSystem {
 public:
  using Options = HadoopHaSystemOptions;

  HadoopHaSystem(net::Network& network, Options options = {}) {
    std::vector<NodeId> jn_ids;
    // Journal nodes fsync every edit segment write (QJM durability).
    storage::DiskParams jn_disk;
    jn_disk.sequential_latency = 900 * kMicrosecond;
    for (int j = 0; j < kHaJournalNodes; ++j) {
      jns_.push_back(std::make_unique<storage::PoolNode>(
          network, "ha-jn" + std::to_string(j), jn_disk));
      jn_ids.push_back(jns_.back()->id());
    }
    active_ = std::make_unique<HadoopHaActive>(network, "ha-active", jn_ids,
                                               options.costs);
    standby_ = std::make_unique<HadoopHaStandby>(network, "ha-standby",
                                                 jn_ids, options.costs);
    for (int d = 0; d < options.data_servers; ++d) {
      dns_.push_back(std::make_unique<cluster::DataServer>(
          network, "ha-dn" + std::to_string(d)));
      dns_.back()->SetMetadataNodes({active_->id(), standby_->id()});
    }
    FailureMonitor::Options mon;  // the ZKFC
    mon.ping_interval = kHaDetectionInterval;
    mon.ping_timeout = kHaDetectionInterval / 2;
    mon.misses_to_declare_dead =
        static_cast<int>(kHaDetectionTimeout / kHaDetectionInterval);
    monitor_ = std::make_unique<FailureMonitor>(
        network, "ha-zkfc", active_->id(), [this] { standby_->TakeOver(); },
        mon);

    options.client.failover_backoff = 1500 * kMillisecond;
    for (int c = 0; c < options.clients; ++c) {
      clients_.push_back(std::make_unique<BaselineClient>(
          network, "ha-client" + std::to_string(c),
          std::vector<NodeId>{active_->id(), standby_->id()},
          options.client));
    }
    for (auto& j : jns_) j->Boot();
    active_->Boot();
    standby_->Boot();
    monitor_->Boot();
    for (auto& d : dns_) d->Boot();
    for (auto& c : clients_) c->Boot();
  }

  void KillPrimary() { active_->Crash(); }

  HadoopHaActive& active() { return *active_; }
  HadoopHaStandby& standby() { return *standby_; }
  BaselineClient& client(int i) { return *clients_[i]; }

 private:
  std::vector<std::unique_ptr<storage::PoolNode>> jns_;
  std::unique_ptr<HadoopHaActive> active_;
  std::unique_ptr<HadoopHaStandby> standby_;
  std::unique_ptr<FailureMonitor> monitor_;
  std::vector<std::unique_ptr<cluster::DataServer>> dns_;
  std::vector<std::unique_ptr<BaselineClient>> clients_;
};

/// Boom-FS: three Paxos RSM metadata replicas.
struct BoomFsSystemOptions {
  int clients = 4;
  int replicas = 3;
  BaselineClientOptions client;
  FailureMonitor::Options monitor{.ping_interval = kSecond,
                                  .ping_timeout = 500 * kMillisecond,
                                  .misses_to_declare_dead = 5};
};

class BoomFsSystem {
 public:
  using Options = BoomFsSystemOptions;

  BoomFsSystem(net::Network& network, Options options = {}) {
    std::vector<NodeId> ids;
    for (int i = 0; i < options.replicas; ++i) {
      servers_.push_back(std::make_unique<BoomFsServer>(
          network, "boom" + std::to_string(i)));
      ids.push_back(servers_.back()->id());
    }
    for (auto& s : servers_) s->SetPeers(ids);
    servers_[0]->SetMaster(true);
    monitor_ = std::make_unique<FailureMonitor>(
        network, "boom-monitor", servers_[0]->id(),
        [this] { servers_[1]->Promote(); }, options.monitor);

    options.client.failover_backoff = 1500 * kMillisecond;
    for (int c = 0; c < options.clients; ++c) {
      clients_.push_back(std::make_unique<BaselineClient>(
          network, "boom-client" + std::to_string(c), ids, options.client));
    }
    for (auto& s : servers_) s->Boot();
    monitor_->Boot();
    for (auto& c : clients_) c->Boot();
  }

  void KillMaster() { servers_[0]->Crash(); }

  BoomFsServer& server(int i) { return *servers_[i]; }
  BaselineClient& client(int i) { return *clients_[i]; }

 private:
  std::vector<std::unique_ptr<BoomFsServer>> servers_;
  std::unique_ptr<FailureMonitor> monitor_;
  std::vector<std::unique_ptr<BaselineClient>> clients_;
};

}  // namespace mams::baselines
