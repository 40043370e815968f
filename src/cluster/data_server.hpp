// Simulated data server: holds block replicas and reports them
// periodically to every metadata node of its group — active AND standbys
// (Section III.A: "block locations are periodically reported to both the
// active and standby nodes by data servers"), which is what makes MAMS
// standbys hot.
//
// Real block ids (small sets, exercised by correctness tests) are carried
// alongside a synthetic count used by the timing model, so Table I can
// emulate millions of blocks without materializing them.
#pragma once

#include <memory>
#include <vector>

#include "core/messages.hpp"
#include "net/host.hpp"
#include "sim/simulator.hpp"

namespace mams::cluster {

inline constexpr SimTime kBlockReportInterval = 3 * kSecond;

class DataServer : public net::Host {
 public:
  DataServer(net::Network& network, std::string name)
      : net::Host(network, std::move(name)) {}

  /// Metadata nodes to report to (all members of the groups this DN serves).
  void SetMetadataNodes(std::vector<NodeId> nodes) {
    metadata_nodes_ = std::move(nodes);
  }

  void AddBlock(BlockId block) { blocks_.push_back(block); }
  void SetSyntheticBlockCount(std::uint64_t count) { synthetic_count_ = count; }
  std::uint64_t block_count() const {
    return std::max<std::uint64_t>(blocks_.size(), synthetic_count_);
  }

  /// Sends one full report immediately (also used by baselines that demand
  /// re-registration after failover).
  void ReportNow() {
    for (NodeId node : metadata_nodes_) {
      auto msg = std::make_shared<core::BlockReportMsg>();
      msg->data_server = id();
      msg->blocks = blocks_;
      msg->synthetic_count = synthetic_count_;
      Call(node, msg, 30 * kSecond, [](Result<net::MessagePtr>) {});
    }
  }

 protected:
  void OnStart() override {
    report_timer_ = std::make_unique<sim::PeriodicTimer>(
        sim(), kBlockReportInterval, [this] { ReportNow(); });
    report_timer_->Start();
    ReportNow();
  }

  void OnCrash() override {
    net::Host::OnCrash();
    report_timer_.reset();
  }

 private:
  std::vector<NodeId> metadata_nodes_;
  std::vector<BlockId> blocks_;
  std::uint64_t synthetic_count_ = 0;
  std::unique_ptr<sim::PeriodicTimer> report_timer_;
};

}  // namespace mams::cluster
