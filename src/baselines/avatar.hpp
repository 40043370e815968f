// The Facebook AvatarNode baseline (ref [16]).
//
// Two "avatars" of the NameNode: the active writes its edit log
// synchronously to an NFS filer; the standby tails that shared log with a
// small lag and ingests block reports from every data server (data nodes
// talk to BOTH avatars). Failover is therefore warm — no block
// recollection — but the switch is heavyweight: failure detection via
// ZooKeeper-style session timeout, the final edit tail, lease/safemode
// re-validation and the client VIP switch add a large, image-size-
// independent constant. Table I shows it around 27-33 s at every scale,
// and Figure 6 shows the synchronous NFS write costing the most in the
// failure-free case.
#pragma once

#include <memory>

#include "baselines/namenode_base.hpp"
#include "storage/pool_node.hpp"
#include "storage/ssp_messages.hpp"

namespace mams::baselines {

/// Standby ingest lag.
inline constexpr SimTime kAvatarTailInterval = 300 * kMillisecond;
/// Administrative switch cost on takeover: lease recovery, safemode
/// re-check, VIP/DNS flip. Dominates Avatar's MTTR; flat in image size.
inline constexpr SimTime kAvatarAdminSwitchDelay = 19 * kSecond;
/// Failure detection: ZK session timeout over ZK heartbeats.
inline constexpr SimTime kAvatarDetectionTimeout = 5 * kSecond;
inline constexpr SimTime kAvatarDetectionInterval = 2 * kSecond;

/// Active avatar: every journal batch is a synchronous NFS write.
class AvatarActive : public NameNodeBase {
 public:
  AvatarActive(net::Network& network, std::string name, NodeId nfs_filer,
               core::OpCosts costs = {})
      : NameNodeBase(network, std::move(name), costs), nfs_(nfs_filer) {}

  static constexpr const char* kEditsFile = "avatar/edits";

 protected:
  bool Serving() const override { return alive(); }

  void PersistBatch(journal::Batch batch) override {
    auto msg = std::make_shared<storage::SspWriteMsg>();
    msg->file = kEditsFile;
    msg->record.sn = batch.sn;
    msg->record.bytes = batch.Serialize();
    Call(nfs_, msg, 5 * kSecond,
         [this, batch = std::move(batch)](Result<net::MessagePtr> r) {
           if (!r.ok()) return;  // NFS outage: ops stall (clients time out)
           CompleteBatch(batch);
         });
  }

 private:
  NodeId nfs_;
};

/// Standby avatar: tails the NFS edit log; takes over on command.
class AvatarStandby : public NameNodeBase {
 public:
  AvatarStandby(net::Network& network, std::string name, NodeId nfs_filer,
                core::OpCosts costs = {})
      : NameNodeBase(network, std::move(name), costs), nfs_(nfs_filer) {}

  /// Begins the failover sequence (called by the failure monitor).
  void TakeOver() {
    if (serving_ || taking_over_ || !alive()) return;
    taking_over_ = true;
    // Final tail: drain whatever the dead active managed to write.
    FinalTail();
  }

  bool serving() const noexcept { return serving_; }

 protected:
  bool Serving() const override { return alive() && serving_; }

  void PersistBatch(journal::Batch batch) override {
    // Promoted standby keeps using the NFS filer.
    auto msg = std::make_shared<storage::SspWriteMsg>();
    msg->file = AvatarActive::kEditsFile;
    msg->record.sn = batch.sn;
    msg->record.bytes = batch.Serialize();
    Call(nfs_, msg, 5 * kSecond,
         [this, batch = std::move(batch)](Result<net::MessagePtr> r) {
           if (!r.ok()) return;
           CompleteBatch(batch);
         });
  }

  void OnStart() override {
    NameNodeBase::OnStart();
    tail_timer_ = std::make_unique<sim::PeriodicTimer>(
        sim(), kAvatarTailInterval, [this] { Tail(false); });
    tail_timer_->Start();
  }

  void OnCrash() override {
    NameNodeBase::OnCrash();
    tail_timer_.reset();
    serving_ = false;
    taking_over_ = false;
  }

 private:
  void Tail(bool final_pass) {
    if (serving_) return;
    auto msg = std::make_shared<storage::SspReadMsg>();
    msg->file = AvatarActive::kEditsFile;
    msg->after_sn = last_sn_;
    msg->max_bytes = 16u << 20;
    Call(nfs_, msg, 2 * kSecond,
         [this, final_pass](Result<net::MessagePtr> r) {
           if (r.ok()) {
             const auto& reply = net::Cast<storage::SspReadReplyMsg>(r.value());
             for (const auto& rec : reply.records) {
               auto batch = journal::Batch::Deserialize(rec.bytes);
               if (!batch.ok() || batch.value().sn != last_sn_ + 1) continue;
               for (const auto& lr : batch.value().records) ReplayRecord(lr);
               last_sn_ = batch.value().sn;
             }
             if (final_pass && !reply.eof) {
               Tail(true);  // keep draining to the end of the shared log
               return;
             }
           }
           if (final_pass) {
             // Administrative switch: lease recovery, safemode re-check,
             // VIP flip. Then the avatar serves.
             AfterLocal(kAvatarAdminSwitchDelay, [this] {
               taking_over_ = false;
               serving_ = true;
               tail_timer_.reset();
               MAMS_INFO("avatar", "%s: takeover complete (sn=%llu)",
                         name().c_str(), (unsigned long long)last_sn_);
             });
           }
         });
  }

  void FinalTail() { Tail(true); }

  NodeId nfs_;
  std::unique_ptr<sim::PeriodicTimer> tail_timer_;
  bool serving_ = false;
  bool taking_over_ = false;
};

}  // namespace mams::baselines
