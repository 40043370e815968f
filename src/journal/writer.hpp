// Batching journal writer.
//
// "Multiple metadata modifications are aggregated before being submitted
// and written back to journals in an asynchronous way" (Section IV). The
// writer buffers records and emits a Batch when either the record budget
// fills or the aggregation window elapses. The active assigns sn values
// here; a writer re-seeded with the last durable sn after failover
// continues the sequence.
#pragma once

#include <functional>
#include <utility>
#include <vector>

#include "journal/record.hpp"
#include "sim/simulator.hpp"

namespace mams::journal {

/// A batch seals once its pending records encode to this many bytes.
inline constexpr std::size_t kMaxBatchBytes = 256 << 10;

class Writer {
 public:
  struct Options {
    std::size_t max_batch_records = 64;
    SimTime max_batch_delay = 2 * kMillisecond;
  };

  /// `sink` receives each sealed batch plus its serialized bytes (the MAMS
  /// active sends the batch through the 2PC to standbys and appends the
  /// bytes to the SSP; sealing serializes exactly once, so the sink must
  /// not re-serialize).
  using BatchSink = std::function<void(Batch, std::vector<char>)>;

  Writer(sim::Simulator& sim, Options options, BatchSink sink)
      : sim_(sim), options_(options), sink_(std::move(sink)) {}

  ~Writer() { flush_timer_.Cancel(); }

  /// Continues the sequence after <last_sn, last_txid> (failover reseed).
  void Reseed(SerialNumber last_sn, TxId last_txid) {
    next_sn_ = last_sn + 1;
    next_txid_ = last_txid + 1;
  }

  SerialNumber next_sn() const noexcept { return next_sn_; }
  TxId last_assigned_txid() const noexcept { return next_txid_ - 1; }

  /// Appends a record (txid assigned here) and returns the assigned txid.
  TxId Append(LogRecord record) {
    record.txid = next_txid_++;
    pending_bytes_ += record.EncodedSize();
    pending_.push_back(std::move(record));
    const TxId assigned = pending_.back().txid;
    if (pending_.size() >= options_.max_batch_records ||
        pending_bytes_ >= kMaxBatchBytes) {
      Flush();
    } else if (!flush_timer_.pending()) {
      flush_timer_ = sim_.After(options_.max_batch_delay, [this] { Flush(); });
    }
    return assigned;
  }

  /// Seals and emits the pending batch, if any.
  void Flush() {
    flush_timer_.Cancel();
    if (pending_.empty()) return;
    Batch batch;
    batch.sn = next_sn_++;
    batch.first_txid = pending_.front().txid;
    batch.records = std::exchange(pending_, {});
    pending_bytes_ = 0;
    // A single serialization pass seals the checksum and yields the wire
    // bytes the sink's SSP append reuses (the records are not serialized a
    // second time downstream).
    std::vector<char> bytes = batch.SealAndSerialize();
    sink_(std::move(batch), std::move(bytes));
  }

  std::size_t pending_records() const noexcept { return pending_.size(); }

 private:
  sim::Simulator& sim_;
  Options options_;
  BatchSink sink_;
  std::vector<LogRecord> pending_;
  std::size_t pending_bytes_ = 0;
  SerialNumber next_sn_ = 1;
  TxId next_txid_ = 1;
  sim::EventHandle flush_timer_;
};

}  // namespace mams::journal
