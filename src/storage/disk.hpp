// Simple parametric disk model. The paper's pool nodes store namespace
// images and journal segments on local disks; what matters for the
// reproduction is that (a) sequential journal appends are cheap and mostly
// pipelined, and (b) reading an image costs time proportional to its size —
// Table I's x-axis. A seek charge + streaming-bandwidth model captures both.
#pragma once

#include <cstdint>

#include "common/types.hpp"

namespace mams::storage {

/// Every modelled disk shares the random-access charge and streaming
/// rates; devices differ only in their per-op charge when hot.
inline constexpr SimTime kDiskSeekLatency = 4 * kMillisecond;
inline constexpr double kDiskReadBytesPerSec = 100.0e6;
inline constexpr double kDiskWriteBytesPerSec = 90.0e6;

struct DiskParams {
  SimTime sequential_latency = 120 * kMicrosecond;  ///< per-op charge when hot
};

class DiskModel {
 public:
  explicit DiskModel(DiskParams params = {}) : params_(params) {}

  /// Cost of appending `bytes` to a hot sequential stream (journal).
  SimTime AppendCost(std::uint64_t bytes) const noexcept {
    return params_.sequential_latency + Stream(bytes, kDiskWriteBytesPerSec);
  }

  /// Cost of a random write of `bytes` (image checkpoint).
  SimTime WriteCost(std::uint64_t bytes) const noexcept {
    return kDiskSeekLatency + Stream(bytes, kDiskWriteBytesPerSec);
  }

  /// Cost of a sequential read of `bytes` starting cold (image load).
  SimTime ReadCost(std::uint64_t bytes) const noexcept {
    return kDiskSeekLatency + Stream(bytes, kDiskReadBytesPerSec);
  }

  /// Cost of a hot sequential read (journal tailing).
  SimTime TailCost(std::uint64_t bytes) const noexcept {
    return params_.sequential_latency + Stream(bytes, kDiskReadBytesPerSec);
  }

  const DiskParams& params() const noexcept { return params_; }

 private:
  static SimTime Stream(std::uint64_t bytes, double rate) noexcept {
    return static_cast<SimTime>(static_cast<double>(bytes) / rate *
                                static_cast<double>(kSecond));
  }

  DiskParams params_;
};

}  // namespace mams::storage
