// MapReduce job simulator for Figure 9 (wordcount over a 5 GB input with
// an injected metadata-server failure).
//
// Model: the job splits the input into 64 MB splits; each map task opens
// its split (a getfileinfo against the file system under test), computes,
// and finishes. Reduce tasks start after the map phase (shuffle barrier,
// which is why the paper sees Boom-FS reduces "suspended" while maps
// recover), compute, and commit their output file (create + metadata
// round trips). Task slots bound parallelism. Every metadata operation
// goes through the system's client library, so a failover stalls exactly
// the tasks that touch metadata during it — reproducing the CDF shape.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "sim/simulator.hpp"
#include "workload/client_api.hpp"

namespace mams::workload {

class MapReduceJob {
 public:
  /// Task model: input split size, concurrent map/reduce slots, mean
  /// (exponential) CPU seconds per task, and the shuffle barrier.
  static constexpr std::uint64_t kSplitBytes = 64ull << 20;
  static constexpr int kMapSlots = 20;
  static constexpr int kReduceSlots = 10;
  static constexpr double kMapCpuMeanS = 6.0;
  static constexpr double kReduceCpuMeanS = 10.0;
  static constexpr double kShuffleS = 2.0;

  struct Options {
    std::uint64_t input_bytes = 5ull << 30;  ///< 5 GB wordcount input
    int reduce_tasks = 10;
  };

  MapReduceJob(sim::Simulator& sim, ClientApi api, Options options,
               std::uint64_t seed)
      : sim_(sim),
        api_(std::move(api)),
        options_(options),
        rng_(seed) {
    map_tasks_ = static_cast<int>(
        (options_.input_bytes + kSplitBytes - 1) / kSplitBytes);
  }

  int map_tasks() const noexcept { return map_tasks_; }

  /// Prepares the input files; call before Run and pump the simulator.
  void Setup(std::function<void()> done) {
    setup_done_ = std::move(done);
    api_.mkdir("/job/in", [this](Status) { SetupNext(0); });
  }

  void Run(std::function<void()> done) {
    done_ = std::move(done);
    start_time_ = sim_.Now();
    const int first_wave = std::min(kMapSlots, map_tasks_);
    for (int i = 0; i < first_wave; ++i) StartMap(next_map_++);
  }

  // --- results -----------------------------------------------------------
  const std::vector<SimTime>& map_completions() const noexcept {
    return map_done_times_;
  }
  const std::vector<SimTime>& reduce_completions() const noexcept {
    return reduce_done_times_;
  }
  SimTime start_time() const noexcept { return start_time_; }
  SimTime finish_time() const noexcept {
    return reduce_done_times_.empty() ? -1 : reduce_done_times_.back();
  }

 private:
  std::string SplitPath(int i) const {
    return "/job/in/part-" + std::to_string(i);
  }

  void SetupNext(int i) {
    if (i >= map_tasks_) {
      api_.mkdir("/job/out", [this](Status) { setup_done_(); });
      return;
    }
    api_.create(SplitPath(i), [this, i](Status) { SetupNext(i + 1); });
  }

  void StartMap(int task) {
    // Task start: resolve the split's metadata. A failover mid-job parks
    // the task right here until the client reconnects.
    api_.getfileinfo(SplitPath(task), [this, task](Result<fsns::FileInfo> r) {
      if (!r.ok()) {
        // The client library exhausted retries (long outage): back off and
        // retry the task, like the JobTracker re-scheduling an attempt.
        sim_.After(2 * kSecond, [this, task] { StartMap(task); });
        return;
      }
      const SimTime cpu = static_cast<SimTime>(
          rng_.Exponential(kMapCpuMeanS) * kSecond);
      sim_.After(cpu, [this] { FinishMap(); });
    });
  }

  void FinishMap() {
    map_done_times_.push_back(sim_.Now());
    ++maps_finished_;
    if (next_map_ < map_tasks_) {
      StartMap(next_map_++);
    } else if (maps_finished_ == map_tasks_) {
      // Shuffle barrier, then launch the reduce wave.
      sim_.After(static_cast<SimTime>(kShuffleS * kSecond), [this] {
        const int wave = std::min(kReduceSlots, options_.reduce_tasks);
        for (int r = 0; r < wave; ++r) StartReduce(next_reduce_++);
      });
    }
  }

  void StartReduce(int task) {
    const SimTime cpu = static_cast<SimTime>(
        rng_.Exponential(kReduceCpuMeanS) * kSecond);
    sim_.After(cpu, [this, task] { CommitReduce(task); });
  }

  void CommitReduce(int task) {
    // Output commit: a metadata create against the file system.
    api_.create("/job/out/part-r-" + std::to_string(task),
                [this, task](Status s) {
                  if (!s.ok()) {
                    sim_.After(2 * kSecond,
                               [this, task] { CommitReduce(task); });
                    return;
                  }
                  reduce_done_times_.push_back(sim_.Now());
                  ++reduces_finished_;
                  if (next_reduce_ < options_.reduce_tasks) {
                    StartReduce(next_reduce_++);
                  } else if (reduces_finished_ == options_.reduce_tasks) {
                    done_();
                  }
                });
  }

  sim::Simulator& sim_;
  ClientApi api_;
  Options options_;
  Rng rng_;
  int map_tasks_ = 0;
  int next_map_ = 0;
  int maps_finished_ = 0;
  int next_reduce_ = 0;
  int reduces_finished_ = 0;
  std::vector<SimTime> map_done_times_;
  std::vector<SimTime> reduce_done_times_;
  SimTime start_time_ = 0;
  std::function<void()> setup_done_;
  std::function<void()> done_;
};

}  // namespace mams::workload
