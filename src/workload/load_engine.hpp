// Scale-capable load generation. One engine drives any number of logical
// client sessions against one or more ClientApi endpoints in either of
// two modes:
//
//   * closed loop — a fixed session pool, each keeping exactly one op in
//     flight (the paper's "multiple clients on different nodes provide
//     the workload"). Every figure bench drives its load this way
//     (LoadEngineOptions::Closed). The engine records completion rates,
//     latencies and, for MTTR, the first failure and the first success
//     after it (Section IV.B's definition).
//
//   * open loop — sessions arrive at a rate λ(t) given by an
//     ArrivalCurve (constant / diurnal / flash-crowd), run a short op
//     program, and retire. Arrival timing never waits on service
//     completions — the defining property of open-loop load, which is
//     what exposes a metadata service to overload (λFS's argument).
//
// A session is a 16-byte POD slot in a slab, not a closure web: the op
// to issue next is drawn from the engine's shared generator state at
// issue time, and completion callbacks carry only (engine, slot, gen).
// One million concurrent sessions cost 16 MB of session state plus the
// in-flight RPC footprint — the engine itself never becomes the
// scaling bottleneck.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "metrics/series.hpp"
#include "obs/metrics.hpp"
#include "sim/simulator.hpp"
#include "workload/arrival.hpp"
#include "workload/client_api.hpp"
#include "workload/keydist.hpp"
#include "workload/opstream.hpp"

namespace mams::workload {

struct LoadEngineOptions {
  enum class Loop : std::uint8_t { kClosed, kOpen };
  Loop loop = Loop::kOpen;

  // --- closed loop -------------------------------------------------------
  int sessions = 8;  ///< fixed pool size
  /// Optional pre-existing files handed to the sessions' op streams
  /// (round-robin) so read/delete/rename workloads start warm.
  const std::vector<std::string>* seed_files = nullptr;

  // --- open loop ---------------------------------------------------------
  ArrivalCurve arrival = ArrivalCurve::Constant(100.0);
  KeyDistSpec keys = KeyDistSpec::Zipf(0.99);
  std::uint32_t ops_per_session = 4;  ///< op program length per session
  SimTime think_time = 0;             ///< virtual pause between a session's ops
  std::uint64_t max_sessions = 0;     ///< stop admitting after N arrivals (0 = ∞)
  int directories = 64;               ///< namespace fan-out for generated paths
  std::uint32_t files_per_dir = 0;    ///< preloaded read targets per directory
  std::string root = "/bench";

  /// Per-group arrival skew. When non-empty, each op first draws a target
  /// group from these (relative) weights, then picks a directory owned by
  /// that group — so a flash crowd can slam group 0 while group 1 idles,
  /// which is exactly the asymmetry an elastic fleet must react to.
  /// Requires `group_of` to classify a directory path to its owner group.
  std::vector<double> group_weights;
  std::function<GroupId(const std::string&)> group_of;

  /// Closed loop over `sessions` sessions, optionally warm-started from
  /// `seed_files`.
  static LoadEngineOptions Closed(
      int sessions, const std::vector<std::string>* seed_files = nullptr) {
    LoadEngineOptions o;
    o.loop = Loop::kClosed;
    o.sessions = sessions;
    o.seed_files = seed_files;
    return o;
  }
};

class LoadEngine {
 public:
  using Options = LoadEngineOptions;
  using Loop = LoadEngineOptions::Loop;

  /// MTTR probe: first failure timestamp and first success after it
  /// (Section IV.B: MTTR = Time_return_success - Time_return_failure).
  struct MttrProbe {
    SimTime first_failure = -1;
    SimTime first_success_after = -1;
    bool complete() const {
      return first_failure >= 0 && first_success_after >= 0;
    }
    SimTime mttr() const { return first_success_after - first_failure; }
  };

  LoadEngine(sim::Simulator& sim, std::vector<ClientApi> apis, Mix mix,
             std::uint64_t seed, Options options = {})
      : sim_(sim),
        apis_(std::move(apis)),
        mix_(mix),
        options_(options),
        rng_(seed),
        sampler_(options.arrival, Rng(seed).Fork(0x10ad)),
        picker_(options.keys,
                static_cast<std::uint32_t>(
                    options.directories > 0 ? options.directories : 1)) {
    if (options_.loop == Loop::kClosed) {
      // Sessions share a bounded stream pool instead of owning one
      // OpStream each: a 100k-session closed-loop run needs 100k slots of
      // issue state, not 100k generators. Ops are drawn at issue time, so
      // interleaved draws by the sessions mapped onto one stream are just
      // as valid a schedule. Pools of <= kMaxStreams sessions map
      // one-to-one with the same per-stream seeds as before, so every
      // existing bench keeps its digest.
      constexpr int kMaxStreams = 64;
      const int streams = std::min(options_.sessions, kMaxStreams);
      for (int s = 0; s < streams; ++s) {
        streams_.push_back(
            std::make_unique<OpStream>(mix, seed * 1315423911u + s));
      }
      if (options_.seed_files != nullptr && !streams_.empty()) {
        std::vector<std::vector<std::string>> shares(streams_.size());
        for (std::size_t i = 0; i < options_.seed_files->size(); ++i) {
          shares[i % shares.size()].push_back((*options_.seed_files)[i]);
        }
        for (std::size_t s = 0; s < streams_.size(); ++s) {
          streams_[s]->AdoptFiles(std::move(shares[s]));
        }
      }
    }
  }

  /// Convenience: single-endpoint engine.
  LoadEngine(sim::Simulator& sim, ClientApi api, Mix mix, std::uint64_t seed,
             Options options = {})
      : LoadEngine(sim, OneApi(std::move(api)), mix, seed, options) {}

  void Start() {
    running_ = true;
    start_time_ = sim_.Now();
    if (options_.loop == Loop::kClosed) {
      for (int s = 0; s < options_.sessions; ++s) IssueClosed(s);
    } else {
      ScheduleArrival();
    }
  }

  /// Stops admitting sessions and issuing ops; in-flight ops still
  /// complete (and are recorded).
  void Stop() {
    running_ = false;
    arrival_.Cancel();
  }

  // --- measurements ------------------------------------------------------
  std::uint64_t completed() const noexcept { return completed_; }
  std::uint64_t failed() const noexcept { return failed_; }
  const metrics::RateSeries& rate() const noexcept { return rate_; }
  /// Latency of every served op, in virtual ns.
  const obs::Histogram& latencies() const noexcept { return latencies_; }

  double Throughput() const {
    const double secs = ToSeconds(sim_.Now() - start_time_);
    return secs > 0 ? static_cast<double>(completed_) / secs : 0.0;
  }

  const MttrProbe& mttr_probe() const noexcept { return probe_; }

  // --- open-loop scale counters ------------------------------------------
  std::uint64_t sessions_finished() const noexcept { return finished_; }
  std::uint64_t live_sessions() const noexcept { return started_ - finished_; }
  std::uint64_t peak_live_sessions() const noexcept { return peak_live_; }
  /// True once every admitted session has retired (open loop only).
  bool drained() const noexcept {
    return options_.loop == Loop::kOpen && !arrival_.pending() &&
           started_ == finished_;
  }

 private:
  // 16-byte POD session. The generation guards slot reuse: a completion
  // or think-timer that outlives its session (engine stopped, slot
  // recycled) sees a mismatched gen and drops on the floor.
  struct Session {
    SimTime issued = 0;
    std::uint32_t gen = 0;
    std::uint16_t ops_left = 0;
    std::uint16_t api = 0;
  };

  static std::vector<ClientApi> OneApi(ClientApi api) {
    std::vector<ClientApi> v;
    v.push_back(std::move(api));
    return v;
  }

  // --- closed loop -------------------------------------------------------
  void IssueClosed(int session) {
    if (!running_) return;
    const Op op =
        streams_[static_cast<std::size_t>(session) % streams_.size()]->Next();
    const SimTime issued = sim_.Now();
    IssueOp(apis_[static_cast<std::size_t>(session) % apis_.size()], op,
            [this, session, issued](Status s) {
              OnClosedDone(session, issued, s);
            });
  }

  void OnClosedDone(int session, SimTime issued, const Status& status) {
    Record(issued, status);
    IssueClosed(session);
  }

  // --- open loop ---------------------------------------------------------
  void ScheduleArrival() {
    if (!running_) return;
    if (options_.max_sessions > 0 && started_ >= options_.max_sessions) return;
    arrival_ = sim_.At(sampler_.Next(sim_.Now()), [this] {
      Admit();
      ScheduleArrival();
    });
  }

  void Admit() {
    if (!running_) return;
    const std::uint32_t idx = AcquireSession();
    Session& s = sessions_[idx];
    s.ops_left = static_cast<std::uint16_t>(
        options_.ops_per_session > 0 ? options_.ops_per_session : 1);
    s.api = static_cast<std::uint16_t>(started_ % apis_.size());
    ++started_;
    if (live_sessions() > peak_live_) peak_live_ = live_sessions();
    IssueOpen(idx);
  }

  void IssueOpen(std::uint32_t idx) {
    if (!running_) {
      Retire(idx);
      return;
    }
    Session& s = sessions_[idx];
    s.issued = sim_.Now();
    const std::uint64_t token =
        (static_cast<std::uint64_t>(idx) << 32) | s.gen;
    IssueOp(apis_[s.api], MakeOp(), [this, token](Status st) {
      OnOpenDone(token, st);
    });
  }

  void OnOpenDone(std::uint64_t token, const Status& status) {
    const auto idx = static_cast<std::uint32_t>(token >> 32);
    const auto gen = static_cast<std::uint32_t>(token);
    if (idx >= sessions_.size() || sessions_[idx].gen != gen) return;  // stale
    Session& s = sessions_[idx];
    Record(s.issued, status);
    if (--s.ops_left == 0 || !running_) {
      Retire(idx);
      return;
    }
    if (options_.think_time > 0) {
      const std::uint64_t token2 = token;  // gen unchanged while thinking
      sim_.After(options_.think_time, [this, token2] {
        const auto i = static_cast<std::uint32_t>(token2 >> 32);
        const auto g = static_cast<std::uint32_t>(token2);
        if (i >= sessions_.size() || sessions_[i].gen != g) return;
        IssueOpen(i);
      });
    } else {
      IssueOpen(idx);
    }
  }

  std::uint32_t AcquireSession() {
    if (!free_.empty()) {
      const std::uint32_t idx = free_.back();
      free_.pop_back();
      return idx;
    }
    sessions_.push_back(Session{});
    return static_cast<std::uint32_t>(sessions_.size() - 1);
  }

  void Retire(std::uint32_t idx) {
    ++sessions_[idx].gen;  // invalidate any outstanding token
    free_.push_back(idx);
    ++finished_;
  }

  /// Draws the next op from the shared generator state. Reads target the
  /// preloaded file population (root/dD/fN); creates mint fresh names so
  /// they never collide; deletes and renames walk the same minted
  /// population, where a NotFound race is a valid served round trip.
  Op MakeOp() {
    const double roll = rng_.Uniform();
    double acc = mix_.create;
    Op op;
    if (roll < acc) {
      op.kind = OpKind::kCreate;
      op.path = Dir() + "/n" + std::to_string(next_file_++);
      return op;
    }
    acc += mix_.mkdir;
    if (roll < acc) {
      op.kind = OpKind::kMkdir;
      op.path = Dir() + "/sub" + std::to_string(rng_.Below(1000));
      return op;
    }
    acc += mix_.remove;
    if (roll < acc) {
      if (next_file_ == 0 && options_.files_per_dir == 0) return ForceCreate();
      op.kind = OpKind::kDelete;
      op.path = TargetPath();
      return op;
    }
    acc += mix_.rename;
    if (roll < acc) {
      if (next_file_ == 0 && options_.files_per_dir == 0) return ForceCreate();
      op.kind = OpKind::kRename;
      op.path = TargetPath();
      op.path2 = Dir() + "/r" + std::to_string(next_file_++);
      return op;
    }
    acc += mix_.listdir;
    if (roll < acc) {
      op.kind = OpKind::kListDir;
      op.path = Dir();
      return op;
    }
    acc += mix_.add_block;
    if (roll < acc) {
      op.kind = OpKind::kAddBlock;
      op.path = TargetPath();
      return op;
    }
    op.kind = OpKind::kGetFileInfo;
    op.path = options_.files_per_dir > 0 || next_file_ > 0 ? TargetPath()
                                                           : options_.root;
    return op;
  }

  Op ForceCreate() {
    Op op;
    op.kind = OpKind::kCreate;
    op.path = Dir() + "/n" + std::to_string(next_file_++);
    return op;
  }

  std::string Dir() {
    if (options_.group_weights.empty() || !options_.group_of) {
      return options_.root + "/d" + std::to_string(picker_.Sample(rng_));
    }
    BuildGroupBuckets();
    // Draw the group by weight, then a directory it owns; the popularity
    // picker still shapes which of the group's directories is hot.
    double total = 0;
    for (std::size_t g = 0; g < group_dirs_.size(); ++g) {
      if (!group_dirs_[g].empty()) total += WeightOf(g);
    }
    if (total <= 0) {
      return options_.root + "/d" + std::to_string(picker_.Sample(rng_));
    }
    double roll = rng_.Uniform() * total;
    std::size_t chosen = 0;
    for (std::size_t g = 0; g < group_dirs_.size(); ++g) {
      if (group_dirs_[g].empty()) continue;
      roll -= WeightOf(g);
      chosen = g;
      if (roll <= 0) break;
    }
    const auto& bucket = group_dirs_[chosen];
    const std::uint32_t d = bucket[picker_.Sample(rng_) % bucket.size()];
    return options_.root + "/d" + std::to_string(d);
  }

  double WeightOf(std::size_t g) const {
    return g < options_.group_weights.size() ? options_.group_weights[g] : 0.0;
  }

  /// Classifies the directory fan-out by owner group once, lazily: buckets
  /// depend only on root/directories/group_of, all fixed after construction.
  void BuildGroupBuckets() {
    if (!group_dirs_.empty()) return;
    for (std::uint32_t d = 0;
         d < static_cast<std::uint32_t>(
                 options_.directories > 0 ? options_.directories : 1);
         ++d) {
      const GroupId g =
          options_.group_of(options_.root + "/d" + std::to_string(d));
      if (group_dirs_.size() <= g) group_dirs_.resize(g + 1);
      group_dirs_[g].push_back(d);
    }
  }

  /// A path in the known file population: the preloaded fN set when one
  /// exists, otherwise a previously minted nN name.
  std::string TargetPath() {
    if (options_.files_per_dir > 0) {
      return Dir() + "/f" + std::to_string(rng_.Below(options_.files_per_dir));
    }
    return Dir() + "/n" + std::to_string(rng_.Below(next_file_ ? next_file_ : 1));
  }

  /// Shared outcome recording. AlreadyExists/NotFound are successful
  /// server round trips for the throughput and MTTR view (the service
  /// answered); Unavailable and TimedOut are real failures.
  void Record(SimTime issued, const Status& status) {
    const SimTime now = sim_.Now();
    const bool service_ok = status.code() != StatusCode::kUnavailable &&
                            status.code() != StatusCode::kTimedOut;
    if (!service_ok) {
      ++failed_;
      if (probe_.first_failure < 0) probe_.first_failure = now;
      return;
    }
    ++completed_;
    rate_.Record(now);
    latencies_.Record(now - issued);
    if (probe_.first_failure >= 0 && probe_.first_success_after < 0) {
      probe_.first_success_after = now;
    }
  }

  sim::Simulator& sim_;
  std::vector<ClientApi> apis_;
  Mix mix_;
  Options options_;
  Rng rng_;
  ArrivalSampler sampler_;
  KeyPicker picker_;

  // closed loop
  std::vector<std::unique_ptr<OpStream>> streams_;

  // open loop
  std::vector<std::vector<std::uint32_t>> group_dirs_;  ///< skew buckets
  std::vector<Session> sessions_;
  std::vector<std::uint32_t> free_;
  sim::EventHandle arrival_;
  std::uint64_t next_file_ = 0;
  std::uint64_t started_ = 0;
  std::uint64_t finished_ = 0;
  std::uint64_t peak_live_ = 0;

  bool running_ = false;
  SimTime start_time_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t failed_ = 0;
  metrics::RateSeries rate_;
  obs::Histogram latencies_;
  MttrProbe probe_;
};

}  // namespace mams::workload
