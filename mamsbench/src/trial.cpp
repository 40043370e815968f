#include "trial.hpp"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <functional>
#include <map>
#include <memory>
#include <utility>

#include "cluster/cfs.hpp"
#include "fsns/tree.hpp"
#include "journal/apply_plan.hpp"
#include "journal/record.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"
#include "workload/client_api.hpp"
#include "workload/load_engine.hpp"

namespace mamsbench {

using namespace mams;
using Clock = std::chrono::steady_clock;
using workload::OpKind;

namespace {

constexpr SimTime kSlice = 100 * kMillisecond;  ///< sampling period
constexpr SimTime kDrainLimit = 60 * kSecond;

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

double WallSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// CPU seconds this process has used. A trial is single-threaded, so this
/// is its wall time minus the time the host kept it descheduled; the wall
/// metrics are timed with it so that other load on the host does not
/// inflate them.
double CpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

bool IsRead(OpKind k) {
  return k == OpKind::kGetFileInfo || k == OpKind::kListDir;
}

workload::Mix MakeMix(double create, double mkdir, double remove,
                      double rename, double add_block, double stat,
                      double list) {
  workload::Mix m;
  m.create = create;
  m.mkdir = mkdir;
  m.remove = remove;
  m.rename = rename;
  m.add_block = add_block;
  m.getfileinfo = stat;
  m.listdir = list;
  return m;
}

std::vector<WorkloadSpec> BuildWorkloads() {
  std::vector<WorkloadSpec> out;
  {
    // Callers that wait on each reply saturate the write path: batching,
    // 2PC to three standbys, SSP append, standby apply, cross-group
    // renames and resolve-cache invalidation (delete + rename are 20% of
    // ops). The 16k preloaded files fit the 65,536-path resolve cache.
    WorkloadSpec w;
    w.name = "churn";
    w.groups = 2;
    w.closed_loop = true;
    w.mix = MakeMix(0.30, 0.05, 0.10, 0.10, 0.15, 0.25, 0.05);
    w.dirs = 256;
    w.files_per_dir = 64;
    w.warmup_s = 0.5;
    w.step_s = 1.5;
    w.virtual_trials = 3;
    out.push_back(w);
  }
  {
    // Read-heavy traffic spread over the standbys (park/bounce), with
    // twice the resolve cache in files so resolution misses, and little
    // journal work.
    WorkloadSpec w;
    w.name = "read_mostly";
    w.standby_reads = true;
    w.mix = MakeMix(0.05, 0, 0, 0, 0, 0.90, 0.05);
    w.dirs = 1024;
    w.files_per_dir = 128;
    w.ladder_ops_s = {120'000, 160'000, 200'000};
    w.nominal_step = 0;
    w.warmup_s = 0.3;
    w.step_s = 1.0;
    w.virtual_trials = 2;
    out.push_back(w);
  }
  {
    // The only workload where the client lease cache, the lease table and
    // the revocation relay do the work; it bypasses the journal, the SSP
    // and most of fsns. 64 directories fit the 4,096-directory cache.
    WorkloadSpec w;
    w.name = "hot_cache";
    w.client_cache = true;
    w.mix = MakeMix(0.0002, 0, 0, 0, 0.0003, 0.9795, 0.02);
    w.dirs = 64;
    w.files_per_dir = 16;
    w.ladder_ops_s = {20'000, 40'000, 80'000, 120'000};
    w.nominal_step = 1;
    w.warmup_s = 0.5;
    w.step_s = 4.0;
    w.virtual_trials = 2;
    out.push_back(w);
  }
  {
    // The only workload where coord sessions, election, the 6-step
    // upgrade, renew and client re-resolve do the work. Open loop, so
    // requests due while no active exists still count. The namespace is
    // built through the clients: a member that restarts rebuilds from the
    // SSP journal, which never saw a directly preloaded tree.
    WorkloadSpec w;
    w.name = "failover";
    w.standby_reads = true;
    w.mix = MakeMix(0.20, 0.05, 0, 0, 0.10, 0.60, 0.05);
    w.dirs = 64;
    w.files_per_dir = 16;
    w.namespace_via_clients = true;
    w.ladder_ops_s = {5'000};
    w.warmup_s = 1.0;
    w.crash_cycles = 4;
    w.cycle_s = 20.0;
    w.step_s = kFirstCrashS + w.crash_cycles * w.cycle_s;
    w.virtual_trials = 1;
    out.push_back(w);
  }
  {
    // One crash of the active, at a fixed phase of the heartbeat period:
    // coord session expiry, election, the 6-step upgrade and client
    // re-resolve, once. Reads go to the active, so every client waits out
    // the same outage and the read and write tails sit on the client's 2 s
    // retry steps on every seed. The victim stays down: its restart and
    // renew belong to `failover`, where renewal's final sync can chase the
    // active's recent-batch window for seconds on some seeds, which makes
    // wall time and memory bimodal.
    WorkloadSpec w;
    w.name = "election";
    w.mix = MakeMix(0.20, 0.05, 0, 0, 0.10, 0.60, 0.05);
    w.dirs = 64;
    w.files_per_dir = 16;
    w.namespace_via_clients = true;
    w.ladder_ops_s = {5'000};
    w.warmup_s = 1.0;
    w.crash_cycles = 1;
    w.restart_after_s = 0;
    w.step_s = 30.0;
    w.virtual_trials = 2;
    out.push_back(w);
  }
  return out;
}

/// One replayable op the wrapper saw complete (traced runs only).
struct OpRecord {
  OpKind kind;
  int client;
  std::string path;
  std::string path2;
};

/// The benchmark's ClientApi wrapper: times each call in virtual time
/// (from the call, which is the op's due time — the load engine makes
/// each call at the instant its op is due, so generator lag is zero by
/// construction) and in wall time, and attributes it to the current
/// measured step.
class Recorder {
 public:
  struct StepAcc {
    std::uint64_t attempted = 0, finished = 0, served = 0, failed = 0;
    std::uint64_t rejected = 0;
    std::vector<double> read_ms, write_ms;
  };

  Recorder(sim::Simulator& sim, bool record_ops, bool track_completions)
      : sim_(sim),
        record_ops_(record_ops),
        track_completions_(track_completions) {}

  /// Ops called from now on belong to step `step` (-1: not measured). A
  /// non-empty `create_tag` prefixes the base name of created files, so a
  /// fresh load engine per ladder step mints names no earlier step used.
  void BeginStep(int step, std::string create_tag) {
    step_ = step;
    create_tag_ = std::move(create_tag);
    if (step >= 0 && static_cast<std::size_t>(step) >= steps_.size()) {
      steps_.resize(static_cast<std::size_t>(step) + 1);
    }
  }

  workload::ClientApi Wrap(cluster::FsClient& client, int index) {
    workload::ClientApi api;
    api.create = [this, &client, index](const std::string& p,
                                        workload::ClientApi::Cb cb) {
      const std::string path = Tagged(p);
      TimeCall(client, index, OpKind::kCreate, path, {}, [&](auto done) {
        client.Create(path, Adapt(std::move(done), std::move(cb)));
      });
    };
    api.mkdir = [this, &client, index](const std::string& p,
                                       workload::ClientApi::Cb cb) {
      TimeCall(client, index, OpKind::kMkdir, p, {}, [&](auto done) {
        client.Mkdir(p, Adapt(std::move(done), std::move(cb)));
      });
    };
    api.remove = [this, &client, index](const std::string& p,
                                        workload::ClientApi::Cb cb) {
      TimeCall(client, index, OpKind::kDelete, p, {}, [&](auto done) {
        client.Delete(p, Adapt(std::move(done), std::move(cb)));
      });
    };
    api.rename = [this, &client, index](const std::string& s,
                                        const std::string& d,
                                        workload::ClientApi::Cb cb) {
      TimeCall(client, index, OpKind::kRename, s, d, [&](auto done) {
        client.Rename(s, d, Adapt(std::move(done), std::move(cb)));
      });
    };
    api.getfileinfo = [this, &client, index](const std::string& p,
                                             workload::ClientApi::InfoCb cb) {
      TimeCall(client, index, OpKind::kGetFileInfo, p, {}, [&](auto done) {
        client.GetFileInfo(
            p, [done = std::move(done),
                cb = std::move(cb)](Result<fsns::FileInfo> r) mutable {
              done(r.status());
              cb(std::move(r));
            });
      });
    };
    api.listdir = [this, &client, index](const std::string& p,
                                         workload::ClientApi::ListCb cb) {
      TimeCall(client, index, OpKind::kListDir, p, {}, [&](auto done) {
        client.ListDir(p, [done = std::move(done), cb = std::move(cb)](
                              Result<std::vector<std::string>> r) mutable {
          done(r.status());
          cb(std::move(r));
        });
      });
    };
    api.add_block = [this, &client, index](const std::string& p,
                                           workload::ClientApi::Cb cb) {
      TimeCall(client, index, OpKind::kAddBlock, p, {}, [&](auto done) {
        client.AddBlock(p, Adapt(std::move(done), std::move(cb)));
      });
    };
    api.has_listdir = true;
    api.has_add_block = true;
    return api;
  }

  std::uint64_t outstanding() const noexcept { return outstanding_; }
  std::vector<StepAcc>& steps() noexcept { return steps_; }
  const std::vector<Completion>& completions() const noexcept {
    return completions_;
  }
  const std::vector<OpRecord>& ops() const noexcept { return ops_; }
  std::uint64_t served_by_cache() const noexcept { return by_cache_; }
  std::uint64_t served_by_standby() const noexcept { return by_standby_; }
  std::uint64_t served_by_active() const noexcept { return by_active_; }
  double call_wall_ns() const noexcept { return call_wall_ns_; }
  std::uint64_t calls() const noexcept { return calls_; }

 private:
  using Done = std::function<void(const Status&)>;

  std::string Tagged(const std::string& path) const {
    if (create_tag_.empty()) return path;
    const std::size_t slash = path.rfind('/');
    return path.substr(0, slash + 1) + create_tag_ + path.substr(slash + 1);
  }

  static workload::ClientApi::Cb Adapt(Done done, workload::ClientApi::Cb cb) {
    return [done = std::move(done), cb = std::move(cb)](Status s) {
      done(s);
      cb(std::move(s));
    };
  }

  template <typename Call>
  void TimeCall(cluster::FsClient& client, int index, OpKind kind,
                const std::string& path, const std::string& path2,
                Call&& call) {
    const SimTime due = sim_.Now();
    const int step = step_;
    ++outstanding_;
    ++calls_;
    if (step >= 0) ++steps_[static_cast<std::size_t>(step)].attempted;
    std::shared_ptr<OpRecord> rec;
    if (record_ops_) {
      rec = std::make_shared<OpRecord>(OpRecord{kind, index, path, path2});
    }
    const auto w0 = Clock::now();
    call(Done([this, &client, kind, due, step, rec](const Status& s) {
      OnDone(client, kind, due, step, rec, s);
    }));
    call_wall_ns_ +=
        std::chrono::duration<double, std::nano>(Clock::now() - w0).count();
  }

  void OnDone(const cluster::FsClient& client, OpKind kind, SimTime due,
              int step, const std::shared_ptr<OpRecord>& rec,
              const Status& s) {
    --outstanding_;
    const StatusCode code = s.code();
    const bool served =
        code != StatusCode::kUnavailable && code != StatusCode::kTimedOut;
    if (served && rec) ops_.push_back(*rec);
    if (step < 0) return;
    StepAcc& acc = steps_[static_cast<std::size_t>(step)];
    ++acc.finished;
    if (track_completions_) {
      completions_.push_back(
          {ToSeconds(sim_.Now()), ToSeconds(due), !IsRead(kind), served});
    }
    if (!served) {
      ++acc.failed;
      return;
    }
    ++acc.served;
    if (code == StatusCode::kNotFound || code == StatusCode::kAlreadyExists) {
      ++acc.rejected;
    }
    const double ms = ToMillis(sim_.Now() - due);
    (IsRead(kind) ? acc.read_ms : acc.write_ms).push_back(ms);
    const cluster::OpStamp& stamp = client.last_stamp();
    if (stamp.via_cache) {
      ++by_cache_;
    } else if (stamp.via_standby) {
      ++by_standby_;
    } else {
      ++by_active_;
    }
  }

  sim::Simulator& sim_;
  const bool record_ops_;
  const bool track_completions_;
  int step_ = -1;
  std::string create_tag_;
  std::vector<StepAcc> steps_;
  std::uint64_t outstanding_ = 0;
  std::uint64_t calls_ = 0;
  double call_wall_ns_ = 0;
  std::uint64_t by_cache_ = 0, by_standby_ = 0, by_active_ = 0;
  std::vector<Completion> completions_;
  std::vector<OpRecord> ops_;
};

std::vector<std::string> NamespacePaths(const WorkloadSpec& w) {
  // The open-loop engine reads /bench/dD/fN; the closed-loop op streams
  // mint /bench/dD/fK for their creates, so their preloaded population
  // takes another base name to keep creates from colliding with it.
  const char* base = w.closed_loop ? "/p" : "/f";
  std::vector<std::string> paths;
  paths.reserve(static_cast<std::size_t>(w.dirs) *
                static_cast<std::size_t>(w.files_per_dir));
  for (int d = 0; d < w.dirs; ++d) {
    const std::string prefix = "/bench/d" + std::to_string(d) + base;
    for (int f = 0; f < w.files_per_dir; ++f) {
      paths.push_back(prefix + std::to_string(f));
    }
  }
  return paths;
}

void PreloadTree(fsns::Tree& tree, const std::vector<std::string>& paths) {
  for (const auto& p : paths) (void)tree.Create(p, 3, 0, ClientOpId{});
}

/// Creates `paths` through the clients (so every replica, the SSP journal
/// and any member that later rebuilds from it hold them), 64 in flight.
Status CreateThroughClients(sim::Simulator& sim, cluster::CfsCluster& cfs,
                            const std::vector<std::string>& paths) {
  std::size_t next = 0, done = 0;
  Status first_error = Status::Ok();
  std::function<void(int)> create_next = [&](int c) {
    if (next >= paths.size()) return;
    const std::string& p = paths[next++];
    cfs.client(c).Create(p, [&, c](Status s) {
      ++done;
      if (!s.ok() && first_error.ok()) first_error = s;
      create_next(c);
    });
  };
  for (int k = 0; k < 64; ++k) create_next(k % cfs.client_count());
  const SimTime limit = sim.Now() + 120 * kSecond;
  while (done < paths.size() && sim.Now() < limit) {
    sim.RunUntil(sim.Now() + kSlice);
  }
  if (done < paths.size()) return Status::TimedOut("namespace build stalled");
  return first_error;
}

/// Sums of the per-server and per-client counters that have no registry
/// twin, plus a copy of every registry counter.
struct Snapshot {
  std::map<std::string, std::uint64_t> reg;
  std::uint64_t pipeline_deferred = 0, apply_waves = 0, batches_applied = 0;
  std::uint64_t apply_serial_fallbacks = 0;
  cluster::FsClient::Counters client;
};

Snapshot Take(sim::Simulator& sim, cluster::CfsCluster& cfs) {
  Snapshot s;
  for (const auto& [name, c] : sim.obs().metrics().counters()) {
    s.reg[name] = c.value;
  }
  for (GroupId g = 0; g < cfs.config().groups; ++g) {
    for (const auto& m : cfs.Members(g)) {
      const auto& c = m.server->counters();
      s.pipeline_deferred += c.pipeline_deferred;
      s.apply_waves += c.apply_waves;
      s.batches_applied += c.batches_applied;
      s.apply_serial_fallbacks += c.apply_serial_fallbacks;
    }
  }
  for (int i = 0; i < cfs.client_count(); ++i) {
    const auto& c = cfs.client(i).counters();
    s.client.retries += c.retries;
    s.client.reconnects += c.reconnects;
    s.client.read_bounces += c.read_bounces;
    s.client.read_fallbacks += c.read_fallbacks;
    s.client.cache_hits += c.cache_hits;
    s.client.cache_misses += c.cache_misses;
  }
  return s;
}

double Delta(std::uint64_t after, std::uint64_t before) {
  return after >= before ? static_cast<double>(after - before) : 0.0;
}

double RegDelta(const Snapshot& a, const Snapshot& b, const std::string& name) {
  auto ia = a.reg.find(name);
  auto ib = b.reg.find(name);
  return Delta(ia == a.reg.end() ? 0 : ia->second,
               ib == b.reg.end() ? 0 : ib->second);
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Gate: alive replicas of a group at equal last_sn must hold identical
/// namespaces.
void CheckReplicas(cluster::CfsCluster& cfs, std::vector<std::string>& out) {
  for (GroupId g = 0; g < cfs.config().groups; ++g) {
    std::map<SerialNumber, std::pair<std::string, std::uint64_t>> by_sn;
    for (const auto& m : cfs.Members(g)) {
      if (!m.server->alive()) continue;
      const SerialNumber sn = m.server->last_sn();
      const std::uint64_t fp = m.server->tree().Fingerprint();
      auto [it, fresh] =
          by_sn.emplace(sn, std::make_pair(m.server->name(), fp));
      if (!fresh && it->second.second != fp) {
        out.push_back("group " + std::to_string(g) + ": " + m.server->name() +
                      " and " + it->second.first + " differ at sn " +
                      std::to_string(sn));
      }
    }
  }
}

/// Self time per span category: a span's duration minus the part of it
/// covered by spans nested inside it on the same node.
std::map<std::string, double> FoldSelfTimeMs(
    const std::vector<obs::SpanRecord>& spans) {
  auto key_of = [](const obs::SpanRecord& s) -> std::string {
    const std::string cat = s.category;
    if (cat == "failover" && s.name == "election") return "failover_election";
    if (cat == "ssp" && s.name == "append") return "ssp_append";
    if (cat == "paxos" && s.name == "propose") return "paxos_propose";
    if (cat == "mds" && s.name == "checkpoint") return "mds_checkpoint";
    if (cat == "renew") return "renew";
    return {};
  };
  std::map<std::string, double> out = {{"failover_election", 0},
                                       {"ssp_append", 0},
                                       {"paxos_propose", 0},
                                       {"mds_checkpoint", 0},
                                       {"renew", 0}};
  std::map<NodeId, std::vector<const obs::SpanRecord*>> by_node;
  for (const auto& s : spans) by_node[s.node].push_back(&s);
  for (auto& [node, list] : by_node) {
    std::sort(list.begin(), list.end(), [](auto* a, auto* b) {
      return a->begin != b->begin ? a->begin < b->begin : a->end > b->end;
    });
    for (std::size_t i = 0; i < list.size(); ++i) {
      const std::string key = key_of(*list[i]);
      if (key.empty()) continue;
      const SimTime b = list[i]->begin, e = list[i]->end;
      SimTime covered = 0, cursor = b;
      for (std::size_t j = i + 1; j < list.size() && list[j]->begin < e; ++j) {
        if (list[j]->end > e) continue;  // overlaps, not nested
        const SimTime lo = std::max(cursor, list[j]->begin);
        if (list[j]->end > lo) {
          covered += list[j]->end - lo;
          cursor = list[j]->end;
        }
      }
      out[key] += ToMillis(e - b - covered);
    }
  }
  return out;
}

/// Wall cost of the ops the wrapper saw complete, replayed outside the
/// cluster: each op runs on a standalone tree standing in for its owner
/// group's active (preloaded like the cluster's), and every record that
/// returns is applied to a second tree standing in for a standby.
struct Replay {
  std::map<OpKind, double> exec_ns;   ///< mean per op, active side
  std::map<OpKind, double> apply_ns;  ///< mean per record, standby side
  double exec_total_ns = 0, apply_total_ns = 0;
  double structural_total_ns = 0;  ///< delete + rename, both sides
  std::vector<std::vector<journal::LogRecord>> records;  ///< per group
  std::vector<std::unique_ptr<fsns::Tree>> active;
};

double NsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
}

Replay RunReplay(const std::vector<std::string>& preload,
                 const std::vector<OpRecord>& ops,
                 const fsns::HashPartitioner& part,
                 std::size_t cache_capacity) {
  Replay out;
  const GroupId groups = part.group_count();
  std::vector<std::unique_ptr<fsns::Tree>> standby;
  for (GroupId g = 0; g < groups; ++g) {
    std::vector<std::string> owned;
    for (const auto& p : preload) {
      if (part.OwnerOf(p) == g) owned.push_back(p);
    }
    for (auto* side : {&out.active, &standby}) {
      side->push_back(std::make_unique<fsns::Tree>());
      side->back()->SetResolveCacheCapacity(cache_capacity);
      PreloadTree(*side->back(), owned);
    }
  }
  out.records.resize(groups);
  std::map<OpKind, std::uint64_t> n_exec, n_apply;
  std::map<int, std::uint64_t> seq;  ///< per-client op sequence
  for (const OpRecord& op : ops) {
    const GroupId g = part.OwnerOf(op.path);
    fsns::Tree& tree = *out.active[g];
    const ClientOpId id{static_cast<std::uint64_t>(op.client) + 1,
                        ++seq[op.client]};
    Result<journal::LogRecord> r = Status::NotFound("read");
    const auto t0 = Clock::now();
    switch (op.kind) {
      case OpKind::kCreate: r = tree.Create(op.path, 3, 0, id); break;
      case OpKind::kMkdir: r = tree.Mkdir(op.path, 0, id); break;
      case OpKind::kDelete: r = tree.Delete(op.path, 0, id); break;
      case OpKind::kRename: r = tree.Rename(op.path, op.path2, 0, id); break;
      case OpKind::kAddBlock: r = tree.AddBlock(op.path, 0, id); break;
      case OpKind::kGetFileInfo: (void)tree.GetFileInfo(op.path); break;
      case OpKind::kListDir: (void)tree.ListDir(op.path); break;
    }
    const double exec = NsSince(t0);
    out.exec_ns[op.kind] += exec;
    out.exec_total_ns += exec;
    ++n_exec[op.kind];
    const bool structural =
        op.kind == OpKind::kDelete || op.kind == OpKind::kRename;
    if (structural) out.structural_total_ns += exec;
    if (!r.ok()) continue;
    const auto t1 = Clock::now();
    (void)standby[g]->Apply(r.value());
    const double apply = NsSince(t1);
    out.apply_ns[op.kind] += apply;
    out.apply_total_ns += apply;
    if (structural) out.structural_total_ns += apply * 3;
    ++n_apply[op.kind];
    out.records[g].push_back(std::move(r).value());
  }
  for (auto& [kind, total] : out.exec_ns) total /= double(n_exec[kind]);
  for (auto& [kind, total] : out.apply_ns) total /= double(n_apply[kind]);
  return out;
}

}  // namespace

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> kWorkloads = BuildWorkloads();
  return kWorkloads;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const auto& w : Workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

std::uint64_t TrialSeed(std::uint64_t seed, int i) {
  return seed * 1000003ull + static_cast<std::uint64_t>(i) * 7919ull + 1;
}

TrialResult RunTrial(const WorkloadSpec& w, std::uint64_t seed,
                     const TrialOptions& opt) {
  const double cpu0 = CpuSeconds();
  TrialResult r;
  auto scaled = [&](double s) {
    return static_cast<SimTime>(s * opt.scale * static_cast<double>(kSecond));
  };

  sim::Simulator sim(seed);
  sim.obs().tracer().set_enabled(opt.trace);
  net::Network net(sim);
  cluster::CfsConfig cfg;
  cfg.groups = static_cast<GroupId>(w.groups);
  cfg.standbys_per_group = 3;
  cfg.clients = 4;
  cfg.data_servers = 2;
  if (w.standby_reads) {
    cfg.mds.standby_reads.serve_reads = true;
    cfg.client.read_routing = cluster::ReadRouting::kRoundRobinStandby;
  }
  if (w.client_cache) {
    cfg.mds.client_leases.grant_leases = true;
    cfg.client.cache.enabled = true;
  }
  cluster::CfsCluster cfs(net, cfg);
  cfs.Start();
  sim.RunUntil(sim.Now() + kSecond);

  // --- namespace ----------------------------------------------------------
  const std::vector<std::string> paths = NamespacePaths(w);
  if (w.namespace_via_clients) {
    const Status s = CreateThroughClients(sim, cfs, paths);
    if (!s.ok()) r.gate_failures.push_back("namespace build: " + s.ToString());
  } else {
    for (GroupId g = 0; g < cfg.groups; ++g) {
      std::vector<std::string> owned;
      for (const auto& p : paths) {
        if (cfs.partitioner().OwnerOf(p) == g) owned.push_back(p);
      }
      cfs.PreloadGroup(g, [&owned](fsns::Tree& t) { PreloadTree(t, owned); });
    }
  }

  // --- load ---------------------------------------------------------------
  Recorder rec(sim, opt.trace, w.crash_cycles > 0);
  std::vector<workload::ClientApi> apis;
  for (int c = 0; c < cfs.client_count(); ++c) {
    apis.push_back(rec.Wrap(cfs.client(c), c));
  }
  std::vector<std::unique_ptr<workload::LoadEngine>> engines;
  auto make_engine = [&](double ops_s, std::uint64_t salt) {
    workload::LoadEngineOptions o;
    if (w.closed_loop) {
      o.loop = workload::LoadEngineOptions::Loop::kClosed;
      o.sessions = kClosedLoopSessions;
      o.seed_files = &paths;
    } else {
      o.loop = workload::LoadEngineOptions::Loop::kOpen;
      o.arrival = workload::ArrivalCurve::Constant(ops_s / 4.0);
      o.keys = workload::KeyDistSpec::Zipf(0.99);
      o.ops_per_session = 4;
      o.directories = w.dirs;
      o.files_per_dir = static_cast<std::uint32_t>(w.files_per_dir);
      o.root = "/bench";
    }
    engines.push_back(std::make_unique<workload::LoadEngine>(
        sim, apis, w.mix, seed * 31 + salt, o));
    engines.back()->Start();
    return engines.back().get();
  };

  std::uint64_t window_events = 0;
  std::int64_t queue_depth_max = 0;
  auto sample_queues = [&] {
    for (GroupId g = 0; g < cfg.groups; ++g) {
      if (core::MdsServer* a = cfs.FindActive(g)) {
        queue_depth_max =
            std::max(queue_depth_max,
                     static_cast<std::int64_t>(a->commit_queue_depth()));
      }
    }
  };

  const std::vector<double> ladder =
      w.closed_loop ? std::vector<double>{0.0} : w.ladder_ops_s;
  const std::size_t headline = w.closed_loop ? 0 : w.nominal_step;
  workload::LoadEngine* current = make_engine(ladder.front(), 0);
  rec.BeginStep(-1, w.closed_loop ? "" : "w");
  sim.RunUntil(sim.Now() + scaled(w.warmup_s));

  r.setup_wall_s = CpuSeconds() - cpu0;
  if (opt.setup_only) return r;
  const Snapshot before = Take(sim, cfs);
  const SimTime window_open = sim.Now();
  const auto window_wall0 = Clock::now();
  // Crash k falls at first_crash_s + k * cycle_s plus an offset into the
  // heartbeat period. The offsets are fixed and spread evenly over the
  // period (the midpoints of crash_cycles equal strata), so every trial, at
  // any seed, meets failure detection at the same phases.
  std::vector<SimTime> crash_at;
  for (int k = 0; k < w.crash_cycles; ++k) {
    const double phase = (k + 0.5) / w.crash_cycles;
    crash_at.push_back(
        window_open + scaled(kFirstCrashS) + k * scaled(w.cycle_s) +
        static_cast<SimTime>(
            phase * static_cast<double>(cfg.mds.heartbeat_interval)));
  }
  std::size_t next_crash = 0;

  for (std::size_t step = 0; step < ladder.size(); ++step) {
    if (!w.closed_loop) {
      current->Stop();
      current = make_engine(ladder[step], step + 1);
    }
    rec.BeginStep(static_cast<int>(step),
                  w.closed_loop ? "" : "s" + std::to_string(step));
    const double step_cpu0 = CpuSeconds();
    const SimTime step_end = sim.Now() + scaled(w.step_s);
    std::vector<std::uint64_t> live;
    while (sim.Now() < step_end) {
      if (next_crash < crash_at.size() && sim.Now() >= crash_at[next_crash]) {
        if (core::MdsServer* victim = cfs.FindActive(0)) {
          victim->Crash();
          if (w.restart_after_s > 0) {
            victim->Restart(scaled(w.restart_after_s));
          }
          r.crashes_s.push_back(ToSeconds(sim.Now()));
          ++next_crash;
        }
      }
      // A crash that is due waits, slice by slice, until an active exists.
      SimTime until = std::min(step_end, sim.Now() + kSlice);
      if (next_crash < crash_at.size() && crash_at[next_crash] > sim.Now()) {
        until = std::min(until, crash_at[next_crash]);
      }
      window_events += sim.RunUntil(until);
      sample_queues();
      live.push_back(current->live_sessions());
    }
    LadderStep ls;
    ls.offered_ops_s = ladder[step];
    auto& acc = rec.steps()[step];
    std::sort(acc.read_ms.begin(), acc.read_ms.end());
    ls.read_p99 = SupportedPercentile(acc.read_ms, 0.99);
    ls.backlog_grew = !w.closed_loop && BacklogGrows(live);
    r.ladder.push_back(ls);
    if (step == headline) {
      r.ops_per_wall_s =
          static_cast<double>(acc.served) / (CpuSeconds() - step_cpu0);
      r.headline_digest = sim.run_digest();
      r.rss_mb = PeakRssMb();
      if (opt.headline_only) return r;
    }
    if (ls.backlog_grew) break;  // past the knee: higher steps only pile up
  }
  r.window_wall_s = WallSince(window_wall0);
  current->Stop();

  // --- drain ---------------------------------------------------------------
  const SimTime drain_limit = sim.Now() + kDrainLimit;
  while (rec.outstanding() > 0 && sim.Now() < drain_limit) {
    sim.RunUntil(sim.Now() + kSlice);
  }
  sim.RunUntil(sim.Now() + kSecond);  // let standbys apply the tail
  r.end_s = ToSeconds(sim.Now());
  r.digest = sim.run_digest();
  const Snapshot after = Take(sim, cfs);

  // --- end-to-end (virtual) -------------------------------------------------
  auto& steps = rec.steps();
  for (std::size_t s = 0; s < steps.size(); ++s) {
    auto& acc = steps[s];
    r.attempted += acc.attempted;
    r.failed += acc.failed + (acc.attempted - acc.finished);
    r.rejected += acc.rejected;
    r.window_served += acc.served;
  }
  if (headline < r.ladder.size() && headline < steps.size()) {
    r.read_ms = std::move(steps[headline].read_ms);
    r.write_ms = std::move(steps[headline].write_ms);
    r.headline_served = steps[headline].served;
    r.headline_virtual_s = ToSeconds(scaled(w.step_s));
  } else {
    r.gate_failures.push_back("ladder stopped before the nominal step");
  }
  r.completions = rec.completions();
  if (r.crashes_s.size() < crash_at.size()) {
    r.gate_failures.push_back(
        "only " + std::to_string(r.crashes_s.size()) + " of " +
        std::to_string(crash_at.size()) +
        " crashes happened: no active to crash when one was due");
  }

  // --- correctness gate ------------------------------------------------------
  CheckReplicas(cfs, r.gate_failures);
  for (const auto& v : sim.obs().probes().violations()) {
    r.gate_failures.push_back("probe " + v.probe + ": " + v.detail);
  }

  // --- per-layer -----------------------------------------------------------
  auto& L = r.layer;
  const auto& reg = sim.obs().metrics();
  auto hist = [&](const char* name) -> const obs::Histogram* {
    auto it = reg.histograms().find(name);
    return it == reg.histograms().end() ? nullptr : &it->second;
  };
  auto hq = [&](const char* name, double q, double scale_to) {
    const obs::Histogram* h = hist(name);
    return h == nullptr ? 0.0 : static_cast<double>(h->Quantile(q)) / scale_to;
  };
  auto hmean = [&](const char* name) {
    const obs::Histogram* h = hist(name);
    return h == nullptr ? 0.0 : h->Mean();
  };
  auto d = [&](const std::string& name) {
    return RegDelta(after, before, name);
  };
  const double served = static_cast<double>(r.window_served);
  const double batches = d("mds.batches_synced");

  L["sim.events_per_op"] = Ratio(static_cast<double>(window_events), served);
  L["sim.events_per_wall_s"] =
      Ratio(static_cast<double>(window_events), r.window_wall_s);

  double bytes = 0;
  for (const auto& entry : after.reg) {
    if (entry.first.rfind("net.bytes.", 0) == 0) bytes += d(entry.first);
  }
  L["net.msgs_per_op"] = Ratio(d("net.delivered"), served);
  L["net.bytes_per_op"] = Ratio(bytes, served);
  L["net.rpc.retries_per_op"] = Ratio(d("net.rpc.retries"), served);
  L["net.rpc.timeouts"] = d("net.rpc.timeouts");
  L["net.rpc.late_responses"] = d("net.rpc.late_responses");
  L["net.rpc.dedup_hits"] = d("net.rpc.dedup_hits");

  L["core.records_per_batch"] = hmean("mds.batch_records");
  L["core.sync_round_p50_ms"] = hq("mds.sync_batch_ns", 0.50, 1e6);
  L["core.sync_round_p99_ms"] = hq("mds.sync_batch_ns", 0.99, 1e6);
  L["core.pipeline_deferred"] =
      Delta(after.pipeline_deferred, before.pipeline_deferred);
  L["core.commit_queue_depth_max"] = static_cast<double>(queue_depth_max);
  for (const char* c :
       {"standby_reads_served", "standby_reads_parked", "standby_reads_bounced",
        "leases_granted", "leases_revoked", "lease_replies_held",
        "lease_barrier_expiries", "buffered_during_upgrade",
        "duplicate_batches", "cross_group_renames"}) {
    L[std::string("core.") + c] = d(std::string("mds.") + c);
  }

  L["journal.apply_waves_per_batch"] =
      Ratio(Delta(after.apply_waves, before.apply_waves),
            Delta(after.batches_applied, before.batches_applied));
  L["journal.apply_serial_fallbacks"] =
      Delta(after.apply_serial_fallbacks, before.apply_serial_fallbacks);

  const double rc_hits = d("mds.resolve_cache_hits");
  L["fsns.resolve_cache_hit_rate"] =
      Ratio(rc_hits, rc_hits + d("mds.resolve_cache_misses"));
  L["fsns.invalidations_per_op"] =
      Ratio(d("mds.resolve_cache_invalidations"), served);
  L["fsns.resolve_wall_ns_p50"] = hq("mds.resolve_ns", 0.50, 1.0);
  L["fsns.resolve_wall_ns_p99"] = hq("mds.resolve_ns", 0.99, 1.0);

  L["storage.ssp_appends_per_batch"] = Ratio(d("ssp.append"), batches);
  L["storage.ssp_append_p99_ms"] = hq("ssp.append_ns", 0.99, 1e6);
  L["storage.ssp_append_fail"] = d("ssp.append_fail");
  L["storage.ssp_reads"] = d("ssp.read");

  for (const char* c :
       {"sessions_expired", "elections", "watch_events", "revokes_relayed"}) {
    L[std::string("coord.") + c] = d(std::string("coord.") + c);
  }
  L["paxos.propose_rounds"] = hmean("paxos.propose_rounds");
  L["paxos.propose_p99_ms"] = hq("paxos.propose_ns", 0.99, 1e6);
  L["paxos.propose_fail"] = d("paxos.propose_fail");

  L["cluster.served_by_cache"] = static_cast<double>(rec.served_by_cache());
  L["cluster.served_by_standby"] = static_cast<double>(rec.served_by_standby());
  L["cluster.served_by_active"] = static_cast<double>(rec.served_by_active());
  const double hits = Delta(after.client.cache_hits, before.client.cache_hits);
  const double misses =
      Delta(after.client.cache_misses, before.client.cache_misses);
  L["cluster.cache_hit_rate"] = Ratio(hits, hits + misses);
  L["cluster.retries_per_op"] =
      Ratio(Delta(after.client.retries, before.client.retries), served);
  L["cluster.reconnects"] =
      Delta(after.client.reconnects, before.client.reconnects);
  L["cluster.read_bounces"] =
      Delta(after.client.read_bounces, before.client.read_bounces);
  L["cluster.read_fallbacks"] =
      Delta(after.client.read_fallbacks, before.client.read_fallbacks);
  L["cluster.issue_wall_ns"] =
      Ratio(rec.call_wall_ns(), static_cast<double>(rec.calls()));

  double peak_live = 0, samples_held = 0;
  for (auto& e : engines) {
    const double live = w.closed_loop
                            ? kClosedLoopSessions
                            : static_cast<double>(e->peak_live_sessions());
    peak_live = std::max(peak_live, live);
    samples_held += static_cast<double>(e->latencies().count());
  }
  L["workload.peak_live_sessions"] = peak_live;
  L["workload.latency_samples_held"] = samples_held;
  L["workload.rejected_frac"] =
      Ratio(static_cast<double>(r.rejected), served);
  L["failover.unavail_s"] =
      MeanUnavailability(r.crashes_s, r.completions, r.end_s);

  if (!opt.trace) return r;

  // --- traced run only -----------------------------------------------------
  const auto& spans = sim.obs().tracer().spans();
  for (const auto& [key, ms] : FoldSelfTimeMs(spans)) {
    L["trace.self_ms." + key] = ms;
  }
  double election = 0, sw = 0, reconnect = 0;
  int n_election = 0, n_switch = 0, n_reconnect = 0;
  for (const auto& s : spans) {
    if (std::string(s.category) != "failover") continue;
    if (s.name == "election") {
      election += ToMillis(s.end - s.begin);
      ++n_election;
    } else if (s.name == "switch") {
      sw += ToMillis(s.end - s.begin);
      ++n_switch;
      const double end_s = ToSeconds(s.end);
      for (const Completion& c : r.completions) {
        if (c.at_s >= end_s && c.mutation && c.served && c.due_s >= end_s) {
          reconnect += (c.at_s - end_s) * 1000.0;
          ++n_reconnect;
          break;
        }
      }
    }
  }
  L["failover.election_ms"] = n_election ? election / n_election : 0.0;
  L["failover.switch_ms"] = n_switch ? sw / n_switch : 0.0;
  L["failover.reconnect_ms"] = n_reconnect ? reconnect / n_reconnect : 0.0;

  // fsns: replay what the wrapper saw complete, with the servers' resolve
  // cache capacity and with the cache off (the difference on delete and
  // rename is the cost of prefix invalidation).
  const Replay rp =
      RunReplay(paths, rec.ops(), cfs.partitioner(),
                cfg.mds.resolve_cache_capacity);
  const Replay rp_off = RunReplay(paths, rec.ops(), cfs.partitioner(), 0);
  auto at = [](const std::map<OpKind, double>& m, OpKind k) {
    auto it = m.find(k);
    return it == m.end() ? 0.0 : it->second;
  };
  L["fsns.wall_ns_per_create"] = at(rp.exec_ns, OpKind::kCreate);
  L["fsns.wall_ns_per_delete"] = at(rp.exec_ns, OpKind::kDelete);
  L["fsns.wall_ns_per_rename"] = at(rp.exec_ns, OpKind::kRename);
  L["fsns.wall_ns_per_stat"] = at(rp.exec_ns, OpKind::kGetFileInfo);
  L["fsns.wall_ns_per_delete_nocache"] = at(rp_off.exec_ns, OpKind::kDelete);
  L["fsns.wall_ns_per_rename_nocache"] = at(rp_off.exec_ns, OpKind::kRename);
  L["fsns.apply_wall_ns_per_delete"] = at(rp.apply_ns, OpKind::kDelete);
  L["fsns.apply_wall_ns_per_rename"] = at(rp.apply_ns, OpKind::kRename);

  // journal: each group's replayed records grouped at the measured batch
  // size; the active serializes each batch once, each standby plans it.
  const std::size_t per_batch = std::max<std::size_t>(
      1, static_cast<std::size_t>(L["core.records_per_batch"] + 0.5));
  double plan_ns = 0, ser_ns = 0, n_records = 0;
  std::size_t sink = 0;
  for (GroupId g = 0; g < rp.records.size(); ++g) {
    const auto& records = rp.records[g];
    const fsns::Tree& tree = *rp.active[g];
    for (std::size_t i = 0; i < records.size(); i += per_batch) {
      journal::Batch batch;
      batch.sn = i / per_batch + 1;
      batch.first_txid = records[i].txid;
      batch.records.assign(
          records.begin() + static_cast<std::ptrdiff_t>(i),
          records.begin() + static_cast<std::ptrdiff_t>(
                                std::min(i + per_batch, records.size())));
      const auto t0 = Clock::now();
      const journal::ApplyPlan plan = journal::BuildApplyPlan(
          batch.records, [&](std::string_view p) { return tree.Exists(p); });
      const auto t1 = Clock::now();
      const std::vector<char> bytes = batch.Serialize();
      sink += plan.waves.size() + bytes.size();
      plan_ns += std::chrono::duration<double, std::nano>(t1 - t0).count();
      ser_ns += NsSince(t1);
    }
    n_records += static_cast<double>(records.size());
  }
  L["journal.plan_ns_per_record"] = Ratio(plan_ns, n_records);
  L["journal.serialize_ns_per_record"] = Ratio(ser_ns, n_records);
  if (sink == 0 && n_records > 0) r.gate_failures.push_back("empty plan");

  // Wall split of the measured window, estimated from outside. Replayed
  // fsns and journal costs (one active and three standbys per group), the
  // servers' own resolve timer for reads, and the wrapper's call timer
  // cover the whole trial; each is scaled to the window by its share of
  // the ops and divided by the window's wall time.
  constexpr double kStandbys = 3.0;
  const obs::Histogram* resolve = hist("mds.resolve_ns");
  const double fsns_read =
      resolve ? resolve->Mean() * static_cast<double>(resolve->count()) : 0.0;
  double exec_reads = 0;
  for (const OpRecord& op : rec.ops()) {
    if (IsRead(op.kind)) exec_reads += at(rp.exec_ns, op.kind);
  }
  const double fsns_mut =
      rp.exec_total_ns - exec_reads + kStandbys * rp.apply_total_ns;
  const double journal_ns = ser_ns + kStandbys * plan_ns;
  const double to_window =
      Ratio(served, static_cast<double>(rec.calls())) /
      (r.window_wall_s * 1e9);
  L["wall_share.fsns_mutations"] = fsns_mut * to_window;
  L["wall_share.fsns_delete_rename"] = rp.structural_total_ns * to_window;
  L["wall_share.fsns_reads"] = fsns_read * to_window;
  L["wall_share.journal"] = journal_ns * to_window;
  L["wall_share.client_calls"] = rec.call_wall_ns() * to_window;
  return r;
}

}  // namespace mamsbench
