#include "check/fuzzer.hpp"

#include <algorithm>
#include <memory>
#include <set>

#include "cluster/autoscaler.hpp"
#include "cluster/cfs.hpp"
#include "common/rng.hpp"
#include "fsns/path.hpp"
#include "net/network.hpp"
#include "shard/partition_map.hpp"
#include "sim/simulator.hpp"

namespace mams::check {

namespace {

using workload::OpKind;

workload::Mix DefaultMix() {
  workload::Mix mix;
  mix.create = 0.30;
  mix.mkdir = 0.10;
  mix.remove = 0.10;
  mix.rename = 0.10;
  mix.getfileinfo = 0.20;
  mix.listdir = 0.08;
  mix.add_block = 0.12;
  return mix;
}

bool MixEmpty(const workload::Mix& m) {
  return m.create + m.mkdir + m.remove + m.rename + m.getfileinfo +
             m.listdir + m.add_block <=
         0;
}

}  // namespace

const char* MutationName(Mutation m) {
  switch (m) {
    case Mutation::kNone:
      return "none";
    case Mutation::kNoSnDedup:
      return "sn_dedup";
    case Mutation::kNoFencing:
      return "fencing";
    case Mutation::kIgnoreMinSn:
      return "min_sn";
    case Mutation::kSkipCutoverFence:
      return "cutover_fence";
    case Mutation::kIgnoreApplyDeps:
      return "apply_deps";
    case Mutation::kIgnoreLeaseRevoke:
      return "lease_revoke";
  }
  return "?";
}

bool ParseMutation(const std::string& name, Mutation* out) {
  for (const Mutation m : {Mutation::kNone, Mutation::kNoSnDedup,
                           Mutation::kNoFencing, Mutation::kIgnoreMinSn,
                           Mutation::kSkipCutoverFence,
                           Mutation::kIgnoreApplyDeps,
                           Mutation::kIgnoreLeaseRevoke}) {
    if (name == MutationName(m)) {
      *out = m;
      return true;
    }
  }
  return false;
}

RunSpec MakeSpec(std::uint64_t seed, const FuzzProfile& profile) {
  RunSpec spec;
  spec.seed = seed;
  spec.clients = profile.clients;
  spec.groups = std::max(1, profile.groups);
  spec.standby_reads = profile.standby_reads;
  spec.client_cache = profile.client_cache;
  spec.autoscale = profile.autoscale;
  spec.batch_delay = profile.batch_delay;
  spec.pipeline_depth = profile.pipeline_depth;
  // Generation rng is decoupled from the execution seed so that replaying
  // a spec never re-consults it.
  Rng rng(seed * 0x9e3779b97f4a7c15ull + 0x66757a7aull);
  const workload::Mix mix = MixEmpty(profile.mix) ? DefaultMix() : profile.mix;

  if (profile.shared_namespace) {
    // One op stream dealt round-robin across every client: consecutive,
    // *dependent* ops (create f -> addBlock f -> delete f) come from
    // different clients, so they can be in flight concurrently and land
    // in one journal batch. Disjoint per-client streams almost never put
    // two ops on the same file into the same batch — the only durable
    // way a replica-side reordering diverges (directory-mtime skew heals
    // as later traffic overwrites it; same-file races do not).
    workload::OpStream stream(mix, seed ^ 0x517cc1b727220a95ull,
                              /*directories=*/6, "/fuzz/shared");
    const int total = spec.clients * profile.ops_per_client;
    for (int i = 0; i < total; ++i) {
      OpEntry entry;
      entry.client = i % spec.clients;
      entry.think =
          profile.hot_clients
              ? static_cast<SimTime>(rng.Below(2000)) * kMicrosecond
              : static_cast<SimTime>(20 + rng.Below(380)) * kMillisecond;
      entry.op = stream.Next();
      spec.ops.push_back(std::move(entry));
    }
  } else {
    // Per-client op schedules. Disjoint per-client roots keep the
    // checker's cross-client interleavings tractable while the cluster
    // still serializes everything through the single active. The last
    // client (when slow) works on multi-second think times: it spans
    // failover windows with a stale active cache, the access pattern that
    // exposes fencing bugs.
    std::vector<std::vector<OpEntry>> per_client(
        static_cast<std::size_t>(spec.clients));
    for (int c = 0; c < spec.clients; ++c) {
      const bool slow =
          profile.slow_client && spec.clients > 1 && c == spec.clients - 1;
      workload::OpStream stream(
          mix,
          seed ^ (0x517cc1b727220a95ull * static_cast<std::uint64_t>(c + 1)),
          /*directories=*/6, "/fuzz/c" + std::to_string(c));
      const int count = slow ? std::max(4, profile.ops_per_client / 4)
                             : profile.ops_per_client;
      for (int i = 0; i < count; ++i) {
        OpEntry entry;
        entry.client = c;
        entry.think =
            slow ? static_cast<SimTime>(1500 + rng.Below(2500)) * kMillisecond
            : profile.hot_clients
                ? static_cast<SimTime>(rng.Below(2000)) * kMicrosecond
                : static_cast<SimTime>(20 + rng.Below(380)) * kMillisecond;
        entry.op = stream.Next();
        per_client[static_cast<std::size_t>(c)].push_back(std::move(entry));
      }
    }
    // Round-robin interleave: shrinker chunks then cut across clients
    // evenly.
    for (std::size_t i = 0;; ++i) {
      bool any = false;
      for (const auto& list : per_client) {
        if (i < list.size()) {
          spec.ops.push_back(list[i]);
          any = true;
        }
      }
      if (!any) break;
    }
  }

  // Fault schedule, front-loaded into the op phase so the quiesce window
  // sees only recovery. All faults self-heal well before the audit.
  const SimTime window = spec.run_for - spec.run_for / 5;
  const int members = 1 + spec.standbys;
  // Member faults draw one index over every group's replicas, group-major.
  // With one group the range (and the rng consumption) is unchanged.
  auto pick_member = [&](cluster::Fault& a) {
    const int t = static_cast<int>(
        rng.Below(static_cast<std::uint64_t>(members * spec.groups)));
    a.group = t / members;
    a.member = t % members;
  };
  using Kind = cluster::Fault::Kind;
  for (int f = 0; f < profile.faults; ++f) {
    cluster::Fault a;
    a.at = spec.warmup +
           static_cast<SimTime>(rng.Below(static_cast<std::uint64_t>(window)));
    const double roll = rng.Uniform();
    if (roll < 0.35) {
      a.kind = Kind::kUnplug;
      pick_member(a);
      a.duration =
          static_cast<SimTime>(
              2000 + rng.Below(static_cast<std::uint64_t>(std::max<SimTime>(
                         1, profile.max_outage / kMillisecond - 2000)))) *
          kMillisecond;
    } else if (roll < 0.55) {
      a.kind = Kind::kCrash;
      pick_member(a);
      a.duration = static_cast<SimTime>(1000 + rng.Below(7000)) * kMillisecond;
    } else if (roll < 0.75) {
      a.kind = Kind::kCrashActive;
      if (spec.groups > 1) {
        a.group = static_cast<int>(
            rng.Below(static_cast<std::uint64_t>(spec.groups)));
      }
      a.duration = static_cast<SimTime>(1000 + rng.Below(7000)) * kMillisecond;
    } else if (roll < 0.90) {
      // The pool nodes co-hosted with group 0's members.
      a.kind = Kind::kCrashPool;
      a.member =
          static_cast<int>(rng.Below(static_cast<std::uint64_t>(members)));
      a.duration = static_cast<SimTime>(2000 + rng.Below(8000)) * kMillisecond;
    } else {
      a.kind = Kind::kJitter;
      a.param = static_cast<SimTime>(500 + rng.Below(19500)) * kMicrosecond;
      a.duration = static_cast<SimTime>(2000 + rng.Below(6000)) * kMillisecond;
    }
    spec.faults.push_back(a);
  }
  // Shard migrations: a deterministic count so every multi-group seed
  // actually moves shards. Half target the slot of a path the workload
  // touches (migrating live data under traffic), half a uniform slot.
  if (spec.groups > 1) {
    for (int m = 0; m < profile.migrations; ++m) {
      cluster::Fault a;
      a.kind = Kind::kMigrate;
      a.at = spec.warmup +
             static_cast<SimTime>(rng.Below(static_cast<std::uint64_t>(window)));
      if (!spec.ops.empty() && rng.Uniform() < 0.5) {
        const workload::Op& pick =
            spec.ops[static_cast<std::size_t>(rng.Below(spec.ops.size()))].op;
        a.member = static_cast<int>(
            fsns::PathSlot(pick.path, shard::PartitionMap::kDefaultSlots));
      } else {
        a.member =
            static_cast<int>(rng.Below(shard::PartitionMap::kDefaultSlots));
      }
      spec.faults.push_back(a);
    }
  }
  std::sort(spec.faults.begin(), spec.faults.end(),
            [](const cluster::Fault& x, const cluster::Fault& y) {
              return x.at < y.at;
            });
  return spec;
}

namespace {

/// Drives one client's op list: each op starts `think` after the previous
/// one completed (closed loop). Held by shared_ptr so the callback chain
/// owns it.
struct ClientScript : std::enable_shared_from_this<ClientScript> {
  sim::Simulator* sim = nullptr;
  RecordingClient* client = nullptr;
  std::vector<OpEntry> ops;
  std::size_t next = 0;
  bool audit = false;
  bool done = false;

  void Step() {
    if (next >= ops.size()) {
      done = true;
      return;
    }
    const OpEntry& entry = ops[next];
    ++next;
    auto self = shared_from_this();
    sim->After(entry.think, [self, &entry] {
      self->client->Issue(entry.op, [self] { self->Step(); }, self->audit);
    });
  }
};

}  // namespace

RunResult RunSpecOnce(const RunSpec& spec) {
  sim::Simulator sim(spec.seed);
  net::Network net(sim);

  cluster::CfsConfig cfg;
  const int groups = std::max(1, spec.groups);
  // One group is the single-active serialization point; more than one
  // boots a seeded partition map so clients route (and re-route) by slot.
  cfg.groups = static_cast<GroupId>(groups);
  if (groups > 1) {
    cfg.mds.partition_map =
        shard::PartitionMap::Seed(static_cast<GroupId>(groups));
  }
  cfg.standbys_per_group = spec.standbys;
  cfg.juniors_per_group = 0;
  cfg.data_servers = 1;
  cfg.clients = spec.clients;
  switch (spec.mutation) {
    case Mutation::kNone:
      break;
    case Mutation::kNoSnDedup:
      cfg.mds.test_hooks.disable_sn_dedup = true;
      break;
    case Mutation::kNoFencing:
      cfg.mds.test_hooks.disable_fencing = true;
      break;
    case Mutation::kIgnoreMinSn:
      cfg.mds.test_hooks.ignore_min_sn = true;
      break;
    case Mutation::kSkipCutoverFence:
      cfg.mds.test_hooks.skip_cutover_fence = true;
      break;
    case Mutation::kIgnoreApplyDeps:
      cfg.mds.test_hooks.ignore_apply_deps = true;
      break;
    case Mutation::kIgnoreLeaseRevoke:
      cfg.mds.test_hooks.ignore_lease_revoke = true;
      break;
  }
  if (spec.batch_delay > 0) cfg.mds.writer.max_batch_delay = spec.batch_delay;
  if (spec.pipeline_depth > 0) {
    cfg.mds.commit_pipeline_depth =
        static_cast<std::size_t>(spec.pipeline_depth);
  }
  // The min_sn mutation is only observable when standbys answer reads, so
  // it forces the offload on; .repro files then replay correctly even if
  // they predate the standby_reads field.
  if (spec.standby_reads || spec.mutation == Mutation::kIgnoreMinSn) {
    cfg.mds.standby_reads.serve_reads = true;
    cfg.client.read_routing = cluster::ReadRouting::kRoundRobinStandby;
  }
  // Likewise the lease_revoke mutation is only observable when the client
  // cache is live, so it forces caching on; the faulty behaviour itself
  // runs on the client, mirrored from the server-side test hook.
  if (spec.client_cache || spec.mutation == Mutation::kIgnoreLeaseRevoke) {
    cfg.mds.client_leases.grant_leases = true;
    cfg.client.cache.enabled = true;
    cfg.client.cache.ignore_revoke = cfg.mds.test_hooks.ignore_lease_revoke;
  }
  // An op that cannot finish inside one failover should give up and show
  // up as ambiguous rather than pin its client for the whole run.
  cfg.client.max_attempts = 40;

  cluster::CfsCluster cfs(net, cfg);
  cluster::FaultExecutor faults(cfs);
  cfs.Start();

  // Elastic sweeps run an aggressive controller so membership itself is a
  // moving part of the schedule: low capacity and thresholds make both
  // directions reachable under the light fuzz workload.
  std::unique_ptr<cluster::Autoscaler> autoscaler;
  if (spec.autoscale) {
    cluster::AutoscalerOptions aopts;
    aopts.evaluate_period = 250 * kMillisecond;
    aopts.min_standbys = 1;
    aopts.max_standbys = spec.standbys + 2;
    aopts.reads_per_standby_capacity = 40.0;
    aopts.scale_up_utilization = 0.5;
    aopts.scale_down_utilization = 0.05;
    aopts.breach_ticks = 2;
    aopts.cooldown = 2 * kSecond;
    autoscaler = std::make_unique<cluster::Autoscaler>(cfs, aopts);
    autoscaler->Start();
  }

  HistoryRecorder recorder(sim);
  std::vector<std::unique_ptr<RecordingClient>> clients;
  for (int c = 0; c < spec.clients; ++c) {
    clients.push_back(
        std::make_unique<RecordingClient>(recorder, cfs.client(c), c));
  }

  // Client scripts start at warmup.
  std::vector<std::shared_ptr<ClientScript>> scripts;
  for (int c = 0; c < spec.clients; ++c) {
    auto script = std::make_shared<ClientScript>();
    script->sim = &sim;
    script->client = clients[static_cast<std::size_t>(c)].get();
    for (const OpEntry& e : spec.ops) {
      if (e.client == c) script->ops.push_back(e);
    }
    scripts.push_back(script);
    sim.At(spec.warmup, [script] { script->Step(); });
  }

  // Fault schedule. Best effort: a crash-active finding no active, or a
  // migration the owning active refuses mid-failover, is part of the
  // schedule, not an error (the checker only judges what clients
  // observed). MakeSpec draws addresses inside the cluster and ParseSpec
  // rejects any outside it.
  for (const cluster::Fault& f : spec.faults) {
    sim.At(f.at, [&faults, f] { (void)faults.Apply(f); });
  }

  // Heal everything after the op/fault phase and force any still-dead
  // process back up, so the audit runs against a fully recovered cluster.
  const SimTime heal_at = spec.warmup + spec.run_for;
  sim.At(heal_at, [&faults, as = autoscaler.get()] {
    // Freeze elasticity first: the audit must run against a stable fleet,
    // not race a scale decision.
    if (as != nullptr) as->Stop();
    faults.HealAll();
  });

  // Audit reads: after the quiesce window, stat every path the workload
  // ever touched. These are ordinary recorded history events — the
  // checker treats them as reads that must be explained by some
  // linearization, which is what turns a silently lost acknowledgement
  // into a contradiction.
  const SimTime audit_at = heal_at + spec.quiesce;
  std::set<std::string> touched;
  for (const OpEntry& e : spec.ops) {
    touched.insert(e.op.path);
    if (!e.op.path2.empty()) touched.insert(e.op.path2);
  }
  auto audit = std::make_shared<ClientScript>();
  audit->sim = &sim;
  audit->client = clients[0].get();
  audit->audit = true;
  for (const std::string& path : touched) {
    OpEntry entry;
    entry.client = 0;
    entry.think = 0;
    entry.op.kind = OpKind::kGetFileInfo;
    entry.op.path = path;
    audit->ops.push_back(std::move(entry));
  }
  sim.At(audit_at, [audit] { audit->Step(); });

  RunResult result;

  // Run the schedule out. The audit client is closed-loop, so give it a
  // bounded window after audit_at; workload stragglers that still have
  // not completed are sealed as ambiguous.
  sim.RunUntil(audit_at);
  const SimTime hard_deadline = audit_at + 120 * kSecond;
  while (!audit->done && sim.Now() < hard_deadline) {
    sim.RunUntil(sim.Now() + kSecond);
  }
  recorder.history().Seal();
  result.virtual_end = sim.Now();
  result.run_digest = sim.run_digest();

  // Replica-divergence audit: at quiescence every standby must hold its
  // group active's exact namespace (same criterion the chaos tests use).
  for (int g = 0; g < groups; ++g) {
    core::MdsServer* active = cfs.FindActive(static_cast<GroupId>(g));
    if (active == nullptr) continue;
    const std::uint64_t want = active->tree().Fingerprint();
    for (const auto& mi : cfs.Members(static_cast<GroupId>(g))) {
      core::MdsServer& mds = *mi.server;
      if (&mds == active || mi.role != ServerState::kStandby) continue;
      if (mds.tree().Fingerprint() != want) {
        result.violations.push_back(
            {Violation::Type::kReplicaDivergence,
             mds.name() + " fingerprint differs from active " +
                 active->name() + " after quiesce (sn " +
                 std::to_string(mds.last_sn()) + " vs " +
                 std::to_string(active->last_sn()) + ")",
             {}});
      }
    }
  }

  // Invariant probes that fired during the run are violations too.
  for (const auto& pv : sim.obs().probes().violations()) {
    result.violations.push_back(
        {Violation::Type::kInvariantProbe,
         "probe '" + pv.probe + "' at t=" + std::to_string(pv.at) + ": " +
             pv.detail,
         {}});
  }

  result.history = recorder.history();
  result.check = CheckHistory(result.history);
  for (const Violation& v : result.check.violations) {
    result.violations.push_back(v);
  }
  return result;
}

}  // namespace mams::check
