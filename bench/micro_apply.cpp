// micro_apply — parallel journal apply and pipelined group commit.
//
// Part 1 (replay MTTR): drive a create/add_block-heavy workload through a
// single replica group so the SSP accumulates a journal of multi-record
// batches, then rebuild the namespace offline with RecoveryTool twice —
// once charged serially (apply_threads=1) and once with a 4-thread
// dependency-wave schedule. The planner's critical-path slot count is the
// modeled replay time; slots(1)/slots(4) is the replay (MTTR) speedup a
// threaded junior gets, and both rebuilds must produce the same tree as
// the live active (the plan never changes the result, only the schedule).
//
// Part 2 (pipelined commit): the same workload under commit_pipeline_depth
// 1 vs 4. Depth 1 serializes 2PC rounds — a sealed batch waits for the
// previous round's acks; depth 4 streams batch N+1 while N's acks are in
// flight. Closed-loop client throughput is the visible difference.
//
// Emits BENCH_apply.json (override the path with MAMS_BENCH_OUT).
//
// Environment knobs:
//   MAMS_BENCH_SECONDS — measured window per run (default 6)
//   MAMS_BENCH_SEED    — base RNG seed (default 42)
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/recovery.hpp"
#include "metrics/table.hpp"
#include "net/network.hpp"
#include "workload/client_api.hpp"

namespace {

using namespace mams;
using bench::BenchSeconds;
using bench::BenchSeed;
using workload::Mix;

constexpr int kClients = 4;
constexpr int kSessionsPerClient = 8;

Mix CreateHeavyMix() {
  Mix mix;
  mix.create = 0.70;
  mix.add_block = 0.20;
  mix.getfileinfo = 0.10;
  return mix;
}

struct ClusterRun {
  sim::Simulator sim;
  net::Network net;
  std::unique_ptr<cluster::CfsCluster> cfs;
  double ops_per_sec = 0;
  std::uint64_t pipeline_deferred = 0;

  explicit ClusterRun(std::uint64_t seed, std::size_t pipeline_depth,
                      net::LinkParams link = {})
      : sim(seed), net(sim, link) {
    cluster::CfsConfig cfg;
    cfg.groups = 1;
    cfg.standbys_per_group = 2;
    cfg.clients = kClients;
    cfg.data_servers = 2;
    cfg.mds.commit_pipeline_depth = pipeline_depth;
    // No checkpoint during the run: the offline rebuild replays the whole
    // journal from an empty tree, which is the interesting (worst) case.
    cfg.mds.checkpoint_interval = 3600 * kSecond;
    cfs = std::make_unique<cluster::CfsCluster>(net, cfg);
    cfs->Start();
    sim.RunUntil(sim.Now() + kSecond);

    std::vector<std::unique_ptr<workload::LoadEngine>> engines;
    for (int c = 0; c < kClients; ++c) {
      const auto opts = workload::LoadEngineOptions::Closed(kSessionsPerClient);
      engines.push_back(std::make_unique<workload::LoadEngine>(
          sim, workload::MakeApi(cfs->client(c)), CreateHeavyMix(),
          seed * 7 + c, opts));
      engines.back()->Start();
    }
    sim.RunUntil(sim.Now() + BenchSeconds() * kSecond);
    for (auto& d : engines) {
      d->Stop();
      ops_per_sec += bench::SteadyThroughput(d->rate());
    }
    sim.RunUntil(sim.Now() + 2 * kSecond);  // drain the pipeline window
    if (auto* active = cfs->FindActive(0)) {
      pipeline_deferred = active->counters().pipeline_deferred;
    }
  }

  /// A pool node holding the group journal replica.
  const storage::FileStore& JournalStore() const {
    for (int p = 0; p < 3; ++p) {
      const auto& store = cfs->pool_node(p).store();
      if (store.Exists("g0/journal")) return store;
    }
    return cfs->pool_node(0).store();
  }
};

}  // namespace

int main() {
  bench::PrintHeader(
      "micro_apply — parallel journal replay + pipelined group commit",
      "batch dependency planner and sn-ordered 2PC pipeline");

  // --- Part 1: replay MTTR, serial vs 4-thread wave schedule --------------
  // Depth 1 for corpus generation: a full window parks sealed batches, so
  // group commit aggregates wide multi-record batches — the shape a busy
  // active journals and the one where replay parallelism matters.
  ClusterRun corpus(BenchSeed(), /*pipeline_depth=*/1);
  const auto& store = corpus.JournalStore();
  const TxId latest = core::RecoveryTool::LatestRecoverableTxid(store, 0);

  core::RecoveryReport serial;
  const double wall0 = bench::WallSeconds();
  auto serial_tree = core::RecoveryTool::RebuildAt(store, 0, latest, &serial,
                                                   nullptr,
                                                   /*apply_threads=*/1);
  const double replay_wall_ms = (bench::WallSeconds() - wall0) * 1e3;
  core::RecoveryReport parallel;
  auto parallel_tree = core::RecoveryTool::RebuildAt(
      store, 0, latest, &parallel, nullptr, /*apply_threads=*/4);
  if (!serial_tree.ok() || !parallel_tree.ok()) {
    std::fprintf(stderr, "rebuild failed: %s / %s\n",
                 serial_tree.status().ToString().c_str(),
                 parallel_tree.status().ToString().c_str());
    return 1;
  }
  const bool trees_match =
      serial_tree.value().Fingerprint() == parallel_tree.value().Fingerprint();
  const auto* live = corpus.cfs->FindActive(0);
  const bool matches_live =
      live != nullptr &&
      serial_tree.value().Fingerprint() == live->tree().Fingerprint();
  const double replay_speedup =
      parallel.apply_slots > 0
          ? static_cast<double>(serial.apply_slots) /
                static_cast<double>(parallel.apply_slots)
          : 0.0;
  const double records_per_batch =
      serial.batches_replayed > 0
          ? static_cast<double>(serial.records_replayed) /
                static_cast<double>(serial.batches_replayed)
          : 0.0;

  metrics::Table replay({"records", "batches", "rec/batch", "waves",
                         "slots(1t)", "slots(4t)", "speedup"});
  replay.AddRow({std::to_string(serial.records_replayed),
                 std::to_string(serial.batches_replayed),
                 metrics::Table::Num(records_per_batch, 1),
                 std::to_string(parallel.apply_waves),
                 std::to_string(serial.apply_slots),
                 std::to_string(parallel.apply_slots),
                 metrics::Table::Num(replay_speedup, 2)});
  replay.Print();
  std::printf("replay wall time: %.1f ms; plans %s; %s live active\n",
              replay_wall_ms, trees_match ? "agree" : "DIVERGE",
              matches_live ? "matches" : "DIVERGES FROM");

  // --- Part 2: pipelined group commit, depth 1 vs 4 -----------------------
  // Pipelining hides replication latency, so measure it where replication
  // latency is worth hiding: replicas a couple of milliseconds apart
  // (cross-rack / cross-AZ). On a 100us LAN the sync round is cheaper than
  // the batching it would overlap and depth buys nothing.
  net::LinkParams wan;
  wan.base_latency = 2 * kMillisecond;
  wan.jitter = 200 * kMicrosecond;
  ClusterRun depth1(BenchSeed() + 101, /*pipeline_depth=*/1, wan);
  ClusterRun depth4(BenchSeed() + 101, /*pipeline_depth=*/4, wan);
  const double pipeline_gain =
      depth1.ops_per_sec > 0 ? depth4.ops_per_sec / depth1.ops_per_sec : 0.0;

  metrics::Table commit({"depth", "op/s", "batches deferred"});
  commit.AddRow({"1", metrics::Table::Num(depth1.ops_per_sec, 1),
                 std::to_string(depth1.pipeline_deferred)});
  commit.AddRow({"4", metrics::Table::Num(depth4.ops_per_sec, 1),
                 std::to_string(depth4.pipeline_deferred)});
  commit.Print();
  std::printf("\nreplay speedup at 4 threads: %.2fx (modeled, %s)\n",
              replay_speedup, trees_match ? "byte-identical trees" : "BROKEN");
  std::printf("pipelined commit gain depth 4 vs 1: %.2fx\n", pipeline_gain);

  using bench::Json;
  const int rc = bench::WriteReport(
      "BENCH_apply.json",
      Json::Object().Set(
          "apply",
          Json::Object()
              .Set("mix", bench::MixLabel(CreateHeavyMix()))
              .Set("records_replayed", serial.records_replayed)
              .Set("batches_replayed", serial.batches_replayed)
              .Set("records_per_batch", Json::Num(records_per_batch, 2))
              .Set("apply_waves", parallel.apply_waves)
              .Set("serial_slots", serial.apply_slots)
              .Set("parallel_slots_4t", parallel.apply_slots)
              .Set("replay_speedup_4t", Json::Num(replay_speedup, 3))
              .Set("replay_wall_ms", Json::Num(replay_wall_ms, 1))
              .Set("rebuild_matches_live_active", trees_match && matches_live)
              .Set("pipeline_depth1_ops_per_sec",
                   Json::Num(depth1.ops_per_sec, 1))
              .Set("pipeline_depth4_ops_per_sec",
                   Json::Num(depth4.ops_per_sec, 1))
              .Set("pipeline_gain_4_vs_1", Json::Num(pipeline_gain, 3))));
  return rc == 0 && trees_match && matches_live ? 0 : 1;
}
