// micro_scale — open-loop session-scale sweep on the load engine and the
// tiered event core.
//
// Drives 1k → 10k → 100k concurrent-capable sessions through one CFS
// replica group with open-loop (arrival-rate-driven) admission: each
// session arrives per the curve, runs a short read-heavy op program, and
// retires. Because arrivals never wait on completions, the sweep measures
// what the service (and the simulator substrate) sustain under fan-in the
// closed-loop figure benches cannot express. Also runs the 10k tier under
// a flash-crowd arrival curve to quantify tail-latency degradation, and
// replays the 1k tier to prove the whole stack deterministic (identical
// run digest for a fixed seed).
//
// Emits BENCH_scale.json (override the path with MAMS_BENCH_OUT).
//
// Environment knobs:
//   MAMS_BENCH_SEED  — base RNG seed (default 42)
//   MAMS_SCALE_MAX   — largest tier to run (default 100000)
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "metrics/table.hpp"
#include "net/network.hpp"

namespace {

using namespace mams;
using bench::BenchSeed;
using workload::ArrivalCurve;
using workload::ArrivalKind;
using workload::KeyDistSpec;
using workload::LoadEngine;
using workload::Mix;

constexpr int kDirs = 64;
constexpr int kFilesPerDir = 32;
constexpr std::uint32_t kOpsPerSession = 4;
constexpr double kRampSeconds = 4.0;  // arrival window per tier

Mix ScaleMix() {
  Mix mix;
  mix.getfileinfo = 0.90;
  mix.create = 0.10;
  return mix;
}

struct TierStats {
  std::uint64_t sessions = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t peak_live = 0;
  double ops_per_sec = 0;          // virtual-time service throughput
  double sessions_per_wall_sec = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  double wall_seconds = 0;
  std::uint64_t digest = 0;
  bool drained = false;
};

TierStats RunTier(std::uint64_t sessions, ArrivalKind kind,
                  std::uint64_t seed) {
  sim::Simulator sim(seed);
  net::Network net(sim);
  cluster::CfsConfig cfg;
  cfg.groups = 1;
  cfg.standbys_per_group = 1;
  cfg.clients = 4;
  cfg.data_servers = 2;
  cluster::CfsCluster cfs(net, cfg);
  cfs.Start();
  sim.RunUntil(sim.Now() + kSecond);

  const auto paths = bench::PreloadPathsPerDir(kDirs, kFilesPerDir);
  cfs.PreloadGroup(0, [&paths](fsns::Tree& tree) {
    bench::PreloadTree(tree, paths);
  });

  const double rate = static_cast<double>(sessions) / kRampSeconds;
  LoadEngine::Options opt;
  opt.loop = LoadEngine::Loop::kOpen;
  opt.max_sessions = sessions;
  opt.ops_per_session = kOpsPerSession;
  opt.directories = kDirs;
  opt.files_per_dir = kFilesPerDir;
  opt.keys = KeyDistSpec::Zipf(0.99);
  switch (kind) {
    case ArrivalKind::kConstant:
      opt.arrival = ArrivalCurve::Constant(rate);
      break;
    case ArrivalKind::kDiurnal:
      opt.arrival = ArrivalCurve::Diurnal(rate, kRampSeconds);
      break;
    case ArrivalKind::kFlashCrowd: {
      // Same expected total arrivals over the ramp as the constant curve
      // (base·ramp + base·(mult-1)·burst = rate·ramp), concentrated into a
      // 1 s spike mid-window.
      const double base =
          rate * kRampSeconds / (kRampSeconds + (10.0 - 1.0) * 1.0);
      opt.arrival = ArrivalCurve::FlashCrowd(base, kRampSeconds / 2.0,
                                             /*burst_len_s=*/1.0,
                                             /*burst_mult=*/10.0);
      break;
    }
  }

  LoadEngine engine(sim, bench::MakeApis(cfs), ScaleMix(), seed, opt);

  const double wall_start = bench::WallSeconds();
  const SimTime start = sim.Now();
  const SimTime cap = start + static_cast<SimTime>(
                                  (kRampSeconds + 60.0) *
                                  static_cast<double>(kSecond));
  engine.Start();
  while (!engine.drained() && sim.Now() < cap) {
    sim.RunUntil(sim.Now() + kSecond);
  }
  engine.Stop();
  const double wall_end = bench::WallSeconds();

  TierStats st;
  st.sessions = sessions;
  st.completed = engine.completed();
  st.failed = engine.failed();
  st.peak_live = engine.peak_live_sessions();
  st.drained = engine.drained();
  st.wall_seconds = wall_end - wall_start;
  const double virt_secs = ToSeconds(sim.Now() - start);
  st.ops_per_sec =
      virt_secs > 0 ? static_cast<double>(st.completed) / virt_secs : 0;
  st.sessions_per_wall_sec =
      st.wall_seconds > 0
          ? static_cast<double>(engine.sessions_finished()) / st.wall_seconds
          : 0;
  st.p50_ms = ToMillis(engine.latencies().Quantile(0.50));
  st.p99_ms = ToMillis(engine.latencies().Quantile(0.99));
  st.digest = sim.run_digest();
  return st;
}

}  // namespace

int main() {
  bench::PrintHeader(
      "micro_scale — open-loop session sweep (load engine + event core)",
      "north star: heavy traffic from millions of users (ROADMAP item 4)");

  const std::uint64_t seed = BenchSeed();
  const auto max_tier =
      static_cast<std::uint64_t>(bench::EnvInt("MAMS_SCALE_MAX", 100'000));
  std::vector<std::uint64_t> tiers;
  for (std::uint64_t t : {1'000ull, 10'000ull, 100'000ull}) {
    if (t <= max_tier) tiers.push_back(t);
  }

  metrics::Table table({"sessions", "ops", "ops/s (virt)", "sessions/wall-s",
                        "p50 ms", "p99 ms", "wall s", "peak live"});
  std::vector<TierStats> stats;
  for (const std::uint64_t t : tiers) {
    const TierStats st = RunTier(t, ArrivalKind::kConstant, seed);
    stats.push_back(st);
    table.AddRow({std::to_string(st.sessions), std::to_string(st.completed),
                  std::to_string(st.ops_per_sec),
                  std::to_string(st.sessions_per_wall_sec),
                  std::to_string(st.p50_ms), std::to_string(st.p99_ms),
                  std::to_string(st.wall_seconds),
                  std::to_string(st.peak_live)});
  }
  table.Print();

  // Flash-crowd degradation at the 10k tier (falls back to the largest
  // tier actually run when MAMS_SCALE_MAX is lowered).
  const std::uint64_t flash_sessions =
      max_tier >= 10'000 ? 10'000 : tiers.back();
  const TierStats flat = RunTier(flash_sessions, ArrivalKind::kConstant, seed);
  const TierStats flash =
      RunTier(flash_sessions, ArrivalKind::kFlashCrowd, seed);
  const double degradation =
      flat.p99_ms > 0 ? flash.p99_ms / flat.p99_ms : 0.0;
  std::printf("\nflash crowd at %llu sessions: p99 %.3f ms vs %.3f ms "
              "constant (%.2fx)\n",
              static_cast<unsigned long long>(flash_sessions), flash.p99_ms,
              flat.p99_ms, degradation);

  // Determinism: replay the smallest tier with the same seed; the run
  // digest (an order-sensitive fold of every executed event) must match.
  const TierStats replay = RunTier(tiers.front(), ArrivalKind::kConstant, seed);
  const bool deterministic = replay.digest == stats.front().digest;
  std::printf("digest determinism at %llu sessions: %s\n",
              static_cast<unsigned long long>(tiers.front()),
              deterministic ? "ok" : "MISMATCH");

  using bench::Json;
  char arrival[64];
  std::snprintf(arrival, sizeof(arrival), "constant over %.1f s ramp",
                kRampSeconds);
  Json tier_rows = Json::Array();
  for (const TierStats& st : stats) {
    tier_rows.Push(
        Json::Object()
            .Set("sessions", st.sessions)
            .Set("ops", st.completed)
            .Set("ops_per_sec", Json::Num(st.ops_per_sec, 1))
            .Set("sessions_per_wall_sec",
                 Json::Num(st.sessions_per_wall_sec, 1))
            .Set("p50_ms", Json::Num(st.p50_ms, 3))
            .Set("p99_ms", Json::Num(st.p99_ms, 3))
            .Set("wall_seconds", Json::Num(st.wall_seconds, 3))
            .Set("peak_live", st.peak_live)
            .Set("failed", st.failed)
            .Set("drained", st.drained));
  }
  const int rc = bench::WriteReport(
      "BENCH_scale.json",
      Json::Object().Set(
          "scale",
          Json::Object()
              .Set("mix", bench::MixLabel(ScaleMix()))
              .Set("ops_per_session", kOpsPerSession)
              .Set("arrival", arrival)
              .Set("tiers", std::move(tier_rows))
              .Set("flash_crowd",
                   Json::Object()
                       .Set("sessions", flash_sessions)
                       .Set("constant_p99_ms", Json::Num(flat.p99_ms, 3))
                       .Set("flash_p99_ms", Json::Num(flash.p99_ms, 3))
                       .Set("p99_degradation", Json::Num(degradation, 3)))
              .Set("digest_deterministic", deterministic)));
  return rc == 0 && deterministic ? 0 : 1;
}
