// Interactive open-loop load experiments against a live cluster config.
//
//   debug_scale [--sessions N] [--arrival constant|diurnal|flash]
//               [--seconds S] [--groups G] [--standbys K] [--clients C]
//               [--ops N] [--seed X]
//
// Drives N sessions through the LoadEngine with the chosen arrival curve
// over an S-second admission window and prints throughput, tail latency,
// concurrency, and event-core stats.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "cluster/cfs.hpp"
#include "net/network.hpp"
#include "workload/load_engine.hpp"

using namespace mams;

namespace {

void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--sessions N] [--arrival constant|diurnal|flash] "
               "[--seconds S] [--groups G] [--standbys K] [--clients C] "
               "[--ops N] [--seed X]\n",
               argv0);
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t sessions = 10'000;
  workload::ArrivalKind kind = workload::ArrivalKind::kConstant;
  double seconds = 4.0;
  int groups = 1, standbys = 1, clients = 4;
  std::uint32_t ops = 4;
  std::uint64_t seed = 42;
  for (int i = 1; i < argc; ++i) {
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        Usage(argv[0]);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--sessions") == 0) {
      sessions = std::strtoull(next(), nullptr, 10);
    } else if (std::strcmp(argv[i], "--arrival") == 0) {
      if (!workload::ParseArrivalKind(next(), kind)) {
        Usage(argv[0]);
        return 2;
      }
    } else if (std::strcmp(argv[i], "--seconds") == 0) {
      seconds = std::atof(next());
    } else if (std::strcmp(argv[i], "--groups") == 0) {
      groups = std::atoi(next());
    } else if (std::strcmp(argv[i], "--standbys") == 0) {
      standbys = std::atoi(next());
    } else if (std::strcmp(argv[i], "--clients") == 0) {
      clients = std::atoi(next());
    } else if (std::strcmp(argv[i], "--ops") == 0) {
      ops = static_cast<std::uint32_t>(std::atoi(next()));
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      seed = std::strtoull(next(), nullptr, 10);
    } else {
      Usage(argv[0]);
      return 2;
    }
  }

  sim::Simulator sim(seed);
  net::Network net(sim);
  cluster::CfsConfig cfg;
  cfg.groups = groups;
  cfg.standbys_per_group = standbys;
  cfg.clients = clients;
  cfg.data_servers = 2;
  cluster::CfsCluster cfs(net, cfg);
  cfs.Start();
  sim.RunUntil(sim.Now() + kSecond);

  constexpr int kDirs = 64;
  constexpr int kFilesPerDir = 32;
  std::vector<std::string> paths;
  for (int d = 0; d < kDirs; ++d) {
    for (int f = 0; f < kFilesPerDir; ++f) {
      paths.push_back("/bench/d" + std::to_string(d) + "/f" +
                      std::to_string(f));
    }
  }
  for (GroupId g = 0; g < cfg.groups; ++g) {
    cfs.PreloadGroup(g, [&paths](fsns::Tree& tree) {
      for (const auto& p : paths) {
        ClientOpId none{};
        (void)tree.Create(p, 3, 0, none);
      }
    });
  }

  const double rate = static_cast<double>(sessions) / seconds;
  workload::LoadEngine::Options opt;
  opt.loop = workload::LoadEngine::Loop::kOpen;
  opt.max_sessions = sessions;
  opt.ops_per_session = ops;
  opt.directories = kDirs;
  opt.files_per_dir = kFilesPerDir;
  switch (kind) {
    case workload::ArrivalKind::kConstant:
      opt.arrival = workload::ArrivalCurve::Constant(rate);
      break;
    case workload::ArrivalKind::kDiurnal:
      opt.arrival = workload::ArrivalCurve::Diurnal(rate, seconds);
      break;
    case workload::ArrivalKind::kFlashCrowd:
      opt.arrival = workload::ArrivalCurve::FlashCrowd(
          rate / 3.0, seconds / 2.0, 1.0, 10.0);
      break;
  }
  workload::Mix mix;
  mix.getfileinfo = 0.9;
  mix.create = 0.1;

  std::vector<workload::ClientApi> apis;
  for (int c = 0; c < cfs.client_count(); ++c) {
    apis.push_back(workload::MakeApi(cfs.client(c)));
  }
  workload::LoadEngine engine(sim, std::move(apis), mix, seed, opt);

  const SimTime start = sim.Now();
  const SimTime cap =
      start + static_cast<SimTime>((seconds + 60.0) * kSecond);
  engine.Start();
  while (!engine.drained() && sim.Now() < cap) {
    sim.RunUntil(sim.Now() + kSecond);
  }
  engine.Stop();

  std::printf("arrival=%s sessions=%llu (peak live %llu) ops=%llu "
              "failed=%llu\n",
              workload::ArrivalKindName(kind),
              (unsigned long long)engine.sessions_finished(),
              (unsigned long long)engine.peak_live_sessions(),
              (unsigned long long)engine.completed(),
              (unsigned long long)engine.failed());
  std::printf("throughput=%.0f op/s p50=%.3fms p90=%.3fms p99=%.3fms\n",
              engine.completed() / ToSeconds(sim.Now() - start),
              ToMillis(engine.latencies().Quantile(0.5)),
              ToMillis(engine.latencies().Quantile(0.9)),
              ToMillis(engine.latencies().Quantile(0.99)));
  std::printf("virtual=%.1fs digest=%016llx\n", ToSeconds(sim.Now() - start),
              (unsigned long long)sim.run_digest());
  return 0;
}
