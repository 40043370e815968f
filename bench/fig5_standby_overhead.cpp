// Figure 5 — "Performance of MAMS with different active and standby nodes".
//
// Measures per-op-type throughput of vanilla HDFS (one NameNode, no
// reliability mechanism) against CFS with the MAMS policy configured as
// MAMS-3A1S .. MAMS-3A4S (three replica groups, 1..4 standbys per group).
//
// Expected shape (paper Section IV.A):
//   * create/getfileinfo: CFS > HDFS (hash-partitioned namespace serves
//     them on three servers in parallel);
//   * mkdir/delete/rename: distributed transactions in CFS — slower, and
//     throughput declines a few percent with every added standby (more
//     journal-sync fan-out);
//   * getfileinfo (read-only, not journaled) is insensitive to standbys.
#include <string>
#include <vector>

#include "baselines/systems.hpp"
#include "bench_common.hpp"
#include "net/network.hpp"
#include "workload/client_api.hpp"

namespace {

using namespace mams;
using bench::BenchSeconds;
using bench::BenchSeed;
using workload::Mix;
using workload::OpKind;

struct RunResult {
  double ops_per_sec = 0;
};

constexpr int kPreloadFiles = 120'000;
constexpr int kSessionsPerClient = 8;

/// Runs one op-type workload against vanilla HDFS.
double RunHdfs(OpKind kind, std::uint64_t seed) {
  sim::Simulator sim(seed);
  net::Network net(sim);
  baselines::HdfsSystem hdfs(net, /*clients=*/4);
  sim.RunUntil(sim.Now() + 500 * kMillisecond);

  auto paths = bench::PreloadPaths(kPreloadFiles);
  bench::PreloadTree(hdfs.namenode().mutable_tree(), paths);

  std::vector<std::unique_ptr<workload::LoadEngine>> engines;
  for (int c = 0; c < 4; ++c) {
    const auto opts =
        workload::LoadEngineOptions::Closed(kSessionsPerClient, &paths);
    engines.push_back(std::make_unique<workload::LoadEngine>(
        sim, workload::MakeApi(hdfs.client(c)), Mix::Only(kind),
        seed * 7 + c, opts));
    engines.back()->Start();
  }
  sim.RunUntil(sim.Now() + BenchSeconds() * kSecond);
  double total = 0;
  for (auto& d : engines) {
    d->Stop();
    total += bench::SteadyThroughput(d->rate());
  }
  return total;
}

/// Runs one op-type workload against CFS MAMS-3A<standbys>S.
double RunCfs(OpKind kind, int standbys, std::uint64_t seed) {
  sim::Simulator sim(seed);
  net::Network net(sim);
  cluster::CfsConfig cfg;
  cfg.groups = 3;
  cfg.standbys_per_group = standbys;
  cfg.clients = 4;
  cfg.data_servers = 2;
  cluster::CfsCluster cfs(net, cfg);
  cfs.Start();
  sim.RunUntil(sim.Now() + kSecond);

  // Preload every group member with the partition it owns.
  auto paths = bench::PreloadPaths(kPreloadFiles);
  for (GroupId g = 0; g < cfg.groups; ++g) {
    std::vector<std::string> owned;
    for (const auto& p : paths) {
      if (cfs.partitioner().OwnerOf(p) == g) owned.push_back(p);
    }
    cfs.PreloadGroup(g, [&owned](fsns::Tree& tree) {
      bench::PreloadTree(tree, owned);
    });
  }

  std::vector<std::unique_ptr<workload::LoadEngine>> engines;
  for (int c = 0; c < 4; ++c) {
    const auto opts =
        workload::LoadEngineOptions::Closed(kSessionsPerClient, &paths);
    engines.push_back(std::make_unique<workload::LoadEngine>(
        sim, workload::MakeApi(cfs.client(c)), Mix::Only(kind),
        seed * 7 + c, opts));
    engines.back()->Start();
  }
  sim.RunUntil(sim.Now() + BenchSeconds() * kSecond);
  double total = 0;
  for (auto& d : engines) {
    d->Stop();
    total += bench::SteadyThroughput(d->rate());
  }
  return total;
}

}  // namespace

int main() {
  bench::PrintHeader(
      "fig5_standby_overhead — metadata throughput vs standby count",
      "Figure 5 (Section IV.A)");

  const struct {
    OpKind kind;
    const char* name;
  } kOps[] = {
      {OpKind::kCreate, "create"},
      {OpKind::kMkdir, "mkdir"},
      {OpKind::kDelete, "delete"},
      {OpKind::kRename, "rename"},
      {OpKind::kGetFileInfo, "getfileinfo"},
  };

  metrics::Table table({"op", "HDFS", "MAMS-3A1S", "MAMS-3A2S", "MAMS-3A3S",
                        "MAMS-3A4S"});
  // Also track the per-added-standby decline for the rename row, which the
  // paper quantifies (3.89% / 4.28% / 3.25%).
  std::vector<double> rename_tput;

  for (const auto& op : kOps) {
    std::vector<std::string> row{op.name};
    row.push_back(metrics::Table::Num(RunHdfs(op.kind, bench::BenchSeed()), 0));
    for (int standbys = 1; standbys <= 4; ++standbys) {
      const double tput = RunCfs(op.kind, standbys, bench::BenchSeed() + 1);
      row.push_back(metrics::Table::Num(tput, 0));
      if (op.kind == OpKind::kRename) rename_tput.push_back(tput);
    }
    table.AddRow(std::move(row));
    std::printf("  ... %s done\n", op.name);
  }

  std::printf("\nThroughput (ops/s), %d s measured window:\n\n",
              BenchSeconds());
  table.Print();

  std::printf("\nrename decline per added standby (paper: 3.89%%, 4.28%%, 3.25%%):\n");
  for (std::size_t i = 1; i < rename_tput.size(); ++i) {
    const double decline =
        100.0 * (rename_tput[i - 1] - rename_tput[i]) / rename_tput[i - 1];
    std::printf("  %dS -> %dS: %+.2f%%\n", static_cast<int>(i),
                static_cast<int>(i + 1), decline);
  }
  return 0;
}
