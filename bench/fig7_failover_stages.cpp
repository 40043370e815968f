// Figure 7 — "The proportion of failover time at each stage in MAMS".
//
// Repeats the MAMS-1A3S failover many times, reads the elected standby's
// `failover` trace spans (election, switch) and the client's first
// successful op after the switch, and reports per-stage times and
// proportions with the session timeout excluded, exactly like the paper's
// figure:
//
//   * active election      — first lock bid -> lock granted (paper <100 ms)
//   * active-standby switch— lock granted -> 6-step upgrade done
//                            (paper 250-350 ms)
//   * client reconnection  — switch done -> first client success (grows
//                            with total failover time)
//
// Set MAMS_TRACE_OUT=<path> to additionally export the first trial's full
// span timeline (election, the six failover steps, 2PC syncs, paxos
// rounds, SSP IO) as Chrome trace_event JSON for chrome://tracing.
#include <cstdlib>
#include <map>
#include <vector>

#include "obs/chrome_trace.hpp"

#include "bench_common.hpp"
#include "cluster/cfs.hpp"
#include "net/network.hpp"

namespace {

using namespace mams;
using workload::Mix;
using workload::OpKind;

struct Trial {
  double election_ms = 0;
  double switch_ms = 0;
  double reconnect_ms = 0;
  double total_ms = 0;  // excluding session timeout (detection)
};

Trial RunTrial(std::uint64_t seed, const char* trace_out = nullptr) {
  sim::Simulator sim(seed);
  sim.obs().tracer().set_enabled(true);  // the stages are read from spans
  net::Network net(sim);
  cluster::CfsConfig cfg;
  cfg.groups = 1;
  cfg.standbys_per_group = 3;
  cfg.clients = 2;
  cfg.data_servers = 2;
  cfg.client.max_attempts = 1;
  cfg.client.rpc_timeout = kSecond;
  cfg.client.resolve_poll = 150 * kMillisecond;
  cluster::CfsCluster cfs(net, cfg);
  cfs.Start();
  sim.RunUntil(sim.Now() + kSecond);

  workload::LoadEngine engine(sim, workload::MakeApi(cfs.client(0)),
                              Mix::Only(OpKind::kCreate), seed,
                              workload::LoadEngineOptions::Closed(2));
  engine.Start();
  sim.RunUntil(sim.Now() + 2 * kSecond);
  cfs.FindActive(0)->Crash();
  const SimTime cap = sim.Now() + 60 * kSecond;
  while (!engine.mttr_probe().complete() && sim.Now() < cap) {
    sim.RunUntil(sim.Now() + 100 * kMillisecond);
  }
  engine.Stop();

  if (trace_out != nullptr) {
    Status s = obs::WriteChromeTrace(sim.obs().tracer(), trace_out);
    std::printf("trace: %s -> %s (%zu spans, %zu instants)\n",
                s.ok() ? "wrote" : s.ToString().c_str(), trace_out,
                sim.obs().tracer().spans().size(),
                sim.obs().tracer().instants().size());
  }

  Trial t;
  const auto traces = core::CompletedFailovers(sim.obs().tracer());
  if (traces.empty() || !engine.mttr_probe().complete()) {
    t.total_ms = -1;
    return t;
  }
  const auto& trace = traces[0];
  t.election_ms = ToMillis(trace.ElectionTime());
  t.switch_ms = ToMillis(trace.SwitchTime());
  t.reconnect_ms =
      ToMillis(engine.mttr_probe().first_success_after -
               trace.switch_completed);
  if (t.reconnect_ms < 0) t.reconnect_ms = 0;
  t.total_ms = t.election_ms + t.switch_ms + t.reconnect_ms;
  return t;
}

}  // namespace

int main() {
  bench::PrintHeader(
      "fig7_failover_stages — MAMS failover time per stage "
      "(session timeout excluded)",
      "Figure 7 (Section IV.B)");

  const int trials = std::max(20, bench::BenchTrials() * 3);
  const char* trace_out = std::getenv("MAMS_TRACE_OUT");
  std::vector<Trial> ok_trials;
  for (int i = 0; i < trials; ++i) {
    Trial t = RunTrial(bench::BenchSeed() + 77ull * i,
                       i == 0 ? trace_out : nullptr);
    if (t.total_ms >= 0) ok_trials.push_back(t);
  }

  metrics::Accumulator election, sw, reconnect, total;
  for (const auto& t : ok_trials) {
    election.Record(t.election_ms);
    sw.Record(t.switch_ms);
    reconnect.Record(t.reconnect_ms);
    total.Record(t.total_ms);
  }

  std::printf("\n%zu successful failovers:\n\n", ok_trials.size());
  metrics::Table table({"stage", "mean (ms)", "min (ms)", "max (ms)",
                        "share of total"});
  auto add = [&](const char* name, metrics::Accumulator& acc) {
    table.AddRow({name, metrics::Table::Num(acc.mean(), 1),
                  metrics::Table::Num(acc.min(), 1),
                  metrics::Table::Num(acc.max(), 1),
                  metrics::Table::Num(100.0 * acc.mean() / total.mean(), 1) +
                      "%"});
  };
  add("active election", election);
  add("active-standby switch", sw);
  add("client reconnection", reconnect);
  table.AddRow({"total (excl. timeout)", metrics::Table::Num(total.mean(), 1),
                metrics::Table::Num(total.min(), 1),
                metrics::Table::Num(total.max(), 1), "100%"});
  table.Print();

  // The paper's figure buckets failovers by total time and shows the
  // reconnection share growing with the total; reproduce that view.
  std::printf("\nPer-bucket stage shares (bucketed by total time):\n\n");
  std::map<int, std::vector<Trial>> buckets;  // key: total rounded to 250 ms
  for (const auto& t : ok_trials) {
    buckets[static_cast<int>(t.total_ms / 250.0)].push_back(t);
  }
  metrics::Table bt({"total bucket", "n", "election %", "switch %",
                     "reconnect %"});
  for (const auto& [k, ts] : buckets) {
    double e = 0, s = 0, r = 0, tot = 0;
    for (const auto& t : ts) {
      e += t.election_ms;
      s += t.switch_ms;
      r += t.reconnect_ms;
      tot += t.total_ms;
    }
    char label[48];
    std::snprintf(label, sizeof(label), "%.2f-%.2f s", k * 0.25,
                  (k + 1) * 0.25);
    bt.AddRow({label, std::to_string(ts.size()),
               metrics::Table::Num(100 * e / tot, 1),
               metrics::Table::Num(100 * s / tot, 1),
               metrics::Table::Num(100 * r / tot, 1)});
  }
  bt.Print();

  std::printf(
      "\nPaper: election < 100 ms; switch stable 250-350 ms; reconnection "
      "share grows with total failover time.\n");
  return 0;
}
