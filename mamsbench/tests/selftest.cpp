// Self-tests of the benchmark's own rules. Run with
//   python3 mamsbench/run.py --selftest
// Exits nonzero on the first failed check.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "stats.hpp"
#include "trial.hpp"

namespace {

int failures = 0;

void Check(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

std::vector<double> Ramp(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

void PercentileSupport() {
  using mamsbench::SupportedPercentile;
  // 2000 samples: 20 lie beyond p99, so p99 is reported as asked.
  const auto p = SupportedPercentile(Ramp(2000), 0.99);
  Check(p.ok && p.q == 0.99 && p.value == 1980.0 && p.n == 2000,
        "p99 of 2000 samples is the 1980th");
  // 500 samples: p99 would leave 5 beyond; p98 leaves exactly 10.
  const auto q = SupportedPercentile(Ramp(500), 0.99);
  Check(q.ok && std::abs(q.q - 0.98) < 1e-9 && q.value == 490.0,
        "p99 of 500 samples falls back to p98");
  Check(mamsbench::SamplesBeyond(500, q.q) >= mamsbench::kMinBeyond,
        "the fallback keeps 10 samples beyond it");
  // 25 samples: the highest supported quantile is 0.6.
  const auto r = SupportedPercentile(Ramp(25), 0.99);
  Check(r.ok && std::abs(r.q - 0.6) < 1e-9 && r.value == 15.0,
        "p99 of 25 samples falls back to p60");
  // 15 samples: not even the median has 10 beyond it.
  Check(!SupportedPercentile(Ramp(15), 0.5).ok,
        "15 samples support no percentile");
  Check(!SupportedPercentile({}, 0.5).ok, "no samples, no percentile");
  Check(SupportedPercentile(Ramp(20), 0.5).ok, "20 samples support p50");
}

mamsbench::LadderStep Step(double rate, double p99, bool grew) {
  mamsbench::LadderStep s;
  s.offered_ops_s = rate;
  s.read_p99.ok = true;
  s.read_p99.value = p99;
  s.read_p99.q = 0.99;
  s.backlog_grew = grew;
  return s;
}

void SloLadder() {
  using mamsbench::PickSlo;
  Check(PickSlo({Step(10, 0.2, false), Step(20, 0.5, false),
                 Step(30, 0.9, false)},
                1.0) == 30,
        "SLO picks the highest passing step");
  Check(PickSlo({Step(10, 0.2, false), Step(20, 3.0, false),
                 Step(30, 0.9, false)},
                1.0) == 30,
        "a failing middle step does not hide a passing higher one");
  Check(PickSlo({Step(10, 0.2, false), Step(20, 0.4, true),
                 Step(30, 0.5, false)},
                1.0) == 10,
        "SLO stops at the first step whose backlog grows");
  Check(PickSlo({Step(10, 5.0, false)}, 1.0) == 0, "no passing step gives 0");

  std::vector<std::uint64_t> flat(30, 40), growing;
  for (std::uint64_t i = 0; i < 30; ++i) growing.push_back(40 + 20 * i);
  Check(!mamsbench::BacklogGrows(flat), "a flat live-session series is steady");
  Check(mamsbench::BacklogGrows(growing),
        "a rising series is a growing backlog");
}

void Unavailability() {
  using mamsbench::Completion;
  const std::vector<Completion> series = {
      {9.0, 8.9, true, true},    // before the crash
      {10.1, 9.9, true, true},   // reply already on the wire at the crash
      {10.5, 10.2, false, true}, // a read after it does not end the outage
      {11.0, 10.3, true, false}, // a failed mutation does not either
      {12.0, 10.4, true, true},  // first served mutation: 2 s after the crash
      {30.5, 30.2, true, true},  // 0.5 s after the second crash
  };
  const double u = mamsbench::MeanUnavailability({10.0, 30.0}, series, 40.0);
  Check(std::abs(u - 1.25) < 1e-9, "unavail_s is the mean over crash cycles");
  Check(std::abs(mamsbench::MeanUnavailability({35.0}, series, 40.0) - 5.0) <
            1e-9,
        "a crash never followed by a mutation counts to the end");
  Check(mamsbench::MeanUnavailability({}, series, 40.0) == 0,
        "no crash, no unavailability");
}

void Determinism() {
  mamsbench::TrialOptions opt;
  opt.scale = 0.25;
  for (const char* name : {"churn", "failover", "election"}) {
    const mamsbench::WorkloadSpec* w = mamsbench::FindWorkload(name);
    const auto a = mamsbench::RunTrial(*w, 5, opt);
    const auto b = mamsbench::RunTrial(*w, 5, opt);
    const auto c = mamsbench::RunTrial(*w, 6, opt);
    const std::string n = name;
    Check(a.gate_failures.empty() && b.gate_failures.empty(),
          n + ": short trials pass the correctness gate");
    Check(a.digest == b.digest, n + ": same seed, same digest");
    Check(a.read_ms == b.read_ms && a.write_ms == b.write_ms &&
              a.attempted == b.attempted && a.failed == b.failed &&
              a.headline_served == b.headline_served,
          n + ": same seed, identical virtual metrics");
    Check(a.digest != c.digest, n + ": another seed changes the digest");
    mamsbench::TrialOptions traced = opt;
    traced.trace = true;
    const auto t = mamsbench::RunTrial(*w, 5, traced);
    Check(t.digest == a.digest && t.read_ms == a.read_ms,
          n + ": tracing changes neither the digest nor the metrics");
  }
}

void CrashWithoutActive() {
  // Crashes due faster than failover completes wait for the next active;
  // with every member of the group crashed in turn and none restarting,
  // the last crashes never find one, and the trial reports it instead of
  // waiting forever.
  mamsbench::WorkloadSpec w = *mamsbench::FindWorkload("election");
  w.crash_cycles = 4;
  w.cycle_s = 1.0;
  mamsbench::TrialOptions opt;
  opt.scale = 0.25;
  const auto t = mamsbench::RunTrial(w, 5, opt);
  Check(t.crashes_s.size() == 2 && t.crashes_s[1] - t.crashes_s[0] > 4.0,
        "a crash due while no active exists waits for the next active");
  bool reported = false;
  for (const auto& g : t.gate_failures) {
    reported = reported || g.find("only 2 of 4 crashes") != std::string::npos;
  }
  Check(reported, "crashes that never find an active fail the gate");
}

}  // namespace

int main() {
  PercentileSupport();
  SloLadder();
  Unavailability();
  Determinism();
  CrashWithoutActive();
  std::printf("%s: %d failed\n", failures ? "FAILED" : "PASSED", failures);
  return failures ? 1 : 0;
}
