// mamsbench — the MAMS benchmark program. One process runs one workload:
//
//   mamsbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 measures the end-to-end metrics: a fixed number of trials at
// seeds derived from --seed gives the virtual-clock metrics (exact for a
// given seed), and the trials repeat — same seeds, same digests, checked —
// until --seconds of wall time have passed, giving medians of the wall
// metrics. --trace 1 runs the first trial untraced and again traced, and
// reports the per-layer metrics. Every run checks the correctness gate and
// exits nonzero, saying why, when it fails. The last line of standard
// output is one JSON object with the run's result.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "stats.hpp"
#include "trial.hpp"

namespace {

using mamsbench::Percentile;
using mamsbench::TrialResult;
using mamsbench::WorkloadSpec;

/// Set-ups behind each run's setup_s.
constexpr std::size_t kSetups = 11;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
};

bool ParseArgs(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::atof(v);
    } else if (k == "--trace") {
      a.trace = std::atoi(v);
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a.workload.empty();
}

/// Unit of a per-layer metric, from the words of its name.
std::string UnitOf(const std::string& name) {
  if (name.rfind("trace.self_ms.", 0) == 0) return "ms";
  if (name.rfind("wall_share.", 0) == 0) return "ratio";
  const std::string leaf = name.substr(name.rfind('.') + 1);
  std::vector<std::string> words;
  for (std::size_t b = 0, e; b <= leaf.size(); b = e + 1) {
    e = leaf.find('_', b);
    if (e == std::string::npos) e = leaf.size();
    words.push_back(leaf.substr(b, e - b));
  }
  auto has = [&](const char* w) {
    return std::find(words.begin(), words.end(), w) != words.end();
  };
  if (has("ms")) return "ms";
  if (has("ns")) return "ns";
  if (has("wall") && words.back() == "s") return "1/s";
  if (words.back() == "s") return "s";
  if (has("bytes")) return "B/op";
  if (has("share") || has("rate") || has("frac")) return "ratio";
  if (has("per")) return "ratio";
  return "count";
}

/// Prints a metric line for humans: name, value, unit, and a note on its
/// clock and sample count.
void Line(const std::string& name, double v, const std::string& unit,
          const std::string& note) {
  std::printf("  %-36s %16.6g %-6s %s\n", name.c_str(), v, unit.c_str(),
              note.c_str());
}

std::string Describe(const Percentile& p, double want) {
  char buf[128];
  if (!p.ok) {
    std::snprintf(buf, sizeof buf, "virtual; n=%zu, too few samples", p.n);
  } else if (p.q + 1e-9 < want) {
    std::snprintf(buf, sizeof buf,
                  "virtual; n=%zu, p%g unsupported: reported at p%.1f", p.n,
                  want * 100, p.q * 100);
  } else {
    std::snprintf(buf, sizeof buf, "virtual; n=%zu, p%g", p.n, want * 100);
  }
  return buf;
}

void AppendMetric(std::string& json, const std::string& name, double v,
                  const std::string& unit) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                json.empty() ? "" : ", ", name.c_str(),
                std::isfinite(v) ? v : 0.0, unit.c_str());
  json += buf;
}

int Finish(bool correct, std::uint64_t attempted, std::uint64_t failed,
           const std::string& metrics,
           const std::vector<std::string>& gate_failures) {
  for (const auto& g : gate_failures) {
    std::printf("GATE FAILED: %s\n", g.c_str());
    std::fprintf(stderr, "GATE FAILED: %s\n", g.c_str());
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      correct ? "true" : "false", static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed), metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

int RunEndToEnd(const WorkloadSpec& w, const Args& a) {
  using Clock = std::chrono::steady_clock;
  const auto start = Clock::now();
  auto elapsed = [&] {
    return std::chrono::duration<double>(Clock::now() - start).count();
  };
  std::vector<TrialResult> pooled;
  std::vector<double> wall_ops, setups;
  std::vector<std::string> gate;
  double rss = 0;
  const int k = w.virtual_trials;
  // Trials 0..k-1 run whole and give the virtual metrics. Repeats cycle
  // through the same seeds up to the end of the headline step only, to
  // re-measure the wall clock, and must reproduce its digest.
  for (int i = 0; i < k || elapsed() < a.seconds; ++i) {
    const std::uint64_t seed = mamsbench::TrialSeed(a.seed, i % k);
    mamsbench::TrialOptions opt;
    opt.headline_only = i >= k;
    TrialResult t = mamsbench::RunTrial(w, seed, opt);
    for (const auto& g : t.gate_failures) {
      gate.push_back("trial seed " + std::to_string(seed) + ": " + g);
    }
    if (i >= k && t.headline_digest !=
                      pooled[static_cast<std::size_t>(i % k)].headline_digest) {
      gate.push_back("trial seed " + std::to_string(seed) +
                     " is not deterministic: digest changed on repeat");
    }
    wall_ops.push_back(t.ops_per_wall_s);
    setups.push_back(t.setup_wall_s);
    if (i == 0) rss = t.rss_mb;
    if (i < k) pooled.push_back(std::move(t));
    if (!gate.empty()) break;
  }
  // setup_s is the median of at least kSetups set-ups; where the trials
  // above gave fewer, set-up alone repeats at the same seeds.
  mamsbench::TrialOptions setup_opt;
  setup_opt.setup_only = true;
  for (int i = 0; gate.empty() && setups.size() < kSetups; ++i) {
    setups.push_back(
        mamsbench::RunTrial(w, mamsbench::TrialSeed(a.seed, i % k), setup_opt)
            .setup_wall_s);
  }

  std::vector<double> reads, writes;
  std::uint64_t served = 0, attempted = 0, failed = 0, rejected = 0;
  double virt_s = 0, unavail = 0;
  std::vector<double> slo;
  std::size_t cycles = 0;
  for (const auto& t : pooled) {
    reads.insert(reads.end(), t.read_ms.begin(), t.read_ms.end());
    writes.insert(writes.end(), t.write_ms.begin(), t.write_ms.end());
    served += t.headline_served;
    virt_s += t.headline_virtual_s;
    attempted += t.attempted;
    failed += t.failed;
    rejected += t.rejected;
    if (!t.crashes_s.empty()) {
      unavail += mamsbench::MeanUnavailability(t.crashes_s, t.completions,
                                               t.end_s) *
                 static_cast<double>(t.crashes_s.size());
      cycles += t.crashes_s.size();
    }
    if (w.ladder_ops_s.size() > 1) {
      slo.push_back(mamsbench::PickSlo(t.ladder, mamsbench::kSloReadP99Ms));
    }
  }
  std::sort(reads.begin(), reads.end());
  std::sort(writes.begin(), writes.end());
  const Percentile r50 = mamsbench::SupportedPercentile(reads, 0.50);
  const Percentile r99 = mamsbench::SupportedPercentile(reads, 0.99);
  const Percentile w50 = mamsbench::SupportedPercentile(writes, 0.50);
  const Percentile w99 = mamsbench::SupportedPercentile(writes, 0.99);
  const double goodput = served / (virt_s > 0 ? virt_s : 1);
  const double fail_frac =
      attempted ? static_cast<double>(failed) / static_cast<double>(attempted)
                : 1.0;

  std::printf("workload %s seed %llu: %zu trials (virtual metrics pooled over "
              "the first %d), %.1f s wall\n",
              w.name.c_str(), static_cast<unsigned long long>(a.seed),
              wall_ops.size(), k, elapsed());
  for (std::size_t s = 0; !pooled.empty() && s < pooled[0].ladder.size(); ++s) {
    const auto& st = pooled[0].ladder[s];
    if (st.offered_ops_s <= 0) continue;
    std::printf("  ladder step %zu: offered %.0f op/s, read p%.1f %.4g ms "
                "(n=%zu)%s\n",
                s, st.offered_ops_s, st.read_p99.q * 100, st.read_p99.value,
                st.read_p99.n, st.backlog_grew ? ", backlog grows" : "");
  }
  char note[160];
  std::snprintf(note, sizeof note, "virtual; served=%llu over %.3f s",
                static_cast<unsigned long long>(served), virt_s);
  Line("goodput_ops_s", goodput, "op/s", note);
  Line("read_p50_ms", r50.value, "ms", Describe(r50, 0.50));
  Line("read_p99_ms", r99.value, "ms", Describe(r99, 0.99));
  Line("write_p50_ms", w50.value, "ms", Describe(w50, 0.50));
  Line("write_p99_ms", w99.value, "ms", Describe(w99, 0.99));
  std::snprintf(note, sizeof note,
                "failed+unfinished=%llu of attempted=%llu (NotFound/"
                "AlreadyExists served: %llu)",
                static_cast<unsigned long long>(failed),
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(rejected));
  Line("fail_frac", fail_frac, "ratio", note);
  if (!slo.empty()) {
    std::snprintf(note, sizeof note,
                  "virtual; read tail <= %.1f ms, no backlog growth; median "
                  "of %zu ladders",
                  mamsbench::kSloReadP99Ms, slo.size());
    Line("slo_ops_s", mamsbench::Median(slo), "op/s", note);
  }
  if (cycles > 0) {
    std::snprintf(note, sizeof note,
                  "virtual; crash to first served mutation, mean of %zu "
                  "cycles",
                  cycles);
    Line("unavail_s", unavail / static_cast<double>(cycles), "s", note);
  }
  const double ops_wall = mamsbench::Median(wall_ops);
  const double setup = mamsbench::Median(setups);
  std::snprintf(note, sizeof note,
                "wall; headline step, median of %zu trials (%.0f..%.0f)",
                wall_ops.size(),
                *std::min_element(wall_ops.begin(), wall_ops.end()),
                *std::max_element(wall_ops.begin(), wall_ops.end()));
  Line("ops_per_wall_s", ops_wall, "op/s", note);
  std::snprintf(note, sizeof note, "wall; median of %zu set-ups",
                setups.size());
  Line("setup_s", setup, "s", note);
  Line("peak_rss_mb", rss, "MB",
       "wall; getrusage max RSS when the first trial's headline step ends");

  std::string json;
  AppendMetric(json, "goodput_ops_s", goodput, "op/s");
  AppendMetric(json, "read_p99_ms", r99.value, "ms");
  AppendMetric(json, "write_p50_ms", w50.value, "ms");
  AppendMetric(json, "write_p99_ms", w99.value, "ms");
  AppendMetric(json, "setup_s", setup, "s");
  AppendMetric(json, "peak_rss_mb", rss, "MB");
  if (!r99.ok || !w50.ok || !w99.ok) {
    gate.push_back("too few latency samples for the reported percentiles");
  }
  return Finish(gate.empty(), attempted, failed, json, gate);
}

int RunTraced(const WorkloadSpec& w, const Args& a) {
  // Untraced, traced, untraced again at one seed: the first trial in a
  // process also pays for growing the heap, so the overhead is taken
  // against the second untraced trial.
  const std::uint64_t seed = mamsbench::TrialSeed(a.seed, 0);
  const TrialResult first = mamsbench::RunTrial(w, seed, {});
  mamsbench::TrialOptions traced_opt;
  traced_opt.trace = true;
  TrialResult traced = mamsbench::RunTrial(w, seed, traced_opt);
  const TrialResult plain = mamsbench::RunTrial(w, seed, {});
  std::vector<std::string> gate = first.gate_failures;
  gate.insert(gate.end(), traced.gate_failures.begin(),
              traced.gate_failures.end());
  if (first.digest != plain.digest) {
    gate.push_back("the same seed gave two different digests untraced");
  }
  if (plain.digest != traced.digest) {
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "tracing changed the simulation: digest %016llx untraced vs "
                  "%016llx traced",
                  static_cast<unsigned long long>(plain.digest),
                  static_cast<unsigned long long>(traced.digest));
    gate.push_back(buf);
  }
  traced.layer["trace.overhead_s"] =
      traced.window_wall_s - plain.window_wall_s;

  std::printf("workload %s seed %llu: per-layer metrics (traced trial, digest "
              "%016llx)\n",
              w.name.c_str(), static_cast<unsigned long long>(a.seed),
              static_cast<unsigned long long>(traced.digest));
  std::string json;
  for (const auto& [name, v] : traced.layer) {
    const std::string unit = UnitOf(name);
    Line(name, v, unit, "");
    AppendMetric(json, name, v, unit);
  }
  return Finish(gate.empty(), traced.attempted, traced.failed, json, gate);
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!ParseArgs(argc, argv, a)) {
    std::fprintf(stderr,
                 "usage: mamsbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1>\n");
    return 2;
  }
  const WorkloadSpec* w = mamsbench::FindWorkload(a.workload);
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'; known:", a.workload.c_str());
    for (const auto& k : mamsbench::Workloads()) {
      std::fprintf(stderr, " %s", k.name.c_str());
    }
    std::fprintf(stderr, "\n");
    return 2;
  }
  return a.trace ? RunTraced(*w, a) : RunEndToEnd(*w, a);
}
