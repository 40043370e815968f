// Pure reporting rules of the benchmark, kept free of simulator types so
// the self-tests exercise them on synthetic inputs:
//
//   * the percentile-support rule (a percentile is reported only when at
//     least kMinBeyond samples lie beyond it; otherwise the highest
//     percentile that has that support is reported instead);
//   * the SLO ladder (highest offered-rate step whose read tail meets the
//     limit, stopping at the first step whose backlog grows);
//   * backlog growth from a step's live-session samples;
//   * unavailability from a crash/completion series.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace mamsbench {

inline constexpr std::size_t kMinBeyond = 10;

/// A reported percentile: the value, the quantile it was actually taken
/// at (lower than the one asked for when the tail lacks support), and the
/// sample count. `ok` is false when even the median lacks support.
struct Percentile {
  double value = 0;
  double q = 0;
  std::size_t n = 0;
  bool ok = false;
};

/// Number of samples strictly beyond the nearest-rank q-quantile of n.
inline std::size_t SamplesBeyond(std::size_t n, double q) {
  const auto rank =
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  return rank >= n ? 0 : n - rank;
}

/// Nearest-rank percentile of `sorted` (ascending) at quantile `want`,
/// lowered to the highest quantile with kMinBeyond samples beyond it.
inline Percentile SupportedPercentile(const std::vector<double>& sorted,
                                      double want) {
  Percentile p;
  p.n = sorted.size();
  if (p.n == 0) return p;
  const double n = static_cast<double>(p.n);
  double q = want;
  if (SamplesBeyond(p.n, q) < kMinBeyond) {
    // Highest q with n - ceil(q n) >= kMinBeyond, on a 0.001 grid.
    q = std::floor((n - static_cast<double>(kMinBeyond)) / n * 1000.0) / 1000.0;
    while (q > 0 && SamplesBeyond(p.n, q) < kMinBeyond) q -= 0.001;
  }
  if (q < 0.5 - 1e-9) return p;
  const auto rank = static_cast<std::size_t>(std::ceil(q * n));
  p.value = sorted[rank == 0 ? 0 : rank - 1];
  p.q = q;
  p.ok = true;
  return p;
}

/// A step's backlog grows when the mean live-session count over its last
/// third exceeds that over its first third by half again plus a small
/// absolute slack (open-loop sessions fluctuate around a stable mean).
inline bool BacklogGrows(const std::vector<std::uint64_t>& live) {
  if (live.size() < 3) return false;
  const std::size_t third = live.size() / 3;
  double first = 0, last = 0;
  for (std::size_t i = 0; i < third; ++i) first += static_cast<double>(live[i]);
  for (std::size_t i = live.size() - third; i < live.size(); ++i) {
    last += static_cast<double>(live[i]);
  }
  first /= static_cast<double>(third);
  last /= static_cast<double>(third);
  return last > 1.5 * first + 8.0;
}

struct LadderStep {
  double offered_ops_s = 0;
  Percentile read_p99;  ///< read tail of the ops due in this step
  bool backlog_grew = false;
};

/// Highest offered rate whose read tail is within `limit_ms`, walking the
/// ladder upward and stopping at the first step whose backlog grows (a
/// growing backlog means the step is past the knee whatever its tail says).
/// Returns 0 when no step passes.
inline double PickSlo(const std::vector<LadderStep>& steps, double limit_ms) {
  double best = 0;
  for (const LadderStep& s : steps) {
    if (s.backlog_grew) break;
    if (s.read_p99.ok && s.read_p99.value <= limit_ms) {
      best = std::max(best, s.offered_ops_s);
    }
  }
  return best;
}

struct Completion {
  double at_s = 0;   ///< completion time
  double due_s = 0;  ///< the op's due time
  bool mutation = false;
  bool served = false;
};

/// Mean over crashes of the time from each crash to the first mutation
/// served after it that was also due after it (a reply already on the wire
/// when the active died does not end the outage). `completions` must be in
/// completion order. A crash with no such mutation counts until `end_s`.
/// Returns 0 with no crash.
inline double MeanUnavailability(const std::vector<double>& crashes_s,
                                 const std::vector<Completion>& completions,
                                 double end_s) {
  if (crashes_s.empty()) return 0;
  double total = 0;
  for (double crash : crashes_s) {
    double back = end_s;
    auto it = std::upper_bound(
        completions.begin(), completions.end(), crash,
        [](double t, const Completion& c) { return t < c.at_s; });
    for (; it != completions.end(); ++it) {
      if (it->mutation && it->served && it->due_s > crash) {
        back = it->at_s;
        break;
      }
    }
    total += back - crash;
  }
  return total / static_cast<double>(crashes_s.size());
}

inline double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

}  // namespace mamsbench
