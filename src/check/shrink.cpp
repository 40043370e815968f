#include "check/shrink.hpp"

#include <algorithm>
#include <utility>
#include <vector>

namespace mams::check {

namespace {

/// One ddmin pass over a list-valued field of the spec: repeatedly tries
/// dropping chunks (halving granularity down to single elements), keeping
/// any candidate that still violates. `get`/`set` access the list inside
/// the spec; Rerun caches the last violating execution.
template <typename T>
class ListMinimizer {
 public:
  ListMinimizer(RunSpec& spec, std::vector<T> RunSpec::* field,
                const ShrinkOptions& options, int& runs,
                RunResult& best_result)
      : spec_(spec),
        field_(field),
        options_(options),
        runs_(runs),
        best_(best_result) {}

  /// Returns true when anything was removed.
  bool Minimize() {
    bool changed = false;
    std::size_t chunk = std::max<std::size_t>(1, (spec_.*field_).size() / 2);
    while (true) {
      bool removed_any = false;
      std::size_t i = 0;
      while (i < (spec_.*field_).size()) {
        if (runs_ >= options_.max_runs) return changed;
        RunSpec candidate = spec_;
        auto& list = candidate.*field_;
        const std::size_t end =
            std::min(list.size(), i + chunk);
        list.erase(list.begin() + static_cast<std::ptrdiff_t>(i),
                   list.begin() + static_cast<std::ptrdiff_t>(end));
        ++runs_;
        RunResult r = RunSpecOnce(candidate);
        if (r.violated()) {
          spec_ = std::move(candidate);
          best_ = std::move(r);
          removed_any = true;
          changed = true;
          // i stays: the next chunk shifted into place.
        } else {
          i += chunk;
        }
        if (options_.progress) {
          options_.progress(spec_.ops.size(), spec_.faults.size(), runs_);
        }
      }
      if (chunk == 1) {
        if (!removed_any) return changed;
        // One more single-element sweep often unlocks late removals.
        continue;
      }
      chunk = std::max<std::size_t>(1, chunk / 2);
    }
  }

 private:
  RunSpec& spec_;
  std::vector<T> RunSpec::* field_;
  const ShrinkOptions& options_;
  int& runs_;
  RunResult& best_;
};

}  // namespace

ShrinkResult Shrink(const RunSpec& failing, ShrinkOptions options) {
  ShrinkResult out;
  out.spec = failing;
  out.result = RunSpecOnce(out.spec);
  out.runs = 1;
  if (!out.result.violated()) {
    // Not reproducible as given — nothing to shrink.
    return out;
  }
  // Faults first (each removed fault usually makes reruns faster), then
  // ops, repeated until neither list shrinks further.
  while (out.runs < options.max_runs) {
    ListMinimizer<cluster::Fault> faults(out.spec, &RunSpec::faults,
                                         options, out.runs, out.result);
    const bool f = faults.Minimize();
    ListMinimizer<OpEntry> ops(out.spec, &RunSpec::ops, options, out.runs,
                               out.result);
    const bool o = ops.Minimize();
    if (!f && !o) break;
  }
  return out;
}

}  // namespace mams::check
