// Schedule shrinking: reduce a violating RunSpec to a minimal reproducer.
//
// Delta debugging (ddmin) applied first to the fault schedule, then to the
// op schedule, iterated to a fixpoint under a rerun budget. A candidate is
// kept when re-executing it still yields ANY violation — classic ddmin
// practice: the minimal schedule may surface a different (usually simpler)
// expression of the same bug, and determinism guarantees whichever
// violation the final spec produces is reproduced exactly on replay.
#pragma once

#include <functional>

#include "check/fuzzer.hpp"

namespace mams::check {

struct ShrinkOptions {
  int max_runs = 200;  ///< rerun budget across the whole shrink
  /// Progress callback (ops left, faults left, runs used); may be null.
  std::function<void(std::size_t, std::size_t, int)> progress;
};

struct ShrinkResult {
  RunSpec spec;       ///< the minimized schedule
  RunResult result;   ///< its (violating) execution
  int runs = 0;       ///< reruns consumed
};

ShrinkResult Shrink(const RunSpec& failing, ShrinkOptions options = {});

}  // namespace mams::check
