// Linearizability checker over recorded histories (checker.cpp).
//
// Search: Wing & Gong's algorithm with the Lowe memoization — depth-first
// over "which op is linearized next", restricted to ops whose invoke time
// precedes the earliest completion among the not-yet-linearized ops (the
// real-time order), with visited (linearized-set, model-fingerprint)
// states pruned. The MAMS single-active serialization point keeps the
// frontier narrow in practice: at most a handful of ops overlap any
// failover window, so the search is near-linear on clean histories.
//
// Ambiguous ops (timeouts) may have executed or not: the search may
// linearize them anywhere after their invoke, or never. Ambiguous READS
// constrain nothing (no observation came back) and are dropped up front.
//
// When no linearization exists the history is classified into the
// paper's failure taxonomy — lost ack, duplicate apply, stale read,
// split-brain write — by targeted scans; anything else is reported as a
// generic not-linearizable violation with the search frontier.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "check/history.hpp"

namespace mams::check {

struct Violation {
  enum class Type : std::uint8_t {
    kLostAck,          ///< acked mutation whose effect later vanished
    kDuplicateApply,   ///< an op's effect observed more than once
    kStaleRead,        ///< read returned state an acked mutation replaced
    kSplitBrainWrite,  ///< two acks only concurrent actives could both give
    kReplicaDivergence,  ///< standby fingerprint != active after quiesce
    kInvariantProbe,   ///< an obs::ProbeRegistry invariant fired mid-run
    kNotLinearizable,  ///< search exhausted without a witness
  };
  Type type = Type::kNotLinearizable;
  std::string detail;
  std::vector<std::uint32_t> events;  ///< ids of the implicated events
};

const char* ViolationTypeName(Violation::Type type);
std::string FormatViolation(const History& history, const Violation& v);

/// Search-node budget; an exhausted budget reports "undecided", never a
/// false violation.
inline constexpr std::uint64_t kMaxStates = 4'000'000;

struct CheckResult {
  bool linearizable = false;
  bool decided = true;  ///< false: budget exhausted before an answer
  std::uint64_t states_explored = 0;
  std::vector<Violation> violations;  ///< empty iff linearizable
};

CheckResult CheckHistory(const History& history);

}  // namespace mams::check
