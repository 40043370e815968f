// .repro files — replayable text serialization of a fuzzer RunSpec.
//
// Format (line-oriented, "mams-repro v1"):
//
//   mams-repro v1
//   seed=42
//   clients=2
//   standbys=2
//   mutation=none
//   warmup_us=2000000
//   run_us=30000000
//   quiesce_us=45000000
//   op <client> <think_us> <kind> <path> [<path2>]
//   fault <kind> <at_us> <target> <duration_us> <param>
//
// A fault line is one cluster::Fault. <kind> is the kind's .repro name in
// cluster::FaultKinds() (cut, crash, crash_active, crash_pool, jitter,
// migrate, ...). <target> packs the address: group * (1 + standbys) +
// member for member and pool-node kinds, the group for group kinds, the
// slot for migrate, and 0 for jitter. <param> is the jitter in us, the
// disk slowdown in thousandths, or the asymmetry direction.
//
// Everything a run consumes is in the file; replaying it reproduces the
// identical event schedule (verified via Simulator::run_digest), which is
// what makes a shrunk reproducer from CI attachable to a bug report.
#pragma once

#include <string>

#include "check/fuzzer.hpp"
#include "common/status.hpp"

namespace mams::check {

std::string SerializeSpec(const RunSpec& spec);
Result<RunSpec> ParseSpec(const std::string& text);

/// Convenience wrappers over std::fstream.
Status WriteSpecFile(const RunSpec& spec, const std::string& path);
Result<RunSpec> ReadSpecFile(const std::string& path);

}  // namespace mams::check
