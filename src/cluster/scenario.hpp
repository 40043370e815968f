// A small scenario language for scripting fault-injection experiments
// against a CFS cluster — the textual equivalent of the paper's Table II
// test procedures. One command per line, '#' comments:
//
//   cluster groups=1 standbys=3 clients=2 seed=7
//   run 2s
//   mkdir /data
//   create /data/file-1
//   crash-active 0            # kill group 0's active
//   run 10s
//   expect-active 0           # exactly one active again
//   expect-exists /data/file-1
//   expect-converged 0        # every standby matches the active
//   unplug 0 1 for 8s         # pull member (group 0, index 1)'s cable
//   restart 0 0               # restart member (0,0)
//   force-lock-release 0      # the paper's Test A injection
//   expect-state 0 "S A S S"  # Table II row
//   print-view 0
//
// Commands dispatch through one table (name -> usage + help + handler):
// `help` lists every command and an unknown command suggests its nearest
// neighbour. Every fault kind in cluster::FaultKinds() is a command; it
// parses into a cluster::Fault and runs through the cluster's
// FaultExecutor, the same path the checker's fuzzer uses.
//
// The runner executes commands sequentially, pumping the simulator as
// needed; failed expectations are collected (not thrown) so a scenario
// reports all its violations. Used by examples/scenario_runner and by
// scenario-driven tests.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cfs.hpp"
#include "cluster/fault.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"

namespace mams::workload {
class LoadEngine;
}

namespace mams::cluster {

class Autoscaler;

struct ScenarioRunnerOptions {
  bool echo = false;  ///< print each command + outcome to stdout
};

/// Parses a fault command's arguments in the scenario language, e.g.
/// ("unplug", {"0", "1", "for", "8s"}). NotFound when `command` names no
/// fault kind; InvalidArgument on malformed arguments.
Result<Fault> ParseFault(const std::string& command,
                         const std::vector<std::string>& args);

class ScenarioRunner {
 public:
  using Options = ScenarioRunnerOptions;

  explicit ScenarioRunner(Options options = {});
  ~ScenarioRunner();

  /// Runs a whole script; returns OK when every command executed and every
  /// expectation held. Parse errors abort; expectation failures accumulate.
  Status Run(const std::string& script);

  const std::vector<std::string>& failures() const noexcept {
    return failures_;
  }

 private:
  using Handler = std::function<Status(const std::vector<std::string>& args)>;

  /// One entry in the command table. `usage` is the one-line synopsis
  /// `help` prints and a wrong argument count reports; `help` is the prose
  /// description.
  struct Command {
    std::string usage;
    std::string help;
    std::size_t min_args;
    std::size_t max_args;
    Handler handler;
  };

  void AddCommands();
  Status Execute(const std::vector<std::string>& tokens, int line_no);
  /// Closest command by edit distance, or "" when nothing is close enough
  /// to be a plausible typo.
  std::string Suggest(const std::string& cmd) const;

  /// Parses a group index of the cluster; InvalidArgument when outside it.
  Result<GroupId> ParseGroup(const std::string& arg) const;
  /// Records an expectation failure (collected, not thrown).
  void Fail(std::string what);
  /// Echoes a log line when echo is on.
  void Note(const std::string& what);
  /// Pumps the simulator in 50 ms steps until `done` or the budget elapses.
  bool PumpUntil(const std::function<bool()>& done,
                 SimTime budget = 120 * kSecond);

  // Command implementations, run once the argument count fits and a
  // cluster exists (except `cluster` and `help`): each returns a parse
  // error or OK; expectation outcomes go to failures_.
  Status CmdCluster(const std::vector<std::string>& args);
  Status CmdRun(const std::vector<std::string>& args);
  Status CmdClientOp(const std::string& op,
                     const std::vector<std::string>& args);
  Status CmdFault(const std::string& command,
                  const std::vector<std::string>& args);
  Status CmdAutoscale(const std::vector<std::string>& args);
  Status CmdLoad(const std::vector<std::string>& args);
  Status CmdHelp(const std::vector<std::string>& args);
  Status CmdExpectActive(const std::vector<std::string>& args);
  Status CmdExpectExists(const std::vector<std::string>& args, bool want);
  Status CmdExpectConverged(const std::vector<std::string>& args);
  Status CmdExpectState(const std::vector<std::string>& args);
  Status CmdExpectCounts(const std::vector<std::string>& args);
  Status CmdExpectStandbys(const std::vector<std::string>& args);
  Status CmdExpectMetric(const std::vector<std::string>& args);
  Status CmdExpectProbesClean();
  Status CmdPrintView(const std::vector<std::string>& args);

  Options options_;
  std::map<std::string, Command> commands_;
  std::unique_ptr<sim::Simulator> sim_;
  std::unique_ptr<net::Network> net_;
  std::unique_ptr<CfsCluster> cluster_;
  // These reference the cluster, so they are declared after it (destroyed
  // first) and reset before it on a `cluster` rebuild.
  std::unique_ptr<FaultExecutor> faults_;
  std::unique_ptr<Autoscaler> autoscaler_;
  std::unique_ptr<workload::LoadEngine> load_;
  std::vector<std::string> failures_;
  int pending_ops_ = 0;
  std::uint64_t ops_failed_ = 0;
};

}  // namespace mams::cluster
