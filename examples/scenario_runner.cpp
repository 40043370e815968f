// Runs fault-injection scenarios against a simulated CFS cluster.
//
//   $ ./build/examples/scenario_runner path/to/scenario.txt
//   $ ./build/examples/scenario_runner --list
//   $ ./build/examples/scenario_runner --scenario flash_crowd --seed 7
//   $ ./build/examples/scenario_runner --all --seeds 5 --out-dir failures/
//   $ ./build/examples/scenario_runner            # runs the built-in demo
//
// Script-file mode runs one hand-written script. Library mode
// (--scenario / --all) runs scripts from the named scenario library
// (src/cluster/scenario_library.hpp) with $SEED substituted, which is
// what the nightly sweep drives: --all --seeds N runs every scenario
// under N seeds and exits non-zero if any run fails. With --out-dir the
// failing script instantiations and failure logs are written there so a
// red nightly leaves a replayable artifact.
//
// The language (one command per line, '#' comments) is documented in
// docs/SCENARIOS.md; the built-in demo reproduces the paper's Test A
// (forced lock loss) followed by a crash/restart cycle.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/scenario.hpp"
#include "cluster/scenario_library.hpp"

namespace {

constexpr const char* kDemo = R"(
# Demo: Table II's Test A, then a crash + restart (Test C), end converged.
cluster groups=1 standbys=3 clients=2 seed=7
run 1s
mkdir /data
create /data/one
create /data/two
expect-state 0 "A S S S"
print-view 0

# --- Test A: the active loses the distributed lock -------------------
force-lock-release 0
run 8s
expect-active 0
expect-exists /data/one
print-view 0
expect-counts 0 A=1 S=3 J=0

# --- Test C: kill the new active, restart it later -------------------
crash-active 0
run 10s
expect-active 0
create /data/three
restart 0 1
run 25s
expect-converged 0
expect-exists /data/three
print-view 0
expect-ops-ok
)";

void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [script.txt]                     run a script file\n"
               "       %s --list                           list named "
               "scenarios\n"
               "       %s --scenario <name> [--seed N]     run one named "
               "scenario\n"
               "       %s --all [--seeds N]                sweep every "
               "scenario\n"
               "options: --seed N     seed for --scenario (default 1)\n"
               "         --seeds N    seeds per scenario for --all "
               "(default 1)\n"
               "         --quiet      suppress per-command echo\n"
               "         --out-dir D  write failing scripts + logs to D\n",
               argv0, argv0, argv0, argv0);
}

struct Args {
  std::string script_path;
  std::string scenario;
  std::string out_dir;
  std::uint64_t seed = 1;
  int seeds = 1;
  bool list = false;
  bool all = false;
  bool quiet = false;
};

bool Parse(int argc, char** argv, Args* out) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return (i + 1 < argc) ? argv[++i] : nullptr;
    };
    if (arg == "--list") {
      out->list = true;
    } else if (arg == "--all") {
      out->all = true;
    } else if (arg == "--quiet") {
      out->quiet = true;
    } else if (arg == "--scenario") {
      const char* v = next();
      if (v == nullptr) return false;
      out->scenario = v;
    } else if (arg == "--seed") {
      const char* v = next();
      if (v == nullptr) return false;
      out->seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--seeds") {
      const char* v = next();
      if (v == nullptr) return false;
      out->seeds = std::atoi(v);
      if (out->seeds < 1) return false;
    } else if (arg == "--out-dir") {
      const char* v = next();
      if (v == nullptr) return false;
      out->out_dir = v;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "unknown flag %s\n", arg.c_str());
      return false;
    } else {
      out->script_path = arg;
    }
  }
  return true;
}

// One library run. Returns true on pass; on failure writes the
// instantiated script and the failure list under out_dir (if set) so
// the exact run can be replayed from the artifact alone.
bool RunOne(const mams::cluster::NamedScenario& scenario, std::uint64_t seed,
            const Args& args) {
  std::printf("=== %s seed=%llu ===\n", scenario.name.c_str(),
              static_cast<unsigned long long>(seed));
  std::vector<std::string> failures;
  const mams::Status result = mams::cluster::RunNamedScenario(
      scenario.name, seed, {.echo = !args.quiet}, &failures);
  if (result.ok()) {
    std::printf("=== %s seed=%llu PASSED ===\n", scenario.name.c_str(),
                static_cast<unsigned long long>(seed));
    return true;
  }
  std::printf("=== %s seed=%llu FAILED: %s ===\n", scenario.name.c_str(),
              static_cast<unsigned long long>(seed),
              result.ToString().c_str());
  for (const auto& f : failures) std::printf("  - %s\n", f.c_str());
  if (!args.out_dir.empty()) {
    const std::string stem = args.out_dir + "/" + scenario.name + "-seed" +
                             std::to_string(seed);
    std::ofstream script(stem + ".scenario", std::ios::trunc);
    script << mams::cluster::InstantiateScenario(scenario, seed);
    std::ofstream log(stem + ".failure", std::ios::trunc);
    log << result.ToString() << "\n";
    for (const auto& f : failures) log << f << "\n";
    std::printf("  wrote %s.scenario\n", stem.c_str());
  }
  return false;
}

int RunLibrary(const Args& args) {
  std::vector<const mams::cluster::NamedScenario*> picked;
  if (args.all) {
    for (const auto& s : mams::cluster::ScenarioLibrary()) picked.push_back(&s);
  } else {
    const auto* s = mams::cluster::FindScenario(args.scenario);
    if (s == nullptr) {
      std::fprintf(stderr, "no scenario named %s (try --list)\n",
                   args.scenario.c_str());
      return 2;
    }
    picked.push_back(s);
  }
  int failed = 0, total = 0;
  for (const auto* s : picked) {
    for (int i = 0; i < (args.all ? args.seeds : 1); ++i) {
      const std::uint64_t seed = args.all ? args.seed + i : args.seed;
      ++total;
      if (!RunOne(*s, seed, args)) ++failed;
    }
  }
  std::printf("\n%d/%d scenario runs passed\n", total - failed, total);
  return failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!Parse(argc, argv, &args)) {
    Usage(argv[0]);
    return 2;
  }

  if (args.list) {
    for (const auto& s : mams::cluster::ScenarioLibrary()) {
      std::printf("%-16s %s\n", s.name.c_str(), s.title.c_str());
    }
    return 0;
  }
  if (args.all || !args.scenario.empty()) return RunLibrary(args);

  std::string script;
  if (!args.script_path.empty()) {
    std::ifstream in(args.script_path);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", args.script_path.c_str());
      return 2;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    script = buf.str();
  } else {
    std::printf("(no script given; running the built-in demo)\n");
    script = kDemo;
  }

  mams::cluster::ScenarioRunner runner({.echo = !args.quiet});
  const mams::Status result = runner.Run(script);
  if (!result.ok()) {
    std::printf("\nSCENARIO FAILED: %s\n", result.ToString().c_str());
    for (const auto& f : runner.failures()) {
      std::printf("  - %s\n", f.c_str());
    }
    return 1;
  }
  std::printf("\nSCENARIO PASSED\n");
  return 0;
}
