#include "cluster/scenario.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "cluster/autoscaler.hpp"
#include "workload/load_engine.hpp"

namespace mams::cluster {

namespace {

std::vector<std::string> Tokenize(const std::string& line) {
  std::vector<std::string> tokens;
  std::istringstream in(line);
  std::string tok;
  while (in >> tok) {
    if (tok[0] == '#') break;  // comment to end of line
    tokens.push_back(tok);
  }
  return tokens;
}

/// Classic dynamic-programming edit distance; command names are short, so
/// the quadratic table is a handful of bytes.
std::size_t EditDistance(const std::string& a, const std::string& b) {
  std::vector<std::size_t> row(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) row[j] = j;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    std::size_t diag = row[0];
    row[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t sub = diag + (a[i - 1] == b[j - 1] ? 0 : 1);
      diag = row[j];
      row[j] = std::min({row[j] + 1, row[j - 1] + 1, sub});
    }
  }
  return row[b.size()];
}

/// Parses "2s" / "500ms" / "250us" into virtual time.
Result<SimTime> ParseDuration(const std::string& s) {
  std::size_t pos = 0;
  double value = 0;
  try {
    value = std::stod(s, &pos);
  } catch (...) {
    return Status::InvalidArgument("bad duration: " + s);
  }
  const std::string unit = s.substr(pos);
  if (unit == "s") return static_cast<SimTime>(value * kSecond);
  if (unit == "ms") return static_cast<SimTime>(value * kMillisecond);
  if (unit == "us") return static_cast<SimTime>(value * kMicrosecond);
  return Status::InvalidArgument("bad duration unit: " + s);
}

Result<int> ParseInt(const std::string& s) {
  try {
    return std::stoi(s);
  } catch (...) {
    return Status::InvalidArgument("bad integer: " + s);
  }
}

Result<double> ParseDouble(const std::string& s) {
  try {
    return std::stod(s);
  } catch (...) {
    return Status::InvalidArgument("bad number: " + s);
  }
}

/// Splits "key=value"; returns false when there is no '='.
bool KeyValue(const std::string& tok, std::string& key, std::string& value) {
  const auto eq = tok.find('=');
  if (eq == std::string::npos) return false;
  key = tok.substr(0, eq);
  value = tok.substr(eq + 1);
  return true;
}

}  // namespace

Result<Fault> ParseFault(const std::string& command,
                         const std::vector<std::string>& args) {
  using Target = FaultKindInfo::Target;
  using Param = FaultKindInfo::Param;
  const auto kinds = FaultKinds();
  const auto info =
      std::find_if(kinds.begin(), kinds.end(),
                   [&](const auto& k) { return command == k.command; });
  if (info == kinds.end()) {
    return Status::NotFound("no fault named " + command);
  }
  const Status usage = Status::InvalidArgument(FaultUsage(*info));

  Fault f;
  f.kind = info->kind;
  std::size_t n = args.size();
  if (info->timed && n >= 2 && args[n - 2] == "for") {
    auto d = ParseDuration(args[n - 1]);
    if (!d.ok()) return d.status();
    if (d.value() < 0) return usage;
    f.duration = d.value();
    n -= 2;
  }
  static constexpr std::size_t kAddressArgs[] = {0, 1, 2, 1};
  const std::size_t addressed =
      kAddressArgs[static_cast<std::size_t>(info->target)];
  if (n != addressed + (info->param == Param::kNone ? 0 : 1)) return usage;
  int address[2] = {0, 0};
  for (std::size_t i = 0; i < addressed; ++i) {
    auto v = ParseInt(args[i]);
    if (!v.ok()) return v.status();
    address[i] = v.value();
  }
  if (info->target == Target::kSlot) {
    f.member = address[0];
  } else {
    f.group = address[0];
    f.member = address[1];
  }
  if (info->param == Param::kNone) return f;
  const std::string& p = args[addressed];
  switch (info->param) {
    case Param::kJitter: {
      auto d = ParseDuration(p);
      if (!d.ok()) return d.status();
      f.param = d.value();
      break;
    }
    case Param::kFactor: {
      double factor = 1.0;
      if (p != "off") {
        auto x = ParseDouble(p);
        if (!x.ok()) return x.status();
        factor = x.value();
      }
      f.param = std::llround(factor * 1000.0);
      break;
    }
    case Param::kDirection:
      if (p == "in") f.param = kAsymmetryIn;
      else if (p == "out") f.param = kAsymmetryOut;
      else if (p == "off") f.param = kAsymmetryOff;
      else return usage;
      break;
    case Param::kNone:
      break;
  }
  if (f.param < 0) return usage;
  return f;
}

ScenarioRunner::ScenarioRunner(Options options) : options_(options) {
  AddCommands();
}

ScenarioRunner::~ScenarioRunner() = default;

Status ScenarioRunner::Run(const std::string& script) {
  std::istringstream in(script);
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const auto tokens = Tokenize(line);
    if (tokens.empty()) continue;
    Status s = Execute(tokens, line_no);
    if (!s.ok()) {
      return Status(s.code(), "line " + std::to_string(line_no) + ": " +
                                  s.message());
    }
  }
  if (!failures_.empty()) {
    return Status::FailedPrecondition(
        std::to_string(failures_.size()) + " expectation(s) failed; first: " +
        failures_.front());
  }
  return Status::Ok();
}

Status ScenarioRunner::Execute(const std::vector<std::string>& tokens,
                               int line_no) {
  const std::string& cmd = tokens[0];
  const std::vector<std::string> args(tokens.begin() + 1, tokens.end());
  if (options_.echo) {
    std::string joined = cmd;
    for (const auto& a : args) joined += " " + a;
    std::printf("[scenario:%d] %s\n", line_no, joined.c_str());
  }
  const auto it = commands_.find(cmd);
  if (it == commands_.end()) {
    std::string msg = "unknown command: " + cmd;
    const std::string near = Suggest(cmd);
    if (!near.empty()) msg += " (did you mean `" + near + "`?)";
    msg += "; `help` lists all commands";
    return Status::InvalidArgument(msg);
  }
  const Command& command = it->second;
  if (args.size() < command.min_args || args.size() > command.max_args) {
    return Status::InvalidArgument(command.usage);
  }
  if (!cluster_ && cmd != "cluster" && cmd != "help") {
    Fail(cmd + ": no cluster (missing `cluster` command?)");
    return Status::Ok();
  }
  return command.handler(args);
}

std::string ScenarioRunner::Suggest(const std::string& cmd) const {
  std::string best;
  std::size_t best_dist = cmd.size();  // a full rewrite is not a typo
  for (const auto& [name, command] : commands_) {
    const std::size_t d = EditDistance(cmd, name);
    if (d < best_dist) {
      best_dist = d;
      best = name;
    }
  }
  // Only suggest plausible slips: at most 2 edits, or 3 on long names.
  const std::size_t cutoff = cmd.size() >= 10 ? 3 : 2;
  return best_dist <= cutoff ? best : std::string();
}

void ScenarioRunner::AddCommands() {
  using Args = std::vector<std::string>;
  constexpr std::size_t kAny = SIZE_MAX;
  // name, usage, help, argument count range, handler.
  auto add = [this](const std::string& name, std::string usage,
                    std::string help, std::size_t min_args,
                    std::size_t max_args, Handler handler) {
    commands_[name] = {std::move(usage), std::move(help), min_args, max_args,
                       std::move(handler)};
  };

  add("cluster",
      "cluster [groups=N] [standbys=N] [juniors=N] [clients=N] [seed=N] "
      "[standby_reads=0|1]",
      "Builds and boots the cluster under test. Must run before any other "
      "command. standby_reads=1 enables bounded-staleness standby reads "
      "with round-robin client routing.",
      0, kAny, [this](const Args& a) { return CmdCluster(a); });
  add("run", "run <duration>",
      "Advances virtual time, e.g. `run 2s`, `run 500ms`.", 1, 1,
      [this](const Args& a) { return CmdRun(a); });
  for (const char* op : {"create", "mkdir", "delete", "stat"}) {
    add(op, std::string(op) + " <path>",
        "Issues the client op through client 0 and waits for the reply. "
        "Failures are logged and counted, not fatal (see expect-ops-ok).",
        1, 1, [this, op = std::string(op)](const Args& a) {
          return CmdClientOp(op, a);
        });
  }
  // Fault commands check their own arguments (ParseFault).
  for (const FaultKindInfo& kind : FaultKinds()) {
    add(kind.command, FaultUsage(kind), kind.help, 0, kAny,
        [this, command = std::string(kind.command)](const Args& a) {
          return CmdFault(command, a);
        });
  }
  add("autoscale",
      "autoscale on|off [period=500ms] [min=N] [max=N] [capacity=R] "
      "[up=U] [down=U] [breach=N] [cooldown=D] [park_bounce=R] "
      "[commit_depth=N]",
      "Starts or stops the elastic standby controller on the cluster.", 1,
      kAny, [this](const Args& a) { return CmdAutoscale(a); });
  add("load",
      "load open [rate=R] [flash_mult=M] [flash_start=D] [flash_len=D] "
      "[create=F] [think=D] [dirs=N] [ops=N] [hot_group=G] [hot_weight=W] "
      "| load stop",
      "Runs open-loop session load against the cluster; flash_* shapes a "
      "flash crowd, hot_group skews arrivals onto one group.",
      1, kAny, [this](const Args& a) { return CmdLoad(a); });
  add("help", "help [command]",
      "Lists every command, or one command's usage and help.", 0, 1,
      [this](const Args& a) { return CmdHelp(a); });
  add("expect-active", "expect-active <group>",
      "Waits until the coordination view names an alive, serving active.",
      1, 1, [this](const Args& a) { return CmdExpectActive(a); });
  add("expect-exists", "expect-exists <path>",
      "Asserts the path exists on its owner group's active.", 1, 1,
      [this](const Args& a) { return CmdExpectExists(a, /*want=*/true); });
  add("expect-missing", "expect-missing <path>",
      "Asserts the path does not exist on its owner group's active.", 1, 1,
      [this](const Args& a) { return CmdExpectExists(a, /*want=*/false); });
  add("expect-converged", "expect-converged <group>",
      "Waits until every alive standby's namespace matches the active's.",
      1, 1, [this](const Args& a) { return CmdExpectConverged(a); });
  add("expect-state", "expect-state <group> <A|S|J|- ...>",
      "Waits until the view row equals the given letters (Table II rows).",
      2, kAny, [this](const Args& a) { return CmdExpectState(a); });
  add("expect-counts", "expect-counts <group> [A=n] [S=n] [J=n]",
      "Waits until the view holds the given per-state counts.", 2, kAny,
      [this](const Args& a) { return CmdExpectCounts(a); });
  add("expect-standbys", "expect-standbys <group> <min> [max]",
      "Waits until the group's alive standby count is within [min, max].",
      2, 3, [this](const Args& a) { return CmdExpectStandbys(a); });
  add("expect-metric", "expect-metric <name> <op> <value>",
      "Asserts on a counter, gauge, or histogram stat "
      "(name.p50/.p90/.p99/.mean/.count); ops: == >= <= > <.",
      3, 3, [this](const Args& a) { return CmdExpectMetric(a); });
  add("expect-ops-ok", "expect-ops-ok",
      "Asserts no client op issued so far failed.", 0, 0,
      [this](const Args&) -> Status {
        if (ops_failed_ > 0) {
          Fail("expect-ops-ok: " + std::to_string(ops_failed_) +
               " client op(s) failed");
        }
        return Status::Ok();
      });
  add("expect-probes-clean", "expect-probes-clean",
      "Evaluates every safety probe now and asserts no invariant violation "
      "has been recorded in the whole run.",
      0, 0, [this](const Args&) { return CmdExpectProbesClean(); });
  add("print-view", "print-view <group>",
      "Prints the group's coordination view row, lock and fence.", 1, 1,
      [this](const Args& a) { return CmdPrintView(a); });
}

Result<GroupId> ScenarioRunner::ParseGroup(const std::string& arg) const {
  auto g = ParseInt(arg);
  if (!g.ok()) return g.status();
  const int groups = static_cast<int>(cluster_->config().groups);
  if (g.value() < 0 || g.value() >= groups) {
    return Status::InvalidArgument("group " + arg + " out of range [0, " +
                                   std::to_string(groups) + ")");
  }
  return static_cast<GroupId>(g.value());
}

void ScenarioRunner::Fail(std::string what) {
  if (options_.echo) std::printf("  FAIL: %s\n", what.c_str());
  failures_.push_back(std::move(what));
}

void ScenarioRunner::Note(const std::string& what) {
  if (options_.echo) std::printf("  %s\n", what.c_str());
}

bool ScenarioRunner::PumpUntil(const std::function<bool()>& done,
                               SimTime budget) {
  const SimTime deadline = sim_->Now() + budget;
  while (!done() && sim_->Now() < deadline) {
    sim_->RunUntil(sim_->Now() + 50 * kMillisecond);
  }
  return done();
}

Status ScenarioRunner::CmdCluster(const std::vector<std::string>& args) {
  CfsConfig cfg;
  cfg.clients = 2;
  cfg.data_servers = 1;
  std::uint64_t seed = 1;
  for (const auto& tok : args) {
    std::string key, value;
    if (!KeyValue(tok, key, value)) {
      return Status::InvalidArgument("expected key=value, got " + tok);
    }
    auto num = ParseInt(value);
    if (!num.ok()) return num.status();
    const int least = key == "groups" || key == "clients" ? 1 : 0;
    if (key != "seed" && num.value() < least) {
      return Status::InvalidArgument(key + " must be at least " +
                                     std::to_string(least));
    }
    if (key == "groups") {
      cfg.groups = static_cast<GroupId>(num.value());
    } else if (key == "standbys") {
      cfg.standbys_per_group = num.value();
    } else if (key == "juniors") {
      cfg.juniors_per_group = num.value();
    } else if (key == "clients") {
      cfg.clients = num.value();
    } else if (key == "seed") {
      seed = static_cast<std::uint64_t>(num.value());
    } else if (key == "standby_reads") {
      if (num.value() != 0) {
        cfg.mds.standby_reads.serve_reads = true;
        cfg.client.read_routing = ReadRouting::kRoundRobinStandby;
      }
    } else {
      return Status::InvalidArgument("unknown cluster option: " + key);
    }
  }
  // Re-running `cluster` rebuilds the world: drop what references the old
  // cluster first.
  load_.reset();
  autoscaler_.reset();
  faults_.reset();
  cluster_.reset();
  net_.reset();
  sim_ = std::make_unique<sim::Simulator>(seed);
  net_ = std::make_unique<net::Network>(*sim_);
  cluster_ = std::make_unique<CfsCluster>(*net_, cfg);
  faults_ = std::make_unique<FaultExecutor>(*cluster_);
  cluster_->Start();
  sim_->RunUntil(sim_->Now() + kSecond);
  Note("cluster up: " + std::to_string(cfg.groups) + " group(s), " +
       std::to_string(cfg.standbys_per_group) + " standby(s) each");
  return Status::Ok();
}

Status ScenarioRunner::CmdRun(const std::vector<std::string>& args) {
  auto dt = ParseDuration(args[0]);
  if (!dt.ok()) return dt.status();
  sim_->RunUntil(sim_->Now() + dt.value());
  return Status::Ok();
}

Status ScenarioRunner::CmdClientOp(const std::string& op,
                                   const std::vector<std::string>& args) {
  const std::string path = args[0];
  ++pending_ops_;
  auto done = [this, op, path](Status s) {
    --pending_ops_;
    if (!s.ok()) {
      ++ops_failed_;
      Note(op + " " + path + " -> " + s.ToString());
    }
  };
  auto& client = cluster_->client(0);
  if (op == "create") {
    client.Create(path, done);
  } else if (op == "mkdir") {
    client.Mkdir(path, done);
  } else if (op == "delete") {
    client.Delete(path, done);
  } else {  // stat
    client.GetFileInfo(path, [done](Result<fsns::FileInfo> r) {
      done(r.ok() ? Status::Ok() : r.status());
    });
  }
  // Client ops are synchronous at scenario level: pump until answered.
  if (!PumpUntil([this] { return pending_ops_ == 0; })) {
    Fail(op + " " + path + ": no reply within budget");
  }
  return Status::Ok();
}

Status ScenarioRunner::CmdFault(const std::string& command,
                                const std::vector<std::string>& args) {
  Result<Fault> fault = ParseFault(command, args);
  if (!fault.ok()) return fault.status();
  // An address outside the cluster is a script error; a fault the cluster
  // refuses (no active to crash, no junior to promote) is a failed
  // expectation.
  Result<std::string> acted = faults_->Apply(fault.value());
  if (acted.ok()) {
    if (!acted.value().empty()) Note(command + " " + acted.value());
  } else if (acted.status().code() == StatusCode::kInvalidArgument) {
    return acted.status();
  } else {
    Fail(command + ": " + acted.status().ToString());
  }
  return Status::Ok();
}

Status ScenarioRunner::CmdAutoscale(const std::vector<std::string>& args) {
  if (args[0] == "off") {
    if (!autoscaler_) {
      Fail("autoscale off: autoscaler is not running");
      return Status::Ok();
    }
    autoscaler_->Stop();
    const auto& st = autoscaler_->stats();
    Note("autoscale off: " + std::to_string(st.scale_ups) + " up, " +
         std::to_string(st.scale_downs) + " down, " +
         std::to_string(st.ticks) + " ticks");
    return Status::Ok();
  }
  if (args[0] != "on") {
    return Status::InvalidArgument("autoscale on|off [key=value...]");
  }
  AutoscalerOptions opts;
  for (std::size_t i = 1; i < args.size(); ++i) {
    std::string key, value;
    if (!KeyValue(args[i], key, value)) {
      return Status::InvalidArgument("expected key=value, got " + args[i]);
    }
    if (key == "period" || key == "cooldown") {
      auto d = ParseDuration(value);
      if (!d.ok()) return d.status();
      (key == "period" ? opts.evaluate_period : opts.cooldown) = d.value();
    } else if (key == "min" || key == "max" || key == "breach" ||
               key == "commit_depth") {
      auto n = ParseInt(value);
      if (!n.ok()) return n.status();
      if (key == "min") opts.min_standbys = n.value();
      else if (key == "max") opts.max_standbys = n.value();
      else if (key == "breach") opts.breach_ticks = n.value();
      else opts.commit_depth_up = static_cast<std::size_t>(n.value());
    } else if (key == "capacity" || key == "up" || key == "down" ||
               key == "park_bounce") {
      auto x = ParseDouble(value);
      if (!x.ok()) return x.status();
      if (key == "capacity") opts.reads_per_standby_capacity = x.value();
      else if (key == "up") opts.scale_up_utilization = x.value();
      else if (key == "down") opts.scale_down_utilization = x.value();
      else opts.park_bounce_rate_up = x.value();
    } else {
      return Status::InvalidArgument("unknown autoscale option: " + key);
    }
  }
  autoscaler_ = std::make_unique<Autoscaler>(*cluster_, opts);
  autoscaler_->Start();
  Note("autoscale on: min=" + std::to_string(opts.min_standbys) +
       " max=" + std::to_string(opts.max_standbys));
  return Status::Ok();
}

Status ScenarioRunner::CmdLoad(const std::vector<std::string>& args) {
  if (args[0] == "stop") {
    if (!load_) {
      Fail("load stop: no load engine running");
      return Status::Ok();
    }
    load_->Stop();
    Note("load stopped: " + std::to_string(load_->completed()) + " ok, " +
         std::to_string(load_->failed()) + " failed");
    return Status::Ok();
  }
  if (args[0] != "open") {
    return Status::InvalidArgument("load open [key=value...] | load stop");
  }

  double rate = 500.0, flash_mult = 0.0, create_frac = 0.2, hot_weight = 8.0;
  SimTime flash_start = 0, flash_len = 0, think = 0;
  int dirs = 64, ops = 4;
  int hot_group = -1;
  for (std::size_t i = 1; i < args.size(); ++i) {
    std::string key, value;
    if (!KeyValue(args[i], key, value)) {
      return Status::InvalidArgument("expected key=value, got " + args[i]);
    }
    if (key == "rate" || key == "flash_mult" || key == "create" ||
        key == "hot_weight") {
      auto x = ParseDouble(value);
      if (!x.ok()) return x.status();
      if (key == "rate") rate = x.value();
      else if (key == "flash_mult") flash_mult = x.value();
      else if (key == "create") create_frac = x.value();
      else hot_weight = x.value();
    } else if (key == "flash_start" || key == "flash_len" || key == "think") {
      auto d = ParseDuration(value);
      if (!d.ok()) return d.status();
      if (key == "flash_start") flash_start = d.value();
      else if (key == "flash_len") flash_len = d.value();
      else think = d.value();
    } else if (key == "dirs" || key == "ops" || key == "hot_group") {
      auto n = ParseInt(value);
      if (!n.ok()) return n.status();
      if (key == "dirs") dirs = n.value();
      else if (key == "ops") ops = n.value();
      else hot_group = n.value();
    } else {
      return Status::InvalidArgument("unknown load option: " + key);
    }
  }

  workload::LoadEngineOptions opts;
  opts.loop = workload::LoadEngineOptions::Loop::kOpen;
  opts.arrival =
      flash_mult > 1.0
          ? workload::ArrivalCurve::FlashCrowd(
                rate, ToSeconds(flash_start), ToSeconds(flash_len),
                flash_mult)
          : workload::ArrivalCurve::Constant(rate);
  opts.ops_per_session = static_cast<std::uint32_t>(ops > 0 ? ops : 1);
  opts.think_time = think;
  opts.directories = dirs;
  if (hot_group >= 0) {
    // Skew arrivals toward one group: weight `hot_weight` for the hot
    // group, 1 for everyone else, classified by the cluster's partitioner.
    const auto groups = cluster_->config().groups;
    opts.group_weights.assign(groups, 1.0);
    if (hot_group < static_cast<int>(groups)) {
      opts.group_weights[static_cast<std::size_t>(hot_group)] = hot_weight;
    }
    const fsns::HashPartitioner* part = &cluster_->partitioner();
    opts.group_of = [part](const std::string& path) {
      return part->OwnerOf(path);
    };
  }

  workload::Mix mix;
  mix.create = create_frac;
  mix.getfileinfo = 1.0 - create_frac;

  std::vector<workload::ClientApi> apis;
  for (int c = 0; c < cluster_->client_count(); ++c) {
    apis.push_back(workload::MakeApi(cluster_->client(c)));
  }
  load_ = std::make_unique<workload::LoadEngine>(*sim_, std::move(apis), mix,
                                                 /*seed=*/42, opts);
  load_->Start();
  Note("load open: rate=" + std::to_string(rate) +
       (flash_mult > 1.0 ? " flash x" + std::to_string(flash_mult) : ""));
  return Status::Ok();
}

Status ScenarioRunner::CmdHelp(const std::vector<std::string>& args) {
  if (args.size() == 1) {
    const auto it = commands_.find(args[0]);
    if (it == commands_.end()) {
      std::string msg = "help: unknown command " + args[0];
      const std::string near = Suggest(args[0]);
      if (!near.empty()) msg += " (did you mean `" + near + "`?)";
      return Status::InvalidArgument(msg);
    }
    Note(it->second.usage);
    Note("  " + it->second.help);
    return Status::Ok();
  }
  Note("commands:");
  for (const auto& [name, cmd] : commands_) Note("  " + cmd.usage);
  return Status::Ok();
}

Status ScenarioRunner::CmdExpectActive(const std::vector<std::string>& args) {
  auto g = ParseGroup(args[0]);
  if (!g.ok()) return g.status();
  const auto group = g.value();
  // "Active" means EFFECTIVE active: the server the coordination view
  // names, alive and serving. A fenced ex-active that is still partitioned
  // away may believe otherwise — it is harmless (every peer and the pool
  // reject its stale fence) and corrects itself on its next heartbeat, so
  // believers are deliberately not counted here.
  if (!PumpUntil(
          [this, group] { return cluster_->FindActive(group) != nullptr; })) {
    Fail("expect-active: group " + args[0] + " has no effective active");
  }
  return Status::Ok();
}

Status ScenarioRunner::CmdExpectExists(const std::vector<std::string>& args,
                                       bool want) {
  const std::string name = want ? "expect-exists" : "expect-missing";
  const GroupId group = cluster_->partitioner().OwnerOf(args[0]);
  core::MdsServer* active = cluster_->FindActive(group);
  if (active == nullptr) {
    Fail(name + ": no active for " + args[0]);
    return Status::Ok();
  }
  const bool exists = active->tree().Exists(args[0]);
  if (exists != want) {
    Fail(name + " " + args[0] + ": exists=" + (exists ? "true" : "false"));
  }
  return Status::Ok();
}

Status ScenarioRunner::CmdExpectConverged(
    const std::vector<std::string>& args) {
  auto g = ParseGroup(args[0]);
  if (!g.ok()) return g.status();
  const auto group = g.value();
  core::MdsServer* active = cluster_->FindActive(group);
  if (active == nullptr) {
    Fail("expect-converged: group " + args[0] + " has no active");
    return Status::Ok();
  }
  // Standbys may still be applying in-flight batches; give them a moment.
  const bool ok = PumpUntil([this, group, active] {
    for (const auto& m : cluster_->Members(group)) {
      if (m.server == active || m.role != ServerState::kStandby) continue;
      if (m.server->tree().Fingerprint() != active->tree().Fingerprint()) {
        return false;
      }
    }
    return true;
  });
  if (!ok) Fail("expect-converged: group " + args[0] + " diverged");
  return Status::Ok();
}

Status ScenarioRunner::CmdExpectState(const std::vector<std::string>& args) {
  auto g = ParseGroup(args[0]);
  if (!g.ok()) return g.status();
  std::string want;
  for (std::size_t i = 1; i < args.size(); ++i) {
    std::string part = args[i];
    // Allow the row to be quoted as one token: strip quotes.
    std::erase(part, '"');
    if (part.empty()) continue;
    if (!want.empty()) want += ' ';
    want += part;
  }
  const auto group = g.value();
  const bool ok = PumpUntil([this, group, &want] {
    return cluster_->coord().frontend().PeekView(group).Row() == want;
  });
  if (!ok) {
    Fail("expect-state: group " + args[0] + " is [" +
         cluster_->coord().frontend().PeekView(group).Row() + "], wanted [" +
         want + "]");
  }
  return Status::Ok();
}

Status ScenarioRunner::CmdExpectCounts(const std::vector<std::string>& args) {
  // expect-counts <group> A=1 S=3 J=0   (omitted letters are unchecked)
  auto g = ParseGroup(args[0]);
  if (!g.ok()) return g.status();
  const auto group = g.value();
  struct Want {
    ServerState state;
    int count;
  };
  std::vector<Want> wants;
  for (std::size_t i = 1; i < args.size(); ++i) {
    std::string key, value;
    if (!KeyValue(args[i], key, value)) {
      return Status::InvalidArgument("expected X=n, got " + args[i]);
    }
    auto n = ParseInt(value);
    if (!n.ok()) return n.status();
    ServerState state;
    if (key == "A") state = ServerState::kActive;
    else if (key == "S") state = ServerState::kStandby;
    else if (key == "J") state = ServerState::kJunior;
    else return Status::InvalidArgument("unknown state letter: " + key);
    wants.push_back({state, n.value()});
  }
  const bool ok = PumpUntil([this, group, &wants] {
    const auto& view = cluster_->coord().frontend().PeekView(group);
    for (const auto& w : wants) {
      if (view.CountInState(w.state) != w.count) return false;
    }
    return true;
  });
  if (!ok) {
    Fail("expect-counts: group " + args[0] + " is [" +
         cluster_->coord().frontend().PeekView(group).Row() + "]");
  }
  return Status::Ok();
}

Status ScenarioRunner::CmdExpectStandbys(
    const std::vector<std::string>& args) {
  auto g = ParseGroup(args[0]);
  auto lo = ParseInt(args[1]);
  if (!g.ok()) return g.status();
  if (!lo.ok()) return lo.status();
  int hi = lo.value();
  if (args.size() == 3) {
    auto x = ParseInt(args[2]);
    if (!x.ok()) return x.status();
    hi = x.value();
  }
  const auto group = g.value();
  const bool ok = PumpUntil([this, group, lo = lo.value(), hi] {
    const int n = cluster_->CountRole(group, ServerState::kStandby);
    return n >= lo && n <= hi;
  });
  if (!ok) {
    Fail("expect-standbys: group " + args[0] + " has " +
         std::to_string(cluster_->CountRole(group, ServerState::kStandby)) +
         " standbys, wanted [" + std::to_string(lo.value()) + ", " +
         std::to_string(hi) + "]");
  }
  return Status::Ok();
}

Status ScenarioRunner::CmdExpectMetric(const std::vector<std::string>& args) {
  const std::string& name = args[0];
  const std::string& op = args[1];
  auto want = ParseDouble(args[2]);
  if (!want.ok()) return want.status();

  // Resolve: counter, gauge, or histogram with a .p50/.p90/.p99/.mean/
  // .count suffix. Resolution failure is an expectation failure, not a
  // parse error — a scenario may legitimately probe a metric that was
  // never touched.
  const auto& metrics = sim_->obs().metrics();
  double have = 0;
  bool found = false;
  if (const auto it = metrics.counters().find(name);
      it != metrics.counters().end()) {
    have = static_cast<double>(it->second.value);
    found = true;
  } else if (const auto git = metrics.gauges().find(name);
             git != metrics.gauges().end()) {
    have = static_cast<double>(git->second.value);
    found = true;
  } else if (const auto dot = name.rfind('.'); dot != std::string::npos) {
    const std::string base = name.substr(0, dot);
    const std::string stat = name.substr(dot + 1);
    if (const auto hit = metrics.histograms().find(base);
        hit != metrics.histograms().end()) {
      const obs::Histogram& h = hit->second;
      found = true;
      if (stat == "p50") have = static_cast<double>(h.Quantile(0.50));
      else if (stat == "p90") have = static_cast<double>(h.Quantile(0.90));
      else if (stat == "p99") have = static_cast<double>(h.Quantile(0.99));
      else if (stat == "mean") have = h.Mean();
      else if (stat == "count") have = static_cast<double>(h.count());
      else found = false;
    }
  }
  if (!found) {
    Fail("expect-metric: no metric named " + name);
    return Status::Ok();
  }

  bool ok;
  if (op == "==") ok = have == want.value();
  else if (op == ">=") ok = have >= want.value();
  else if (op == "<=") ok = have <= want.value();
  else if (op == ">") ok = have > want.value();
  else if (op == "<") ok = have < want.value();
  else return Status::InvalidArgument("expect-metric op must be == >= <= > <");
  if (!ok) {
    Fail("expect-metric: " + name + " = " + std::to_string(have) +
         ", wanted " + op + " " + args[2]);
  }
  return Status::Ok();
}

Status ScenarioRunner::CmdExpectProbesClean() {
  auto& probes = sim_->obs().probes();
  probes.Evaluate();
  if (probes.violation_count() > 0) {
    const auto& v = probes.violations().front();
    Fail("expect-probes-clean: " + std::to_string(probes.violation_count()) +
         " violation(s); first: " + v.probe + ": " + v.detail);
  }
  return Status::Ok();
}

Status ScenarioRunner::CmdPrintView(const std::vector<std::string>& args) {
  auto g = ParseGroup(args[0]);
  if (!g.ok()) return g.status();
  const auto& view =
      cluster_->coord().frontend().PeekView(g.value());
  std::printf("t=%s group %s view: [%s] lock=%s fence=%llu\n",
              FormatTime(sim_->Now()).c_str(), args[0].c_str(),
              view.Row().c_str(),
              view.lock_holder == kInvalidNode ? "free" : "held",
              static_cast<unsigned long long>(view.fence_token));
  return Status::Ok();
}

}  // namespace mams::cluster
