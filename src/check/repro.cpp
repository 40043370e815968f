#include "check/repro.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "check/history.hpp"
#include "shard/partition_map.hpp"

namespace mams::check {

namespace {

using workload::OpKind;

bool ParseOpKind(const std::string& name, OpKind* out) {
  for (const OpKind k :
       {OpKind::kCreate, OpKind::kMkdir, OpKind::kDelete, OpKind::kRename,
        OpKind::kGetFileInfo, OpKind::kListDir, OpKind::kAddBlock}) {
    if (name == OpKindName(k)) {
      *out = k;
      return true;
    }
  }
  return false;
}

Status Malformed(std::size_t line_no, const std::string& what) {
  return Status::InvalidArgument("repro line " + std::to_string(line_no) +
                                 ": " + what);
}

using Target = cluster::FaultKindInfo::Target;

int PackTarget(const cluster::Fault& f, int members) {
  switch (cluster::KindInfo(f.kind).target) {
    case Target::kNone:
      return 0;
    case Target::kGroup:
      return f.group;
    case Target::kMember:
      return f.group * members + f.member;
    case Target::kSlot:
      return f.member;
  }
  return 0;
}

/// Inverse of PackTarget; false when `target` addresses nothing in a
/// cluster of `groups` groups of `members` members.
bool UnpackTarget(int target, int groups, int members, cluster::Fault* f) {
  switch (cluster::KindInfo(f->kind).target) {
    case Target::kNone:
      return target == 0;
    case Target::kGroup:
      f->group = target;
      return target < groups;
    case Target::kMember:
      f->group = target / members;
      f->member = target % members;
      return f->group < groups;
    case Target::kSlot:
      f->member = target;
      return target < static_cast<int>(shard::PartitionMap::kDefaultSlots);
  }
  return false;
}

}  // namespace

std::string SerializeSpec(const RunSpec& spec) {
  std::ostringstream out;
  out << "mams-repro v1\n";
  out << "seed=" << spec.seed << "\n";
  out << "clients=" << spec.clients << "\n";
  out << "groups=" << spec.groups << "\n";
  out << "standbys=" << spec.standbys << "\n";
  out << "mutation=" << MutationName(spec.mutation) << "\n";
  out << "standby_reads=" << (spec.standby_reads ? 1 : 0) << "\n";
  out << "warmup_us=" << spec.warmup << "\n";
  out << "run_us=" << spec.run_for << "\n";
  out << "quiesce_us=" << spec.quiesce << "\n";
  // Optional keys are written only when non-default so files from older
  // builds (which reject unknown keys) stay byte-identical.
  if (spec.client_cache) {
    out << "client_cache=1\n";
  }
  if (spec.autoscale) {
    out << "autoscale=1\n";
  }
  if (spec.batch_delay != 0) {
    out << "batch_delay_us=" << spec.batch_delay << "\n";
  }
  if (spec.pipeline_depth != 0) {
    out << "pipeline_depth=" << spec.pipeline_depth << "\n";
  }
  for (const OpEntry& e : spec.ops) {
    out << "op " << e.client << " " << e.think << " " << OpKindName(e.op.kind)
        << " " << e.op.path;
    if (e.op.kind == OpKind::kRename) out << " " << e.op.path2;
    out << "\n";
  }
  for (const cluster::Fault& f : spec.faults) {
    out << "fault " << cluster::KindInfo(f.kind).repro << " " << f.at << " "
        << PackTarget(f, 1 + spec.standbys) << " " << f.duration << " "
        << f.param << "\n";
  }
  return out.str();
}

Result<RunSpec> ParseSpec(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  std::size_t line_no = 0;
  if (!std::getline(in, line) || line != "mams-repro v1") {
    return Status::InvalidArgument("not a mams-repro v1 file");
  }
  RunSpec spec;
  // Fault targets unpack once the topology keys are known.
  std::vector<std::pair<std::size_t, int>> fault_targets;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string head;
    fields >> head;
    if (head == "op") {
      OpEntry e;
      std::string kind;
      if (!(fields >> e.client >> e.think >> kind >> e.op.path)) {
        return Malformed(line_no, "bad op line");
      }
      if (!ParseOpKind(kind, &e.op.kind)) {
        return Malformed(line_no, "unknown op kind '" + kind + "'");
      }
      if (e.op.kind == OpKind::kRename && !(fields >> e.op.path2)) {
        return Malformed(line_no, "rename needs a destination");
      }
      spec.ops.push_back(std::move(e));
    } else if (head == "fault") {
      cluster::Fault f;
      std::string kind;
      int target = 0;
      if (!(fields >> kind >> f.at >> target >> f.duration >> f.param)) {
        return Malformed(line_no, "bad fault line");
      }
      const auto kinds = cluster::FaultKinds();
      const auto info =
          std::find_if(kinds.begin(), kinds.end(),
                       [&](const auto& k) { return kind == k.repro; });
      if (info == kinds.end()) {
        return Malformed(line_no, "unknown fault kind '" + kind + "'");
      }
      f.kind = info->kind;
      if (f.at < 0 || target < 0 || f.duration < 0 || f.param < 0) {
        return Malformed(line_no, "negative fault field");
      }
      if ((!info->timed && f.duration != 0) ||
          (info->param == cluster::FaultKindInfo::Param::kNone &&
           f.param != 0)) {
        return Malformed(line_no, "field unused by fault kind '" + kind + "'");
      }
      spec.faults.push_back(f);
      fault_targets.emplace_back(line_no, target);
    } else {
      const std::size_t eq = head.find('=');
      if (eq == std::string::npos) {
        return Malformed(line_no, "unknown directive '" + head + "'");
      }
      const std::string key = head.substr(0, eq);
      const std::string value = head.substr(eq + 1);
      try {
        if (key == "seed") {
          spec.seed = std::stoull(value);
        } else if (key == "clients") {
          spec.clients = std::stoi(value);
        } else if (key == "groups") {
          spec.groups = std::stoi(value);
        } else if (key == "standbys") {
          spec.standbys = std::stoi(value);
        } else if (key == "mutation") {
          if (!ParseMutation(value, &spec.mutation)) {
            return Malformed(line_no, "unknown mutation '" + value + "'");
          }
        } else if (key == "standby_reads") {
          spec.standby_reads = std::stoi(value) != 0;
        } else if (key == "client_cache") {
          spec.client_cache = std::stoi(value) != 0;
        } else if (key == "autoscale") {
          spec.autoscale = std::stoi(value) != 0;
        } else if (key == "warmup_us") {
          spec.warmup = std::stoll(value);
        } else if (key == "run_us") {
          spec.run_for = std::stoll(value);
        } else if (key == "quiesce_us") {
          spec.quiesce = std::stoll(value);
        } else if (key == "batch_delay_us") {
          spec.batch_delay = std::stoll(value);
        } else if (key == "pipeline_depth") {
          spec.pipeline_depth = std::stoi(value);
        } else {
          return Malformed(line_no, "unknown key '" + key + "'");
        }
      } catch (const std::exception&) {
        return Malformed(line_no, "bad value for '" + key + "'");
      }
    }
  }
  if (spec.clients < 1) return Status::InvalidArgument("clients < 1");
  if (spec.groups < 1) return Status::InvalidArgument("groups < 1");
  if (spec.standbys < 0) return Status::InvalidArgument("standbys < 0");
  for (std::size_t i = 0; i < spec.faults.size(); ++i) {
    const auto [fault_line, target] = fault_targets[i];
    if (!UnpackTarget(target, spec.groups, 1 + spec.standbys,
                      &spec.faults[i])) {
      return Malformed(fault_line, "fault target " + std::to_string(target) +
                                       " out of range");
    }
  }
  for (const OpEntry& e : spec.ops) {
    if (e.client < 0 || e.client >= spec.clients) {
      return Status::InvalidArgument("op client out of range");
    }
  }
  return spec;
}

Status WriteSpecFile(const RunSpec& spec, const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return Status::Internal("cannot open " + path + " for writing");
  out << SerializeSpec(spec);
  out.flush();
  return out ? Status::Ok() : Status::Internal("short write to " + path);
}

Result<RunSpec> ReadSpecFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return ParseSpec(buf.str());
}

}  // namespace mams::check
