// Tests for the cluster checker itself (src/check): the reference model is
// cross-validated against fsns::Tree on random op streams, the
// linearizability checker is exercised on hand-built histories covering
// the violation taxonomy, and the mutation self-tests prove the end-to-end
// fuzzer pipeline (sweep -> shrink -> .repro replay) actually catches
// deliberately-broken servers.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "check/checker.hpp"
#include "check/fuzzer.hpp"
#include "check/history.hpp"
#include "check/model.hpp"
#include "check/repro.hpp"
#include "check/shrink.hpp"
#include "cluster/scenario.hpp"
#include "common/rng.hpp"
#include "fsns/tree.hpp"
#include "workload/opstream.hpp"

namespace mams::check {
namespace {

using workload::OpKind;

// --- model vs tree cross-validation ----------------------------------------

ReadView TreeView(const fsns::Tree& tree, const workload::Op& op) {
  ReadView view;
  if (op.kind == OpKind::kGetFileInfo) {
    auto r = tree.GetFileInfo(op.path);
    if (r.ok()) {
      view.is_dir = r.value().is_dir;
      view.replication = r.value().replication;
      view.block_count = r.value().block_count;
      view.complete = r.value().complete;
    }
  } else {
    auto r = tree.ListDir(op.path);
    view.is_dir = true;
    if (r.ok()) view.listing = r.value();
  }
  return view;
}

StatusCode TreeApply(fsns::Tree& tree, const workload::Op& op,
                     std::uint64_t op_seq) {
  const ClientOpId id{.client_id = 1, .op_seq = op_seq};
  switch (op.kind) {
    case OpKind::kCreate:
      return tree.Create(op.path, 3, 0, id).status().code();
    case OpKind::kMkdir:
      return tree.Mkdir(op.path, 0, id).status().code();
    case OpKind::kDelete:
      return tree.Delete(op.path, 0, id).status().code();
    case OpKind::kRename:
      return tree.Rename(op.path, op.path2, 0, id).status().code();
    case OpKind::kAddBlock:
      return tree.AddBlock(op.path, 0, id).status().code();
    case OpKind::kGetFileInfo:
      return tree.GetFileInfo(op.path).status().code();
    case OpKind::kListDir:
      return tree.ListDir(op.path).status().code();
  }
  return StatusCode::kInternal;
}

StatusCode ModelApply(Model& model, const workload::Op& op, ReadView* view) {
  switch (op.kind) {
    case OpKind::kCreate:
      return model.Create(op.path, 3, nullptr);
    case OpKind::kMkdir:
      return model.Mkdir(op.path, nullptr);
    case OpKind::kDelete:
      return model.Delete(op.path, nullptr);
    case OpKind::kRename:
      return model.Rename(op.path, op.path2, nullptr);
    case OpKind::kAddBlock:
      return model.AddBlock(op.path, nullptr);
    case OpKind::kGetFileInfo:
      return model.GetFileInfo(op.path, view);
    case OpKind::kListDir:
      return model.ListDir(op.path, view);
  }
  return StatusCode::kInternal;
}

class ModelCrossValidationTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ModelCrossValidationTest, AgreesWithTreeOnRandomOpStreams) {
  const std::uint64_t seed = GetParam();
  workload::Mix mix;
  mix.create = 0.30;
  mix.mkdir = 0.12;
  mix.remove = 0.14;
  mix.rename = 0.12;
  mix.getfileinfo = 0.16;
  mix.listdir = 0.10;
  mix.add_block = 0.06;
  workload::OpStream stream(mix, seed, /*directories=*/8, "/x");

  fsns::Tree tree;
  Model model;
  Rng rng(seed ^ 0xfeedface);
  std::vector<std::string> created;
  std::uint64_t op_seq = 0;

  for (int i = 0; i < 500; ++i) {
    workload::Op op = stream.Next();
    // OpStream never emits CompleteFile; mix a few in by hand so the
    // complete-flag transition is covered too.
    const bool complete_file =
        !created.empty() && rng.Below(10) == 0;
    if (complete_file) {
      const std::string& path = created[rng.Below(created.size())];
      const StatusCode tree_code =
          tree.CompleteFile(path, 0, {.client_id = 1, .op_seq = ++op_seq})
              .status()
              .code();
      const StatusCode model_code = model.CompleteFile(path, nullptr);
      ASSERT_EQ(tree_code, model_code)
          << "completefile " << path << " (op " << i << ", seed " << seed
          << ")";
      continue;
    }
    if (op.kind == OpKind::kCreate) created.push_back(op.path);

    ReadView model_view;
    const StatusCode model_code = ModelApply(model, op, &model_view);
    const StatusCode tree_code = TreeApply(tree, op, ++op_seq);
    ASSERT_EQ(tree_code, model_code)
        << OpKindName(op.kind) << " " << op.path
        << (op.path2.empty() ? "" : " -> " + op.path2) << " (op " << i
        << ", seed " << seed << ")";
    if (tree_code == StatusCode::kOk &&
        (op.kind == OpKind::kGetFileInfo || op.kind == OpKind::kListDir)) {
      ASSERT_EQ(TreeView(tree, op), model_view)
          << OpKindName(op.kind) << " " << op.path << " (op " << i
          << ", seed " << seed << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ModelCrossValidationTest,
                         ::testing::Values(11, 12, 13, 14));

// --- checker unit tests on hand-built histories -----------------------------

/// Builds histories with correct, index-matching event ids.
class HistoryBuilder {
 public:
  std::uint32_t Op(int client, OpKind kind, std::string path, SimTime invoke,
                   SimTime complete, Outcome outcome,
                   StatusCode code = StatusCode::kOk, ReadView view = {},
                   std::string path2 = {}) {
    Event e;
    e.id = static_cast<std::uint32_t>(history.events().size());
    e.client = client;
    e.kind = kind;
    e.path = std::move(path);
    e.path2 = std::move(path2);
    e.invoke = invoke;
    e.complete = complete;
    e.outcome = outcome;
    e.code = code;
    e.view = std::move(view);
    history.events().push_back(std::move(e));
    return history.events().back().id;
  }

  History history;
};

ReadView FreshFileView() {
  // What a stat of a just-created (not yet completed) file observes; the
  // model creates with FsClient's default replication 3.
  ReadView v;
  v.is_dir = false;
  v.replication = 3;
  v.block_count = 0;
  v.complete = false;
  return v;
}

TEST(CheckerTest, CleanSequentialHistoryIsLinearizable) {
  HistoryBuilder b;
  b.Op(0, OpKind::kCreate, "/a/f", 0, 10, Outcome::kOk);
  b.Op(0, OpKind::kGetFileInfo, "/a/f", 20, 30, Outcome::kOk,
       StatusCode::kOk, FreshFileView());
  b.Op(0, OpKind::kDelete, "/a/f", 40, 50, Outcome::kOk);
  b.Op(0, OpKind::kGetFileInfo, "/a/f", 60, 70, Outcome::kError,
       StatusCode::kNotFound);
  const CheckResult r = CheckHistory(b.history);
  EXPECT_TRUE(r.decided);
  EXPECT_TRUE(r.linearizable);
  EXPECT_TRUE(r.violations.empty());
}

TEST(CheckerTest, ConcurrentOpsMayLinearizeInEitherOrder) {
  HistoryBuilder b;
  // Create and stat overlap: the stat may order before (NotFound) or
  // after (sees the file) the create — here it saw NotFound.
  b.Op(0, OpKind::kCreate, "/a/f", 0, 100, Outcome::kOk);
  b.Op(1, OpKind::kGetFileInfo, "/a/f", 10, 90, Outcome::kError,
       StatusCode::kNotFound);
  const CheckResult r = CheckHistory(b.history);
  EXPECT_TRUE(r.linearizable);
}

TEST(CheckerTest, LostAckIsFlagged) {
  HistoryBuilder b;
  b.Op(0, OpKind::kCreate, "/a/f", 0, 10, Outcome::kOk);
  b.Op(0, OpKind::kGetFileInfo, "/a/f", 20, 30, Outcome::kError,
       StatusCode::kNotFound);
  const CheckResult r = CheckHistory(b.history);
  ASSERT_TRUE(r.decided);
  EXPECT_FALSE(r.linearizable);
  ASSERT_FALSE(r.violations.empty());
  EXPECT_EQ(r.violations[0].type, Violation::Type::kLostAck);
}

TEST(CheckerTest, StaleReadIsFlagged) {
  HistoryBuilder b;
  b.Op(0, OpKind::kCreate, "/a/f", 0, 10, Outcome::kOk);
  b.Op(0, OpKind::kDelete, "/a/f", 20, 30, Outcome::kOk);
  b.Op(1, OpKind::kGetFileInfo, "/a/f", 40, 50, Outcome::kOk,
       StatusCode::kOk, FreshFileView());
  const CheckResult r = CheckHistory(b.history);
  ASSERT_TRUE(r.decided);
  EXPECT_FALSE(r.linearizable);
  ASSERT_FALSE(r.violations.empty());
  EXPECT_EQ(r.violations[0].type, Violation::Type::kStaleRead);
}

TEST(CheckerTest, SplitBrainDoubleCreateIsFlagged) {
  HistoryBuilder b;
  b.Op(0, OpKind::kCreate, "/a/f", 0, 10, Outcome::kOk);
  b.Op(1, OpKind::kCreate, "/a/f", 20, 30, Outcome::kOk);
  const CheckResult r = CheckHistory(b.history);
  ASSERT_TRUE(r.decided);
  EXPECT_FALSE(r.linearizable);
  ASSERT_FALSE(r.violations.empty());
  EXPECT_EQ(r.violations[0].type, Violation::Type::kSplitBrainWrite);
}

TEST(CheckerTest, DuplicateApplyIsFlagged) {
  HistoryBuilder b;
  b.Op(0, OpKind::kCreate, "/a/f", 0, 10, Outcome::kOk);
  b.Op(0, OpKind::kAddBlock, "/a/f", 20, 30, Outcome::kOk);
  ReadView v = FreshFileView();
  v.block_count = 2;  // one addblock attempted, two observed
  b.Op(0, OpKind::kGetFileInfo, "/a/f", 40, 50, Outcome::kOk,
       StatusCode::kOk, v);
  const CheckResult r = CheckHistory(b.history);
  ASSERT_TRUE(r.decided);
  EXPECT_FALSE(r.linearizable);
  ASSERT_FALSE(r.violations.empty());
  EXPECT_EQ(r.violations[0].type, Violation::Type::kDuplicateApply);
}

TEST(CheckerTest, AmbiguousMutationMayOrMayNotHaveExecuted) {
  {
    // Timed-out create whose effect IS later observed: legal.
    HistoryBuilder b;
    b.Op(0, OpKind::kCreate, "/a/f", 0, 10, Outcome::kAmbiguous);
    b.Op(0, OpKind::kGetFileInfo, "/a/f", 20, 30, Outcome::kOk,
         StatusCode::kOk, FreshFileView());
    EXPECT_TRUE(CheckHistory(b.history).linearizable);
  }
  {
    // Timed-out create whose effect is NOT observed: also legal.
    HistoryBuilder b;
    b.Op(0, OpKind::kCreate, "/a/f", 0, 10, Outcome::kAmbiguous);
    b.Op(0, OpKind::kGetFileInfo, "/a/f", 20, 30, Outcome::kError,
         StatusCode::kNotFound);
    EXPECT_TRUE(CheckHistory(b.history).linearizable);
  }
}

TEST(CheckerTest, AmbiguousReadConstrainsNothing) {
  HistoryBuilder b;
  b.Op(0, OpKind::kCreate, "/a/f", 0, 10, Outcome::kOk);
  b.Op(1, OpKind::kGetFileInfo, "/a/f", 20, -1, Outcome::kAmbiguous);
  b.Op(0, OpKind::kGetFileInfo, "/a/f", 30, 40, Outcome::kOk,
       StatusCode::kOk, FreshFileView());
  const CheckResult r = CheckHistory(b.history);
  EXPECT_TRUE(r.linearizable);
}

// --- standby-read session-consistency checks --------------------------------

/// Marks an already-built event as a standby-served read with its session
/// token metadata.
void MarkStandby(HistoryBuilder& b, std::uint32_t id, SerialNumber min_sn,
                 SerialNumber observed_sn) {
  Event& e = b.history.events()[id];
  e.via_standby = true;
  e.min_sn = min_sn;
  e.observed_sn = observed_sn;
}

TEST(CheckerTest, StandbyReadBelowSessionFloorIsFlagged) {
  // The token check alone: a standby answered from an applied sn below
  // the floor the read carried — stale even if the value happens to
  // match (the min_sn-ignoring mutation produces exactly this).
  HistoryBuilder b;
  b.Op(0, OpKind::kCreate, "/a/f", 0, 10, Outcome::kOk);
  const std::uint32_t r1 =
      b.Op(0, OpKind::kGetFileInfo, "/a/f", 20, 30, Outcome::kOk,
           StatusCode::kOk, FreshFileView());
  MarkStandby(b, r1, /*min_sn=*/3, /*observed_sn=*/1);
  const CheckResult r = CheckHistory(b.history);
  ASSERT_TRUE(r.decided);
  EXPECT_FALSE(r.linearizable);
  ASSERT_FALSE(r.violations.empty());
  EXPECT_EQ(r.violations[0].type, Violation::Type::kStaleRead);
}

TEST(CheckerTest, StandbyReadMissingOwnWriteIsFlagged) {
  // Tokens look fine but the value breaks read-your-writes: the client
  // deleted the file, yet a standby still shows it.
  HistoryBuilder b;
  b.Op(0, OpKind::kCreate, "/a/f", 0, 10, Outcome::kOk);
  b.Op(0, OpKind::kDelete, "/a/f", 20, 30, Outcome::kOk);
  const std::uint32_t r1 =
      b.Op(0, OpKind::kGetFileInfo, "/a/f", 40, 50, Outcome::kOk,
           StatusCode::kOk, FreshFileView());
  MarkStandby(b, r1, /*min_sn=*/2, /*observed_sn=*/2);
  const CheckResult r = CheckHistory(b.history);
  ASSERT_TRUE(r.decided);
  EXPECT_FALSE(r.linearizable);
  ASSERT_FALSE(r.violations.empty());
  EXPECT_EQ(r.violations[0].type, Violation::Type::kStaleRead);
}

TEST(CheckerTest, StaleStandbyReadFromAnotherSessionIsLegal) {
  // A standby read that lags ANOTHER client's completed write is allowed
  // — session consistency only promises read-your-writes per session.
  // The same shape served by the active (via_standby unset) is a stale
  // read (see StaleReadIsFlagged above).
  HistoryBuilder b;
  b.Op(0, OpKind::kCreate, "/a/f", 0, 10, Outcome::kOk);
  b.Op(0, OpKind::kDelete, "/a/f", 20, 30, Outcome::kOk);
  const std::uint32_t r1 =
      b.Op(1, OpKind::kGetFileInfo, "/a/f", 40, 50, Outcome::kOk,
           StatusCode::kOk, FreshFileView());
  MarkStandby(b, r1, /*min_sn=*/0, /*observed_sn=*/1);
  const CheckResult r = CheckHistory(b.history);
  EXPECT_TRUE(r.decided);
  EXPECT_TRUE(r.linearizable) << FormatViolation(
      b.history, r.violations.empty() ? Violation{} : r.violations[0]);
}

TEST(CheckerTest, StandbyReadsGoingBackwardsAreFlagged) {
  // Monotonic reads within one session: once a read observed the block
  // append, a later read in the same session cannot observe the
  // pre-append state again. Block counts pin each read to a unique
  // prefix of the witness, so no session-consistent assignment exists.
  HistoryBuilder b;
  b.Op(0, OpKind::kCreate, "/a/f", 0, 10, Outcome::kOk);
  b.Op(0, OpKind::kAddBlock, "/a/f", 20, 30, Outcome::kOk);
  ReadView appended = FreshFileView();
  appended.block_count = 1;
  const std::uint32_t r1 =
      b.Op(1, OpKind::kGetFileInfo, "/a/f", 40, 50, Outcome::kOk,
           StatusCode::kOk, appended);
  MarkStandby(b, r1, /*min_sn=*/0, /*observed_sn=*/2);
  const std::uint32_t r2 =
      b.Op(1, OpKind::kGetFileInfo, "/a/f", 60, 70, Outcome::kOk,
           StatusCode::kOk, FreshFileView());
  MarkStandby(b, r2, /*min_sn=*/0, /*observed_sn=*/2);
  const CheckResult r = CheckHistory(b.history);
  ASSERT_TRUE(r.decided);
  EXPECT_FALSE(r.linearizable);
  ASSERT_FALSE(r.violations.empty());
  EXPECT_EQ(r.violations[0].type, Violation::Type::kStaleRead);
}

// --- fuzzer determinism and .repro round-trips ------------------------------

TEST(FuzzerTest, ReplayIsDeterministic) {
  const RunSpec spec = MakeSpec(3);
  const RunResult a = RunSpecOnce(spec);
  const RunResult b = RunSpecOnce(spec);
  EXPECT_EQ(a.run_digest, b.run_digest);
  EXPECT_EQ(a.virtual_end, b.virtual_end);
  EXPECT_EQ(a.violated(), b.violated());
  EXPECT_EQ(a.history.size(), b.history.size());
}

TEST(ReproTest, SerializeParseRoundTrip) {
  RunSpec spec = MakeSpec(5);
  spec.mutation = Mutation::kNoSnDedup;
  spec.standby_reads = true;
  const std::string text = SerializeSpec(spec);
  const Result<RunSpec> parsed = ParseSpec(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  EXPECT_EQ(SerializeSpec(parsed.value()), text);
}

TEST(ReproTest, MalformedInputIsRejected) {
  EXPECT_FALSE(ParseSpec("").ok());
  EXPECT_FALSE(ParseSpec("not a repro file\n").ok());
  EXPECT_FALSE(ParseSpec("mams-repro v1\nseed=notanumber\n").ok());
  EXPECT_FALSE(
      ParseSpec("mams-repro v1\nseed=1\nop 0 0 bogus-kind /p\n").ok());
  EXPECT_FALSE(
      ParseSpec("mams-repro v1\nseed=1\nfault bogus-kind 0 0 0 0\n").ok());
  // Each of these used to replay into an out-of-range index or a division
  // by zero members.
  for (const char* body :
       {"fault crash 2500000 -1 1000000 0\n", "standbys=-1\n",
        "standbys=-1\nfault crash 0 0 1000000 0\n",
        "fault crash -5 0 1000000 0\n", "fault crash 0 0 -1 0\n",
        "fault jitter 0 0 1000000 -7\n", "fault crash 0 3 1000000 0\n",
        "fault crash_active 0 1 1000000 0\n", "fault migrate 0 64 0 0\n",
        "fault jitter 0 2 1000000 500\n", "fault replug 0 0 1000000 0\n",
        "fault crash 0 0 1000000 9\n"}) {
    const Result<RunSpec> parsed =
        ParseSpec(std::string("mams-repro v1\nseed=1\n") + body);
    ASSERT_FALSE(parsed.ok()) << body;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << body;
  }
}

TEST(ReproTest, EveryFaultKindParsesAlikeFromScenarioAndRepro) {
  using Target = cluster::FaultKindInfo::Target;
  using Param = cluster::FaultKindInfo::Param;
  // groups=2, standbys=2: member (1, 2) packs to 1 * 3 + 2 = 5.
  for (const cluster::FaultKindInfo& info : cluster::FaultKinds()) {
    std::vector<std::string> args;
    int target = 0;
    if (info.target == Target::kGroup) {
      args = {"1"};
      target = 1;
    } else if (info.target == Target::kSlot) {
      args = {"5"};
      target = 5;
    } else if (info.target != Target::kNone) {
      args = {"1", "2"};
      target = 5;
    }
    SimTime param = 0;
    if (info.param == Param::kJitter) {
      args.push_back("5ms");
      param = 5 * kMillisecond;
    } else if (info.param == Param::kFactor) {
      args.push_back("2.5");
      param = 2500;
    } else if (info.param == Param::kDirection) {
      args.push_back("out");
      param = cluster::kAsymmetryOut;
    }
    SimTime duration = 0;
    if (info.timed) {
      args.insert(args.end(), {"for", "3s"});
      duration = 3 * kSecond;
    }
    const Result<cluster::Fault> scenario =
        cluster::ParseFault(info.command, args);
    ASSERT_TRUE(scenario.ok()) << info.command << ": "
                               << scenario.status().ToString();

    const std::string line = std::string("fault ") + info.repro + " 0 " +
                             std::to_string(target) + " " +
                             std::to_string(duration) + " " +
                             std::to_string(param) + "\n";
    const std::string text =
        "mams-repro v1\nseed=1\nclients=2\ngroups=2\nstandbys=2\n" + line;
    const Result<RunSpec> repro = ParseSpec(text);
    ASSERT_TRUE(repro.ok()) << line << repro.status().ToString();
    ASSERT_EQ(repro.value().faults.size(), 1u);
    EXPECT_EQ(repro.value().faults[0], scenario.value()) << info.command;
    EXPECT_EQ(repro.value().faults[0].kind, info.kind) << info.command;
    EXPECT_NE(SerializeSpec(repro.value()).find(line), std::string::npos)
        << info.command;
  }
}

TEST(ReproTest, SpecFileRoundTrip) {
  const RunSpec spec = MakeSpec(7);
  const std::string path = ::testing::TempDir() + "/check_test.repro";
  ASSERT_TRUE(WriteSpecFile(spec, path).ok());
  const Result<RunSpec> read = ReadSpecFile(path);
  ASSERT_TRUE(read.ok()) << read.status().message();
  EXPECT_EQ(SerializeSpec(read.value()), SerializeSpec(spec));
}

// --- mutation self-tests: the checker must catch broken servers -------------

/// Sweeps seeds under `mutation` until a violation is found, shrinks it,
/// and proves the shrunk spec still violates and replays bit-for-bit.
void MutationSelfTest(Mutation mutation, std::uint64_t max_seed) {
  for (std::uint64_t seed = 1; seed <= max_seed; ++seed) {
    RunSpec spec = MakeSpec(seed);
    spec.mutation = mutation;
    RunResult result = RunSpecOnce(spec);
    if (!result.violated()) continue;

    // Shrink: the minimized schedule must still violate.
    ShrinkOptions opts;
    opts.max_runs = 80;
    const ShrinkResult shrunk = Shrink(spec, opts);
    ASSERT_TRUE(shrunk.result.violated())
        << MutationName(mutation) << " seed " << seed
        << ": shrunk spec no longer violates";
    EXPECT_LE(shrunk.spec.ops.size(), spec.ops.size());
    EXPECT_LE(shrunk.spec.faults.size(), spec.faults.size());

    // The .repro serialization of the shrunk spec replays to the exact
    // same schedule (run_digest) and the same verdict.
    const Result<RunSpec> reparsed = ParseSpec(SerializeSpec(shrunk.spec));
    ASSERT_TRUE(reparsed.ok());
    const RunResult replay = RunSpecOnce(reparsed.value());
    EXPECT_EQ(replay.run_digest, shrunk.result.run_digest)
        << MutationName(mutation) << " seed " << seed;
    EXPECT_TRUE(replay.violated());
    return;
  }
  FAIL() << "mutation " << MutationName(mutation) << " produced no violation"
         << " in seeds 1.." << max_seed
         << " — the checker would not catch this bug";
}

TEST(MutationSelfTest, MissingSnDedupIsCaught) {
  // ~75% of seeds violate under kNoSnDedup; 20 gives astronomical margin.
  MutationSelfTest(Mutation::kNoSnDedup, 20);
}

TEST(MutationSelfTest, MissingFencingIsCaught) {
  // Split-brain needs a partitioned-but-serving active plus a stale-cache
  // client; a few percent of seeds hit it, 60 covers the known hits.
  MutationSelfTest(Mutation::kNoFencing, 60);
}

TEST(MutationSelfTest, IgnoredMinSnIsCaught) {
  // A standby that answers below the session floor needs a read to land
  // on it while it lags the reader's own acked writes; ~10% of seeds hit
  // it (kIgnoreMinSn forces standby-read offload on in RunSpecOnce).
  MutationSelfTest(Mutation::kIgnoreMinSn, 40);
}

// --- standby read offload under faults ---------------------------------------

TEST(StandbyReadSweepTest, SessionConsistentOffloadYieldsNoViolations) {
  // Read-heavy traffic routed round-robin over the standbys, with faults:
  // every standby-served read must match a session-consistent prefix of
  // the witness linearization, and write acks through failover must keep
  // the session floor intact.
  FuzzProfile profile;
  profile.standby_reads = true;
  profile.ops_per_client = 30;
  profile.mix.create = 0.30;
  profile.mix.rename = 0.08;
  profile.mix.remove = 0.07;
  profile.mix.getfileinfo = 0.35;
  profile.mix.listdir = 0.15;
  profile.mix.add_block = 0.05;
  for (std::uint64_t seed = 1; seed <= 15; ++seed) {
    const RunSpec spec = MakeSpec(seed, profile);
    ASSERT_TRUE(spec.standby_reads);
    const RunResult result = RunSpecOnce(spec);
    EXPECT_TRUE(result.check.decided) << "seed " << seed;
    ASSERT_FALSE(result.violated())
        << "seed " << seed << ": "
        << FormatViolation(result.history, result.violations[0]);
  }
}

// --- rename/delete storms across failover -----------------------------------

TEST(ResolveCacheSweepTest, RenameDeleteStormsYieldNoStaleHits) {
  // Rename/delete-heavy traffic exercises fsns::ResolveCache prefix
  // invalidation: a stale-positive hit after a rename or delete would
  // surface as a stale read / lost ack in the history. Faults run
  // concurrently, so invalidation is also crossed with failover replay.
  FuzzProfile profile;
  profile.ops_per_client = 30;
  profile.mix.create = 0.30;
  profile.mix.rename = 0.25;
  profile.mix.remove = 0.20;
  profile.mix.getfileinfo = 0.15;
  profile.mix.listdir = 0.10;
  for (std::uint64_t seed = 1; seed <= 15; ++seed) {
    const RunSpec spec = MakeSpec(seed, profile);
    const RunResult result = RunSpecOnce(spec);
    EXPECT_TRUE(result.check.decided) << "seed " << seed;
    ASSERT_FALSE(result.violated())
        << "seed " << seed << ": "
        << FormatViolation(result.history, result.violations[0]);
  }
}

}  // namespace
}  // namespace mams::check
