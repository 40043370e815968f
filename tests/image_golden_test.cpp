// Golden image test: pins the namespace image bytes and the structural
// fingerprint after a fixed operation sequence. The in-memory inode layout
// may change freely; the image format, Fingerprint() and ListDir order may
// not, because standbys, juniors and checkpoints written by an older build
// all depend on them. If one of these constants has to change, the image
// format changed: bump kImageVersion and say so.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "fsns/tree.hpp"
#include "journal/record.hpp"

namespace mams::fsns {
namespace {

using journal::LogRecord;
using journal::OpCode;

/// Builds the fixed namespace: owners, permissions, blocks, directory
/// renames, recursive deletes, shard install and control records, and a
/// client dedup table.
Tree BuildGoldenTree() {
  Tree tree;
  std::uint64_t seq = 0;
  TxId txid = 0;
  SimTime now = 1000;
  auto op = [&] { return ClientOpId{.client_id = 3, .op_seq = ++seq}; };
  auto ok = [&](const Result<LogRecord>& r) {
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    tree.set_last_txid(++txid);
    now += 10;
  };
  auto apply = [&](LogRecord rec) {
    rec.txid = ++txid;
    rec.mtime = now;
    now += 10;
    EXPECT_TRUE(tree.Apply(rec).ok()) << journal::OpCodeName(rec.op);
  };

  ok(tree.Mkdir("/home/alice/docs", now, op()));
  ok(tree.Mkdir("/home/bob", now, op()));
  ok(tree.Mkdir("/tmp/scratch/deep/er", now, op()));
  for (int i = 0; i < 6; ++i) {
    const std::string f = "/home/alice/docs/f" + std::to_string(i);
    ok(tree.Create(f, 3, now, op()));
    ok(tree.AddBlock(f, now, op()));
    if (i % 2 == 0) ok(tree.AddBlock(f, now, op()));
    if (i != 5) ok(tree.CompleteFile(f, now, op()));
  }
  ok(tree.Create("/home/bob/notes", 2, now, op()));
  ok(tree.Create("/tmp/scratch/deep/er/x", 1, now, op()));
  ok(tree.Create("/tmp/scratch/y", 1, now, op()));
  ok(tree.SetOwner("/home/alice", "alice:staff", now, op()));
  ok(tree.SetOwner("/home/alice/docs/f1", "alice:staff", now, op()));
  ok(tree.SetOwner("/home/bob/notes", "bob:eng", now, op()));
  ok(tree.SetPermission("/home/bob", 0700, now, op()));
  ok(tree.SetPermission("/home/alice/docs/f2", 0600, now, op()));
  ok(tree.SetReplication("/home/alice/docs/f3", 5, now, op()));
  ok(tree.SetTimes("/home/bob/notes", now, op()));
  // Directory rename carries a subtree; a leaf rename moves across dirs.
  ok(tree.Rename("/home/alice/docs", "/home/bob/shared", now, op()));
  ok(tree.Rename("/home/bob/shared/f4", "/home/alice/f4", now, op()));
  // Recursive delete of a subtree, and of a single file.
  ok(tree.Delete("/tmp/scratch", now, op()));
  ok(tree.Delete("/home/bob/shared/f0", now, op()));

  // Shard install records (what a migration's destination applies).
  LogRecord dir;
  dir.op = OpCode::kShardInstallDir;
  dir.path = "/imported/d";
  dir.path2 = "carol:ops";
  dir.block = static_cast<BlockId>(0750) << 2;
  apply(dir);
  LogRecord file;
  file.op = OpCode::kShardInstallFile;
  file.path = "/imported/d/g";
  file.path2 = "carol:ops";
  file.replication = 2;
  file.block = (static_cast<BlockId>(0640) << 2) | 0x2u;
  apply(file);
  LogRecord block;
  block.op = OpCode::kAddBlock;
  block.path = "/imported/d/g";
  block.block = 900;
  apply(block);
  // Re-installing the same file is an upsert that rebuilds it.
  file.path2 = "dave:ops";
  apply(file);
  LogRecord inbound;
  inbound.op = OpCode::kShardInboundBegin;
  inbound.block = 7;
  inbound.replication = 2;
  apply(inbound);
  LogRecord begin;
  begin.op = OpCode::kShardMigrateBegin;
  begin.block = 3;
  begin.replication = 1;
  apply(begin);
  LogRecord intent;
  intent.op = OpCode::kRenameIntent;
  intent.path = "/home/bob/notes";
  intent.path2 = "/elsewhere/notes";
  intent.replication = 1;
  intent.client = ClientOpId{.client_id = 9, .op_seq = 4};
  apply(intent);
  return tree;
}

std::uint64_t ImageHash(const Tree& tree) {
  const std::vector<char> bytes = tree.SaveImage();
  return Fnv1a(bytes.data(), bytes.size());
}

// Recorded on the layout that kept a std::string owner and two child
// indexes per inode; any layout must reproduce them.
constexpr std::uint64_t kGoldenImageHash = 0x7e51b37c1834cda6;
constexpr std::uint64_t kGoldenFingerprint = 0x71e7f1fc5617f7dd;
constexpr std::size_t kGoldenImageSize = 1382;

TEST(ImageGoldenTest, ImageBytesAndFingerprintArePinned) {
  const Tree tree = BuildGoldenTree();
  EXPECT_EQ(ImageHash(tree), kGoldenImageHash);
  EXPECT_EQ(tree.Fingerprint(), kGoldenFingerprint);
  EXPECT_EQ(tree.SaveImage().size(), kGoldenImageSize);
}

TEST(ImageGoldenTest, LoadImageRoundTripKeepsTheGoldenValues) {
  const Tree tree = BuildGoldenTree();
  Tree loaded;
  ASSERT_TRUE(loaded.LoadImage(tree.SaveImage()).ok());
  EXPECT_EQ(ImageHash(loaded), kGoldenImageHash);
  EXPECT_EQ(loaded.Fingerprint(), kGoldenFingerprint);
  EXPECT_EQ(loaded.GetFileInfo("/home/bob/shared/f1").value().owner,
            "alice:staff");
  EXPECT_EQ(loaded.GetFileInfo("/imported/d/g").value().owner, "dave:ops");
  const std::vector<std::string> expect = {"f1", "f2", "f3", "f5"};
  EXPECT_EQ(loaded.ListDir("/home/bob/shared").value(), expect);
}

}  // namespace
}  // namespace mams::fsns
