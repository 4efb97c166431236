// Unit and fault-injection tests of the durability stack: codec/CRC
// framing, fixed-width WAL entry encoding, segment rotation and torn-tail
// repair, checkpoint atomicity (write-temp/fsync/rename) with damaged-file
// fallback, and full DurableDynamicService kill-and-recover cycles —
// including the crash window between a checkpoint's rename and the WAL
// truncation, and double-recovery idempotence.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "dynamic/mutation_log.h"
#include "graph/generator.h"
#include "persist/checkpoint.h"
#include "persist/crash_harness.h"
#include "persist/durable_service.h"
#include "persist/fault_fs.h"
#include "persist/fs.h"
#include "persist/wal.h"
#include "util/codec.h"
#include "util/crc32.h"
#include "util/random.h"

namespace tcdb {
namespace {

using Entry = MutationLog::Entry;

// --- filesystem helpers ---------------------------------------------------

std::string ReadAll(Fs* fs, const std::string& path) {
  auto file = fs->Open(path, /*create=*/false);
  EXPECT_TRUE(file.ok()) << path << ": " << file.status().ToString();
  auto size = file.value()->Size();
  EXPECT_TRUE(size.ok());
  std::string bytes(static_cast<size_t>(size.value()), '\0');
  size_t bytes_read = 0;
  EXPECT_TRUE(
      file.value()->ReadAt(0, bytes.data(), bytes.size(), &bytes_read).ok());
  EXPECT_EQ(bytes_read, bytes.size());
  return bytes;
}

void WriteAll(Fs* fs, const std::string& path, const std::string& bytes) {
  auto file = fs->Open(path, /*create=*/true);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE(file.value()->Truncate(0).ok());
  ASSERT_TRUE(file.value()->WriteAt(0, bytes.data(), bytes.size()).ok());
}

void TruncateTo(Fs* fs, const std::string& path, int64_t size) {
  auto file = fs->Open(path, /*create=*/false);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE(file.value()->Truncate(size).ok());
}

void FlipByte(Fs* fs, const std::string& path, int64_t offset) {
  auto file = fs->Open(path, /*create=*/false);
  ASSERT_TRUE(file.ok());
  uint8_t b = 0;
  size_t bytes_read = 0;
  ASSERT_TRUE(file.value()->ReadAt(offset, &b, 1, &bytes_read).ok());
  ASSERT_EQ(bytes_read, 1u);
  b ^= 0x5A;
  ASSERT_TRUE(file.value()->WriteAt(offset, &b, 1).ok());
}

// --- codec / crc ----------------------------------------------------------

TEST(Codec, RoundTripsFixedWidthValues) {
  std::string buf;
  codec::PutU8(&buf, 0xAB);
  codec::PutU32(&buf, 0xDEADBEEFu);
  codec::PutU64(&buf, 0x0123456789ABCDEFull);
  codec::PutI32(&buf, -42);
  codec::PutI64(&buf, -1'000'000'000'000);
  EXPECT_EQ(buf.size(), 1u + 4 + 8 + 4 + 8);
  // Little-endian on any host: the first u32 byte is the low byte.
  EXPECT_EQ(static_cast<uint8_t>(buf[1]), 0xEF);

  codec::Reader reader(buf.data(), buf.size());
  uint8_t u8 = 0;
  uint32_t u32 = 0;
  uint64_t u64 = 0;
  int32_t i32 = 0;
  int64_t i64 = 0;
  EXPECT_TRUE(reader.ReadU8(&u8));
  EXPECT_TRUE(reader.ReadU32(&u32));
  EXPECT_TRUE(reader.ReadU64(&u64));
  EXPECT_TRUE(reader.ReadI32(&i32));
  EXPECT_TRUE(reader.ReadI64(&i64));
  EXPECT_EQ(u8, 0xAB);
  EXPECT_EQ(u32, 0xDEADBEEFu);
  EXPECT_EQ(u64, 0x0123456789ABCDEFull);
  EXPECT_EQ(i32, -42);
  EXPECT_EQ(i64, -1'000'000'000'000);
  EXPECT_EQ(reader.remaining(), 0u);
  EXPECT_FALSE(reader.failed());
}

TEST(Codec, ReaderFailureIsSticky) {
  std::string buf;
  codec::PutU32(&buf, 7);
  codec::Reader reader(buf.data(), buf.size());
  uint64_t u64 = 0;
  EXPECT_FALSE(reader.ReadU64(&u64));  // only 4 bytes present
  uint32_t u32 = 0;
  EXPECT_FALSE(reader.ReadU32(&u32));  // sticky: the 4 bytes stay unread
  EXPECT_TRUE(reader.failed());
}

TEST(Crc32, MatchesKnownVectorAndExtends) {
  // The IEEE 802.3 check value for "123456789".
  const std::string check = "123456789";
  EXPECT_EQ(Crc32(check.data(), check.size()), 0xCBF43926u);
  EXPECT_EQ(Crc32(nullptr, 0), 0u);
  const uint32_t split = Crc32Extend(Crc32(check.data(), 4),
                                     check.data() + 4, check.size() - 4);
  EXPECT_EQ(split, 0xCBF43926u);
}

// --- WAL entry encoding (fixed-width, endian-safe) ------------------------

TEST(EntryCodec, RoundTripsAndIsFixedWidth) {
  const std::vector<Entry> entries = {
      {{0, 1}, true},
      {{1'000'000, 2'000'000}, false},
      {{7, 7}, true},  // encoding does not validate graph rules
  };
  for (const Entry& entry : entries) {
    std::string buf;
    MutationLog::EncodeEntry(entry, &buf);
    ASSERT_EQ(buf.size(), MutationLog::kEncodedEntryBytes);
    const auto decoded = MutationLog::DecodeEntry(
        {reinterpret_cast<const uint8_t*>(buf.data()), buf.size()});
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded.value(), entry);
  }
  // Byte layout is pinned: op, then src LE, then dst LE.
  std::string buf;
  MutationLog::EncodeEntry({{0x01020304, 0x0A0B0C0D}, true}, &buf);
  const uint8_t expected[9] = {1, 0x04, 0x03, 0x02, 0x01,
                               0x0D, 0x0C, 0x0B, 0x0A};
  EXPECT_EQ(0, std::memcmp(buf.data(), expected, 9));
}

TEST(EntryCodec, RejectsDamagedEncodings) {
  std::string buf;
  MutationLog::EncodeEntry({{3, 4}, true}, &buf);
  const auto* bytes = reinterpret_cast<const uint8_t*>(buf.data());

  EXPECT_EQ(MutationLog::DecodeEntry({bytes, 8}).status().code(),
            StatusCode::kCorruption);  // short
  std::string bad_op = buf;
  bad_op[0] = 2;
  EXPECT_EQ(MutationLog::DecodeEntry(
                {reinterpret_cast<const uint8_t*>(bad_op.data()), 9})
                .status()
                .code(),
            StatusCode::kCorruption);
  std::string negative = buf;
  negative[4] = static_cast<char>(0x80);  // src sign bit
  EXPECT_EQ(MutationLog::DecodeEntry(
                {reinterpret_cast<const uint8_t*>(negative.data()), 9})
                .status()
                .code(),
            StatusCode::kCorruption);
}

// --- MutationLog base epochs ----------------------------------------------

TEST(MutationLogEpochs, ContinueFromBaseEpoch) {
  const ArcList base = {{0, 1}, {1, 2}};
  MutationLogOptions options;
  options.base_epoch = 41;
  auto log = MutationLog::Open(base, 4, options);
  ASSERT_TRUE(log.ok());
  EXPECT_EQ(log.value()->current_epoch(), 41);
  auto epoch = log.value()->InsertArc(2, 3);
  ASSERT_TRUE(epoch.ok());
  EXPECT_EQ(epoch.value(), 42);
  EXPECT_EQ(log.value()->current_epoch(), 42);
}

// --- WAL ------------------------------------------------------------------

TEST(Wal, SegmentNamesRoundTrip) {
  const std::string name = Wal::SegmentName(42);
  EXPECT_EQ(name, "wal-00000000000000000042.log");
  int64_t epoch = 0;
  EXPECT_TRUE(Wal::ParseSegmentName(name, &epoch));
  EXPECT_EQ(epoch, 42);
  EXPECT_FALSE(Wal::ParseSegmentName("checkpoint.tmp", &epoch));
  EXPECT_FALSE(Wal::ParseSegmentName("wal-abc.log", &epoch));
  EXPECT_FALSE(Wal::ParseSegmentName("wal-0000000000000000004.log", &epoch));
}

TEST(Wal, AppendReopenReplays) {
  MemFs fs;
  ASSERT_TRUE(fs.MakeDir("wal").ok());
  {
    auto wal = Wal::Open(&fs, "wal");
    ASSERT_TRUE(wal.ok());
    EXPECT_TRUE(wal.value()->recovered_records().empty());
    ASSERT_TRUE(wal.value()->Append(1, {{0, 1}, true}).ok());
    ASSERT_TRUE(wal.value()->Append(2, {{1, 2}, true}).ok());
    ASSERT_TRUE(wal.value()->Append(3, {{0, 1}, false}).ok());
  }
  auto wal = Wal::Open(&fs, "wal");
  ASSERT_TRUE(wal.ok());
  const auto& records = wal.value()->recovered_records();
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].epoch, 1);
  EXPECT_EQ(records[0].entry, (Entry{{0, 1}, true}));
  EXPECT_EQ(records[2].epoch, 3);
  EXPECT_EQ(records[2].entry, (Entry{{0, 1}, false}));
  EXPECT_EQ(wal.value()->torn_bytes_dropped(), 0);
  // Appends continue past the recovered tail.
  ASSERT_TRUE(wal.value()->Append(4, {{2, 3}, true}).ok());
}

TEST(Wal, RotationSplitsSegmentsAndTruncateDropsCoveredOnes) {
  MemFs fs;
  ASSERT_TRUE(fs.MakeDir("wal").ok());
  auto wal = Wal::Open(&fs, "wal");
  ASSERT_TRUE(wal.ok());
  ASSERT_TRUE(wal.value()->Append(1, {{0, 1}, true}).ok());
  ASSERT_TRUE(wal.value()->Append(2, {{1, 2}, true}).ok());
  ASSERT_TRUE(wal.value()->Rotate(3).ok());
  ASSERT_TRUE(wal.value()->Append(3, {{2, 3}, true}).ok());
  ASSERT_TRUE(wal.value()->Rotate(4).ok());

  auto names = fs.List("wal");
  ASSERT_TRUE(names.ok());
  EXPECT_EQ(names.value(),
            (std::vector<std::string>{Wal::SegmentName(1), Wal::SegmentName(3),
                                      Wal::SegmentName(4)}));

  // Everything <= 2 lives wholly in the first segment; drop it.
  ASSERT_TRUE(wal.value()->TruncateThrough(2).ok());
  names = fs.List("wal");
  ASSERT_TRUE(names.ok());
  EXPECT_EQ(names.value(), (std::vector<std::string>{Wal::SegmentName(3),
                                                     Wal::SegmentName(4)}));

  // The survivors replay exactly the uncovered suffix.
  auto reopened = Wal::Open(&fs, "wal");
  ASSERT_TRUE(reopened.ok());
  ASSERT_EQ(reopened.value()->recovered_records().size(), 1u);
  EXPECT_EQ(reopened.value()->recovered_records()[0].epoch, 3);
}

TEST(Wal, TornFinalRecordIsRepaired) {
  MemFs fs;
  ASSERT_TRUE(fs.MakeDir("wal").ok());
  int64_t full_size = 0;
  {
    auto wal = Wal::Open(&fs, "wal");
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE(wal.value()->Append(1, {{0, 1}, true}).ok());
    ASSERT_TRUE(wal.value()->Append(2, {{1, 2}, true}).ok());
    full_size = wal.value()->bytes_appended() + 16;  // records + header
  }
  const std::string path = JoinPath("wal", Wal::SegmentName(1));
  TruncateTo(&fs, path, full_size - 5);  // cut into the final record

  auto wal = Wal::Open(&fs, "wal");
  ASSERT_TRUE(wal.ok());
  ASSERT_EQ(wal.value()->recovered_records().size(), 1u);
  EXPECT_EQ(wal.value()->recovered_records()[0].epoch, 1);
  EXPECT_GT(wal.value()->torn_bytes_dropped(), 0);
  // The repair is durable: the file now ends at the last valid record.
  auto file = fs.Open(path, /*create=*/false);
  ASSERT_TRUE(file.ok());
  auto size = file.value()->Size();
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(size.value(), full_size - 5 - wal.value()->torn_bytes_dropped());
  // And the next epoch continues after the surviving record.
  ASSERT_TRUE(wal.value()->Append(2, {{1, 2}, true}).ok());
}

TEST(Wal, CorruptRecordBeforeValidOnesIsNotATornTail) {
  MemFs fs;
  ASSERT_TRUE(fs.MakeDir("wal").ok());
  {
    auto wal = Wal::Open(&fs, "wal");
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE(wal.value()->Append(1, {{0, 1}, true}).ok());
    ASSERT_TRUE(wal.value()->Rotate(2).ok());
    ASSERT_TRUE(wal.value()->Append(2, {{1, 2}, true}).ok());
  }
  // Damage inside the *first* segment: payload corruption of a committed
  // record that newer segments prove is not a crash tail.
  FlipByte(&fs, JoinPath("wal", Wal::SegmentName(1)), 16 + 8 + 2);
  auto wal = Wal::Open(&fs, "wal");
  ASSERT_FALSE(wal.ok());
  EXPECT_EQ(wal.status().code(), StatusCode::kCorruption);
}

TEST(Wal, CrcFlipOnLastSegmentTailIsDropped) {
  MemFs fs;
  ASSERT_TRUE(fs.MakeDir("wal").ok());
  int64_t record_bytes = 0;
  {
    auto wal = Wal::Open(&fs, "wal");
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE(wal.value()->Append(1, {{0, 1}, true}).ok());
    record_bytes = wal.value()->bytes_appended();
    ASSERT_TRUE(wal.value()->Append(2, {{1, 2}, true}).ok());
  }
  // Flip a payload byte of the FINAL record: indistinguishable from a
  // torn append, so recovery drops exactly that record.
  FlipByte(&fs, JoinPath("wal", Wal::SegmentName(1)), 16 + record_bytes + 9);
  auto wal = Wal::Open(&fs, "wal");
  ASSERT_TRUE(wal.ok());
  ASSERT_EQ(wal.value()->recovered_records().size(), 1u);
  EXPECT_EQ(wal.value()->torn_bytes_dropped(), record_bytes);
}

// --- checkpoints ----------------------------------------------------------

CheckpointImage MakeImage(int64_t epoch, uint64_t seed) {
  GeneratorParams params;
  params.num_nodes = 60;
  params.avg_out_degree = 3;
  params.locality = 20;
  params.seed = seed;
  CheckpointImage image;
  image.num_nodes = params.num_nodes;
  image.epoch = epoch;
  image.arcs = GenerateDag(params);
  auto core = ReachCore::Build(image.arcs, image.num_nodes);
  EXPECT_TRUE(core.ok());
  image.core = core.value();
  return image;
}

TEST(Checkpoint, NamesRoundTrip) {
  int64_t epoch = 0;
  EXPECT_TRUE(ParseCheckpointName(CheckpointName(7), &epoch));
  EXPECT_EQ(epoch, 7);
  EXPECT_FALSE(ParseCheckpointName("checkpoint.tmp", &epoch));
  EXPECT_FALSE(ParseCheckpointName("wal-00000000000000000001.log", &epoch));
}

TEST(Checkpoint, WriteLoadRoundTrip) {
  MemFs fs;
  ASSERT_TRUE(fs.MakeDir("db").ok());
  const CheckpointImage image = MakeImage(9, /*seed=*/5);
  std::string final_name;
  ASSERT_TRUE(WriteCheckpoint(&fs, "db", image, &final_name).ok());
  EXPECT_EQ(final_name, CheckpointName(9));
  auto exists = fs.Exists(JoinPath("db", "checkpoint.tmp"));
  ASSERT_TRUE(exists.ok());
  EXPECT_FALSE(exists.value());  // renamed away

  int64_t skipped = -1;
  auto loaded = LoadNewestCheckpoint(&fs, "db", &skipped);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(skipped, 0);
  EXPECT_EQ(loaded.value().epoch, 9);
  EXPECT_EQ(loaded.value().num_nodes, image.num_nodes);
  EXPECT_EQ(loaded.value().arcs, image.arcs);
  ASSERT_NE(loaded.value().core, nullptr);
  EXPECT_EQ(loaded.value().core->num_input_nodes, image.num_nodes);
}

TEST(Checkpoint, IgnoresLeftoverTmpAndFallsBackPastDamage) {
  MemFs fs;
  ASSERT_TRUE(fs.MakeDir("db").ok());
  ASSERT_TRUE(WriteCheckpoint(&fs, "db", MakeImage(3, 1)).ok());
  ASSERT_TRUE(WriteCheckpoint(&fs, "db", MakeImage(8, 2)).ok());

  // A crash mid-checkpoint leaves a half-written tmp: must be invisible.
  WriteAll(&fs, JoinPath("db", "checkpoint.tmp"), "TCCKPT01garbage");
  int64_t skipped = -1;
  auto loaded = LoadNewestCheckpoint(&fs, "db", &skipped);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().epoch, 8);
  EXPECT_EQ(skipped, 0);

  // Bit-rot in the newest image: fall back to the older generation.
  FlipByte(&fs, JoinPath("db", CheckpointName(8)), 40);
  loaded = LoadNewestCheckpoint(&fs, "db", &skipped);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().epoch, 3);
  EXPECT_EQ(skipped, 1);

  // With every checkpoint damaged there is nothing to load.
  FlipByte(&fs, JoinPath("db", CheckpointName(3)), 40);
  loaded = LoadNewestCheckpoint(&fs, "db", &skipped);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

TEST(Checkpoint, PruneKeepsNewestGenerations) {
  MemFs fs;
  ASSERT_TRUE(fs.MakeDir("db").ok());
  for (int64_t epoch : {2, 5, 11, 17}) {
    ASSERT_TRUE(WriteCheckpoint(&fs, "db", MakeImage(epoch, 3)).ok());
  }
  ASSERT_TRUE(PruneCheckpoints(&fs, "db", /*keep=*/2).ok());
  auto names = fs.List("db");
  ASSERT_TRUE(names.ok());
  EXPECT_EQ(names.value(), (std::vector<std::string>{CheckpointName(11),
                                                     CheckpointName(17)}));
}

// --- durable service end to end -------------------------------------------

ArcList SmallBase(NodeId* num_nodes) {
  GeneratorParams params;
  params.num_nodes = 80;
  params.avg_out_degree = 3;
  params.locality = 25;
  params.seed = 77;
  *num_nodes = params.num_nodes;
  return GenerateDag(params);
}

TEST(DurableService, RecoveryReplaysOnlyTheWalSuffix) {
  MemFs fs;
  NodeId n = 0;
  const ArcList base = SmallBase(&n);
  auto db = DurableDynamicService::Create(&fs, "db", base, n);
  ASSERT_TRUE(db.ok());

  // Mutations before the checkpoint must NOT be replayed after it.
  ASSERT_TRUE(db.value()->InsertArc(0, 70).ok());
  ASSERT_TRUE(db.value()->InsertArc(1, 71).ok());
  ASSERT_TRUE(db.value()->Checkpoint().ok());
  const auto checkpoint_epoch = db.value()->epoch();
  EXPECT_EQ(checkpoint_epoch, 2);

  ASSERT_TRUE(db.value()->InsertArc(2, 72).ok());
  ASSERT_TRUE(db.value()->DeleteArc(0, 70).ok());
  ASSERT_TRUE(db.value()->InsertArc(3, 73).ok());
  const auto final_epoch = db.value()->epoch();
  // Record the pre-crash answers the replayed state must reproduce.
  std::vector<std::pair<NodeId, NodeId>> pairs;
  std::vector<bool> answers;
  Rng rng(123);
  for (int i = 0; i < 40; ++i) {
    const NodeId s = static_cast<NodeId>(rng.Uniform(0, n - 1));
    const NodeId d = static_cast<NodeId>(rng.Uniform(0, n - 1));
    auto answer = db.value()->Query(s, d);
    ASSERT_TRUE(answer.ok());
    pairs.emplace_back(s, d);
    answers.push_back(answer.value().reachable);
  }
  db.value().reset();  // "crash" (MemFs keeps every synced write)

  RecoveryReport report;
  auto recovered = DurableDynamicService::Recover(&fs, "db", {}, &report);
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(report.checkpoint_epoch, checkpoint_epoch);
  EXPECT_EQ(report.replayed_entries, 3);  // exactly the post-checkpoint ops
  EXPECT_EQ(report.stale_entries_skipped, 0);
  EXPECT_EQ(report.recovered_epoch, final_epoch);
  EXPECT_EQ(recovered.value()->epoch(), final_epoch);

  // The replayed state answers like the pre-crash one.
  for (size_t i = 0; i < pairs.size(); ++i) {
    auto q = recovered.value()->Query(pairs[i].first, pairs[i].second);
    ASSERT_TRUE(q.ok());
    EXPECT_EQ(q.value().reachable, answers[i])
        << "(" << pairs[i].first << ", " << pairs[i].second << ")";
  }
}

TEST(DurableService, SkipsStaleWalEntriesAfterCheckpointRenameCrash) {
  MemFs fs;
  NodeId n = 0;
  const ArcList base = SmallBase(&n);
  auto db = DurableDynamicService::Create(&fs, "db", base, n);
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE(db.value()->InsertArc(0, 70).ok());
  ASSERT_TRUE(db.value()->InsertArc(1, 71).ok());
  const auto epoch = db.value()->epoch();

  // Simulate dying between the checkpoint's rename and the WAL
  // truncation: a durable checkpoint at the current epoch exists, but the
  // WAL still holds records at and below its watermark.
  CheckpointImage image;
  image.num_nodes = n;
  image.epoch = epoch;
  auto snapshot = db.value()->log()->SnapshotArcs();
  image.arcs = snapshot.arcs;
  auto core = ReachCore::Build(image.arcs, n);
  ASSERT_TRUE(core.ok());
  image.core = core.value();
  ASSERT_TRUE(WriteCheckpoint(&fs, "db", image).ok());
  db.value().reset();

  RecoveryReport report;
  auto recovered = DurableDynamicService::Recover(&fs, "db", {}, &report);
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(report.checkpoint_epoch, epoch);
  EXPECT_EQ(report.replayed_entries, 0);
  EXPECT_EQ(report.stale_entries_skipped, 2);
  EXPECT_EQ(recovered.value()->epoch(), epoch);
  auto q = recovered.value()->Query(1, 71);
  ASSERT_TRUE(q.ok());
  EXPECT_TRUE(q.value().reachable);
}

TEST(DurableService, DoubleRecoveryIsIdempotent) {
  MemFs fs;
  NodeId n = 0;
  const ArcList base = SmallBase(&n);
  {
    auto db = DurableDynamicService::Create(&fs, "db", base, n);
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE(db.value()->InsertArc(0, 70).ok());
    ASSERT_TRUE(db.value()->InsertArc(1, 71).ok());
  }
  RecoveryReport first;
  {
    auto db = DurableDynamicService::Recover(&fs, "db", {}, &first);
    ASSERT_TRUE(db.ok());  // recovery itself writes nothing logical
  }
  RecoveryReport second;
  auto db = DurableDynamicService::Recover(&fs, "db", {}, &second);
  ASSERT_TRUE(db.ok());
  EXPECT_EQ(second.checkpoint_epoch, first.checkpoint_epoch);
  EXPECT_EQ(second.replayed_entries, first.replayed_entries);
  EXPECT_EQ(second.recovered_epoch, first.recovered_epoch);
  EXPECT_EQ(db.value()->epoch(), first.recovered_epoch);
}

// --- fault injection ------------------------------------------------------

TEST(FaultFs, CountsMutatingOpsAndTearsTheDyingWrite) {
  MemFs base;
  FaultFs fault(&base);
  ASSERT_TRUE(fault.MakeDir("d").ok());  // uncounted
  EXPECT_EQ(fault.mutating_ops(), 0);

  auto file = fault.Open(JoinPath("d", "f"), /*create=*/true);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE(file.value()->WriteAt(0, "aaaa", 4).ok());
  EXPECT_EQ(fault.mutating_ops(), 1);
  EXPECT_FALSE(fault.crashed());

  fault.Arm(/*ops_until_crash=*/1, /*torn_bytes=*/2);
  ASSERT_TRUE(file.value()->WriteAt(4, "bbbb", 4).ok());  // survives
  EXPECT_EQ(file.value()->WriteAt(8, "cccc", 4).code(),
            StatusCode::kInternal);  // dies, tearing 2 bytes
  EXPECT_TRUE(fault.crashed());
  // Every later mutating op fails; reads keep working.
  EXPECT_FALSE(file.value()->Sync().ok());
  EXPECT_FALSE(fault.Rename(JoinPath("d", "f"), JoinPath("d", "g")).ok());
  EXPECT_EQ(ReadAll(&base, JoinPath("d", "f")), "aaaabbbbcc");
}

// The two-run alignment trick: the same workload against two fresh MemFs
// trees issues the same mutating-syscall sequence, so an op index counted
// in run 1 targets the exact same syscall in run 2. This is what makes
// every injection point of the crash harness reachable deterministically.
TEST(FaultFs, SameWorkloadCountsSameOps) {
  NodeId n = 0;
  const ArcList base = SmallBase(&n);
  auto run = [&](FaultFs* fault) {
    auto db = DurableDynamicService::Create(fault, "db", base, n);
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE(db.value()->InsertArc(0, 70).ok());
    ASSERT_TRUE(db.value()->Checkpoint().ok());
    ASSERT_TRUE(db.value()->DeleteArc(0, 70).ok());
  };
  MemFs base1, base2;
  FaultFs fault1(&base1), fault2(&base2);
  run(&fault1);
  run(&fault2);
  EXPECT_GT(fault1.mutating_ops(), 0);
  EXPECT_EQ(fault1.mutating_ops(), fault2.mutating_ops());
}

TEST(FaultFs, EveryInjectionPointOfAShortTraceRecovers) {
  NodeId n = 0;
  const ArcList base = SmallBase(&n);
  // Count the trace's mutating syscalls with an unarmed run.
  int64_t total_ops = 0;
  {
    MemFs disk;
    FaultFs fault(&disk);
    auto db = DurableDynamicService::Create(&fault, "db", base, n);
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE(db.value()->InsertArc(0, 70).ok());
    ASSERT_TRUE(db.value()->InsertArc(1, 71).ok());
    ASSERT_TRUE(db.value()->Checkpoint().ok());
    ASSERT_TRUE(db.value()->DeleteArc(0, 70).ok());
    total_ops = fault.mutating_ops();
  }
  // Re-run the identical trace once per injection point: recovery must
  // succeed and land at one of the epochs the cut can legally produce.
  for (int64_t crash_at = 1; crash_at <= total_ops; ++crash_at) {
    MemFs disk;
    FaultFs fault(&disk);
    fault.Arm(crash_at - 1, /*torn_bytes=*/crash_at % 7);
    MutationLog::Epoch last_ok = 0;
    {
      auto db = DurableDynamicService::Create(&fault, "db", base, n);
      if (db.ok()) {
        auto step = [&](Result<MutationLog::Epoch> r) {
          if (r.ok()) last_ok = r.value();
          return r.ok();
        };
        if (step(db.value()->InsertArc(0, 70)) &&
            step(db.value()->InsertArc(1, 71)) &&
            db.value()->Checkpoint().ok()) {
          step(db.value()->DeleteArc(0, 70));
        }
      }
      ASSERT_TRUE(fault.crashed()) << "crash_at=" << crash_at;
    }
    // Recover from the surviving image. Create itself may have died
    // before checkpoint 0 became durable — then there is nothing to
    // recover, which is also a legal outcome of dying that early.
    RecoveryReport report;
    auto recovered = DurableDynamicService::Recover(&disk, "db", {}, &report);
    if (!recovered.ok()) {
      EXPECT_EQ(recovered.status().code(), StatusCode::kNotFound)
          << "crash_at=" << crash_at << ": "
          << recovered.status().ToString();
      continue;
    }
    EXPECT_GE(report.recovered_epoch, last_ok) << "crash_at=" << crash_at;
    EXPECT_LE(report.recovered_epoch, last_ok + 1) << "crash_at=" << crash_at;
    EXPECT_EQ(report.replayed_entries,
              report.recovered_epoch - report.checkpoint_epoch);
  }
}

// --- crash harness smoke (full sweep lives in persist_stress_test) --------

TEST(CrashHarness, SmokeSweepPasses) {
  CrashStressOptions options;
  options.num_seeds = 3;
  options.base_seed = 11;
  options.ops_per_seed = 120;
  options.node_counts = {40};
  CrashStressReport report;
  CrashStressFailure failure;
  const Status status = RunCrashStress(options, &report, &failure);
  ASSERT_TRUE(status.ok()) << failure.ToString();
  EXPECT_EQ(report.seeds, 3);
  EXPECT_GT(report.queries_checked, 0);
}

}  // namespace
}  // namespace tcdb
