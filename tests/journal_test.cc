// Unit tests for the crash-consistency subsystem's pieces: the
// write-ahead journal's commit/scrub cycle, recovery's replay of a
// committed-but-uncheckpointed record, the cache's ordered writeback
// (FlushExcept), durable-mount plumbing, the hidden-header commit
// trailer, and the blockdev durability primitives. The end-to-end
// crash matrix lives in crash_consistency_test.cc.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "blockdev/file_block_device.h"
#include "blockdev/mem_block_device.h"
#include "cache/buffer_cache.h"
#include "core/hidden_header.h"
#include "core/hidden_object.h"
#include "core/stegfs.h"
#include "crypto/block_crypter.h"
#include "fs/plain_fs.h"
#include "journal/journal.h"
#include "journal/recovery.h"
#include "obs/metrics.h"
#include "tests/crash_harness.h"
#include "tests/test_device.h"
#include "util/coding.h"

namespace stegfs {
namespace {

using journal::JournalEntry;
using journal::JournalRecovery;
using journal::WriteAheadJournal;

constexpr uint32_t kBs = 512;
constexpr uint64_t kBlocks = 2048;

Superblock RingOnlySuperblock(uint64_t start, uint32_t blocks) {
  Superblock sb;
  sb.block_size = kBs;
  sb.num_blocks = kBlocks;
  sb.num_inodes = 256;
  sb.journal_start = start;
  sb.journal_blocks = blocks;
  return sb;
}

TEST(ScrubNoiseTest, DeterministicAndPositionKeyed) {
  std::vector<uint8_t> a(kBs), b(kBs), c(kBs);
  journal::ScrubNoise(42, 3, a.data(), a.size());
  journal::ScrubNoise(42, 3, b.data(), b.size());
  journal::ScrubNoise(42, 4, c.data(), c.size());
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(JournalTest, CommitCheckpointsAndScrubs) {
  MemBlockDevice dev(kBs, kBlocks);
  BufferCache cache(&dev, 64);
  const uint64_t start = 100;
  const uint32_t ring = 16;
  WriteAheadJournal j(&dev, &cache, start, ring, /*seed=*/7);

  std::vector<JournalEntry> entries(3);
  for (size_t i = 0; i < entries.size(); ++i) {
    entries[i].block = 500 + i;
    entries[i].image.assign(kBs, static_cast<uint8_t>('A' + i));
  }
  ASSERT_TRUE(j.Commit(entries, {}).ok());

  // Checkpoint applied to the home blocks.
  std::vector<uint8_t> buf(kBs);
  for (size_t i = 0; i < entries.size(); ++i) {
    ASSERT_TRUE(dev.ReadBlock(500 + i, buf.data()).ok());
    EXPECT_EQ(0, std::memcmp(buf.data(), entries[i].image.data(), kBs));
  }
  // Ring back at rest: nothing parseable.
  Superblock sb = RingOnlySuperblock(start, ring);
  uint64_t torn = 0;
  auto live = JournalRecovery::Scan(&dev, sb, &torn);
  ASSERT_TRUE(live.ok());
  EXPECT_TRUE(live->empty());
  EXPECT_EQ(torn, 0u);
  EXPECT_EQ(j.metrics().records_committed.value(), 1u);
  EXPECT_EQ(j.metrics().blocks_journaled.value(), 3u);
  EXPECT_GE(j.metrics().barrier_syncs.value(), 3u);
}

TEST(JournalTest, OversizedTransactionFallsBackButPersists) {
  MemBlockDevice dev(kBs, kBlocks);
  BufferCache cache(&dev, 64);
  WriteAheadJournal j(&dev, &cache, 100, /*ring=*/8, 7);
  ASSERT_EQ(j.MaxPayloadBlocks(), 7u);

  std::vector<JournalEntry> entries(10);
  for (size_t i = 0; i < entries.size(); ++i) {
    entries[i].block = 600 + i;
    entries[i].image.assign(kBs, static_cast<uint8_t>(i + 1));
  }
  ASSERT_TRUE(j.Commit(entries, {}).ok());
  EXPECT_EQ(j.metrics().overflow_fallbacks.value(), 1u);
  EXPECT_EQ(j.metrics().records_committed.value(), 0u);
  std::vector<uint8_t> buf(kBs);
  ASSERT_TRUE(dev.ReadBlock(609, buf.data()).ok());
  EXPECT_EQ(buf[0], 10);
}

// Crash between the record barrier (commit) and the checkpoint: recovery
// must replay the record's after-images onto their home blocks and scrub
// the ring.
TEST(JournalTest, RecoveryReplaysCommittedUncheckpointedRecord) {
  test::RecordingDevice dev(kBs, kBlocks);
  BufferCache cache(&dev, 64);
  const uint64_t start = 100;
  const uint32_t ring = 16;
  dev.StartRecording();
  WriteAheadJournal j(&dev, &cache, start, ring, 7);

  std::vector<JournalEntry> entries(2);
  entries[0].block = 700;
  entries[0].image.assign(kBs, 0x5a);
  entries[1].block = 701;
  entries[1].image.assign(kBs, 0xa5);
  ASSERT_TRUE(j.Commit(entries, {}).ok());

  // Find the prefix ending right after the SECOND barrier (ordered-data
  // barrier, then the record + commit barrier) — the checkpoint and the
  // scrub never happen in this crash state.
  // Commit's event shape: [barrier][record writes][barrier][checkpoint
  // writes][barrier][scrub writes]. Walk the recorded log for barrier #2.
  // Scan for a crash state where the record is live but the home blocks
  // have not been checkpointed.
  size_t prefix = 0;
  {
    const size_t n = dev.event_count();
    for (size_t k = 1; k <= n; ++k) {
      auto image = dev.Materialize(k, 0, false);
      auto probe = test::DeviceFromImage(image, kBs);
      Superblock sb = RingOnlySuperblock(start, ring);
      auto live = JournalRecovery::Scan(probe.get(), sb, nullptr);
      if (!live.ok() || live->size() != 1) continue;
      std::vector<uint8_t> buf(kBs);
      ASSERT_TRUE(probe->ReadBlock(700, buf.data()).ok());
      if (buf[0] == 0x5a) continue;  // checkpoint already landed
      prefix = k;
      break;
    }
  }
  ASSERT_GT(prefix, 0u) << "no crash state with a live, uncheckpointed "
                           "record — commit protocol changed?";

  auto image = dev.Materialize(prefix, 0, false);
  auto crashed = test::DeviceFromImage(image, kBs);
  Superblock sb = RingOnlySuperblock(start, ring);
  auto report = JournalRecovery::Run(crashed.get(), sb);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->records_replayed, 1u);
  EXPECT_EQ(report->blocks_restored, 2u);
  EXPECT_EQ(report->scrubbed_blocks, ring);

  std::vector<uint8_t> buf(kBs);
  ASSERT_TRUE(crashed->ReadBlock(700, buf.data()).ok());
  EXPECT_EQ(buf[0], 0x5a);
  ASSERT_TRUE(crashed->ReadBlock(701, buf.data()).ok());
  EXPECT_EQ(buf[0], 0xa5);
  // And the ring is at rest afterwards.
  auto live = JournalRecovery::Scan(crashed.get(), sb, nullptr);
  ASSERT_TRUE(live.ok());
  EXPECT_TRUE(live->empty());
}

TEST(BufferCacheOrderedWritebackTest, WriteBackDirtyHoldsBlocksBack) {
  MemBlockDevice dev(kBs, 64);
  BufferCache cache(&dev, 16);
  std::vector<uint8_t> a(kBs, 1), b(kBs, 2), buf(kBs);
  ASSERT_TRUE(cache.Write(10, a.data()).ok());
  ASSERT_TRUE(cache.Write(11, b.data()).ok());
  EXPECT_EQ(cache.dirty_count(), 2u);

  const std::unordered_set<uint64_t> hold_back = {11};
  ASSERT_TRUE(cache.WriteBackDirty(&hold_back).ok());
  ASSERT_TRUE(dev.ReadBlock(10, buf.data()).ok());
  EXPECT_EQ(buf[0], 1);  // flushed
  ASSERT_TRUE(dev.ReadBlock(11, buf.data()).ok());
  EXPECT_EQ(buf[0], 0);  // held back
  EXPECT_EQ(cache.dirty_count(), 1u);

  ASSERT_TRUE(cache.Flush().ok());
  ASSERT_TRUE(dev.ReadBlock(11, buf.data()).ok());
  EXPECT_EQ(buf[0], 2);
  EXPECT_EQ(cache.dirty_count(), 0u);

  // Parked blocks survive even a plain Flush (the cross-session guard).
  std::vector<uint8_t> c(kBs, 3);
  ASSERT_TRUE(cache.Write(12, c.data()).ok());
  cache.ParkBlocks(std::make_shared<const std::unordered_set<uint64_t>>(
      std::unordered_set<uint64_t>{12}));
  ASSERT_TRUE(cache.Flush().ok());
  ASSERT_TRUE(dev.ReadBlock(12, buf.data()).ok());
  EXPECT_EQ(buf[0], 0);  // parked: not written
  cache.ParkBlocks(nullptr);
  ASSERT_TRUE(cache.Flush().ok());
  ASSERT_TRUE(dev.ReadBlock(12, buf.data()).ok());
  EXPECT_EQ(buf[0], 3);
}

TEST(DurableMountTest, RequiresJournalRegionAndWriteBack) {
  MemBlockDevice dev(kBs, kBlocks);
  FormatOptions fo;
  ASSERT_TRUE(PlainFs::Format(&dev, fo).ok());  // no journal region
  MountOptions mo;
  mo.durability = Durability::kJournal;
  EXPECT_TRUE(PlainFs::Mount(&dev, mo).status().IsFailedPrecondition());

  MemBlockDevice dev2(kBs, kBlocks);
  FormatOptions fo2;
  fo2.journal_blocks = 16;
  ASSERT_TRUE(PlainFs::Format(&dev2, fo2).ok());
  MountOptions wt;
  wt.durability = Durability::kJournal;
  wt.write_policy = WritePolicy::kWriteThrough;
  Status refusal = PlainFs::Mount(&dev2, wt).status();
  EXPECT_TRUE(refusal.IsInvalidArgument());
  // The refusal must name the policy the caller needs, not just reject.
  EXPECT_NE(refusal.message().find("WritePolicy::kWriteBack"),
            std::string::npos)
      << refusal.ToString();

  MountOptions ok;
  ok.durability = Durability::kJournal;
  auto fs = PlainFs::Mount(&dev2, ok);
  ASSERT_TRUE(fs.ok());
  EXPECT_TRUE((*fs)->durable());
  ASSERT_NE((*fs)->journal(), nullptr);
}

TEST(DurableMountTest, OpsCommitAndSurviveRemount) {
  MemBlockDevice dev(kBs, 4096);
  FormatOptions fo;
  fo.journal_blocks = 16;
  ASSERT_TRUE(PlainFs::Format(&dev, fo).ok());
  MountOptions mo;
  mo.durability = Durability::kJournal;
  std::string big(8 * kBs, 'x');  // spans the single-indirect boundary
  {
    auto fs = PlainFs::Mount(&dev, mo);
    ASSERT_TRUE(fs.ok());
    ASSERT_TRUE((*fs)->WriteFile("/a", "hello journal").ok());
    ASSERT_TRUE((*fs)->MkDir("/d").ok());
    ASSERT_TRUE((*fs)->WriteFile("/d/b", big).ok());
    ASSERT_TRUE((*fs)->Unlink("/a").ok());
    const journal::JournalMetrics& m = (*fs)->journal()->metrics();
    EXPECT_GE(m.records_committed.value(), 4u);
    EXPECT_EQ(m.overflow_fallbacks.value(), 0u);
  }
  {
    auto fs = PlainFs::Mount(&dev, mo);
    ASSERT_TRUE(fs.ok());
    EXPECT_FALSE((*fs)->Exists("/a"));
    auto b = (*fs)->ReadFile("/d/b");
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(*b, big);
    journal::FsckReport report;
    ASSERT_TRUE((*fs)->Fsck(&report).ok());
    EXPECT_TRUE(report.clean);
    EXPECT_EQ(report.repaired_refs, 0u);
    EXPECT_EQ(report.journal_live_records, 0u);
  }
}

TEST(DurableMountTest, SyncFaultSurfacesAsCommitError) {
  test::FaultyDevice dev(kBs, 4096);
  FormatOptions fo;
  fo.journal_blocks = 16;
  ASSERT_TRUE(PlainFs::Format(&dev, fo).ok());
  MountOptions mo;
  mo.durability = Durability::kJournal;
  auto fs = PlainFs::Mount(&dev, mo);
  ASSERT_TRUE(fs.ok());
  ASSERT_TRUE((*fs)->WriteFile("/ok", "fine").ok());
  dev.FailSyncs();
  EXPECT_FALSE((*fs)->WriteFile("/broken", "nope").ok());
  dev.Heal();
  EXPECT_TRUE((*fs)->WriteFile("/again", "fine").ok());
}

TEST(HiddenHeaderTrailerTest, SeqPartnerChecksumRoundTrip) {
  HiddenHeader h;
  h.signature.fill(0x42);
  h.type = HiddenType::kFile;
  h.size = 1234;
  h.seq = 9;
  h.partner = 777;
  h.free_pool = {5, 6, 7};
  std::vector<uint8_t> buf(kBs);
  ASSERT_TRUE(h.EncodeTo(buf.data(), buf.size()).ok());
  auto d = HiddenHeader::DecodeFrom(buf.data(), buf.size());
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->seq, 9u);
  EXPECT_EQ(d->partner, 777u);
  EXPECT_EQ(d->free_pool, h.free_pool);

  // A torn tail must be detected, not decoded into a garbage inode.
  buf[kBs - 40] ^= 0xff;
  EXPECT_TRUE(HiddenHeader::DecodeFrom(buf.data(), buf.size())
                  .status()
                  .IsCorruption());

  // Legacy image (no trailer at all) still decodes.
  std::vector<uint8_t> legacy(kBs);
  ASSERT_TRUE(h.EncodeTo(legacy.data(), legacy.size()).ok());
  std::memset(legacy.data() + kBs - kHeaderTrailerBytes, 0,
              kHeaderTrailerBytes);
  auto l = HiddenHeader::DecodeFrom(legacy.data(), legacy.size());
  ASSERT_TRUE(l.ok());
  EXPECT_EQ(l->seq, 0u);
  EXPECT_EQ(l->free_pool, h.free_pool);
}

TEST(BlockDeviceDurabilityTest, FileDeviceFlushMapsToFdatasync) {
  char path[] = "/tmp/stegfs_sync_test_XXXXXX";
  int fd = mkstemp(path);
  ASSERT_GE(fd, 0);
  close(fd);
  auto dev = FileBlockDevice::Create(path, kBs, 64);
  ASSERT_TRUE(dev.ok());
  EXPECT_EQ((*dev)->flush_durability(), FlushDurability::kDurable);
  const obs::Counter& syncs = (*dev)->device_metrics()->syncs;
  ASSERT_TRUE((*dev)->Flush().ok());
  EXPECT_EQ(syncs.value(), 1u);

  (*dev)->set_flush_durability(FlushDurability::kCacheOnly);
  ASSERT_TRUE((*dev)->Flush().ok());
  EXPECT_EQ(syncs.value(), 1u);      // no fdatasync this time
  ASSERT_TRUE((*dev)->Sync().ok());  // barriers are never downgraded
  EXPECT_EQ(syncs.value(), 2u);
  std::remove(path);
}

TEST(DurableHiddenTest, DualHeaderCommitAndAnchorRecovery) {
  MemBlockDevice dev(kBs, 8192);
  StegFormatOptions fmt;
  fmt.journal_blocks = 16;
  fmt.params.dummy_file_count = 2;
  fmt.params.dummy_file_avg_bytes = 2048;
  ASSERT_TRUE(StegFs::Format(&dev, fmt).ok());
  StegFsOptions opts;
  opts.mount.durability = Durability::kJournal;
  auto fs = StegFs::Mount(&dev, opts);
  ASSERT_TRUE(fs.ok());

  HiddenVolume vol = (*fs)->VolumeCtx();
  ASSERT_TRUE(vol.durable);
  ASSERT_NE(vol.device, nullptr);
  std::string name("alice");
  name.push_back('\0');
  name += "secret";
  auto obj = HiddenObject::Create(vol, name, "key", HiddenType::kFile);
  ASSERT_TRUE(obj.ok());
  const uint64_t primary = (*obj)->header_block();
  const uint64_t anchor = (*obj)->anchor_block();
  ASSERT_NE(anchor, 0u);
  ASSERT_NE(anchor, primary);
  ASSERT_TRUE((*obj)->Write(0, "payload v1").ok());
  ASSERT_TRUE((*obj)->Sync().ok());
  (*obj).reset();

  // Tear the PRIMARY header on disk; open must recover through the
  // anchor and heal it.
  std::vector<uint8_t>* raw = dev.mutable_raw();
  for (uint32_t i = 0; i < kBs / 2; ++i) {
    (*raw)[primary * kBs + i] ^= 0x77;
  }
  (*fs)->plain()->cache()->DropAll();
  auto reopened = HiddenObject::Open(vol, name, "key");
  ASSERT_TRUE(reopened.ok());
  auto content = (*reopened)->ReadAll();
  ASSERT_TRUE(content.ok());
  EXPECT_EQ(*content, "payload v1");
}

// A durable mount with one committed hidden object, for the open-path
// tests below. The object holds kV1 after its first commit and kV2 after
// its second.
class DurableOpenTest : public ::testing::Test {
 protected:
  static constexpr char kV1[] = "payload v1";
  static constexpr char kV2[] = "payload v2, longer";

  void SetUp() override {
    StegFormatOptions fmt;
    fmt.journal_blocks = 16;
    fmt.params.dummy_file_count = 2;
    fmt.params.dummy_file_avg_bytes = 2048;
    ASSERT_TRUE(StegFs::Format(&dev_, fmt).ok());
    StegFsOptions opts;
    opts.mount.durability = Durability::kJournal;
    auto fs = StegFs::Mount(&dev_, opts);
    ASSERT_TRUE(fs.ok());
    fs_ = std::move(fs).value();
    vol_ = fs_->VolumeCtx();
    ASSERT_TRUE(vol_.durable);
    name_ = std::string("alice") + '\0' + "secret";
    auto obj = HiddenObject::Create(vol_, name_, kKey, HiddenType::kFile);
    ASSERT_TRUE(obj.ok());
    primary_ = (*obj)->header_block();
    anchor_ = (*obj)->anchor_block();
    ASSERT_NE(anchor_, 0u);
    ASSERT_TRUE((*obj)->Write(0, kV1).ok());
    ASSERT_TRUE((*obj)->Sync().ok());
    ASSERT_TRUE(fs_->plain()->cache()->Flush().ok());
    v1_primary_ = RawBlock(primary_);
    ASSERT_TRUE((*obj)->Write(0, kV2).ok());
    ASSERT_TRUE((*obj)->Sync().ok());
    ASSERT_TRUE(fs_->plain()->cache()->Flush().ok());
  }

  std::vector<uint8_t> RawBlock(uint64_t b) {
    const std::vector<uint8_t>& raw = *dev_.mutable_raw();
    return std::vector<uint8_t>(raw.begin() + b * kBs,
                                raw.begin() + (b + 1) * kBs);
  }
  void PutRawBlock(uint64_t b, const std::vector<uint8_t>& bytes) {
    std::copy(bytes.begin(), bytes.end(),
              dev_.mutable_raw()->begin() + b * kBs);
  }
  // Decrypts and decodes the header image at `b` on the device.
  StatusOr<HiddenHeader> DeviceHeader(uint64_t b) {
    std::vector<uint8_t> buf = RawBlock(b);
    crypto::BlockCrypter(kKey).DecryptBlock(b, buf.data(), buf.size());
    return HiddenHeader::DecodeFrom(buf.data(), buf.size());
  }
  // The state a crash between the anchor barrier and the primary rewrite
  // leaves: the anchor holds the kV2 commit, the primary the kV1 one.
  void RollBackPrimary() {
    PutRawBlock(primary_, v1_primary_);
    fs_->plain()->cache()->DropAll();
    auto p = DeviceHeader(primary_);
    auto a = DeviceHeader(anchor_);
    ASSERT_TRUE(p.ok());
    ASSERT_TRUE(a.ok());
    ASSERT_GT(a->seq, p->seq);
    ASSERT_EQ(p->size, sizeof(kV1) - 1);
  }

  static constexpr char kKey[] = "key";
  MemBlockDevice dev_{kBs, 8192};
  std::unique_ptr<StegFs> fs_;
  HiddenVolume vol_;
  std::string name_;
  uint64_t primary_ = 0;
  uint64_t anchor_ = 0;
  std::vector<uint8_t> v1_primary_;
};

TEST_F(DurableOpenTest, NewerAnchorIsAdoptedAndHealsThePrimary) {
  RollBackPrimary();
  const uint64_t anchor_seq = DeviceHeader(anchor_)->seq;
  {
    auto obj = HiddenObject::Open(vol_, name_, kKey);
    ASSERT_TRUE(obj.ok());
    EXPECT_EQ((*obj)->header_block(), primary_);
    EXPECT_EQ((*obj)->anchor_block(), anchor_);
    auto content = (*obj)->ReadAll();
    ASSERT_TRUE(content.ok());
    EXPECT_EQ(*content, kV2);
  }
  // Healed in place: the primary now carries the anchor's commit.
  ASSERT_TRUE(fs_->plain()->cache()->Flush().ok());
  auto healed = DeviceHeader(primary_);
  ASSERT_TRUE(healed.ok());
  EXPECT_EQ(healed->seq, anchor_seq);
  EXPECT_EQ(healed->size, sizeof(kV2) - 1);
  EXPECT_EQ(healed->partner, anchor_);
}

TEST_F(DurableOpenTest, TornNewerAnchorFailsTheFullDecodeAndThePrimaryStays) {
  RollBackPrimary();
  const uint64_t primary_seq = DeviceHeader(primary_)->seq;
  // Corrupt ciphertext cells in the middle of the anchor. CBC carries a
  // cell's damage into the next cell's plaintext only, so the signature
  // cells (0, 1) and the trailer cell (kBs / 16 - 2) still decrypt clean:
  // the cheap gate passes and only the checksum can reject the image.
  const std::vector<uint8_t> intact = RawBlock(anchor_);
  std::vector<uint8_t> torn = intact;
  for (size_t i = 8 * 16; i < (kBs / 16 - 8) * 16; ++i) torn[i] ^= 0x5a;
  PutRawBlock(anchor_, torn);
  // The gate's three cells: two signature cells, then the trailer cell
  // with seq 4 bytes in.
  auto gate_cells = [&](std::vector<uint8_t> block) {
    crypto::BlockCrypter crypter(kKey);
    const crypto::CryptSpan span{anchor_, block.data()};
    std::vector<uint8_t> cells(48);
    crypter.DecryptPrefix(&span, 1, 2, cells.data());
    crypter.DecryptCells(&span, 1, (kBs - kHeaderTrailerBytes) / 16, 1,
                         cells.data() + 32);
    return cells;
  };
  const std::vector<uint8_t> cells = gate_cells(torn);
  ASSERT_EQ(cells, gate_cells(intact));
  ASSERT_GT(DecodeFixed64(cells.data() + 32 + 4), primary_seq);
  ASSERT_TRUE(DeviceHeader(anchor_).status().IsCorruption());

  {
    auto obj = HiddenObject::Open(vol_, name_, kKey);
    ASSERT_TRUE(obj.ok());
    EXPECT_EQ((*obj)->size(), sizeof(kV1) - 1);
  }
  ASSERT_TRUE(fs_->plain()->cache()->Flush().ok());
  EXPECT_EQ(RawBlock(primary_), v1_primary_);  // kept, not rewritten
}

TEST_F(DurableOpenTest, CleanOpenDecryptsOneWholeBlock) {
  fs_->plain()->cache()->DropAll();
  const obs::Counter& decrypted = obs::GlobalCryptoMetrics().blocks_decrypted;
  const uint64_t before = decrypted.value();
  auto obj = HiddenObject::Open(vol_, name_, kKey);
  ASSERT_TRUE(obj.ok());
  // The primary, decrypted from the walk's ciphertext; the anchor (same
  // seq) is settled by its signature and trailer cells alone.
  EXPECT_EQ(decrypted.value() - before, 1u);
  EXPECT_EQ((*obj)->anchor_block(), anchor_);
  EXPECT_EQ((*obj)->size(), sizeof(kV2) - 1);
}

}  // namespace
}  // namespace stegfs
