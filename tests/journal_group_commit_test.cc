// Group commit: concurrent sessions' journal transactions are batched
// into ONE merged record under ONE barrier sequence, and that must be
// invisible to every correctness property of the journal:
//
//   - batch atomicity: under concurrent committers, any crash state —
//     including a torn batch record, i.e. the leader dying mid-write —
//     recovers every file to a committed version or to absence, never to
//     garbage, and leaves the ring at rest,
//   - the batching is real: concurrent committers measurably share
//     records (group_batches < group_txns),
//
// plus the cold fanned-out read path: on a host-file volume, cache-miss
// reads whose chunks run on the engine's workers must return bytes
// bit-identical to an engineless mount's.
#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "blockdev/file_block_device.h"
#include "blockdev/mem_block_device.h"
#include "blockdev/throttled_block_device.h"
#include "core/stegfs.h"
#include "fs/plain_fs.h"
#include "journal/recovery.h"
#include "tests/crash_harness.h"

namespace stegfs {
namespace {

constexpr uint32_t kBs = 512;
constexpr uint64_t kBlocks = 8192;
constexpr uint32_t kRing = 32;
constexpr int kThreads = 4;
constexpr int kRounds = 12;
// Barrier cost of the throttled device the concurrent legs mount over:
// followers queue while the leader's barrier sleeps, so batches form.
constexpr auto kSyncLatency = std::chrono::microseconds(400);

MountOptions DurableOpts() {
  MountOptions mo;
  mo.durability = Durability::kJournal;
  mo.cache_blocks = 256;
  return mo;
}

FormatOptions RingFormat() {
  FormatOptions fo;
  fo.journal_blocks = kRing;
  return fo;
}

std::string Content(int tag, size_t bytes) {
  std::string s;
  s.reserve(bytes);
  while (s.size() < bytes) {
    s += "v" + std::to_string(tag) + ":";
    s.push_back(static_cast<char>('a' + (s.size() % 23)));
  }
  s.resize(bytes);
  return s;
}

std::string ThreadPath(int t) { return "/t" + std::to_string(t); }
std::string ThreadVersion(int t, int r) {
  // Sizes vary per round so versions cross block-count boundaries.
  return Content(t * 100 + r, 400 + 137 * r + 41 * t);
}

// Concurrent committers: all writes land, batching measurably occurs
// (the mount sits on a throttled device whose barriers take real time),
// and every crash state (prefix x dropped-subset x torn) recovers each
// file to a committed version or absence — never torn content — with
// the ring at rest. A torn final write on a multi-txn record IS the
// leader crashing mid-batch: either the whole batch replays (checksum
// intact) or none of it does.
TEST(GroupCommitTest, ConcurrentCommitsBatchAndRecoverAtomically) {
  test::RecordingDevice dev(kBs, kBlocks);
  ASSERT_TRUE(PlainFs::Format(&dev, RingFormat()).ok());
  dev.StartRecording();
  {
    ThrottledBlockDevice slow(&dev, std::chrono::microseconds(0),
                              std::chrono::microseconds(0), kSyncLatency);
    auto fs_or = PlainFs::Mount(&slow, DurableOpts());
    ASSERT_TRUE(fs_or.ok()) << fs_or.status().ToString();
    PlainFs* fs = fs_or->get();

    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t) {
      workers.emplace_back([fs, t] {
        for (int r = 0; r < kRounds; ++r) {
          Status s = fs->WriteFile(ThreadPath(t), ThreadVersion(t, r));
          EXPECT_TRUE(s.ok()) << s.ToString();
        }
      });
    }
    for (std::thread& w : workers) w.join();

    const journal::JournalMetrics& m = fs->journal()->metrics();
    EXPECT_GE(m.group_txns.value(),
              static_cast<uint64_t>(kThreads * kRounds));
    // With 4 threads queueing behind 400 us barriers, at least one batch
    // must have carried more than one transaction.
    EXPECT_LT(m.group_batches.value(), m.group_txns.value());

    for (int t = 0; t < kThreads; ++t) {
      auto content = fs->ReadFile(ThreadPath(t));
      ASSERT_TRUE(content.ok());
      EXPECT_EQ(*content, ThreadVersion(t, kRounds - 1));
    }
    ASSERT_TRUE(fs->Flush().ok());
  }

  const size_t total = dev.event_count();
  ASSERT_GT(total, 50u);
  const size_t stride = std::max<size_t>(1, total / 32);
  size_t point = 0;
  for (size_t k = 1; k <= total; k += stride, ++point) {
    const uint64_t subset_seed = (point % 2 == 1) ? 0x6e00 + point : 0;
    const bool torn = point % 3 != 0;  // lean into torn records
    auto image = dev.Materialize(k, subset_seed, torn);
    auto mem = test::DeviceFromImage(image, kBs);
    auto fs = PlainFs::Mount(mem.get(), DurableOpts());
    ASSERT_TRUE(fs.ok()) << "k=" << k << ": " << fs.status().ToString();
    for (int t = 0; t < kThreads; ++t) {
      auto content = (*fs)->ReadFile(ThreadPath(t));
      if (!content.ok()) continue;  // absent: the create never committed
      bool committed_version = false;
      for (int r = 0; r < kRounds && !committed_version; ++r) {
        committed_version = *content == ThreadVersion(t, r);
      }
      EXPECT_TRUE(committed_version)
          << ThreadPath(t) << " holds a non-committed state at crash k=" << k
          << " seed=" << subset_seed << " torn=" << torn;
    }
    // Recovery must leave the ring scrubbed: nothing parseable remains.
    journal::FsckReport report;
    ASSERT_TRUE((*fs)->Fsck(&report).ok());
    EXPECT_EQ(report.journal_live_records, 0u) << "k=" << k;
  }
}

// Cold fanned-out reads: a cold-cache hidden-extent read of more than
// kFanOutThreshold blocks streams past the cache in chunks that the engine's
// workers share with the caller, and must return exactly the bytes an
// engineless mount returns, with the same cache hits and misses (the path
// depends only on the extent's size). Hidden objects are the right probe:
// their random placement puts every chunk's blocks all over the volume.
TEST(ColdReadTest, AsyncEngineBitIdenticalToSyncPath) {
  char path[] = "/tmp/stegfs_cold_read_XXXXXX";
  int fd = mkstemp(path);
  ASSERT_GE(fd, 0);
  close(fd);

  const char* kUid = "alice";
  const char* kUak = "uak-secret";
  const std::string expected = Content(7, 220 * kBs);

  StegFormatOptions fmt;
  fmt.params.dummy_file_count = 2;
  fmt.params.dummy_file_avg_bytes = 2048;
  fmt.entropy = "cold-read-entropy";

  // Returns the object's bytes and the read's cache hits and misses.
  auto read_back = [&](IoEngine engine, std::string* out, uint64_t* hits,
                       uint64_t* misses) {
    auto file = FileBlockDevice::Open(path, kBs);
    ASSERT_TRUE(file.ok()) << file.status().ToString();
    StegFsOptions opts;
    opts.mount.io_engine = engine;
    opts.mount.cache_blocks = 64;  // cold mount + small cache: reads miss
    auto fs = StegFs::Mount(file->get(), opts);
    ASSERT_TRUE(fs.ok()) << fs.status().ToString();
    ASSERT_TRUE((*fs)->StegConnect(kUid, "big", kUak).ok());
    EXPECT_EQ((*fs)->plain()->io_engine() != nullptr,
              engine == IoEngine::kAuto);
    const CacheMetrics& m = (*fs)->plain()->cache()->metrics();
    const uint64_t hits0 = m.hits.value(), misses0 = m.misses.value();
    auto content = (*fs)->HiddenReadAll(kUid, "big");
    ASSERT_TRUE(content.ok()) << content.status().ToString();
    *out = *content;
    *hits = m.hits.value() - hits0;
    *misses = m.misses.value() - misses0;
    ASSERT_TRUE((*fs)->DisconnectAll(kUid).ok());
  };

  {
    auto file = FileBlockDevice::Create(path, kBs, kBlocks);
    ASSERT_TRUE(file.ok()) << file.status().ToString();
    ASSERT_TRUE(StegFs::Format(file->get(), fmt).ok());
    auto fs = StegFs::Mount(file->get(), StegFsOptions());
    ASSERT_TRUE(fs.ok()) << fs.status().ToString();
    ASSERT_TRUE((*fs)->StegCreate(kUid, "big", kUak, HiddenType::kFile).ok());
    ASSERT_TRUE((*fs)->StegConnect(kUid, "big", kUak).ok());
    ASSERT_TRUE((*fs)->HiddenWriteAll(kUid, "big", expected).ok());
    ASSERT_TRUE((*fs)->DisconnectAll(kUid).ok());
    ASSERT_TRUE((*fs)->Flush().ok());
  }

  std::string via_async;
  uint64_t async_hits = 0, async_misses = 0;
  read_back(IoEngine::kAuto, &via_async, &async_hits, &async_misses);
  EXPECT_EQ(via_async, expected);
  EXPECT_GE(async_misses, 220u);  // every data block came from the device

  std::string via_sync;
  uint64_t sync_hits = 0, sync_misses = 0;
  read_back(IoEngine::kSync, &via_sync, &sync_hits, &sync_misses);
  EXPECT_EQ(via_async, via_sync);
  EXPECT_EQ(async_hits, sync_hits);
  EXPECT_EQ(async_misses, sync_misses);
  std::remove(path);
}

}  // namespace
}  // namespace stegfs
