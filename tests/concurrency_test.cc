// The multi-session concurrency engine under stress: N OS threads doing
// mixed plain + hidden I/O against ONE mounted volume, races between
// connect/read/write/disconnect/remove and DisconnectAll, faults injected
// under contention, and post-run volume consistency checked both live
// (ReportSpace invariants) and across a full remount.
//
// Status discipline under races: an operation that loses a race must fail
// with a clean Status (FailedPrecondition/NotFound) or succeed — never
// crash, never corrupt the volume. Content assertions are only made on
// objects with no racing writer. Run under -fsanitize=thread in CI.
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "blockdev/mem_block_device.h"
#include "cache/buffer_cache.h"
#include "concurrency/thread_pool.h"
#include "core/stegfs.h"
#include "fs/plain_fs.h"
#include "tests/test_device.h"
#include "util/random.h"

namespace stegfs {
namespace {

std::string RandomData(size_t n, uint64_t seed) {
  Xoshiro rng(seed);
  std::string s(n, '\0');
  rng.FillBytes(reinterpret_cast<uint8_t*>(s.data()), n);
  return s;
}

// ---------------------------------------------------------------------------
// ThreadPool
// ---------------------------------------------------------------------------

TEST(ThreadPoolTest, RunsEverySubmittedTask) {
  concurrency::ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.WaitIdle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, WaitIdleIsReusable) {
  concurrency::ThreadPool pool(2);
  std::atomic<int> counter{0};
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 10; ++i) pool.Submit([&counter] { ++counter; });
    pool.WaitIdle();
    EXPECT_EQ(counter.load(), (round + 1) * 10);
  }
}

// ---------------------------------------------------------------------------
// Sharded BufferCache
// ---------------------------------------------------------------------------

TEST(ShardedCacheTest, AutoShardCountScalesWithCapacity) {
  MemBlockDevice dev(512, 4096);
  EXPECT_EQ(BufferCache(&dev, 4).shard_count(), 1u);     // tests stay 1-shard
  EXPECT_EQ(BufferCache(&dev, 64).shard_count(), 1u);
  EXPECT_EQ(BufferCache(&dev, 256).shard_count(), 4u);
  EXPECT_EQ(BufferCache(&dev, 4096).shard_count(), 16u);
  EXPECT_EQ(BufferCache(&dev, 256, WritePolicy::kWriteBack, 8).shard_count(),
            8u);
}

TEST(ShardedCacheTest, ParallelDisjointWritesAllLand) {
  const uint32_t kBlockSize = 512;
  const int kThreads = 8;
  const uint64_t kPerThread = 64;
  MemBlockDevice dev(kBlockSize, kThreads * kPerThread);
  BufferCache cache(&dev, 128, WritePolicy::kWriteBack, 16);

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::vector<uint8_t> buf(kBlockSize);
      for (uint64_t i = 0; i < kPerThread; ++i) {
        uint64_t block = t * kPerThread + i;
        // Per-block deterministic pattern any thread could verify.
        for (uint32_t j = 0; j < kBlockSize; ++j) {
          buf[j] = static_cast<uint8_t>(block * 31 + j);
        }
        ASSERT_TRUE(cache.Write(block, buf.data()).ok());
        // Read something this thread wrote earlier (may hit or miss).
        uint64_t back = t * kPerThread + (i / 2);
        ASSERT_TRUE(cache.Read(back, buf.data()).ok());
        EXPECT_EQ(buf[1], static_cast<uint8_t>(back * 31 + 1));
      }
    });
  }
  for (auto& th : threads) th.join();
  ASSERT_TRUE(cache.Flush().ok());

  // Every block readable straight from the device with the right bytes.
  std::vector<uint8_t> raw(kBlockSize);
  for (uint64_t b = 0; b < dev.num_blocks(); ++b) {
    ASSERT_TRUE(dev.ReadBlock(b, raw.data()).ok());
    ASSERT_EQ(raw[7], static_cast<uint8_t>(b * 31 + 7)) << "block " << b;
  }
  // Counter accounting stays exact under contention: one hit or miss per op.
  const CacheMetrics& m = cache.metrics();
  EXPECT_EQ(m.hits.value() + m.misses.value(), 2 * kThreads * kPerThread);
}

TEST(ShardedCacheTest, SharedHotBlocksUnderContention) {
  MemBlockDevice dev(512, 64);
  BufferCache cache(&dev, 32, WritePolicy::kWriteBack, 8);
  std::vector<uint8_t> init(512, 0xAB);
  for (uint64_t b = 0; b < 8; ++b) {
    ASSERT_TRUE(dev.WriteBlock(b, init.data()).ok());
  }
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&cache] {
      std::vector<uint8_t> buf(512);
      Xoshiro rng(42);
      for (int i = 0; i < 500; ++i) {
        ASSERT_TRUE(cache.Read(rng.Uniform(8), buf.data()).ok());
        EXPECT_EQ(buf[0], 0xAB);
      }
    });
  }
  for (auto& th : threads) th.join();
  // 8 hot blocks in a 32-block cache: at most one miss per block.
  const uint64_t hits = cache.metrics().hits.value();
  const uint64_t misses = cache.metrics().misses.value();
  EXPECT_LE(misses, 8u);
  EXPECT_GE(static_cast<double>(hits) / (hits + misses), 0.99);
}

// ---------------------------------------------------------------------------
// StegFs multi-session stress
// ---------------------------------------------------------------------------

StegFormatOptions SmallFormat(const char* entropy) {
  StegFormatOptions fo;
  fo.params.dummy_file_count = 2;
  fo.params.dummy_file_avg_bytes = 16 << 10;
  fo.entropy = entropy;
  return fo;
}

void CheckSpaceInvariants(StegFs* fs) {
  SpaceReport r = fs->ReportSpace();
  EXPECT_GT(r.total_blocks, 0u);
  EXPECT_LE(r.free_blocks, r.total_blocks);
  EXPECT_EQ(r.allocated_blocks + r.free_blocks, r.total_blocks);
  EXPECT_GE(r.allocated_blocks, r.metadata_blocks);
}

TEST(StegFsConcurrencyTest, ParallelUsersMixedPlainAndHiddenIo) {
  const int kUsers = 8;
  const int kRounds = 6;
  MemBlockDevice dev(1024, 32768);
  ASSERT_TRUE(StegFs::Format(&dev, SmallFormat("conc-mixed")).ok());
  auto mounted = StegFs::Mount(&dev, StegFsOptions{});
  ASSERT_TRUE(mounted.ok());
  StegFs* fs = mounted->get();

  // Final contents each thread committed, verified after remount.
  std::vector<std::string> final_content(kUsers);
  std::vector<std::thread> threads;
  for (int t = 0; t < kUsers; ++t) {
    threads.emplace_back([fs, t, &final_content] {
      std::string uid = "user" + std::to_string(t);
      std::string uak = "uak" + std::to_string(t);
      ASSERT_TRUE(fs->plain()->MkDir("/" + uid).ok());
      for (int r = 0; r < kRounds; ++r) {
        std::string obj = "doc" + std::to_string(r);
        ASSERT_TRUE(fs->StegCreate(uid, obj, uak, HiddenType::kFile).ok());
        ASSERT_TRUE(fs->StegConnect(uid, obj, uak).ok());
        std::string content = RandomData(4096 + 512 * r, t * 100 + r);
        ASSERT_TRUE(fs->HiddenWriteAll(uid, obj, content).ok());
        auto read_back = fs->HiddenReadAll(uid, obj);
        ASSERT_TRUE(read_back.ok());
        EXPECT_EQ(*read_back, content);

        // Plain namespace traffic interleaved with hidden traffic.
        std::string path = "/" + uid + "/f" + std::to_string(r);
        std::string plain = RandomData(2000, t * 1000 + r);
        ASSERT_TRUE(fs->plain()->WriteFile(path, plain).ok());
        EXPECT_EQ(fs->plain()->ReadFile(path).value(), plain);

        if (r + 1 < kRounds) {
          // Churn: drop every other object for remove/reconnect races.
          if (r % 2 == 0) {
            ASSERT_TRUE(fs->HiddenRemove(uid, obj, uak).ok());
          } else {
            ASSERT_TRUE(fs->StegDisconnect(uid, obj).ok());
          }
        } else {
          final_content[t] = content;
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  CheckSpaceInvariants(fs);
  ASSERT_TRUE(fs->Flush().ok());
  mounted->reset();

  // Full remount: every surviving object must come back intact.
  auto remounted = StegFs::Mount(&dev, StegFsOptions{});
  ASSERT_TRUE(remounted.ok());
  for (int t = 0; t < kUsers; ++t) {
    std::string uid = "user" + std::to_string(t);
    std::string uak = "uak" + std::to_string(t);
    std::string obj = "doc" + std::to_string(kRounds - 1);
    ASSERT_TRUE((*remounted)->StegConnect(uid, obj, uak).ok());
    EXPECT_EQ((*remounted)->HiddenReadAll(uid, obj).value(),
              final_content[t]);
  }
  CheckSpaceInvariants(remounted->get());
}

TEST(StegFsConcurrencyTest, DisconnectAllRacesInFlightReads) {
  MemBlockDevice dev(1024, 32768);
  ASSERT_TRUE(StegFs::Format(&dev, SmallFormat("conc-disc")).ok());
  auto mounted = StegFs::Mount(&dev, StegFsOptions{});
  ASSERT_TRUE(mounted.ok());
  StegFs* fs = mounted->get();

  const std::string uid = "alice", uak = "uak";
  const int kObjects = 4;
  std::vector<std::string> contents(kObjects);
  for (int i = 0; i < kObjects; ++i) {
    std::string obj = "obj" + std::to_string(i);
    ASSERT_TRUE(fs->StegCreate(uid, obj, uak, HiddenType::kFile).ok());
    ASSERT_TRUE(fs->StegConnect(uid, obj, uak).ok());
    contents[i] = RandomData(8192, 7000 + i);
    ASSERT_TRUE(fs->HiddenWriteAll(uid, obj, contents[i]).ok());
  }

  std::atomic<bool> stop{false};
  std::thread disconnector([&] {
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE(fs->DisconnectAll(uid).ok());
      for (int j = 0; j < kObjects; ++j) {
        // Reconnect so readers keep finding something part of the time.
        (void)fs->StegConnect(uid, "obj" + std::to_string(j), uak);
      }
    }
    stop.store(true);
  });

  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      while (!stop.load()) {
        std::string obj = "obj" + std::to_string(t % kObjects);
        auto data = fs->HiddenReadAll(uid, obj);
        if (data.ok()) {
          // A read that wins its race sees exactly the committed bytes.
          EXPECT_EQ(*data, contents[t % kObjects]);
        } else {
          // Losing the race to DisconnectAll yields a clean status.
          EXPECT_TRUE(data.status().IsFailedPrecondition())
              << data.status().ToString();
        }
      }
    });
  }
  disconnector.join();
  for (auto& th : readers) th.join();

  CheckSpaceInvariants(fs);
  // The volume is fully functional afterwards.
  ASSERT_TRUE(fs->StegConnect(uid, "obj0", uak).ok());
  EXPECT_EQ(fs->HiddenReadAll(uid, "obj0").value(), contents[0]);
}

TEST(StegFsConcurrencyTest, FaultInjectionUnderContention) {
  test::FaultyDevice dev(1024, 32768);
  ASSERT_TRUE(StegFs::Format(&dev, SmallFormat("conc-fault")).ok());
  StegFsOptions so;
  so.mount.write_policy = WritePolicy::kWriteThrough;
  auto mounted = StegFs::Mount(&dev, so);
  ASSERT_TRUE(mounted.ok());
  StegFs* fs = mounted->get();

  const int kUsers = 4;
  std::vector<std::thread> threads;
  std::atomic<int> io_errors{0};
  dev.FailWrites(400);  // the fuse blows mid-contention
  for (int t = 0; t < kUsers; ++t) {
    threads.emplace_back([&, t] {
      std::string uid = "u" + std::to_string(t);
      std::string uak = "k" + std::to_string(t);
      for (int r = 0; r < 4; ++r) {
        std::string obj = "o" + std::to_string(r);
        std::string content = RandomData(20000, t * 17 + r);
        Status s = fs->StegCreate(uid, obj, uak, HiddenType::kFile);
        if (s.ok()) s = fs->StegConnect(uid, obj, uak);
        if (s.ok()) s = fs->HiddenWriteAll(uid, obj, content);
        if (!s.ok()) {
          // Faults surface as clean statuses, never crashes.
          io_errors.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_GT(io_errors.load(), 0);

  // After healing, the volume accepts new work from every session.
  dev.Heal();
  std::string content = RandomData(10000, 99);
  ASSERT_TRUE(
      fs->StegCreate("survivor", "doc", "uak", HiddenType::kFile).ok());
  ASSERT_TRUE(fs->StegConnect("survivor", "doc", "uak").ok());
  ASSERT_TRUE(fs->HiddenWriteAll("survivor", "doc", content).ok());
  EXPECT_EQ(fs->HiddenReadAll("survivor", "doc").value(), content);
  CheckSpaceInvariants(fs);
}

TEST(StegFsConcurrencyTest, ThreadPoolDrivesManySessions) {
  // The same engine the benches use: a fixed pool multiplexing more
  // logical sessions than threads.
  MemBlockDevice dev(1024, 32768);
  ASSERT_TRUE(StegFs::Format(&dev, SmallFormat("conc-pool")).ok());
  auto mounted = StegFs::Mount(&dev, StegFsOptions{});
  ASSERT_TRUE(mounted.ok());
  StegFs* fs = mounted->get();

  concurrency::ThreadPool pool(4);
  std::atomic<int> failures{0};
  for (int s = 0; s < 12; ++s) {
    pool.Submit([fs, s, &failures] {
      std::string uid = "sess" + std::to_string(s);
      std::string content = RandomData(6000, 4242 + s);
      Status st = fs->StegCreate(uid, "doc", "uak", HiddenType::kFile);
      if (st.ok()) st = fs->StegConnect(uid, "doc", "uak");
      if (st.ok()) st = fs->HiddenWriteAll(uid, "doc", content);
      if (st.ok()) {
        auto data = fs->HiddenReadAll(uid, "doc");
        if (!data.ok() || *data != content) st = Status::Corruption("bad");
      }
      if (!st.ok()) failures.fetch_add(1);
    });
  }
  pool.WaitIdle();
  EXPECT_EQ(failures.load(), 0);
  CheckSpaceInvariants(fs);
}

// Creates under fresh keys claim their header blocks without walking, so
// on a nearly full volume concurrent creates race for the same few free
// candidates. Every object must still get its own header and anchor
// blocks and read back exactly, live and after a remount.
TEST(StegFsConcurrencyTest, ConcurrentCreatesOnANearlyFullVolume) {
  const int kSessions = 4;
  const int kObjects = 8;
  MemBlockDevice dev(1024, 32768);
  StegFormatOptions fo = SmallFormat("conc-create");
  fo.journal_blocks = 64;
  ASSERT_TRUE(StegFs::Format(&dev, fo).ok());
  StegFsOptions so;
  so.mount.durability = Durability::kJournal;
  auto mounted = StegFs::Mount(&dev, so);
  ASSERT_TRUE(mounted.ok()) << mounted.status().ToString();
  StegFs* fs = mounted->get();
  BlockBitmap* bitmap = fs->plain()->bitmap();
  Xoshiro fill(21);
  const uint64_t total = fs->plain()->layout().num_blocks;
  while (bitmap->free_count() > total / 10) {
    ASSERT_TRUE(bitmap->AllocateByPolicy(AllocPolicy::kRandom, &fill).ok());
  }

  auto uid_of = [](int t) { return "s" + std::to_string(t); };
  auto obj_of = [](int i) { return "o" + std::to_string(i); };
  auto content_of = [](int t, int i) {
    return RandomData(3000, 900 + t * 50 + i);
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < kSessions; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kObjects; ++i) {
        ASSERT_TRUE(
            fs->StegCreate(uid_of(t), obj_of(i), "uak", HiddenType::kFile)
                .ok());
        ASSERT_TRUE(fs->StegConnect(uid_of(t), obj_of(i), "uak").ok());
        ASSERT_TRUE(
            fs->HiddenWriteAll(uid_of(t), obj_of(i), content_of(t, i)).ok());
      }
    });
  }
  for (auto& th : threads) th.join();

  std::set<uint64_t> header_blocks;
  for (int t = 0; t < kSessions; ++t) {
    for (int i = 0; i < kObjects; ++i) {
      auto obj = fs->ConnectedForTesting(uid_of(t), obj_of(i));
      ASSERT_TRUE(obj.ok()) << uid_of(t) << "/" << obj_of(i);
      EXPECT_TRUE(header_blocks.insert((*obj)->header_block()).second);
      EXPECT_TRUE(header_blocks.insert((*obj)->anchor_block()).second);
      EXPECT_EQ(fs->HiddenReadAll(uid_of(t), obj_of(i)).value(),
                content_of(t, i));
    }
  }
  CheckSpaceInvariants(fs);
  ASSERT_TRUE(fs->Flush().ok());
  mounted->reset();

  auto remounted = StegFs::Mount(&dev, so);
  ASSERT_TRUE(remounted.ok());
  for (int t = 0; t < kSessions; ++t) {
    for (int i = 0; i < kObjects; ++i) {
      ASSERT_TRUE((*remounted)->StegConnect(uid_of(t), obj_of(i), "uak").ok());
      EXPECT_EQ((*remounted)->HiddenReadAll(uid_of(t), obj_of(i)).value(),
                content_of(t, i));
    }
  }
}

}  // namespace
}  // namespace stegfs
