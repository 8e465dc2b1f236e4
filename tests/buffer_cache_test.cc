#include "cache/buffer_cache.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "blockdev/mem_block_device.h"
#include "blockdev/sim_disk.h"
#include "blockdev/thread_pool_async_device.h"
#include "concurrency/shard_lock.h"
#include "tests/test_device.h"

namespace stegfs {
namespace {

std::vector<uint8_t> Pattern(uint32_t n, uint8_t seed) {
  std::vector<uint8_t> v(n);
  for (uint32_t i = 0; i < n; ++i) v[i] = static_cast<uint8_t>(seed + i * 5);
  return v;
}

TEST(BufferCacheTest, ReadThroughAndHit) {
  MemBlockDevice dev(512, 16);
  auto data = Pattern(512, 1);
  ASSERT_TRUE(dev.WriteBlock(2, data.data()).ok());

  BufferCache cache(&dev, 4);
  std::vector<uint8_t> out(512);
  ASSERT_TRUE(cache.Read(2, out.data()).ok());
  EXPECT_EQ(out, data);
  EXPECT_EQ(cache.metrics().misses.value(), 1u);
  ASSERT_TRUE(cache.Read(2, out.data()).ok());
  EXPECT_EQ(cache.metrics().hits.value(), 1u);
}

TEST(BufferCacheTest, WriteBackDefersDeviceWrite) {
  MemBlockDevice dev(512, 16);
  BufferCache cache(&dev, 4, WritePolicy::kWriteBack);
  auto data = Pattern(512, 9);
  ASSERT_TRUE(cache.Write(3, data.data()).ok());

  // Device still has zeros until flush.
  std::vector<uint8_t> raw(512);
  ASSERT_TRUE(dev.ReadBlock(3, raw.data()).ok());
  EXPECT_EQ(raw, std::vector<uint8_t>(512, 0));

  ASSERT_TRUE(cache.Flush().ok());
  ASSERT_TRUE(dev.ReadBlock(3, raw.data()).ok());
  EXPECT_EQ(raw, data);
}

TEST(BufferCacheTest, WriteThroughHitsDeviceImmediately) {
  MemBlockDevice dev(512, 16);
  BufferCache cache(&dev, 4, WritePolicy::kWriteThrough);
  auto data = Pattern(512, 9);
  ASSERT_TRUE(cache.Write(3, data.data()).ok());
  std::vector<uint8_t> raw(512);
  ASSERT_TRUE(dev.ReadBlock(3, raw.data()).ok());
  EXPECT_EQ(raw, data);
}

TEST(BufferCacheTest, EvictionWritesBackDirtyLru) {
  MemBlockDevice dev(512, 16);
  BufferCache cache(&dev, 2, WritePolicy::kWriteBack);
  auto a = Pattern(512, 1);
  auto b = Pattern(512, 2);
  auto c = Pattern(512, 3);
  ASSERT_TRUE(cache.Write(0, a.data()).ok());
  ASSERT_TRUE(cache.Write(1, b.data()).ok());
  ASSERT_TRUE(cache.Write(2, c.data()).ok());  // evicts block 0

  std::vector<uint8_t> raw(512);
  ASSERT_TRUE(dev.ReadBlock(0, raw.data()).ok());
  EXPECT_EQ(raw, a);
  EXPECT_EQ(cache.metrics().evictions.value(), 1u);
  EXPECT_EQ(cache.metrics().writebacks.value(), 1u);
}

TEST(BufferCacheTest, LruOrderRespectsRecency) {
  MemBlockDevice dev(512, 16);
  BufferCache cache(&dev, 2);
  std::vector<uint8_t> buf(512);
  ASSERT_TRUE(cache.Read(0, buf.data()).ok());
  ASSERT_TRUE(cache.Read(1, buf.data()).ok());
  ASSERT_TRUE(cache.Read(0, buf.data()).ok());  // touch 0 -> 1 becomes LRU
  ASSERT_TRUE(cache.Read(2, buf.data()).ok());  // evicts 1
  ASSERT_TRUE(cache.Read(0, buf.data()).ok());  // still cached
  EXPECT_EQ(cache.metrics().hits.value(), 2u);
}

TEST(BufferCacheTest, ReadAfterWriteSeesCachedData) {
  MemBlockDevice dev(512, 16);
  BufferCache cache(&dev, 4);
  auto data = Pattern(512, 77);
  ASSERT_TRUE(cache.Write(5, data.data()).ok());
  std::vector<uint8_t> out(512);
  ASSERT_TRUE(cache.Read(5, out.data()).ok());
  EXPECT_EQ(out, data);
}

TEST(BufferCacheTest, DropAllDiscardsDirtyData) {
  MemBlockDevice dev(512, 16);
  BufferCache cache(&dev, 4, WritePolicy::kWriteBack);
  auto data = Pattern(512, 5);
  ASSERT_TRUE(cache.Write(1, data.data()).ok());
  cache.DropAll();
  ASSERT_TRUE(cache.Flush().ok());
  std::vector<uint8_t> raw(512);
  ASSERT_TRUE(dev.ReadBlock(1, raw.data()).ok());
  EXPECT_EQ(raw, std::vector<uint8_t>(512, 0));  // write was dropped
}

TEST(BufferCacheTest, CacheReducesDeviceReads) {
  auto inner = std::make_unique<MemBlockDevice>(1024, 64);
  SimDisk disk(std::move(inner), DiskModelConfig{});
  BufferCache cache(&disk, 16);
  std::vector<uint8_t> buf(1024);
  for (int pass = 0; pass < 10; ++pass) {
    for (uint64_t b = 0; b < 8; ++b) {
      ASSERT_TRUE(cache.Read(b, buf.data()).ok());
    }
  }
  EXPECT_EQ(disk.stats().reads, 8u);  // only the first pass misses
  EXPECT_EQ(cache.metrics().hits.value(), 72u);
}

TEST(BufferCacheTest, ReadBatchServesPartialHitsInsideExtent) {
  MemBlockDevice dev(512, 32);
  std::vector<std::vector<uint8_t>> patterns;
  for (uint64_t b = 0; b < 8; ++b) {
    patterns.push_back(Pattern(512, static_cast<uint8_t>(b + 1)));
    ASSERT_TRUE(dev.WriteBlock(b, patterns.back().data()).ok());
  }
  BufferCache cache(&dev, 16);

  // Warm blocks 2 and 5; then batch-read the extent 0..7 — 2 hits, 6
  // misses, every byte correct.
  std::vector<uint8_t> one(512);
  ASSERT_TRUE(cache.Read(2, one.data()).ok());
  ASSERT_TRUE(cache.Read(5, one.data()).ok());
  uint64_t hits0 = cache.metrics().hits.value();
  uint64_t misses0 = cache.metrics().misses.value();
  uint64_t batched0 = cache.metrics().batched_reads.value();

  uint64_t blocks[8] = {0, 1, 2, 3, 4, 5, 6, 7};
  std::vector<uint8_t> out(8 * 512);
  ASSERT_TRUE(cache.ReadBatch(blocks, 8, out.data()).ok());
  for (uint64_t b = 0; b < 8; ++b) {
    EXPECT_EQ(std::vector<uint8_t>(out.begin() + b * 512,
                                   out.begin() + (b + 1) * 512),
              patterns[b])
        << "block " << b;
  }
  EXPECT_EQ(cache.metrics().hits.value(), hits0 + 2);
  EXPECT_EQ(cache.metrics().misses.value(), misses0 + 6);
  EXPECT_EQ(cache.metrics().batched_reads.value() - batched0, 8u);

  // Everything is cached now: a second batch is all hits.
  ASSERT_TRUE(cache.ReadBatch(blocks, 8, out.data()).ok());
  EXPECT_EQ(cache.metrics().hits.value(), hits0 + 10);
  EXPECT_EQ(cache.metrics().misses.value(), misses0 + 6);
}

TEST(BufferCacheTest, WriteBatchRoundTripsThroughPolicies) {
  for (WritePolicy policy :
       {WritePolicy::kWriteBack, WritePolicy::kWriteThrough}) {
    MemBlockDevice dev(512, 32);
    BufferCache cache(&dev, 16, policy);
    uint64_t blocks[3] = {9, 4, 17};
    std::vector<uint8_t> data(3 * 512);
    for (size_t i = 0; i < data.size(); ++i) {
      data[i] = static_cast<uint8_t>(i * 11);
    }
    ASSERT_TRUE(cache.WriteBatch(blocks, 3, data.data()).ok());
    EXPECT_EQ(cache.metrics().batched_writes.value(), 3u);
    if (policy == WritePolicy::kWriteThrough) {
      std::vector<uint8_t> raw(512);
      ASSERT_TRUE(dev.ReadBlock(4, raw.data()).ok());
      EXPECT_EQ(std::memcmp(raw.data(), data.data() + 512, 512), 0);
    }
    ASSERT_TRUE(cache.Flush().ok());
    std::vector<uint8_t> out(3 * 512);
    ASSERT_TRUE(cache.ReadBatch(blocks, 3, out.data()).ok());
    EXPECT_EQ(out, data);
  }
}

// The batch path must evict in exactly the order the per-block loop would:
// drive two identically-seeded caches through the same access sequence,
// one per-block and one batched, and compare counters plus the full
// surviving-entry set (probed via a SimDisk read count: cached blocks
// don't touch the device).
TEST(BufferCacheTest, BatchPreservesSeededEvictionOrder) {
  auto mk = [] {
    auto inner = std::make_unique<MemBlockDevice>(512, 64);
    return std::make_unique<SimDisk>(std::move(inner), DiskModelConfig{});
  };
  auto disk_a = mk();
  auto disk_b = mk();
  BufferCache loop_cache(disk_a.get(), 4, WritePolicy::kWriteBack, 1);
  BufferCache batch_cache(disk_b.get(), 4, WritePolicy::kWriteBack, 1);

  // Interleaved hits and misses, with revisits that only survive if LRU
  // order matches.
  const uint64_t seq[] = {1, 2, 3, 1, 4, 5, 2, 1, 6, 3, 1, 7};
  const size_t n = sizeof(seq) / sizeof(seq[0]);
  std::vector<uint8_t> buf(512);
  for (uint64_t b : seq) {
    ASSERT_TRUE(loop_cache.Read(b, buf.data()).ok());
  }
  std::vector<uint8_t> out(n * 512);
  ASSERT_TRUE(batch_cache.ReadBatch(seq, n, out.data()).ok());

  const CacheMetrics& ls = loop_cache.metrics();
  const CacheMetrics& bs = batch_cache.metrics();
  EXPECT_EQ(ls.hits.value(), bs.hits.value());
  EXPECT_EQ(ls.misses.value(), bs.misses.value());
  EXPECT_EQ(ls.evictions.value(), bs.evictions.value());
  // The batch fetches each distinct block at most once up front, so when a
  // sequence revisits a block after it was evicted mid-sequence the batch
  // issues FEWER device reads than the loop — never more.
  EXPECT_LE(disk_b->stats().reads, disk_a->stats().reads);

  // Same survivors: re-read every block once in both caches; hit patterns
  // (device read deltas) must match block for block.
  for (uint64_t b = 1; b <= 7; ++b) {
    uint64_t ra = disk_a->stats().reads;
    uint64_t rb = disk_b->stats().reads;
    ASSERT_TRUE(loop_cache.Read(b, buf.data()).ok());
    ASSERT_TRUE(batch_cache.Read(b, buf.data()).ok());
    EXPECT_EQ(disk_a->stats().reads - ra, disk_b->stats().reads - rb)
        << "block " << b << " cached in one cache but not the other";
  }
}

// A device fault inside a batch's miss fetch surfaces the error and
// leaves the cache consistent: no entry is inserted from the failed
// fetch, so a healed retry re-reads everything from the device.
TEST(BufferCacheTest, ReadBatchSurfacesFaultWithoutCachingGarbage) {
  test::FaultyDevice dev(512, 32);
  std::vector<uint8_t> data = Pattern(512, 7);
  for (uint64_t b = 0; b < 4; ++b) {
    ASSERT_TRUE(dev.inner()->WriteBlock(b, data.data()).ok());
  }
  BufferCache cache(&dev, 8);
  dev.FailReads(2);
  uint64_t blocks[4] = {0, 1, 2, 3};
  std::vector<uint8_t> out(4 * 512);
  EXPECT_TRUE(cache.ReadBatch(blocks, 4, out.data()).IsIOError());
  EXPECT_EQ(cache.size(), 0u);  // nothing inserted from the failed fetch

  dev.Heal();
  ASSERT_TRUE(cache.ReadBatch(blocks, 4, out.data()).ok());
  for (uint64_t b = 0; b < 4; ++b) {
    EXPECT_EQ(std::memcmp(out.data() + b * 512, data.data(), 512), 0);
  }
  EXPECT_EQ(cache.size(), 4u);
}

// The write-through contract of WriteBatch: a mid-batch device fault
// invalidates exactly the failed group's entries — the cache never serves
// bytes older than the device — and other entries survive.
TEST(BufferCacheTest, WriteThroughBatchFaultInvalidatesExactlyTheGroup) {
  test::FaultyDevice dev(512, 64);
  // One shard so "the group" is the whole batch and the test is exact.
  BufferCache cache(&dev, 16, WritePolicy::kWriteThrough, 1);

  // Warm entries 0..3 (old bytes) plus an unrelated entry 20.
  std::vector<uint8_t> old_data = Pattern(512, 1);
  for (uint64_t b = 0; b < 4; ++b) {
    ASSERT_TRUE(cache.Write(b, old_data.data()).ok());
  }
  std::vector<uint8_t> other = Pattern(512, 50);
  ASSERT_TRUE(cache.Write(20, other.data()).ok());
  ASSERT_EQ(cache.size(), 5u);

  // Fault mid-batch: a prefix of the new bytes lands on the device, then
  // the batch fails.
  dev.FailWrites(/*after=*/2);
  uint64_t blocks[4] = {0, 1, 2, 3};
  std::vector<uint8_t> new_data(4 * 512);
  for (size_t i = 0; i < new_data.size(); ++i) {
    new_data[i] = static_cast<uint8_t>(i * 3 + 1);
  }
  EXPECT_FALSE(cache.WriteBatch(blocks, 4, new_data.data()).ok());
  dev.Heal();

  // Exactly the group is gone; the unrelated entry survives.
  EXPECT_EQ(cache.size(), 1u);
  std::vector<uint8_t> out(512);
  uint64_t misses0 = cache.metrics().misses.value();
  ASSERT_TRUE(cache.Read(20, out.data()).ok());
  EXPECT_EQ(out, other);
  EXPECT_EQ(cache.metrics().misses.value(), misses0);  // still cached

  // Reads of the group now come from the device — whatever prefix landed
  // there is what the cache serves, never the stale pre-fault entries.
  std::vector<uint8_t> raw(512);
  for (uint64_t b = 0; b < 4; ++b) {
    ASSERT_TRUE(cache.Read(b, out.data()).ok());
    ASSERT_TRUE(dev.inner()->ReadBlock(b, raw.data()).ok());
    EXPECT_EQ(out, raw) << "block " << b << " differs from the device";
  }
}

// A failed one-block write-through Write is the n = 1 case of the batch
// contract above: a torn write leaves the device holding neither the old
// nor the new bytes, so the cached entry goes and the next Read returns
// what the device holds.
TEST(BufferCacheTest, WriteThroughTornWriteDropsTheStaleEntry) {
  fault::FaultInjectionBlockDevice dev(512, 32);
  BufferCache cache(&dev, 16, WritePolicy::kWriteThrough);
  std::vector<uint8_t> old_bytes(512, 0xAA);
  ASSERT_TRUE(cache.Write(5, old_bytes.data()).ok());
  ASSERT_EQ(cache.size(), 1u);

  ASSERT_TRUE(dev.LoadSchedule("write:torn").ok());
  std::vector<uint8_t> new_bytes(512, 0xBB);
  EXPECT_FALSE(cache.Write(5, new_bytes.data()).ok());
  dev.ClearRules();

  std::vector<uint8_t> raw(512);
  ASSERT_TRUE(dev.mem()->ReadBlock(5, raw.data()).ok());
  ASSERT_EQ(raw[0], 0xBB);    // the torn write's first half landed
  ASSERT_EQ(raw[511], 0xAA);  // its second half did not
  std::vector<uint8_t> out(512);
  ASSERT_TRUE(cache.Read(5, out.data()).ok());
  EXPECT_EQ(out, raw);
}

// --- stream reads and the prefetcher ------------------------------------

// Completes batches only when the test says so: SubmitRead performs the
// base device read at submission time (capturing the bytes of that
// moment, like a real in-flight request) but defers the completion
// handler until Release() — which is how the tests pin down the
// submit/complete race window deterministically.
class ManualAsyncDevice : public AsyncBlockDevice {
 public:
  explicit ManualAsyncDevice(BlockDevice* base) : base_(base) {}
  ~ManualAsyncDevice() override { Drain(); }

  uint32_t block_size() const override { return base_->block_size(); }
  uint64_t num_blocks() const override { return base_->num_blocks(); }
  const char* engine_name() const override { return "manual-test"; }

  IoTicket SubmitRead(std::vector<BlockIoVec> iov,
                      IoCompletionFn done) override {
    Status s = base_->ReadBlocks(iov.data(), iov.size());
    return Defer(std::move(done), std::move(s));
  }

  // Fires every deferred completion, in submission order.
  void Release() {
    for (auto& p : pending_) {
      if (p.done) p.done(p.status);
      p.completion.Complete(p.status);
    }
    pending_.clear();
  }

  void Drain() override { Release(); }

 private:
  struct Pending {
    IoCompletionFn done;
    Status status;
    IoCompletion completion;
  };
  IoTicket Defer(IoCompletionFn done, Status s) {
    pending_.push_back({std::move(done), std::move(s), IoCompletion()});
    return pending_.back().completion.ticket();
  }
  BlockDevice* base_;
  std::vector<Pending> pending_;
};

// StreamBatch is ProbeBatch as a demand read: the same bytes, nothing
// inserted, but every position counts as a hit or a miss, duplicates
// included, and a hit on a prefetched entry claims it once.
TEST(BufferCacheTest, StreamBatchCountsEveryPositionAndInsertsNothing) {
  MemBlockDevice dev(512, 32);
  std::vector<std::vector<uint8_t>> patterns;
  for (uint64_t b = 0; b < 8; ++b) {
    patterns.push_back(Pattern(512, static_cast<uint8_t>(b + 1)));
    ASSERT_TRUE(dev.WriteBlock(b, patterns.back().data()).ok());
  }
  BufferCache cache(&dev, 16);
  ThreadPoolAsyncDevice engine(&dev, 2);
  cache.SetAsyncEngine(&engine);

  // Warm two blocks by demand and one by prefetch.
  std::vector<uint8_t> one(512);
  ASSERT_TRUE(cache.Read(2, one.data()).ok());
  ASSERT_TRUE(cache.Read(5, one.data()).ok());
  const uint64_t prefetch[1] = {6};
  cache.Prefetch(prefetch, 1);
  engine.Drain();
  ASSERT_EQ(cache.metrics().prefetched.value(), 1u);
  const CacheMetrics& m = cache.metrics();
  const uint64_t hits0 = m.hits.value(), misses0 = m.misses.value();
  const uint64_t batched0 = m.batched_reads.value();

  uint64_t blocks[9] = {0, 1, 2, 3, 4, 5, 6, 7, 3};  // 3 twice
  std::vector<uint8_t> out(9 * 512);
  ASSERT_TRUE(cache.StreamBatch(blocks, 9, out.data()).ok());
  for (size_t i = 0; i < 9; ++i) {
    EXPECT_EQ(std::memcmp(out.data() + i * 512, patterns[blocks[i]].data(),
                          512),
              0)
        << "position " << i;
  }
  EXPECT_EQ(m.hits.value() - hits0, 3u);      // 2, 5 and 6
  EXPECT_EQ(m.misses.value() - misses0, 6u);  // 0, 1, 3, 4, 7 and 3 again
  EXPECT_EQ(m.batched_reads.value() - batched0, 9u);
  EXPECT_EQ(m.prefetch_hits.value(), 1u);
  EXPECT_EQ(m.evictions.value(), 0u);
  EXPECT_EQ(cache.size(), 3u);  // nothing inserted

  // The claim is once: a second stream read of 6 is a plain hit.
  ASSERT_TRUE(cache.StreamBatch(blocks, 9, out.data()).ok());
  EXPECT_EQ(m.hits.value() - hits0, 6u);
  EXPECT_EQ(m.prefetch_hits.value(), 1u);
  cache.SetAsyncEngine(nullptr);
}

// Generation guard: a write that lands while a prefetch read is in flight
// must keep the read's (stale) bytes out of the cache.
TEST(BufferCacheAsyncTest, RacedWriteBeatsInFlightPrefetchInsert) {
  MemBlockDevice dev(512, 32);
  std::vector<uint8_t> old_bytes = Pattern(512, 1);
  ASSERT_TRUE(dev.WriteBlock(7, old_bytes.data()).ok());
  BufferCache cache(&dev, 8, WritePolicy::kWriteThrough, 1);
  ManualAsyncDevice engine(&dev);
  cache.SetAsyncEngine(&engine);

  uint64_t blocks[1] = {7};
  cache.Prefetch(blocks, 1);
  // The engine has read the OLD bytes; before completion, new bytes land.
  std::vector<uint8_t> new_bytes = Pattern(512, 99);
  ASSERT_TRUE(cache.Write(7, new_bytes.data()).ok());
  engine.Release();
  EXPECT_EQ(cache.metrics().prefetched.value(), 0u);
  // The cache must keep serving the newer write.
  std::vector<uint8_t> out(512);
  ASSERT_TRUE(cache.Read(7, out.data()).ok());
  EXPECT_EQ(out, new_bytes);
  ASSERT_TRUE(dev.ReadBlock(7, out.data()).ok());
  EXPECT_EQ(out, new_bytes);
  cache.SetAsyncEngine(nullptr);
}

TEST(BufferCacheAsyncTest, PrefetchIsAPureSubmitterWithEngine) {
  MemBlockDevice dev(512, 64);
  std::vector<uint8_t> data = Pattern(512, 3);
  for (uint64_t b = 8; b < 12; ++b) {
    ASSERT_TRUE(dev.WriteBlock(b, data.data()).ok());
  }
  BufferCache cache(&dev, 16);
  uint64_t blocks[4] = {8, 9, 10, 11};

  // Without an engine there is no prefetcher: nothing is loaded.
  cache.Prefetch(blocks, 4);
  EXPECT_EQ(cache.metrics().prefetched.value(), 0u);
  EXPECT_EQ(cache.size(), 0u);

  // The engine is the whole mechanism.
  ThreadPoolAsyncDevice engine(&dev, 2);
  cache.SetAsyncEngine(&engine);
  cache.Prefetch(blocks, 4);
  engine.Drain();
  EXPECT_EQ(cache.metrics().prefetched.value(), 4u);
  EXPECT_EQ(cache.size(), 4u);

  // Demand reads claim the prefetched entries: hits, and prefetch_hits.
  std::vector<uint8_t> out(512);
  ASSERT_TRUE(cache.Read(9, out.data()).ok());
  EXPECT_EQ(out, data);
  ASSERT_TRUE(cache.Read(10, out.data()).ok());
  EXPECT_EQ(cache.metrics().hits.value(), 2u);
  EXPECT_EQ(cache.metrics().misses.value(), 0u);
  EXPECT_EQ(cache.metrics().prefetch_hits.value(), 2u);
  // A re-read of a claimed entry is a plain hit, not a prefetch hit.
  ASSERT_TRUE(cache.Read(9, out.data()).ok());
  EXPECT_EQ(cache.metrics().hits.value(), 3u);
  EXPECT_EQ(cache.metrics().prefetch_hits.value(), 2u);

  // Out-of-range and already-cached blocks stay harmless no-ops.
  uint64_t mixed[3] = {9, 1000000, 11};
  cache.Prefetch(mixed, 3);
  engine.Drain();
  EXPECT_EQ(cache.metrics().prefetched.value(), 4u);
  cache.SetAsyncEngine(nullptr);
}

// Stream reads racing prefetch inserts and demand reads (the TSan job
// runs this): consistent bytes, and each prefetched entry claimed at most
// once although stream readers claim it under the shared lock.
TEST(BufferCacheAsyncTest, ConcurrentStreamReadsAndPrefetches) {
  MemBlockDevice dev(512, 128);
  std::vector<uint8_t> seed(512);
  for (uint64_t b = 0; b < 128; ++b) {
    for (size_t i = 0; i < 512; ++i) {
      seed[i] = static_cast<uint8_t>(b);
    }
    ASSERT_TRUE(dev.WriteBlock(b, seed.data()).ok());
  }
  BufferCache cache(&dev, 64, WritePolicy::kWriteThrough, 4);
  ThreadPoolAsyncDevice engine(&dev, 3);
  cache.SetAsyncEngine(&engine);

  std::atomic<int> errors{0};
  std::vector<std::thread> threads;
  for (int tid = 0; tid < 4; ++tid) {
    threads.emplace_back([&cache, &errors, tid] {
      std::vector<uint64_t> blocks(16);
      std::vector<uint8_t> out(16 * 512);
      for (int round = 0; round < 40; ++round) {
        for (size_t i = 0; i < 16; ++i) {
          blocks[i] = (tid * 31 + round * 7 + i * 3) % 128;
        }
        cache.Prefetch(blocks.data() + 8, 8);
        Status s = tid % 2 == 0
                       ? cache.StreamBatch(blocks.data(), 16, out.data())
                       : cache.ReadBatch(blocks.data(), 16, out.data());
        if (!s.ok()) {
          errors.fetch_add(1);
          continue;
        }
        for (size_t i = 0; i < 16; ++i) {
          // Every block holds one repeated byte; a torn or misplaced
          // transfer would break that.
          const uint8_t want = static_cast<uint8_t>(blocks[i]);
          for (size_t j = 0; j < 512; ++j) {
            if (out[i * 512 + j] != want) {
              errors.fetch_add(1);
              break;
            }
          }
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  engine.Drain();
  EXPECT_EQ(errors.load(), 0);
  EXPECT_LE(cache.metrics().prefetch_hits.value(),
            cache.metrics().prefetched.value());
  cache.SetAsyncEngine(nullptr);
}

// A self-describing 512-byte image: block number, version, then a body
// derived from both, so a torn or misplaced copy fails IsImageOf.
std::vector<uint8_t> Stamp(uint64_t block, uint8_t version) {
  std::vector<uint8_t> v(512, static_cast<uint8_t>(block * 31 + version * 101));
  std::memcpy(v.data(), &block, sizeof(block));
  v[8] = version;
  return v;
}

bool IsImageOf(const uint8_t* p, uint64_t block) {
  uint64_t b;
  std::memcpy(&b, p, sizeof(b));
  if (b != block) return false;
  const uint8_t body = static_cast<uint8_t>(block * 31 + p[8] * 101);
  for (size_t j = 9; j < 512; ++j) {
    if (p[j] != body) return false;
  }
  return true;
}

TEST(BufferCacheTest, ProbeBatchLeavesCacheUntouched) {
  constexpr uint64_t kDeviceBlocks = 12000;
  MemBlockDevice dev(512, kDeviceBlocks);
  for (uint64_t b = 0; b < kDeviceBlocks; ++b) {
    ASSERT_TRUE(dev.WriteBlock(b, Stamp(b, 0).data()).ok());
  }
  // One shard, so the whole LRU order is observable through evictions.
  BufferCache cache(&dev, 256, WritePolicy::kWriteBack, 1);
  const auto dirty = Stamp(7, 1);
  ASSERT_TRUE(cache.Write(7, dirty.data()).ok());  // never reaches the device
  std::vector<uint8_t> buf(512);
  for (uint64_t b = 0; b < 256; ++b) {
    ASSERT_TRUE(cache.Read(b, buf.data()).ok());  // LRU order 0 .. 255
  }
  const CacheMetrics& m = cache.metrics();
  const uint64_t hits0 = m.hits.value(), misses0 = m.misses.value();
  const uint64_t evictions0 = m.evictions.value();
  const uint64_t writebacks0 = m.writebacks.value();

  // 10 000 probes: the even cached blocks, then uncached ones.
  std::vector<uint64_t> probe;
  for (uint64_t b = 0; b < 256; b += 2) probe.push_back(b);
  for (uint64_t b = 1000; probe.size() < 10000; ++b) probe.push_back(b);
  std::vector<uint8_t> out(probe.size() * 512);
  size_t hits = 0;
  ASSERT_TRUE(
      cache.ProbeBatch(probe.data(), probe.size(), out.data(), &hits).ok());
  EXPECT_EQ(hits, 128u);
  for (size_t i = 0; i < probe.size(); ++i) {
    const auto want = probe[i] == 7 ? dirty : Stamp(probe[i], 0);
    ASSERT_EQ(std::memcmp(out.data() + i * 512, want.data(), 512), 0)
        << "block " << probe[i];
  }

  EXPECT_EQ(m.hits.value(), hits0);
  EXPECT_EQ(m.misses.value(), misses0);
  EXPECT_EQ(m.evictions.value(), evictions0);
  EXPECT_EQ(m.writebacks.value(), writebacks0);
  EXPECT_EQ(cache.size(), 256u);
  EXPECT_EQ(cache.dirty_count(), 1u);

  // LRU order unchanged: 128 fresh blocks evict exactly 0 .. 127 (had the
  // probe touched the even blocks, the odd ones would have gone first).
  for (uint64_t b = 5000; b < 5128; ++b) {
    ASSERT_TRUE(cache.Read(b, buf.data()).ok());
  }
  EXPECT_EQ(m.evictions.value(), evictions0 + 128);
  EXPECT_EQ(m.writebacks.value(), writebacks0 + 1);  // block 7
  const uint64_t misses = m.misses.value();
  for (uint64_t b = 128; b < 256; ++b) {
    ASSERT_TRUE(cache.Read(b, buf.data()).ok());
  }
  EXPECT_EQ(m.misses.value(), misses);
}

TEST(BufferCacheTest, ProbeBatchRacesWritesEvictionAndCheckpoint) {
  // Probers read outside the shard locks while writers dirty blocks,
  // eviction writes victims back and checkpoints write the device under
  // the lock. Every probed image must be whole (TSan covers the rest).
  constexpr uint64_t kBlocks = 256;
  MemBlockDevice dev(512, kBlocks);
  for (uint64_t b = 0; b < kBlocks; ++b) {
    ASSERT_TRUE(dev.WriteBlock(b, Stamp(b, 0).data()).ok());
  }
  BufferCache cache(&dev, 64, WritePolicy::kWriteBack, 4);
  std::atomic<int> running{2};
  std::atomic<int> errors{0};

  std::thread writer([&] {
    for (int round = 1; round <= 200; ++round) {
      for (uint64_t i = 0; i < 32; ++i) {
        const uint64_t b = (round * 13 + i * 5) % kBlocks;
        if (!cache.Write(b, Stamp(b, round).data()).ok()) errors++;
      }
    }
    running--;
  });
  std::thread checkpointer([&] {
    for (int round = 1; round <= 200; ++round) {
      for (uint64_t i = 0; i < 8; ++i) {
        const uint64_t b = (round * 7 + i * 29) % kBlocks;
        if (!cache.CheckpointBlock(b, Stamp(b, 250).data()).ok()) errors++;
      }
    }
    running--;
  });
  std::vector<std::thread> probers;
  for (int t = 0; t < 2; ++t) {
    probers.emplace_back([&, t] {
      std::vector<uint64_t> blocks(kBlocks);
      for (uint64_t b = 0; b < kBlocks; ++b) {
        blocks[b] = (b * 97 + t) % kBlocks;
      }
      std::vector<uint8_t> out(kBlocks * 512);
      while (running.load() > 0) {
        if (!cache.ProbeBatch(blocks.data(), kBlocks, out.data()).ok()) {
          errors++;
          continue;
        }
        for (uint64_t i = 0; i < kBlocks; ++i) {
          if (!IsImageOf(out.data() + i * 512, blocks[i])) errors++;
        }
      }
    });
  }
  writer.join();
  checkpointer.join();
  for (std::thread& p : probers) p.join();
  EXPECT_EQ(errors.load(), 0);
  EXPECT_LE(cache.size(), 64u);
}

TEST(BufferCacheTest, FlushIsIdempotent) {
  MemBlockDevice dev(512, 8);
  BufferCache cache(&dev, 4);
  auto data = Pattern(512, 8);
  ASSERT_TRUE(cache.Write(0, data.data()).ok());
  ASSERT_TRUE(cache.Flush().ok());
  uint64_t wb = cache.metrics().writebacks.value();
  ASSERT_TRUE(cache.Flush().ok());
  // Nothing is dirty the second time.
  EXPECT_EQ(cache.metrics().writebacks.value(), wb);
}

// WriteBackDirty skips shards with nothing dirty. A shard must still be
// written back when a write dirties it after a flush, or when its flush
// failed and left the entries dirty.
TEST(BufferCacheTest, WriteBackReachesEveryShardDirtiedAgain) {
  test::FaultyDevice dev(512, 64);
  BufferCache cache(&dev, 64, WritePolicy::kWriteBack, 4);
  ASSERT_EQ(cache.shard_count(), 4u);
  std::vector<uint8_t> buf(512);
  for (uint64_t b = 0; b < 8; ++b) {
    ASSERT_TRUE(cache.Write(b, Pattern(512, b).data()).ok());
  }
  ASSERT_TRUE(cache.WriteBackDirty().ok());
  EXPECT_EQ(cache.dirty_count(), 0u);

  ASSERT_TRUE(cache.Write(5, Pattern(512, 50).data()).ok());
  dev.FailWrites();
  EXPECT_FALSE(cache.WriteBackDirty().ok());
  EXPECT_EQ(cache.dirty_count(), 1u);
  dev.Heal();
  ASSERT_TRUE(cache.WriteBackDirty().ok());
  EXPECT_EQ(cache.dirty_count(), 0u);
  ASSERT_TRUE(dev.ReadBlock(5, buf.data()).ok());
  EXPECT_EQ(buf, Pattern(512, 50));

  ASSERT_TRUE(cache.Write(2, Pattern(512, 20).data()).ok());
  ASSERT_TRUE(cache.WriteBackDirty().ok());
  ASSERT_TRUE(dev.ReadBlock(2, buf.data()).ok());
  EXPECT_EQ(buf, Pattern(512, 20));
}


// --- dirty index ---------------------------------------------------------

// Forwards to `base` and records the block numbers of every write call,
// one list per call (a WriteBlock counts as a call of one block).
class RecordingDevice : public BlockDevice {
 public:
  explicit RecordingDevice(BlockDevice* base) : base_(base) {}

  uint32_t block_size() const override { return base_->block_size(); }
  uint64_t num_blocks() const override { return base_->num_blocks(); }
  Status ReadBlock(uint64_t block, uint8_t* buf) override {
    return base_->ReadBlock(block, buf);
  }
  Status WriteBlock(uint64_t block, const uint8_t* buf) override {
    Record({block});
    return base_->WriteBlock(block, buf);
  }
  Status ReadBlocks(const BlockIoVec* iov, size_t n) override {
    return base_->ReadBlocks(iov, n);
  }
  Status WriteBlocks(const ConstBlockIoVec* iov, size_t n) override {
    std::vector<uint64_t> call(n);
    for (size_t i = 0; i < n; ++i) call[i] = iov[i].block;
    Record(std::move(call));
    return base_->WriteBlocks(iov, n);
  }
  Status Flush() override { return base_->Flush(); }

  std::vector<std::vector<uint64_t>> TakeCalls() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::exchange(calls_, {});
  }

 private:
  void Record(std::vector<uint64_t> call) {
    std::lock_guard<std::mutex> lock(mu_);
    calls_.push_back(std::move(call));
  }

  BlockDevice* base_;
  std::mutex mu_;
  std::vector<std::vector<uint64_t>> calls_;
};

std::vector<uint64_t> Flatten(const std::vector<std::vector<uint64_t>>& calls) {
  std::vector<uint64_t> all;
  for (const auto& call : calls) all.insert(all.end(), call.begin(), call.end());
  std::sort(all.begin(), all.end());
  return all;
}

class DirtyIndexTest : public ::testing::TestWithParam<size_t> {};

// A write-back sends exactly the dirty blocks that are neither held back
// nor parked: ascending, one vectored call per shard, and never a clean
// resident block.
TEST_P(DirtyIndexTest, WriteBackSendsExactlyTheUnheldDirtyBlocks) {
  const size_t shards = GetParam();
  MemBlockDevice mem(512, 256);
  RecordingDevice dev(&mem);
  BufferCache cache(&dev, 128, WritePolicy::kWriteBack, shards);
  ASSERT_EQ(cache.shard_count(), shards);

  std::vector<uint8_t> buf(512);
  for (uint64_t b = 0; b < 64; ++b) {
    ASSERT_TRUE(cache.Read(b, buf.data()).ok());  // clean residents
  }
  const std::vector<uint64_t> dirtied = {70, 3, 41, 99, 12, 55, 88, 7,
                                         120, 64, 3, 200, 41, 17};
  for (size_t i = 0; i < dirtied.size(); ++i) {
    ASSERT_TRUE(cache.Write(dirtied[i], Stamp(dirtied[i], i).data()).ok());
  }
  uint64_t batch[3] = {150, 9, 150};
  std::vector<uint8_t> batch_data(3 * 512);
  for (size_t i = 0; i < 3; ++i) {
    std::memcpy(batch_data.data() + i * 512, Stamp(batch[i], 40 + i).data(),
                512);
  }
  ASSERT_TRUE(cache.WriteBatch(batch, 3, batch_data.data()).ok());
  ASSERT_TRUE(dev.TakeCalls().empty());  // write-back: nothing sent yet
  ASSERT_EQ(cache.dirty_count(), 14u);   // 12 distinct + 150 + 9

  const std::unordered_set<uint64_t> hold_back = {41, 88, 5};  // 5 is clean
  cache.ParkBlocks(std::make_shared<const std::unordered_set<uint64_t>>(
      std::unordered_set<uint64_t>{12, 120}));
  ASSERT_TRUE(cache.WriteBackDirty(&hold_back).ok());

  const auto calls = dev.TakeCalls();
  concurrency::StripedSharedMutex stripes(shards);
  std::set<size_t> shards_seen;
  for (const auto& call : calls) {
    ASSERT_FALSE(call.empty());
    EXPECT_TRUE(std::is_sorted(call.begin(), call.end()));
    EXPECT_EQ(std::adjacent_find(call.begin(), call.end()), call.end());
    const size_t shard = stripes.StripeOf(call.front());
    for (uint64_t b : call) EXPECT_EQ(stripes.StripeOf(b), shard);
    EXPECT_TRUE(shards_seen.insert(shard).second) << "two calls, one shard";
  }
  EXPECT_EQ(Flatten(calls),
            (std::vector<uint64_t>{3, 7, 9, 17, 55, 64, 70, 99, 150, 200}));
  EXPECT_EQ(cache.dirty_count(), 4u);  // held back and parked stay dirty

  // The device got the latest bytes of what was sent, and nothing else.
  ASSERT_TRUE(mem.ReadBlock(3, buf.data()).ok());
  EXPECT_EQ(buf, Stamp(3, 10));
  ASSERT_TRUE(mem.ReadBlock(150, buf.data()).ok());
  EXPECT_EQ(buf, Stamp(150, 42));
  ASSERT_TRUE(mem.ReadBlock(41, buf.data()).ok());
  EXPECT_EQ(buf, std::vector<uint8_t>(512, 0));

  // A second round sends nothing while the rest stays held; once
  // unparked and unheld, exactly the four remaining blocks go.
  ASSERT_TRUE(cache.WriteBackDirty(&hold_back).ok());
  EXPECT_TRUE(dev.TakeCalls().empty());
  cache.ParkBlocks(nullptr);
  ASSERT_TRUE(cache.WriteBackDirty().ok());
  EXPECT_EQ(Flatten(dev.TakeCalls()), (std::vector<uint64_t>{12, 41, 88, 120}));
  EXPECT_EQ(cache.dirty_count(), 0u);
  ASSERT_TRUE(cache.Flush().ok());
  EXPECT_TRUE(dev.TakeCalls().empty());
}

// dirty_count() and the device bytes stay exact through every transition
// that links or unlinks an entry.
TEST_P(DirtyIndexTest, IndexStaysExactAcrossEveryTransition) {
  const size_t shards = GetParam();
  test::FaultyDevice faulty(512, 256);
  RecordingDevice dev(&faulty);
  BufferCache cache(&dev, 4 * shards, WritePolicy::kWriteBack, shards);
  std::vector<uint8_t> buf(512);
  auto device_has = [&](uint64_t b, const std::vector<uint8_t>& want) {
    EXPECT_TRUE(faulty.inner()->ReadBlock(b, buf.data()).ok());
    return buf == want;
  };

  // Eviction of dirty victims: 40 distinct dirty blocks through a cache
  // of 4 per shard. What was evicted is on the device; what stays is
  // listed, and exactly that is written back next.
  for (uint64_t b = 0; b < 40; ++b) {
    ASSERT_TRUE(cache.Write(b, Stamp(b, 1).data()).ok());
  }
  size_t on_device = 0;
  for (uint64_t b = 0; b < 40; ++b) on_device += device_has(b, Stamp(b, 1));
  EXPECT_EQ(on_device, cache.metrics().evictions.value());
  EXPECT_EQ(cache.dirty_count(), cache.size());
  EXPECT_EQ(cache.dirty_count(), 40 - on_device);
  dev.TakeCalls();
  ASSERT_TRUE(cache.WriteBackDirty().ok());
  EXPECT_EQ(Flatten(dev.TakeCalls()).size(), 40 - on_device);
  EXPECT_EQ(cache.dirty_count(), 0u);
  for (uint64_t b = 0; b < 40; ++b) EXPECT_TRUE(device_has(b, Stamp(b, 1)));

  // CheckpointBlock: matching bytes clear the entry, differing bytes
  // (the cache is newer) leave it dirty.
  const uint64_t x = 36, y = 37;  // resident: the most recent writes
  ASSERT_TRUE(cache.Write(x, Stamp(x, 2).data()).ok());
  ASSERT_TRUE(cache.Write(y, Stamp(y, 3).data()).ok());
  ASSERT_EQ(cache.dirty_count(), 2u);
  ASSERT_TRUE(cache.CheckpointBlock(x, Stamp(x, 2).data()).ok());
  ASSERT_TRUE(cache.CheckpointBlock(y, Stamp(y, 2).data()).ok());
  EXPECT_EQ(cache.dirty_count(), 1u);
  EXPECT_TRUE(device_has(y, Stamp(y, 2)));
  dev.TakeCalls();
  ASSERT_TRUE(cache.WriteBackDirty().ok());
  EXPECT_EQ(Flatten(dev.TakeCalls()), std::vector<uint64_t>{y});
  EXPECT_TRUE(device_has(x, Stamp(x, 2)));
  EXPECT_TRUE(device_has(y, Stamp(y, 3)));

  // DropAll empties the index; the next write relinks.
  ASSERT_TRUE(cache.Write(x, Stamp(x, 4).data()).ok());
  ASSERT_TRUE(cache.Write(y, Stamp(y, 4).data()).ok());
  cache.DropAll();
  EXPECT_EQ(cache.dirty_count(), 0u);
  ASSERT_TRUE(cache.WriteBackDirty().ok());
  EXPECT_TRUE(dev.TakeCalls().empty());
  ASSERT_TRUE(cache.Write(y, Stamp(y, 5).data()).ok());
  EXPECT_EQ(cache.dirty_count(), 1u);

  // A failed write-back leaves every entry dirty and listed; the next
  // flush heals it.
  ASSERT_TRUE(cache.Write(x, Stamp(x, 5).data()).ok());
  const size_t before = cache.dirty_count();
  faulty.FailWrites();
  EXPECT_FALSE(cache.WriteBackDirty().ok());
  EXPECT_EQ(cache.dirty_count(), before);
  faulty.Heal();
  ASSERT_TRUE(cache.Flush().ok());
  EXPECT_EQ(cache.dirty_count(), 0u);
  EXPECT_TRUE(device_has(x, Stamp(x, 5)));
  EXPECT_TRUE(device_has(y, Stamp(y, 5)));
}

// Write-through writes reach the device at once and are never listed.
TEST_P(DirtyIndexTest, WriteThroughWritesAreNeverListed) {
  const size_t shards = GetParam();
  MemBlockDevice mem(512, 64);
  RecordingDevice dev(&mem);
  BufferCache cache(&dev, 4 * shards, WritePolicy::kWriteThrough, shards);
  for (uint64_t b = 0; b < 32; ++b) {
    ASSERT_TRUE(cache.Write(b, Stamp(b, 1).data()).ok());
  }
  uint64_t batch[4] = {1, 40, 2, 41};
  std::vector<uint8_t> data(4 * 512, 7);
  ASSERT_TRUE(cache.WriteBatch(batch, 4, data.data()).ok());
  EXPECT_EQ(cache.dirty_count(), 0u);
  EXPECT_FALSE(dev.TakeCalls().empty());
  ASSERT_TRUE(cache.Flush().ok());
  EXPECT_TRUE(dev.TakeCalls().empty());
}

INSTANTIATE_TEST_SUITE_P(Shards, DirtyIndexTest, ::testing::Values(1, 4),
                         [](const ::testing::TestParamInfo<size_t>& info) {
                           return std::to_string(info.param) + "Shard";
                         });

// Writers, a write-back loop and a checkpoint loop race on a small
// multi-shard cache that evicts dirty victims all the time. Each block's
// writes and checkpoints are serialized by a per-block mutex, and a
// checkpoint carries the block's latest image, as the journal's do.
TEST(BufferCacheTest, DirtyIndexSurvivesConcurrentWritersFlushesAndCheckpoints) {
  constexpr uint64_t kBlocks = 128;
  constexpr int kWriters = 4;
  MemBlockDevice dev(512, kBlocks);
  BufferCache cache(&dev, 32, WritePolicy::kWriteBack, 4);
  ASSERT_EQ(cache.shard_count(), 4u);
  std::vector<std::mutex> block_mu(kBlocks);
  std::vector<uint8_t> last(kBlocks, 0);  // guarded by block_mu
  std::atomic<int> running{kWriters};
  std::atomic<int> errors{0};

  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      uint64_t x = 0x9e3779b97f4a7c15ULL * (w + 1);
      for (int i = 0; i < 3000; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        const uint64_t b = x % kBlocks;
        std::lock_guard<std::mutex> lock(block_mu[b]);
        const uint8_t v = static_cast<uint8_t>(last[b] + 1);
        if (!cache.Write(b, Stamp(b, v).data()).ok()) errors++;
        last[b] = v;
      }
      running--;
    });
  }
  threads.emplace_back([&] {
    while (running.load() > 0) {
      if (!cache.WriteBackDirty().ok()) errors++;
    }
  });
  threads.emplace_back([&] {
    for (uint64_t i = 0; running.load() > 0; ++i) {
      const uint64_t b = (i * 37) % kBlocks;
      std::lock_guard<std::mutex> lock(block_mu[b]);
      if (last[b] == 0) continue;  // never written: nothing to checkpoint
      if (!cache.CheckpointBlock(b, Stamp(b, last[b]).data()).ok()) errors++;
    }
  });
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(errors.load(), 0);

  ASSERT_TRUE(cache.Flush().ok());
  EXPECT_EQ(cache.dirty_count(), 0u);
  EXPECT_GT(cache.metrics().evictions.value(), 0u);
  std::vector<uint8_t> buf(512);
  for (uint64_t b = 0; b < kBlocks; ++b) {
    ASSERT_TRUE(dev.ReadBlock(b, buf.data()).ok());
    const std::vector<uint8_t> want =
        last[b] == 0 ? std::vector<uint8_t>(512, 0) : Stamp(b, last[b]);
    EXPECT_EQ(buf, want) << "block " << b;
  }
}

}  // namespace
}  // namespace stegfs
