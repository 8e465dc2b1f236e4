#include "cache/buffer_cache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "blockdev/mem_block_device.h"
#include "blockdev/sim_disk.h"
#include "blockdev/thread_pool_async_device.h"
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
  EXPECT_EQ(cache.stats().misses, 1u);
  ASSERT_TRUE(cache.Read(2, out.data()).ok());
  EXPECT_EQ(cache.stats().hits, 1u);
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
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().writebacks, 1u);
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
  EXPECT_EQ(cache.stats().hits, 2u);
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
  EXPECT_EQ(cache.stats().hits, 72u);
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
  uint64_t hits0 = cache.stats().hits, misses0 = cache.stats().misses;

  uint64_t blocks[8] = {0, 1, 2, 3, 4, 5, 6, 7};
  std::vector<uint8_t> out(8 * 512);
  ASSERT_TRUE(cache.ReadBatch(blocks, 8, out.data()).ok());
  for (uint64_t b = 0; b < 8; ++b) {
    EXPECT_EQ(std::vector<uint8_t>(out.begin() + b * 512,
                                   out.begin() + (b + 1) * 512),
              patterns[b])
        << "block " << b;
  }
  EXPECT_EQ(cache.stats().hits, hits0 + 2);
  EXPECT_EQ(cache.stats().misses, misses0 + 6);
  EXPECT_EQ(cache.stats().batched_reads, 8u);

  // Everything is cached now: a second batch is all hits.
  ASSERT_TRUE(cache.ReadBatch(blocks, 8, out.data()).ok());
  EXPECT_EQ(cache.stats().hits, hits0 + 10);
  EXPECT_EQ(cache.stats().misses, misses0 + 6);
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
    EXPECT_EQ(cache.stats().batched_writes, 3u);
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

  CacheStats ls = loop_cache.stats(), bs = batch_cache.stats();
  EXPECT_EQ(ls.hits, bs.hits);
  EXPECT_EQ(ls.misses, bs.misses);
  EXPECT_EQ(ls.evictions, bs.evictions);
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

TEST(BufferCacheTest, PrefetchPopulatesAndCountsHits) {
  MemBlockDevice dev(512, 64);
  std::vector<uint8_t> data = Pattern(512, 3);
  for (uint64_t b = 8; b < 12; ++b) {
    ASSERT_TRUE(dev.WriteBlock(b, data.data()).ok());
  }
  BufferCache cache(&dev, 16);
  concurrency::ThreadPool pool(1);
  cache.SetPrefetchPool(&pool);

  uint64_t blocks[4] = {8, 9, 10, 11};
  cache.Prefetch(blocks, 4);
  pool.WaitIdle();
  EXPECT_EQ(cache.stats().prefetched, 4u);
  EXPECT_EQ(cache.stats().prefetch_hits, 0u);
  EXPECT_EQ(cache.size(), 4u);

  // Demand reads claim the prefetched entries: hits, and prefetch_hits.
  std::vector<uint8_t> out(512);
  ASSERT_TRUE(cache.Read(9, out.data()).ok());
  EXPECT_EQ(out, data);
  ASSERT_TRUE(cache.Read(10, out.data()).ok());
  EXPECT_EQ(cache.stats().hits, 2u);
  EXPECT_EQ(cache.stats().misses, 0u);
  EXPECT_EQ(cache.stats().prefetch_hits, 2u);
  // A re-read of a claimed entry is a plain hit, not a prefetch hit.
  ASSERT_TRUE(cache.Read(9, out.data()).ok());
  EXPECT_EQ(cache.stats().prefetch_hits, 2u);

  // Prefetching cached or out-of-range blocks is a harmless no-op.
  uint64_t mixed[3] = {9, 1000000, 11};
  cache.Prefetch(mixed, 3);
  pool.WaitIdle();
  EXPECT_EQ(cache.stats().prefetched, 4u);
  cache.SetPrefetchPool(nullptr);
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

// --- async data path ----------------------------------------------------

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
  IoTicket SubmitWrite(std::vector<ConstBlockIoVec> iov,
                       IoCompletionFn done) override {
    Status s = base_->WriteBlocks(iov.data(), iov.size());
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
  AsyncIoStats stats() const override { return {}; }

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

TEST(BufferCacheAsyncTest, ReadBatchAsyncMatchesSyncResults) {
  MemBlockDevice dev(512, 32);
  std::vector<std::vector<uint8_t>> patterns;
  for (uint64_t b = 0; b < 8; ++b) {
    patterns.push_back(Pattern(512, static_cast<uint8_t>(b + 1)));
    ASSERT_TRUE(dev.WriteBlock(b, patterns.back().data()).ok());
  }
  BufferCache cache(&dev, 16);
  ThreadPoolAsyncDevice engine(&dev, 2);
  cache.SetAsyncEngine(&engine);

  // Warm two blocks, then batch hits + misses + a duplicate.
  std::vector<uint8_t> one(512);
  ASSERT_TRUE(cache.Read(2, one.data()).ok());
  ASSERT_TRUE(cache.Read(5, one.data()).ok());
  uint64_t hits0 = cache.stats().hits, misses0 = cache.stats().misses;

  uint64_t blocks[9] = {0, 1, 2, 3, 4, 5, 6, 7, 3};  // 3 twice
  std::vector<uint8_t> out(9 * 512);
  ASSERT_TRUE(cache.ReadBatchAsync(blocks, 9, out.data()).Wait().ok());
  for (size_t i = 0; i < 9; ++i) {
    EXPECT_EQ(std::memcmp(out.data() + i * 512, patterns[blocks[i]].data(),
                          512),
              0)
        << "position " << i;
  }
  // 2 warm hits + 1 duplicate hit; 6 distinct misses (sync parity).
  EXPECT_EQ(cache.stats().hits, hits0 + 3);
  EXPECT_EQ(cache.stats().misses, misses0 + 6);
  EXPECT_EQ(cache.stats().async_batched_reads, 9u);
  EXPECT_EQ(cache.size(), 8u);  // misses inserted by the completion

  // Everything cached: all hits, no engine involvement needed.
  ASSERT_TRUE(cache.ReadBatchAsync(blocks, 9, out.data()).Wait().ok());
  EXPECT_EQ(cache.stats().misses, misses0 + 6);
  cache.SetAsyncEngine(nullptr);
}

TEST(BufferCacheAsyncTest, WriteBatchAsyncWriteThroughRoundTrips) {
  MemBlockDevice dev(512, 32);
  BufferCache cache(&dev, 16, WritePolicy::kWriteThrough);
  ThreadPoolAsyncDevice engine(&dev, 2);
  cache.SetAsyncEngine(&engine);

  uint64_t blocks[3] = {9, 4, 17};
  std::vector<uint8_t> data(3 * 512);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<uint8_t>(i * 13);
  }
  ASSERT_TRUE(cache.WriteBatchAsync(blocks, 3, data.data()).Wait().ok());
  EXPECT_EQ(cache.stats().async_batched_writes, 3u);

  // Device has the bytes (write-through) and so does the cache.
  std::vector<uint8_t> raw(512);
  ASSERT_TRUE(dev.ReadBlock(4, raw.data()).ok());
  EXPECT_EQ(std::memcmp(raw.data(), data.data() + 512, 512), 0);
  std::vector<uint8_t> out(3 * 512);
  ASSERT_TRUE(cache.ReadBatch(blocks, 3, out.data()).ok());
  EXPECT_EQ(out, data);
  cache.SetAsyncEngine(nullptr);
}

// The PR 3 write-through contract on the async path: a mid-batch device
// fault invalidates exactly the failed group's entries — the cache never
// serves bytes older than the device — and other entries survive.
TEST(BufferCacheAsyncTest, AsyncWriteFaultInvalidatesExactlyTheGroup) {
  test::FaultyDevice dev(512, 64);
  // One shard so "the group" is the whole batch and the test is exact.
  BufferCache cache(&dev, 16, WritePolicy::kWriteThrough, 1);
  ThreadPoolAsyncDevice engine(&dev, 1);
  cache.SetAsyncEngine(&engine);

  // Warm entries 0..3 (old bytes) plus an unrelated entry 20.
  std::vector<uint8_t> old_data = Pattern(512, 1);
  for (uint64_t b = 0; b < 4; ++b) {
    ASSERT_TRUE(cache.Write(b, old_data.data()).ok());
  }
  std::vector<uint8_t> other = Pattern(512, 50);
  ASSERT_TRUE(cache.Write(20, other.data()).ok());
  ASSERT_EQ(cache.size(), 5u);

  // Fault mid-batch: an unknown prefix of the new bytes lands on the
  // device, then the batch fails.
  dev.FailWrites(/*after=*/2);
  uint64_t blocks[4] = {0, 1, 2, 3};
  std::vector<uint8_t> new_data(4 * 512);
  for (size_t i = 0; i < new_data.size(); ++i) {
    new_data[i] = static_cast<uint8_t>(i * 3 + 1);
  }
  EXPECT_FALSE(
      cache.WriteBatchAsync(blocks, 4, new_data.data()).Wait().ok());
  dev.Heal();

  // Exactly the group is gone; the unrelated entry survives.
  EXPECT_EQ(cache.size(), 1u);
  std::vector<uint8_t> out(512);
  uint64_t misses0 = cache.stats().misses;
  ASSERT_TRUE(cache.Read(20, out.data()).ok());
  EXPECT_EQ(out, other);
  EXPECT_EQ(cache.stats().misses, misses0);  // still cached

  // Reads of the group now come from the device — whatever prefix landed
  // there is what the cache serves, never the stale pre-fault entries.
  for (uint64_t b = 0; b < 4; ++b) {
    ASSERT_TRUE(cache.Read(b, out.data()).ok());
    ASSERT_TRUE(dev.inner()->ReadBlock(b, old_data.data()).ok());
    EXPECT_EQ(std::memcmp(out.data(), old_data.data(), 512), 0)
        << "block " << b << " differs from the device";
  }
  cache.SetAsyncEngine(nullptr);
}

// Generation guard: a write that lands while an async miss read is in
// flight must prevent the read's (stale) bytes from being inserted.
TEST(BufferCacheAsyncTest, RacedWriteBeatsInFlightReadInsert) {
  MemBlockDevice dev(512, 32);
  std::vector<uint8_t> old_bytes = Pattern(512, 1);
  ASSERT_TRUE(dev.WriteBlock(7, old_bytes.data()).ok());
  BufferCache cache(&dev, 8, WritePolicy::kWriteThrough, 1);
  ManualAsyncDevice engine(&dev);
  cache.SetAsyncEngine(&engine);

  uint64_t blocks[1] = {7};
  std::vector<uint8_t> out(512);
  CacheIoTicket t = cache.ReadBatchAsync(blocks, 1, out.data());
  // The engine has read the OLD bytes; before completion, new bytes land.
  std::vector<uint8_t> new_bytes = Pattern(512, 99);
  ASSERT_TRUE(cache.Write(7, new_bytes.data()).ok());
  engine.Release();
  ASSERT_TRUE(t.Wait().ok());
  // The caller legally observes the old bytes (its read began first)...
  EXPECT_EQ(out, old_bytes);
  // ...but the cache must keep serving the newer write.
  ASSERT_TRUE(cache.Read(7, out.data()).ok());
  EXPECT_EQ(out, new_bytes);
  ASSERT_TRUE(dev.ReadBlock(7, out.data()).ok());
  EXPECT_EQ(out, new_bytes);
  cache.SetAsyncEngine(nullptr);
}

// Same ordering on the write side: if a second write to the SAME block
// lands while an async write is in flight, the completion must not
// resurrect the first write's bytes into the cache.
TEST(BufferCacheAsyncTest, RacedWriteSupersedesInFlightWriteReplay) {
  MemBlockDevice dev(512, 32);
  BufferCache cache(&dev, 8, WritePolicy::kWriteThrough, 1);
  ManualAsyncDevice engine(&dev);
  cache.SetAsyncEngine(&engine);

  uint64_t blocks[1] = {3};
  std::vector<uint8_t> first = Pattern(512, 10);
  CacheIoTicket t = cache.WriteBatchAsync(blocks, 1, first.data());
  // A racing sync write supersedes the in-flight one (newer write_seq).
  std::vector<uint8_t> second = Pattern(512, 20);
  ASSERT_TRUE(cache.Write(3, second.data()).ok());
  engine.Release();
  ASSERT_TRUE(t.Wait().ok());
  // The completion kept the newer entry; cache and device agree on the
  // last write.
  std::vector<uint8_t> out(512);
  ASSERT_TRUE(cache.Read(3, out.data()).ok());
  EXPECT_EQ(out, second);
  std::vector<uint8_t> raw(512);
  ASSERT_TRUE(dev.ReadBlock(3, raw.data()).ok());
  EXPECT_EQ(out, raw);
  cache.SetAsyncEngine(nullptr);
}

// Regression: a pipelined write's sibling sub-batches (disjoint blocks,
// same shard, overlapping flights) must ALL cache their groups — the
// write ordering is per block, not per shard, so siblings don't
// invalidate each other.
TEST(BufferCacheAsyncTest, OverlappingSiblingWriteBatchesAllStayCached) {
  MemBlockDevice dev(512, 64);
  BufferCache cache(&dev, 32, WritePolicy::kWriteThrough, 1);
  ManualAsyncDevice engine(&dev);
  cache.SetAsyncEngine(&engine);

  // Three overlapping sub-batches, as EncryptedBlockStore's pipeline
  // submits them: all in flight together, completing in order.
  uint64_t g1[4] = {0, 1, 2, 3};
  uint64_t g2[4] = {10, 11, 12, 13};
  uint64_t g3[4] = {20, 21, 22, 23};
  std::vector<uint8_t> d1(4 * 512), d2(4 * 512), d3(4 * 512);
  for (size_t i = 0; i < d1.size(); ++i) {
    d1[i] = 1;
    d2[i] = 2;
    d3[i] = 3;
  }
  CacheIoTicket t1 = cache.WriteBatchAsync(g1, 4, d1.data());
  CacheIoTicket t2 = cache.WriteBatchAsync(g2, 4, d2.data());
  CacheIoTicket t3 = cache.WriteBatchAsync(g3, 4, d3.data());
  engine.Release();
  ASSERT_TRUE(t1.Wait().ok());
  ASSERT_TRUE(t2.Wait().ok());
  ASSERT_TRUE(t3.Wait().ok());

  // Every group is cached: re-reads are pure hits.
  EXPECT_EQ(cache.size(), 12u);
  uint64_t misses0 = cache.stats().misses;
  std::vector<uint8_t> out(4 * 512);
  ASSERT_TRUE(cache.ReadBatch(g1, 4, out.data()).ok());
  EXPECT_EQ(out, d1);
  ASSERT_TRUE(cache.ReadBatch(g2, 4, out.data()).ok());
  EXPECT_EQ(out, d2);
  ASSERT_TRUE(cache.ReadBatch(g3, 4, out.data()).ok());
  EXPECT_EQ(out, d3);
  EXPECT_EQ(cache.stats().misses, misses0);
  cache.SetAsyncEngine(nullptr);
}

TEST(BufferCacheAsyncTest, PrefetchIsAPureSubmitterWithEngine) {
  MemBlockDevice dev(512, 64);
  std::vector<uint8_t> data = Pattern(512, 3);
  for (uint64_t b = 8; b < 12; ++b) {
    ASSERT_TRUE(dev.WriteBlock(b, data.data()).ok());
  }
  BufferCache cache(&dev, 16);
  ThreadPoolAsyncDevice engine(&dev, 2);
  cache.SetAsyncEngine(&engine);
  // Deliberately NO prefetch pool: the engine is the whole mechanism.

  uint64_t blocks[4] = {8, 9, 10, 11};
  cache.Prefetch(blocks, 4);
  engine.Drain();
  EXPECT_EQ(cache.stats().prefetched, 4u);
  EXPECT_EQ(cache.size(), 4u);

  std::vector<uint8_t> out(512);
  ASSERT_TRUE(cache.Read(9, out.data()).ok());
  EXPECT_EQ(out, data);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().prefetch_hits, 1u);

  // Out-of-range and already-cached blocks stay harmless no-ops.
  uint64_t mixed[3] = {9, 1000000, 11};
  cache.Prefetch(mixed, 3);
  engine.Drain();
  EXPECT_EQ(cache.stats().prefetched, 4u);
  cache.SetAsyncEngine(nullptr);
}

// Concurrent demand traffic against async batches (the TSan job runs
// this): no lost updates, no double completions, consistent bytes.
TEST(BufferCacheAsyncTest, ConcurrentAsyncBatchesUnderContention) {
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
        if (!cache.ReadBatchAsync(blocks.data(), 16, out.data())
                 .Wait()
                 .ok()) {
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
  const CacheStats before = cache.stats();

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

  const CacheStats after = cache.stats();
  EXPECT_EQ(after.hits, before.hits);
  EXPECT_EQ(after.misses, before.misses);
  EXPECT_EQ(after.evictions, before.evictions);
  EXPECT_EQ(after.writebacks, before.writebacks);
  EXPECT_EQ(cache.size(), 256u);
  EXPECT_EQ(cache.dirty_count(), 1u);

  // LRU order unchanged: 128 fresh blocks evict exactly 0 .. 127 (had the
  // probe touched the even blocks, the odd ones would have gone first).
  for (uint64_t b = 5000; b < 5128; ++b) {
    ASSERT_TRUE(cache.Read(b, buf.data()).ok());
  }
  EXPECT_EQ(cache.stats().evictions, before.evictions + 128);
  EXPECT_EQ(cache.stats().writebacks, before.writebacks + 1);  // block 7
  const uint64_t misses = cache.stats().misses;
  for (uint64_t b = 128; b < 256; ++b) {
    ASSERT_TRUE(cache.Read(b, buf.data()).ok());
  }
  EXPECT_EQ(cache.stats().misses, misses);
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
  uint64_t wb = cache.stats().writebacks;
  ASSERT_TRUE(cache.Flush().ok());
  EXPECT_EQ(cache.stats().writebacks, wb);  // nothing dirty the second time
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

}  // namespace
}  // namespace stegfs
