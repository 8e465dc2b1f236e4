// EncryptedBlockStore's fan-out path against its inserting path: extents
// of more than kFanOutThreshold blocks read and write past the cache in
// chunks that the caller and the engine's workers claim. The plaintext,
// the device image and the cache contents must be exactly what the
// engineless store produces under both write policies; a large read or
// write must leave the cache's entries and LRU order as it found them
// (a write refreshes and cleans the entries it hits) and count every
// position; a failed chunk must return its error with no task left
// writing the caller's buffer, and a failed write drops exactly its
// group's entries.
#include "fs/block_store.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <future>
#include <memory>
#include <thread>
#include <unordered_set>
#include <vector>

#include "blockdev/mem_block_device.h"
#include "blockdev/thread_pool_async_device.h"
#include "core/stegfs.h"
#include "fault/fault_injection_device.h"
#include "obs/metrics.h"
#include "test_device.h"
#include "util/random.h"  // Xoshiro

namespace stegfs {
namespace {

constexpr uint32_t kBs = 512;
constexpr uint64_t kBlocks = 1024;
constexpr size_t kN = 200;  // > kFanOutThreshold: fans out
static_assert(kN > EncryptedBlockStore::kFanOutThreshold);

void FillRandom(MemBlockDevice* dev, uint64_t seed) {
  Xoshiro rng(seed);
  for (uint8_t& b : *dev->mutable_raw()) {
    b = static_cast<uint8_t>(rng.Next());
  }
}

// `n` blocks of seeded random plaintext.
std::vector<uint8_t> RandomPlain(size_t n, uint64_t seed) {
  std::vector<uint8_t> data(n * kBs);
  Xoshiro rng(seed);
  for (uint8_t& b : data) b = static_cast<uint8_t>(rng.Next());
  return data;
}

// kN request positions over ~150 distinct blocks: every fourth position
// repeats an earlier block, the rest are spread over the volume.
std::vector<uint64_t> RequestWithDuplicates() {
  std::vector<uint64_t> blocks(kN);
  for (size_t i = 0; i < kN; ++i) {
    blocks[i] = (i % 4 == 3) ? blocks[i / 2] : (i * 37 + 11) % kBlocks;
  }
  return blocks;
}

std::vector<uint64_t> DistinctRequest() {
  std::vector<uint64_t> blocks(kN);
  for (size_t i = 0; i < kN; ++i) blocks[i] = (i * 53 + 7) % kBlocks;
  return blocks;
}

// One cache + store over its own device, with or without an engine.
struct Stack {
  Stack(BlockDevice* dev, WritePolicy policy, size_t shards,
        const crypto::BlockCrypter* crypter, bool with_engine,
        size_t capacity = 512)
      : cache(dev, capacity, policy, shards), store(&cache, crypter) {
    if (with_engine) {
      engine = std::make_unique<ThreadPoolAsyncDevice>(dev, 2);
      cache.SetAsyncEngine(engine.get());
    }
  }
  ~Stack() {
    if (engine != nullptr) {
      engine->Drain();
      cache.SetAsyncEngine(nullptr);
    }
  }

  BufferCache cache;
  EncryptedBlockStore store;
  std::unique_ptr<ThreadPoolAsyncDevice> engine;
};

// Expects the current bytes of every block in `blocks`, as the cache
// serves them, to be the device's; returns how many the cache held.
size_t ExpectCacheMatchesDevice(BufferCache* cache, MemBlockDevice* dev,
                                const std::vector<uint64_t>& blocks) {
  std::vector<uint8_t> probed(blocks.size() * kBs);
  size_t hits = 0;
  EXPECT_TRUE(
      cache->ProbeBatch(blocks.data(), blocks.size(), probed.data(), &hits)
          .ok());
  for (size_t i = 0; i < blocks.size(); ++i) {
    EXPECT_EQ(std::memcmp(probed.data() + i * kBs,
                          dev->raw().data() + blocks[i] * kBs, kBs),
              0)
        << "cache entry of block " << blocks[i] << " is not the device's";
  }
  return hits;
}

// The plaintext of `blocks[i]` as the device holds it, for each i.
void ExpectDecryptsDevice(const crypto::BlockCrypter& crypter,
                          const MemBlockDevice& dev,
                          const std::vector<uint64_t>& blocks,
                          const uint8_t* out) {
  for (size_t i = 0; i < blocks.size(); ++i) {
    std::vector<uint8_t> plain(dev.raw().data() + blocks[i] * kBs,
                               dev.raw().data() + (blocks[i] + 1) * kBs);
    crypter.DecryptBlock(blocks[i], plain.data(), kBs);
    EXPECT_EQ(std::memcmp(out + i * kBs, plain.data(), kBs), 0)
        << "position " << i;
  }
}

struct Config {
  WritePolicy policy;
  size_t shards;
};

class EnginePathTest : public ::testing::TestWithParam<Config> {};

TEST_P(EnginePathTest, ReadsMatchSyncPathOverHitsMissesAndDuplicates) {
  const Config cfg = GetParam();
  crypto::BlockCrypter crypter("block-store-test-key");
  MemBlockDevice sync_dev(kBs, kBlocks), async_dev(kBs, kBlocks);
  FillRandom(&sync_dev, 7);
  FillRandom(&async_dev, 7);
  Stack sync(&sync_dev, cfg.policy, cfg.shards, &crypter, false);
  Stack async(&async_dev, cfg.policy, cfg.shards, &crypter, true);

  const std::vector<uint64_t> blocks = RequestWithDuplicates();
  // Warm both caches the same way: demand-read hits on every fifth
  // request position, prefetched hits on every seventh.
  std::vector<uint8_t> one(kBs);
  std::vector<uint64_t> prefetch;
  for (size_t i = 0; i < kN; ++i) {
    if (i % 5 == 0) {
      ASSERT_TRUE(sync.cache.Read(blocks[i], one.data()).ok());
      ASSERT_TRUE(async.cache.Read(blocks[i], one.data()).ok());
    } else if (i % 7 == 1) {
      prefetch.push_back(blocks[i]);
    }
  }
  async.cache.Prefetch(prefetch.data(), prefetch.size());
  async.engine->Drain();
  ASSERT_GT(async.cache.metrics().prefetched.value(), 0u);

  const size_t sync_cached = sync.cache.size();
  const size_t async_cached = async.cache.size();
  ASSERT_EQ(async_cached,
            sync_cached + async.cache.metrics().prefetched.value());
  const uint64_t hits0 = async.cache.metrics().hits.value();
  const uint64_t misses0 = async.cache.metrics().misses.value();

  std::vector<uint8_t> want(kN * kBs), got(kN * kBs);
  ASSERT_TRUE(sync.store.ReadBlocks(blocks.data(), kN, want.data()).ok());
  ASSERT_TRUE(async.store.ReadBlocks(blocks.data(), kN, got.data()).ok());
  EXPECT_EQ(got, want);
  // Every position counted once, and every prefetched entry the read
  // touched claimed.
  EXPECT_EQ(async.cache.metrics().hits.value() - hits0 +
                async.cache.metrics().misses.value() - misses0,
            kN);
  EXPECT_EQ(async.cache.metrics().prefetch_hits.value(),
            async.cache.metrics().prefetched.value());

  // The plaintext is the device ciphertext decrypted, position by position.
  for (size_t i = 0; i < kN; ++i) {
    std::vector<uint8_t> plain(async_dev.raw().data() + blocks[i] * kBs,
                               async_dev.raw().data() + (blocks[i] + 1) * kBs);
    crypter.DecryptBlock(blocks[i], plain.data(), kBs);
    EXPECT_EQ(std::memcmp(got.data() + i * kBs, plain.data(), kBs), 0)
        << "position " << i;
  }
  EXPECT_EQ(async_dev.raw(), sync_dev.raw());
  // Neither read inserted a block: the caches hold what the warm-up put
  // there, as ciphertext.
  EXPECT_EQ(sync.cache.size(), sync_cached);
  EXPECT_EQ(async.cache.size(), async_cached);
  ExpectCacheMatchesDevice(&async.cache, &async_dev, blocks);
}

TEST_P(EnginePathTest, WritesMatchSyncPathImageAndCache) {
  const Config cfg = GetParam();
  crypto::BlockCrypter crypter("block-store-test-key");
  const std::vector<uint64_t> blocks = DistinctRequest();
  MemBlockDevice sync_dev(kBs, kBlocks), async_dev(kBs, kBlocks);
  FillRandom(&sync_dev, 11);
  FillRandom(&async_dev, 11);
  Stack sync(&sync_dev, cfg.policy, cfg.shards, &crypter, false);
  Stack async(&async_dev, cfg.policy, cfg.shards, &crypter, true);

  // Warm both caches the same way: clean entries on every fifth request
  // position, entries written (dirty under write-back) on every seventh.
  std::vector<uint8_t> one(kBs, 0x5C);
  for (size_t i = 0; i < kN; ++i) {
    for (Stack* st : {&sync, &async}) {
      if (i % 5 == 0) {
        ASSERT_TRUE(st->cache.Read(blocks[i], one.data()).ok());
      } else if (i % 7 == 1) {
        ASSERT_TRUE(st->cache.Write(blocks[i], one.data()).ok());
      }
    }
  }
  const size_t cached = sync.cache.size();
  ASSERT_EQ(async.cache.size(), cached);

  std::vector<uint8_t> data = RandomPlain(kN, 3);
  const std::vector<uint8_t> plaintext = data;
  ASSERT_TRUE(sync.store.WriteBlocks(blocks.data(), kN, data.data()).ok());
  ASSERT_TRUE(async.store.WriteBlocks(blocks.data(), kN, data.data()).ok());
  EXPECT_EQ(data, plaintext) << "the caller's plaintext was modified";

  // Under either policy the write went through: the devices already hold
  // the same image, the warmed entries hold its bytes and are clean, and
  // nothing was inserted.
  EXPECT_EQ(async_dev.raw(), sync_dev.raw());
  for (Stack* st : {&sync, &async}) {
    EXPECT_EQ(st->cache.size(), cached);
    EXPECT_EQ(st->cache.dirty_count(), 0u);
  }
  EXPECT_EQ(ExpectCacheMatchesDevice(&async.cache, &async_dev, blocks),
            cached);

  // The device holds ciphertext that decrypts to the write.
  std::vector<uint8_t> back(kN * kBs);
  ASSERT_TRUE(async.store.ReadBlocks(blocks.data(), kN, back.data()).ok());
  EXPECT_EQ(back, plaintext);
  ExpectDecryptsDevice(crypter, async_dev, blocks, plaintext.data());
  for (size_t i = 0; i < kN; ++i) {
    EXPECT_NE(std::memcmp(async_dev.raw().data() + blocks[i] * kBs,
                          plaintext.data() + i * kBs, kBs),
              0)
        << "block " << blocks[i] << " reached the device in plaintext";
  }
}

INSTANTIATE_TEST_SUITE_P(
    PoliciesAndShards, EnginePathTest,
    ::testing::Values(Config{WritePolicy::kWriteBack, 1},
                      Config{WritePolicy::kWriteBack, 4},
                      Config{WritePolicy::kWriteThrough, 1},
                      Config{WritePolicy::kWriteThrough, 4}),
    [](const ::testing::TestParamInfo<Config>& info) {
      return std::string(info.param.policy == WritePolicy::kWriteBack
                             ? "WriteBack"
                             : "WriteThrough") +
             std::to_string(info.param.shards) + "Shards";
    });

// A failed chunk returns its error, and once ReadBlocks returns no task
// writes the caller's buffer any more: not the chunks slowed down behind
// the failure, not their decrypts. The buffer is refilled with a sentinel
// after the call and must keep it; then it is freed, so under ASan a late
// write would also be a heap-use-after-free.
TEST(EnginePathFaultTest, FailedChunkReturnsErrorAndLeavesBufferAlone) {
  crypto::BlockCrypter crypter("block-store-test-key");
  // Fail the first chunk's first block, then the last chunk's last one.
  for (uint64_t failing : {uint64_t{0}, uint64_t{kN - 1}}) {
    fault::FaultInjectionBlockDevice dev(kBs, kBlocks);
    FillRandom(dev.mem(), 5);
    BufferCache cache(&dev, 512, WritePolicy::kWriteThrough, 4);
    ThreadPoolAsyncDevice engine(&dev, 2);
    cache.SetAsyncEngine(&engine);
    EncryptedBlockStore store(&cache, &crypter);

    fault::FaultRule fail;
    fail.op = fault::FaultRule::Op::kRead;
    fail.kind = fault::FaultRule::Kind::kUntaggedError;
    fail.count = fault::FaultRule::kForever;
    fail.block_lo = fail.block_hi = failing;
    dev.AddRule(fail);
    fault::FaultRule slow;
    slow.op = fault::FaultRule::Op::kRead;
    slow.kind = fault::FaultRule::Kind::kLatencySpike;
    slow.count = fault::FaultRule::kForever;
    slow.block_lo = 64;
    slow.block_hi = 127;
    slow.delay_us = 300;
    dev.AddRule(slow);

    std::vector<uint64_t> blocks(kN);
    for (size_t i = 0; i < kN; ++i) blocks[i] = i;
    auto out = std::make_unique<std::vector<uint8_t>>(kN * kBs);
    EXPECT_TRUE(store.ReadBlocks(blocks.data(), kN, out->data()).IsIOError())
        << "failing block " << failing;
    std::memset(out->data(), 0xA5, out->size());
    engine.Drain();
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    for (size_t i = 0; i < out->size(); ++i) {
      ASSERT_EQ((*out)[i], 0xA5) << "byte " << i << " written after return";
    }
    out.reset();
    engine.Drain();
    cache.SetAsyncEngine(nullptr);
  }
}

TEST(EngineWorkerTest, OnWorkerThreadOnlyInsideEngineTasks) {
  MemBlockDevice dev(kBs, 16);
  ThreadPoolAsyncDevice engine(&dev, 2);
  EXPECT_EQ(engine.workers(), 2u);
  EXPECT_FALSE(engine.OnWorkerThread());
  std::promise<bool> inside;
  engine.SubmitTask([&] { inside.set_value(engine.OnWorkerThread()); });
  EXPECT_TRUE(inside.get_future().get());
  // Another engine's worker is not this engine's.
  ThreadPoolAsyncDevice other(&dev, 1);
  std::promise<bool> foreign;
  other.SubmitTask([&] { foreign.set_value(engine.OnWorkerThread()); });
  EXPECT_FALSE(foreign.get_future().get());
}

// On a mounted volume the engine carries no demand transfer: a hidden
// write of more than kFanOutThreshold blocks encrypts on the engine's
// workers but submits nothing to the engine, and leaves the image a kSync
// mount leaves, under both write policies.
TEST(EngineMountTest, HiddenWritesSubmitNothingAndMatchTheSyncImage) {
  const std::string data = [] {
    std::string d(150 * 1024, '\0');  // 150 blocks: fans out
    Xoshiro rng(9);
    for (char& c : d) c = static_cast<char>(rng.Next());
    return d;
  }();
  for (WritePolicy policy :
       {WritePolicy::kWriteBack, WritePolicy::kWriteThrough}) {
    auto image = [&](IoEngine engine) {
      MemBlockDevice dev(1024, 8192);
      StegFormatOptions fmt;
      fmt.params.dummy_file_count = 2;
      fmt.params.dummy_file_avg_bytes = 8 << 10;
      fmt.entropy = "engine-mount-test";
      EXPECT_TRUE(StegFs::Format(&dev, fmt).ok());
      StegFsOptions opts;
      opts.mount.io_engine = engine;
      opts.mount.write_policy = policy;
      auto fs = StegFs::Mount(&dev, opts);
      EXPECT_TRUE(fs.ok()) << fs.status().ToString();
      if (!fs.ok()) return std::vector<uint8_t>();
      EXPECT_TRUE((*fs)->StegCreate("u", "big", "uak", HiddenType::kFile).ok());
      EXPECT_TRUE((*fs)->StegConnect("u", "big", "uak").ok());
      ThreadPoolAsyncDevice* io = (*fs)->plain()->io_engine();
      EXPECT_EQ(io != nullptr, engine == IoEngine::kAuto);
      const uint64_t before =
          io != nullptr ? io->metrics().submitted_blocks.value() : 0;
      EXPECT_TRUE((*fs)->HiddenWrite("u", "big", 0, data).ok());
      EXPECT_TRUE((*fs)->HiddenWrite("u", "big", 4096, data).ok());
      if (io != nullptr) {
        EXPECT_EQ(io->metrics().submitted_blocks.value(), before);
      }
      auto back = (*fs)->HiddenReadAll("u", "big");
      EXPECT_TRUE(back.ok());
      if (back.ok()) {
        EXPECT_EQ(back->substr(0, 4096), data.substr(0, 4096));
        EXPECT_EQ(back->substr(4096), data);
      }
      EXPECT_TRUE((*fs)->DisconnectAll("u").ok());
      EXPECT_TRUE((*fs)->Flush().ok());
      fs->reset();
      return dev.raw();
    };
    const std::vector<uint8_t> sync_image = image(IoEngine::kSync);
    const std::vector<uint8_t> engine_image = image(IoEngine::kAuto);
    ASSERT_FALSE(sync_image.empty());
    EXPECT_TRUE(engine_image == sync_image)
        << (policy == WritePolicy::kWriteBack ? "write-back"
                                              : "write-through");
  }
}

// A one-block write is the n = 1 case of WriteBlocks: its encrypt is
// counted and timed in the crypto instruments like any batch's, and the
// ciphertext is BlockCrypter::EncryptBlock's, so no byte on disk moves.
TEST(EncryptedStoreTest, OneBlockWriteCountsItsEncrypt) {
  crypto::BlockCrypter crypter("block-store-test-key");
  MemBlockDevice dev(kBs, kBlocks);
  BufferCache cache(&dev, 64, WritePolicy::kWriteThrough);
  EncryptedBlockStore store(&cache, &crypter);
  const obs::CryptoMetrics& cm = obs::GlobalCryptoMetrics();
  const uint64_t blocks0 = cm.blocks_encrypted.value();
  const uint64_t samples0 = cm.encrypt_ns.count();

  std::vector<uint8_t> plain(kBs);
  for (uint32_t i = 0; i < kBs; ++i) plain[i] = static_cast<uint8_t>(i * 7);
  ASSERT_TRUE(store.WriteBlock(17, plain.data()).ok());
  EXPECT_EQ(cm.blocks_encrypted.value() - blocks0, 1u);
  EXPECT_EQ(cm.encrypt_ns.count() - samples0, 1u);

  std::vector<uint8_t> want = plain;
  crypter.EncryptBlock(17, want.data(), kBs);
  EXPECT_EQ(std::memcmp(dev.raw().data() + 17 * kBs, want.data(), kBs), 0);
  std::vector<uint8_t> back(kBs);
  ASSERT_TRUE(store.ReadBlock(17, back.data()).ok());
  EXPECT_EQ(back, plain);
}

// A large read streams past the cache and a small one goes through it,
// with and without an engine: the path depends only on the extent's size.
class StreamPathTest : public ::testing::TestWithParam<bool> {};

TEST_P(StreamPathTest, LargeReadLeavesEntriesAndLruOrderAsTheyWere) {
  crypto::BlockCrypter crypter("block-store-test-key");
  MemBlockDevice dev(kBs, kBlocks);
  FillRandom(&dev, 21);
  // One shard, so the whole LRU order is observable through evictions.
  Stack stack(&dev, WritePolicy::kWriteBack, 1, &crypter, GetParam(),
              /*capacity=*/64);
  BufferCache& cache = stack.cache;
  std::vector<uint8_t> one(kBs);
  for (uint64_t b = 0; b < 64; ++b) {
    ASSERT_TRUE(cache.Read(b, one.data()).ok());  // LRU order 0 .. 63
  }
  const CacheMetrics& m = cache.metrics();
  const uint64_t hits0 = m.hits.value(), misses0 = m.misses.value();
  const uint64_t evictions0 = m.evictions.value();

  // kN positions: the 32 even cached blocks, then 168 uncached ones.
  std::vector<uint64_t> blocks;
  for (uint64_t b = 0; b < 64; b += 2) blocks.push_back(b);
  for (uint64_t b = 600; blocks.size() < kN; ++b) blocks.push_back(b);
  std::vector<uint8_t> out(kN * kBs);
  ASSERT_TRUE(stack.store.ReadBlocks(blocks.data(), kN, out.data()).ok());
  ExpectDecryptsDevice(crypter, dev, blocks, out.data());
  EXPECT_EQ(m.hits.value() - hits0, 32u);
  EXPECT_EQ(m.misses.value() - misses0, kN - 32);
  EXPECT_EQ(m.evictions.value(), evictions0);
  EXPECT_EQ(cache.size(), 64u);

  // LRU order unchanged: 32 fresh blocks evict exactly 0 .. 31 (had the
  // read touched the even blocks, the odd ones would have gone first).
  for (uint64_t b = 900; b < 932; ++b) {
    ASSERT_TRUE(cache.Read(b, one.data()).ok());
  }
  EXPECT_EQ(m.evictions.value(), evictions0 + 32);
  const uint64_t misses1 = m.misses.value();
  for (uint64_t b = 32; b < 64; ++b) {
    ASSERT_TRUE(cache.Read(b, one.data()).ok());
  }
  EXPECT_EQ(m.misses.value(), misses1);
}

TEST_P(StreamPathTest, SmallReadStillInsertsItsBlocks) {
  constexpr size_t kSmall = 16;
  static_assert(kSmall <= EncryptedBlockStore::kFanOutThreshold);
  crypto::BlockCrypter crypter("block-store-test-key");
  MemBlockDevice dev(kBs, kBlocks);
  FillRandom(&dev, 23);
  Stack stack(&dev, WritePolicy::kWriteBack, 1, &crypter, GetParam(),
              /*capacity=*/64);
  std::vector<uint64_t> blocks(kSmall);
  for (size_t i = 0; i < kSmall; ++i) blocks[i] = 100 + i * 3;
  std::vector<uint8_t> out(kSmall * kBs);
  ASSERT_TRUE(stack.store.ReadBlocks(blocks.data(), kSmall, out.data()).ok());
  ExpectDecryptsDevice(crypter, dev, blocks, out.data());
  const CacheMetrics& m = stack.cache.metrics();
  EXPECT_EQ(m.misses.value(), kSmall);
  EXPECT_EQ(stack.cache.size(), kSmall);
  // The re-read is all hits.
  ASSERT_TRUE(stack.store.ReadBlocks(blocks.data(), kSmall, out.data()).ok());
  EXPECT_EQ(m.hits.value(), kSmall);
  EXPECT_EQ(m.misses.value(), kSmall);
}

// A large write streams past the cache too: it writes through, refreshes
// the entries it hits, and inserts, evicts and reorders nothing.
TEST_P(StreamPathTest, LargeWriteLeavesEntriesAndLruOrderAsTheyWere) {
  crypto::BlockCrypter crypter("block-store-test-key");
  MemBlockDevice dev(kBs, kBlocks);
  FillRandom(&dev, 25);
  Stack stack(&dev, WritePolicy::kWriteBack, 1, &crypter, GetParam(),
              /*capacity=*/64);
  BufferCache& cache = stack.cache;
  std::vector<uint8_t> one(kBs);
  for (uint64_t b = 0; b < 64; ++b) {
    ASSERT_TRUE(cache.Read(b, one.data()).ok());  // LRU order 0 .. 63
  }
  const CacheMetrics& m = cache.metrics();
  const uint64_t hits0 = m.hits.value(), misses0 = m.misses.value();
  const uint64_t evictions0 = m.evictions.value();

  // kN positions: the 32 even cached blocks, then 168 uncached ones.
  std::vector<uint64_t> blocks;
  for (uint64_t b = 0; b < 64; b += 2) blocks.push_back(b);
  for (uint64_t b = 600; blocks.size() < kN; ++b) blocks.push_back(b);
  const std::vector<uint8_t> plain = RandomPlain(kN, 5);
  ASSERT_TRUE(stack.store.WriteBlocks(blocks.data(), kN, plain.data()).ok());
  ExpectDecryptsDevice(crypter, dev, blocks, plain.data());
  EXPECT_EQ(m.hits.value() - hits0, 32u);
  EXPECT_EQ(m.misses.value() - misses0, kN - 32);
  EXPECT_EQ(m.evictions.value(), evictions0);
  EXPECT_EQ(m.writebacks.value(), 0u);
  EXPECT_EQ(cache.size(), 64u);
  EXPECT_EQ(cache.dirty_count(), 0u);
  EXPECT_EQ(ExpectCacheMatchesDevice(&cache, &dev, blocks), 32u);

  // LRU order unchanged: 32 fresh blocks evict exactly 0 .. 31.
  for (uint64_t b = 900; b < 932; ++b) {
    ASSERT_TRUE(cache.Read(b, one.data()).ok());
  }
  EXPECT_EQ(m.evictions.value(), evictions0 + 32);
  const uint64_t misses1 = m.misses.value();
  for (uint64_t b = 32; b < 64; ++b) {
    ASSERT_TRUE(cache.Read(b, one.data()).ok());
  }
  EXPECT_EQ(m.misses.value(), misses1);
}

// A block cached dirty before a large write holds the write's bytes
// afterwards and is clean: the device has them now. Dirty blocks the
// write does not cover stay dirty.
TEST_P(StreamPathTest, LargeWriteCleansTheDirtyBlocksItRewrites) {
  crypto::BlockCrypter crypter("block-store-test-key");
  MemBlockDevice dev(kBs, kBlocks);
  FillRandom(&dev, 27);
  Stack stack(&dev, WritePolicy::kWriteBack, 1, &crypter, GetParam(),
              /*capacity=*/64);
  const std::vector<uint8_t> old_plain = RandomPlain(16, 8);
  std::vector<uint64_t> dirty(16);
  for (uint64_t b = 0; b < 16; ++b) dirty[b] = b;
  ASSERT_TRUE(stack.store.WriteBlocks(dirty.data(), 16, old_plain.data()).ok());
  ASSERT_EQ(stack.cache.dirty_count(), 16u);

  // kN positions: the 8 even dirty blocks, then 192 uncached ones.
  std::vector<uint64_t> blocks;
  for (uint64_t b = 0; b < 16; b += 2) blocks.push_back(b);
  for (uint64_t b = 600; blocks.size() < kN; ++b) blocks.push_back(b);
  const std::vector<uint8_t> plain = RandomPlain(kN, 9);
  ASSERT_TRUE(stack.store.WriteBlocks(blocks.data(), kN, plain.data()).ok());
  EXPECT_EQ(stack.cache.dirty_count(), 8u);
  EXPECT_EQ(stack.cache.size(), 16u);
  ExpectDecryptsDevice(crypter, dev, blocks, plain.data());
  EXPECT_EQ(ExpectCacheMatchesDevice(&stack.cache, &dev, blocks), 8u);
  std::vector<uint8_t> back(kN * kBs);
  ASSERT_TRUE(stack.store.ReadBlocks(blocks.data(), kN, back.data()).ok());
  EXPECT_EQ(back, plain);

  // The odd blocks kept their dirty bytes, which a flush writes back.
  ASSERT_TRUE(stack.cache.Flush().ok());
  EXPECT_EQ(stack.cache.dirty_count(), 0u);
  std::vector<uint8_t> want = old_plain;
  for (size_t i = 0; i < 16; i += 2) {
    std::memcpy(want.data() + i * kBs, plain.data() + (i / 2) * kBs, kBs);
  }
  ExpectDecryptsDevice(crypter, dev, dirty, want.data());
}

// A device error in one chunk drops that chunk's cached entries (one
// shard: the chunk is one shard group) and nothing else; the other chunks
// still run, and every entry left matches the device.
TEST_P(StreamPathTest, FailedWriteDropsTheFailingGroupsEntries) {
  crypto::BlockCrypter crypter("block-store-test-key");
  test::FaultyDevice dev(kBs, kBlocks);
  FillRandom(dev.inner(), 29);
  Stack stack(&dev, WritePolicy::kWriteBack, 1, &crypter, GetParam(),
              /*capacity=*/512);
  std::vector<uint64_t> blocks(kN);
  for (size_t i = 0; i < kN; ++i) blocks[i] = 300 + i;
  std::vector<uint8_t> cipher(kN * kBs);
  ASSERT_TRUE(stack.cache.ReadBatch(blocks.data(), kN, cipher.data()).ok());
  ASSERT_EQ(stack.cache.size(), kN);

  fault::FaultRule fail;
  fail.op = fault::FaultRule::Op::kWrite;
  fail.kind = fault::FaultRule::Kind::kUntaggedError;
  fail.count = fault::FaultRule::kForever;
  fail.block_lo = fail.block_hi = blocks[37];  // chunk 2: positions 32..47
  dev.AddRule(fail);
  const std::vector<uint8_t> plain = RandomPlain(kN, 10);
  EXPECT_TRUE(
      stack.store.WriteBlocks(blocks.data(), kN, plain.data()).IsIOError());
  dev.Heal();

  EXPECT_EQ(stack.cache.size(), kN - 16);
  EXPECT_EQ(ExpectCacheMatchesDevice(&stack.cache, dev.inner(), blocks),
            kN - 16);
  std::vector<uint64_t> done(blocks.begin(), blocks.begin() + 32);
  done.insert(done.end(), blocks.begin() + 48, blocks.end());
  std::vector<uint8_t> done_plain(plain.begin(), plain.begin() + 32 * kBs);
  done_plain.insert(done_plain.end(), plain.begin() + 48 * kBs, plain.end());
  ExpectDecryptsDevice(crypter, *dev.inner(), done, done_plain.data());
}

// A chunk holding a parked block (a journal transaction's held-back
// image) takes the inserting write: its blocks stay in the cache, dirty,
// and none reaches the device before the flush that follows unparking.
TEST_P(StreamPathTest, ParkedBlockTakesTheInsertingPath) {
  crypto::BlockCrypter crypter("block-store-test-key");
  MemBlockDevice dev(kBs, kBlocks);
  FillRandom(&dev, 31);
  Stack stack(&dev, WritePolicy::kWriteBack, 1, &crypter, GetParam(),
              /*capacity=*/512);
  std::vector<uint64_t> blocks(kN);
  for (size_t i = 0; i < kN; ++i) blocks[i] = 300 + i;
  stack.cache.ParkBlocks(std::make_shared<std::unordered_set<uint64_t>>(
      std::unordered_set<uint64_t>{blocks[5]}));
  const std::vector<uint8_t> before = dev.raw();
  const std::vector<uint8_t> plain = RandomPlain(kN, 12);
  ASSERT_TRUE(stack.store.WriteBlocks(blocks.data(), kN, plain.data()).ok());

  EXPECT_EQ(stack.cache.size(), 16u);  // chunk 0: positions 0 .. 15
  EXPECT_EQ(stack.cache.dirty_count(), 16u);
  for (size_t i = 0; i < 16; ++i) {
    EXPECT_EQ(std::memcmp(dev.raw().data() + blocks[i] * kBs,
                          before.data() + blocks[i] * kBs, kBs),
              0)
        << "block " << blocks[i] << " reached the device early";
  }
  std::vector<uint64_t> rest(blocks.begin() + 16, blocks.end());
  ExpectDecryptsDevice(crypter, dev, rest, plain.data() + 16 * kBs);

  stack.cache.ParkBlocks(nullptr);
  ASSERT_TRUE(stack.cache.Flush().ok());
  ExpectDecryptsDevice(crypter, dev, blocks, plain.data());
}

// A large write goes through under either policy, so both leave the same
// image before any flush.
TEST_P(StreamPathTest, LargeWriteImageIsTheSameUnderBothPolicies) {
  crypto::BlockCrypter crypter("block-store-test-key");
  const std::vector<uint64_t> blocks = DistinctRequest();
  const std::vector<uint8_t> plain = RandomPlain(kN, 14);
  std::vector<std::vector<uint8_t>> images;
  for (WritePolicy policy :
       {WritePolicy::kWriteBack, WritePolicy::kWriteThrough}) {
    MemBlockDevice dev(kBs, kBlocks);
    FillRandom(&dev, 33);
    Stack stack(&dev, policy, 4, &crypter, GetParam());
    ASSERT_TRUE(
        stack.store.WriteBlocks(blocks.data(), kN, plain.data()).ok());
    EXPECT_EQ(stack.cache.size(), 0u);
    images.push_back(dev.raw());
  }
  EXPECT_TRUE(images[0] == images[1]);
}

INSTANTIATE_TEST_SUITE_P(Engines, StreamPathTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Engine" : "NoEngine";
                         });

// A self-describing plaintext image: block, version, then a body derived
// from both, so a torn or misplaced block cannot pass for a version.
void StampPlain(uint64_t block, uint32_t version, uint8_t* p) {
  std::memset(p, static_cast<int>(block * 31 + version * 101), kBs);
  std::memcpy(p, &block, sizeof(block));
  std::memcpy(p + sizeof(block), &version, sizeof(version));
}

// Two threads stream large reads of one extent while a third rewrites its
// blocks through a cache small enough that the writes evict dirty victims
// (the TSan job runs this). Every block read is one version that was
// written, never older than the last write that returned before the read
// was issued, never newer than the last write begun before it returned.
TEST(StreamPathRaceTest, StreamReadsSeeWholeVersionsAndCompletedWrites) {
  constexpr size_t kExtent = 160;
  constexpr uint32_t kRounds = 200;
  crypto::BlockCrypter crypter("block-store-test-key");
  MemBlockDevice dev(kBs, kBlocks);
  Stack stack(&dev, WritePolicy::kWriteBack, 4, &crypter,
              /*with_engine=*/true, /*capacity=*/48);
  std::vector<uint64_t> extent(kExtent);
  for (size_t i = 0; i < kExtent; ++i) extent[i] = (i * 53 + 7) % kBlocks;
  {
    std::vector<uint8_t> v0(kExtent * kBs);
    for (size_t i = 0; i < kExtent; ++i) {
      StampPlain(extent[i], 0, v0.data() + i * kBs);
    }
    ASSERT_TRUE(
        stack.store.WriteBlocks(extent.data(), kExtent, v0.data()).ok());
  }
  // Per extent position: the last version whose write began / returned.
  std::vector<std::atomic<uint32_t>> begun(kExtent), returned(kExtent);
  std::atomic<bool> writing{true};
  std::atomic<int> errors{0};

  std::thread writer([&] {
    std::vector<uint8_t> buf(8 * kBs);
    std::vector<uint64_t> blocks(8);
    std::vector<size_t> pos(8);
    for (uint32_t v = 1; v <= kRounds; ++v) {
      for (size_t k = 0; k < 8; ++k) {
        pos[k] = (v * 29 + k * 20) % kExtent;
        blocks[k] = extent[pos[k]];
        StampPlain(blocks[k], v, buf.data() + k * kBs);
        begun[pos[k]].store(v);
      }
      if (!stack.store.WriteBlocks(blocks.data(), 8, buf.data()).ok()) {
        errors++;
      }
      for (size_t k = 0; k < 8; ++k) returned[pos[k]].store(v);
    }
    writing = false;
  });
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&] {
      std::vector<uint8_t> out(kExtent * kBs);
      std::vector<uint32_t> floor(kExtent);
      std::vector<uint8_t> want(kBs);
      for (int reads = 0; reads < 20 || writing.load(); ++reads) {
        for (size_t i = 0; i < kExtent; ++i) floor[i] = returned[i].load();
        if (!stack.store.ReadBlocks(extent.data(), kExtent, out.data())
                 .ok()) {
          errors++;
          continue;
        }
        for (size_t i = 0; i < kExtent; ++i) {
          uint32_t v;
          std::memcpy(&v, out.data() + i * kBs + sizeof(uint64_t),
                      sizeof(v));
          StampPlain(extent[i], v, want.data());
          if (std::memcmp(out.data() + i * kBs, want.data(), kBs) != 0 ||
              v < floor[i] || v > begun[i].load()) {
            errors++;
          }
        }
      }
    });
  }
  writer.join();
  for (std::thread& r : readers) r.join();
  EXPECT_EQ(errors.load(), 0);
  EXPECT_GT(stack.cache.metrics().writebacks.value(), 0u)
      << "no dirty eviction raced the reads";
}

// Two threads stream-write one extent while a third streams reads of it
// (the TSan job runs this). Each group's device write and entry refresh
// happen under one exclusive stripe, so every block read is one whole
// version a writer began, and at the end the cached entries equal the
// device, which holds one writer's last version of each block.
TEST(StreamPathRaceTest, ConcurrentLargeWritesLeaveWholeVersions) {
  constexpr uint32_t kRounds = 60;
  crypto::BlockCrypter crypter("block-store-test-key");
  MemBlockDevice dev(kBs, kBlocks);
  Stack stack(&dev, WritePolicy::kWriteBack, 4, &crypter,
              /*with_engine=*/true, /*capacity=*/48);
  const std::vector<uint64_t> extent = DistinctRequest();
  auto version = [&](uint32_t v) {
    std::vector<uint8_t> buf(kN * kBs);
    for (size_t i = 0; i < kN; ++i) {
      StampPlain(extent[i], v, buf.data() + i * kBs);
    }
    return buf;
  };
  ASSERT_TRUE(
      stack.store.WriteBlocks(extent.data(), kN, version(0).data()).ok());
  std::vector<uint8_t> one(kBs);
  for (size_t i = 0; i < kN; i += 5) {
    ASSERT_TRUE(stack.cache.Read(extent[i], one.data()).ok());
  }
  const size_t cached = stack.cache.size();
  ASSERT_GT(cached, 0u);

  // Writer t writes versions t + 1, t + 3, ...; begun[t] is its latest.
  std::atomic<uint32_t> begun[2] = {{0}, {0}};
  std::atomic<int> writing{2};
  std::atomic<int> errors{0};
  std::vector<std::thread> threads;
  for (uint32_t t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {
      for (uint32_t r = 0; r < kRounds; ++r) {
        const uint32_t v = 2 * r + t + 1;
        const std::vector<uint8_t> buf = version(v);
        begun[t].store(v);
        if (!stack.store.WriteBlocks(extent.data(), kN, buf.data()).ok()) {
          errors++;
        }
      }
      writing--;
    });
  }
  threads.emplace_back([&] {
    std::vector<uint8_t> out(kN * kBs), want(kBs);
    for (int reads = 0; reads < 10 || writing.load() > 0; ++reads) {
      if (!stack.store.ReadBlocks(extent.data(), kN, out.data()).ok()) {
        errors++;
        continue;
      }
      const uint32_t newest = std::max(begun[0].load(), begun[1].load());
      for (size_t i = 0; i < kN; ++i) {
        uint32_t v;
        std::memcpy(&v, out.data() + i * kBs + sizeof(uint64_t), sizeof(v));
        StampPlain(extent[i], v, want.data());
        if (std::memcmp(out.data() + i * kBs, want.data(), kBs) != 0 ||
            v > newest) {
          errors++;
        }
      }
    }
  });
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(errors.load(), 0);
  EXPECT_EQ(stack.cache.size(), cached);
  EXPECT_EQ(stack.cache.dirty_count(), 0u);
  EXPECT_EQ(ExpectCacheMatchesDevice(&stack.cache, &dev, extent), cached);
  std::vector<uint8_t> out(kN * kBs), want(kBs);
  ASSERT_TRUE(stack.store.ReadBlocks(extent.data(), kN, out.data()).ok());
  for (size_t i = 0; i < kN; ++i) {
    uint32_t v;
    std::memcpy(&v, out.data() + i * kBs + sizeof(uint64_t), sizeof(v));
    EXPECT_TRUE(v == 2 * kRounds - 1 || v == 2 * kRounds) << "block " << i;
    StampPlain(extent[i], v, want.data());
    EXPECT_EQ(std::memcmp(out.data() + i * kBs, want.data(), kBs), 0);
  }
}

#ifndef NDEBUG
// Debug builds refuse to fan out on an engine worker: its waits could
// block on tasks queued behind the waiting worker.
TEST(EngineWorkerDeathTest, EnginePathOnAWorkerAsserts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        crypto::BlockCrypter crypter("block-store-test-key");
        MemBlockDevice dev(kBs, kBlocks);
        BufferCache cache(&dev, 512);
        ThreadPoolAsyncDevice engine(&dev, 2);
        cache.SetAsyncEngine(&engine);
        EncryptedBlockStore store(&cache, &crypter);
        std::vector<uint64_t> blocks = DistinctRequest();
        std::vector<uint8_t> out(kN * kBs);
        engine.SubmitTask([&] {
          (void)store.ReadBlocks(blocks.data(), kN, out.data());
        });
        std::this_thread::sleep_for(std::chrono::seconds(10));
      },
      "OnWorkerThread");
}
#endif

}  // namespace
}  // namespace stegfs
