// FileIo + CoalescingStore: the byte-granular engine shared by plain,
// directory and hidden file I/O.
#include "fs/file_io.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "blockdev/mem_block_device.h"
#include "blockdev/sim_disk.h"
#include "core/stegfs.h"
#include "crypto/block_crypter.h"
#include "fs/bitmap.h"
#include "util/random.h"

namespace stegfs {
namespace {

class SeqAllocator : public BlockAllocator {
 public:
  SeqAllocator(BlockBitmap* bm) : bm_(bm) {}
  StatusOr<uint64_t> AllocateBlock() override {
    return bm_->AllocateByPolicy(AllocPolicy::kContiguous, nullptr);
  }
  Status FreeBlock(uint64_t block) override { return bm_->Free(block); }

 private:
  BlockBitmap* bm_;
};

class FileIoTest : public ::testing::Test {
 protected:
  FileIoTest()
      : layout_(Layout::Compute(512, 20000, 64)),
        dev_(layout_.block_size, layout_.num_blocks),
        cache_(&dev_, 256),
        store_(&cache_),
        bitmap_(layout_),
        alloc_(&bitmap_),
        io_(layout_.block_size) {
    inode_.type = InodeType::kFile;
  }

  std::string ReadAll() {
    std::string out;
    EXPECT_TRUE(io_.Read(inode_, 0, inode_.size, &store_, &out).ok());
    return out;
  }

  Layout layout_;
  MemBlockDevice dev_;
  BufferCache cache_;
  CacheBlockStore store_;
  BlockBitmap bitmap_;
  SeqAllocator alloc_;
  FileIo io_;
  Inode inode_;
  bool dirty_ = false;
};

TEST_F(FileIoTest, UnalignedWritesAcrossBlockBoundaries) {
  // Writes at odd offsets spanning block boundaries in odd sizes.
  Xoshiro rng(1);
  std::string expect(5000, '\0');
  for (int i = 0; i < 40; ++i) {
    uint64_t off = rng.Uniform(4000);
    uint64_t len = 1 + rng.Uniform(900);
    std::string chunk(len, static_cast<char>('a' + i % 26));
    ASSERT_TRUE(
        io_.Write(&inode_, off, chunk, &store_, &alloc_, &dirty_).ok());
    if (off + len > expect.size()) expect.resize(off + len, '\0');
    std::copy(chunk.begin(), chunk.end(), expect.begin() + off);
  }
  expect.resize(inode_.size);
  EXPECT_EQ(ReadAll(), expect);
}

TEST_F(FileIoTest, ReadPastEofClamps) {
  ASSERT_TRUE(io_.Write(&inode_, 0, "abc", &store_, &alloc_, &dirty_).ok());
  std::string out;
  ASSERT_TRUE(io_.Read(inode_, 1, 100, &store_, &out).ok());
  EXPECT_EQ(out, "bc");
  out.clear();
  ASSERT_TRUE(io_.Read(inode_, 50, 10, &store_, &out).ok());
  EXPECT_TRUE(out.empty());
}

TEST_F(FileIoTest, HolesReadAsZeros) {
  ASSERT_TRUE(
      io_.Write(&inode_, 3000, "tail", &store_, &alloc_, &dirty_).ok());
  std::string out;
  ASSERT_TRUE(io_.Read(inode_, 0, 3004, &store_, &out).ok());
  EXPECT_EQ(out.substr(0, 3000), std::string(3000, '\0'));
  EXPECT_EQ(out.substr(3000), "tail");
}

TEST_F(FileIoTest, TruncateGrowCreatesHole) {
  ASSERT_TRUE(io_.Write(&inode_, 0, "head", &store_, &alloc_, &dirty_).ok());
  ASSERT_TRUE(io_.Truncate(&inode_, 1000, &store_, &alloc_, &dirty_).ok());
  EXPECT_EQ(inode_.size, 1000u);
  std::string out = ReadAll();
  EXPECT_EQ(out.substr(0, 4), "head");
  EXPECT_EQ(out.substr(4), std::string(996, '\0'));
}

TEST_F(FileIoTest, WriteBeyondMaxRejected) {
  uint64_t max_bytes = io_.mapper()->MaxFileBlocks() * layout_.block_size;
  EXPECT_TRUE(io_.Write(&inode_, max_bytes, "x", &store_, &alloc_, &dirty_)
                  .IsInvalidArgument());
  // offset + size wrapping past 2^64 is still beyond the maximum.
  EXPECT_TRUE(io_.Write(&inode_, ~uint64_t{0} - 3, "12345678", &store_,
                        &alloc_, &dirty_)
                  .IsInvalidArgument());
}

TEST_F(FileIoTest, TruncateBeyondMaxRejected) {
  const uint64_t max_bytes =
      io_.mapper()->MaxFileBlocks() * layout_.block_size;
  ASSERT_TRUE(io_.Write(&inode_, 0, "head", &store_, &alloc_, &dirty_).ok());
  EXPECT_TRUE(io_.Truncate(&inode_, max_bytes + 4096, &store_, &alloc_,
                           &dirty_)
                  .IsInvalidArgument());
  EXPECT_TRUE(
      io_.Truncate(&inode_, max_bytes + 1, &store_, &alloc_, &dirty_)
          .IsInvalidArgument());
  EXPECT_EQ(inode_.size, 4u);
  // Growing to exactly the maximum is fine, and the tail reads as zeros.
  ASSERT_TRUE(
      io_.Truncate(&inode_, max_bytes, &store_, &alloc_, &dirty_).ok());
  std::string out;
  ASSERT_TRUE(io_.Read(inode_, max_bytes - 8, 64, &store_, &out).ok());
  EXPECT_EQ(out, std::string(8, '\0'));
}

TEST_F(FileIoTest, MtimeAdvancesOnMutation) {
  uint64_t t0 = inode_.mtime;
  ASSERT_TRUE(io_.Write(&inode_, 0, "x", &store_, &alloc_, &dirty_).ok());
  EXPECT_GT(inode_.mtime, t0);
  uint64_t t1 = inode_.mtime;
  ASSERT_TRUE(io_.Truncate(&inode_, 0, &store_, &alloc_, &dirty_).ok());
  EXPECT_GT(inode_.mtime, t1);
}

// The no-staging path: FileIo hands the store (block, buffer) lists that
// point straight into the caller's bytes, with only partial head and tail
// blocks bounced. Every read below is checked byte for byte against a
// model of the file, over a plain store (contiguous placement) and an
// encrypted one (random placement, so the LBA sort reorders every batch).
class ExtentIoTest : public ::testing::TestWithParam<bool> {
 protected:
  // Forwards to the store under test, logging each call's block count;
  // reads fail on demand.
  class LogStore : public BlockStore {
   public:
    using BlockStore::ReadBlocks;
    using BlockStore::WriteBlocks;

    explicit LogStore(BlockStore* inner) : inner_(inner) {}
    uint32_t block_size() const override { return inner_->block_size(); }
    Status ReadBlocks(const BlockIoVec* iov, size_t n) override {
      if (fail_reads) return Status::IOError("injected read fault");
      return inner_->ReadBlocks(iov, n);
    }
    Status WriteBlocks(const ConstBlockIoVec* iov, size_t n) override {
      writes.push_back(n);
      return inner_->WriteBlocks(iov, n);
    }
    std::vector<size_t> writes;
    bool fail_reads = false;

   private:
    BlockStore* inner_;
  };

  class PolicyAllocator : public BlockAllocator {
   public:
    PolicyAllocator(BlockBitmap* bm, AllocPolicy policy)
        : bm_(bm), policy_(policy) {}
    StatusOr<uint64_t> AllocateBlock() override {
      return bm_->AllocateByPolicy(policy_, &rng_);
    }
    Status FreeBlock(uint64_t block) override { return bm_->Free(block); }

   private:
    BlockBitmap* bm_;
    AllocPolicy policy_;
    Xoshiro rng_{7};
  };

  ExtentIoTest()
      : layout_(Layout::Compute(kBs, 20000, 64)),
        dev_(kBs, layout_.num_blocks),
        cache_(std::make_unique<BufferCache>(&dev_, 256)),
        crypter_("file-io-extent-test"),
        bitmap_(layout_),
        alloc_(&bitmap_,
               GetParam() ? AllocPolicy::kRandom : AllocPolicy::kContiguous),
        io_(kBs) {
    inode_.type = InodeType::kFile;
    Rebuild();
  }

  // Stores over the current cache.
  void Rebuild() {
    if (GetParam()) {
      store_ = std::make_unique<EncryptedBlockStore>(cache_.get(), &crypter_);
    } else {
      store_ = std::make_unique<CacheBlockStore>(cache_.get());
    }
    log_ = std::make_unique<LogStore>(store_.get());
  }

  // Drops every cached block (after writing the dirty ones back).
  void ColdCache() {
    ASSERT_TRUE(cache_->Flush().ok());
    cache_ = std::make_unique<BufferCache>(&dev_, 256);
    Rebuild();
  }

  static std::string Bytes(size_t n, uint64_t seed) {
    std::string s(n, '\0');
    Xoshiro rng(seed);
    for (char& c : s) c = static_cast<char>(rng.Next());
    return s;
  }

  void Write(uint64_t off, const std::string& data) {
    ASSERT_TRUE(
        io_.Write(&inode_, off, data, log_.get(), &alloc_, &dirty_).ok());
    if (off + data.size() > model_.size()) model_.resize(off + data.size());
    model_.replace(off, data.size(), data);
  }

  // Reads [off, off + n) and checks it against the model.
  void ExpectRead(uint64_t off, uint64_t n) {
    SCOPED_TRACE("read at " + std::to_string(off) + " of " +
                 std::to_string(n));
    std::string out;
    ASSERT_TRUE(io_.Read(inode_, off, n, log_.get(), &out).ok());
    const std::string want =
        off >= model_.size() ? std::string() : model_.substr(off, n);
    ASSERT_EQ(out.size(), want.size());
    EXPECT_TRUE(out == want);
  }

  static constexpr uint32_t kBs = 512;
  Layout layout_;
  MemBlockDevice dev_;
  std::unique_ptr<BufferCache> cache_;
  crypto::BlockCrypter crypter_;
  std::unique_ptr<BlockStore> store_;
  std::unique_ptr<LogStore> log_;
  BlockBitmap bitmap_;
  PolicyAllocator alloc_;
  FileIo io_;
  Inode inode_;
  bool dirty_ = false;
  std::string model_;
};

TEST_P(ExtentIoTest, UnalignedHeadAndTailBlocks) {
  Write(0, Bytes(40 * kBs, 1));
  // Partial head and tail around whole blocks written by reference, then
  // a write inside one block.
  Write(700, Bytes(10 * kBs + 100, 2));
  Write(20 * kBs + 3, Bytes(200, 3));
  for (bool cold : {false, true}) {
    if (cold) ColdCache();
    for (auto [off, n] : std::vector<std::pair<uint64_t, uint64_t>>{
             {0, 40 * kBs},
             {1, 3 * kBs},
             {100, 5000},
             {511, 2},
             {700, 10 * kBs + 100},
             {5 * kBs + 7, 20 * kBs + 300},
             {20 * kBs + 1, 100}}) {
      ExpectRead(off, n);
    }
  }
}

TEST_P(ExtentIoTest, HolesInsideAReadChunk) {
  // Whole blocks only: a partial write into a fresh block keeps the
  // block's old bytes around it, which decrypt to noise.
  Write(0, Bytes(kBs, 1));
  Write(10 * kBs, Bytes(2 * kBs, 2));
  Write(30 * kBs, Bytes(kBs, 3));
  ASSERT_TRUE(
      io_.Truncate(&inode_, 40 * kBs + 17, log_.get(), &alloc_, &dirty_)
          .ok());
  model_.resize(40 * kBs + 17);
  // One chunk holding mapped blocks between holes, and windows that start
  // or end inside a hole.
  ExpectRead(0, model_.size());
  ExpectRead(2 * kBs + 5, 9 * kBs);
  ExpectRead(kBs - 1, 30 * kBs + 2);
  ExpectRead(35 * kBs, 10 * kBs);
}

TEST_P(ExtentIoTest, ReadCrossingEof) {
  Write(0, Bytes(7 * kBs + 300, 1));
  ExpectRead(2000, 50000);          // whole blocks, then the partial tail
  ExpectRead(7 * kBs + 299, 10);    // the last byte
  ExpectRead(7 * kBs + 300, 10);    // nothing
  ExpectRead(6 * kBs + 10, 5 * kBs);
}

TEST_P(ExtentIoTest, ReadAppendsToNonEmptyOut) {
  Write(0, Bytes(50 * kBs, 1));
  std::string out = "head:";
  ASSERT_TRUE(io_.Read(inode_, 100, 30 * kBs, log_.get(), &out).ok());
  EXPECT_TRUE(out == "head:" + model_.substr(100, 30 * kBs));
  ASSERT_TRUE(io_.Read(inode_, 0, kBs, log_.get(), &out).ok());
  EXPECT_TRUE(out ==
              "head:" + model_.substr(100, 30 * kBs) + model_.substr(0, kBs));
  // A failed read leaves *out as it was.
  const std::string before = out;
  log_->fail_reads = true;
  EXPECT_TRUE(io_.Read(inode_, 0, 20 * kBs, log_.get(), &out).IsIOError());
  EXPECT_EQ(out, before);
}

// Overwrites of exactly kFanOutThreshold blocks (the caller's thread) and
// one more (the fan-out): one store batch of whole blocks each, the bytes
// right through the cache and on the device.
TEST_P(ExtentIoTest, WritesAroundTheFanOutThreshold) {
  const size_t kT = EncryptedBlockStore::kFanOutThreshold;
  Write(0, Bytes(80 * kBs, 1));  // maps every block written below
  for (size_t n : {kT, kT + 1}) {
    SCOPED_TRACE(n);
    log_->writes.clear();
    Write(3 * kBs, Bytes(n * kBs, n));
    EXPECT_EQ(log_->writes, std::vector<size_t>{n});
    ExpectRead(0, model_.size());
    ColdCache();
    ExpectRead(0, model_.size());
  }
}

INSTANTIATE_TEST_SUITE_P(Stores, ExtentIoTest, ::testing::Bool(),
                         [](const auto& info) {
                           return info.param ? "Encrypted" : "Plain";
                         });

// A kIda(3,4) read heals a lost share in place, in the caller's buffer: a
// read that appends at an unaligned offset returns the original bytes
// after one data share's device block was overwritten.
TEST(ExtentIoHealTest, IdaReadHealsALostShareInTheCallersBuffer) {
  constexpr uint32_t kBs = 512;
  MemBlockDevice dev(kBs, 4096);
  StegFormatOptions fmt;
  fmt.params.dummy_file_count = 2;
  fmt.params.dummy_file_avg_bytes = 2048;
  fmt.entropy = "file-io-heal-test";
  ASSERT_TRUE(StegFs::Format(&dev, fmt).ok());
  StegFsOptions opts;
  opts.mount.write_policy = WritePolicy::kWriteThrough;
  std::string content(12 * kBs, '\0');
  Xoshiro rng(5);
  for (char& c : content) c = static_cast<char>(rng.Next());

  std::vector<uint64_t> stripe1;
  {
    auto fs = StegFs::Mount(&dev, opts);
    ASSERT_TRUE(fs.ok()) << fs.status().ToString();
    ASSERT_TRUE((*fs)->StegCreate("u", "obj", "uak", HiddenType::kFile,
                                  RedundancyPolicy::Ida(3, 4))
                    .ok());
    ASSERT_TRUE((*fs)->StegConnect("u", "obj", "uak").ok());
    ASSERT_TRUE((*fs)->HiddenWriteAll("u", "obj", content).ok());
    auto obj = (*fs)->ConnectedForTesting("u", "obj");
    ASSERT_TRUE(obj.ok());
    auto blocks = obj.value()->ShareBlocksForTesting(1);
    ASSERT_TRUE(blocks.ok());
    stripe1 = std::move(blocks).value();
    ASSERT_TRUE((*fs)->Flush().ok());
  }
  // Stripe 1's middle data share holds file block 4: inside the read
  // below, whole, so it heals in the caller's buffer.
  ASSERT_EQ(stripe1.size(), 4u);
  ASSERT_NE(stripe1[1], 0u);
  std::vector<uint8_t>& raw = *dev.mutable_raw();
  for (size_t i = 0; i < kBs; ++i) raw[stripe1[1] * kBs + i] ^= 0x5a;

  auto fs = StegFs::Mount(&dev, opts);
  ASSERT_TRUE(fs.ok()) << fs.status().ToString();
  ASSERT_TRUE((*fs)->StegConnect("u", "obj", "uak").ok());
  std::string out = "prefix";
  ASSERT_TRUE((*fs)->HiddenRead("u", "obj", 100, 8 * kBs, &out).ok());
  EXPECT_TRUE(out == "prefix" + content.substr(100, 8 * kBs));
  EXPECT_GE((*fs)->redundancy_stats().shares_healed.value(), 1u);
  // The heal rewrote the share: a second read needs none.
  const uint64_t healed = (*fs)->redundancy_stats().shares_healed.value();
  out.clear();
  ASSERT_TRUE((*fs)->HiddenRead("u", "obj", 0, content.size(), &out).ok());
  EXPECT_TRUE(out == content);
  EXPECT_EQ((*fs)->redundancy_stats().shares_healed.value(), healed);
}

TEST(CoalescingStoreTest, ReadYourWrites) {
  MemBlockDevice dev(512, 64);
  BufferCache cache(&dev, 16);
  CacheBlockStore inner(&cache);
  CoalescingStore co(&inner);

  std::vector<uint8_t> data(512, 0xab);
  ASSERT_TRUE(co.WriteBlock(5, data.data()).ok());
  std::vector<uint8_t> out(512, 0);
  ASSERT_TRUE(co.ReadBlock(5, out.data()).ok());
  EXPECT_EQ(out, data);
  // Not on the device yet.
  std::vector<uint8_t> raw(512);
  ASSERT_TRUE(dev.ReadBlock(5, raw.data()).ok());
  EXPECT_EQ(raw, std::vector<uint8_t>(512, 0));
  // Until flushed.
  ASSERT_TRUE(co.Flush().ok());
  ASSERT_TRUE(cache.Flush().ok());
  ASSERT_TRUE(dev.ReadBlock(5, raw.data()).ok());
  EXPECT_EQ(raw, data);
}

TEST(CoalescingStoreTest, RepeatedWritesReachDeviceOnce) {
  auto inner_dev = std::make_unique<MemBlockDevice>(512, 64);
  SimDisk disk(std::move(inner_dev), DiskModelConfig{});
  BufferCache cache(&disk, 16, WritePolicy::kWriteThrough);
  CacheBlockStore inner(&cache);
  CoalescingStore co(&inner);

  std::vector<uint8_t> data(512);
  for (int i = 0; i < 100; ++i) {
    data[0] = static_cast<uint8_t>(i);
    ASSERT_TRUE(co.WriteBlock(7, data.data()).ok());
  }
  ASSERT_TRUE(co.Flush().ok());
  EXPECT_EQ(disk.stats().writes, 1u);  // one device write for 100 updates
  std::vector<uint8_t> out(512);
  ASSERT_TRUE(inner.ReadBlock(7, out.data()).ok());
  EXPECT_EQ(out[0], 99);  // last value wins
}

TEST(CoalescingStoreTest, FlushWritesAscendingLba) {
  auto inner_dev = std::make_unique<MemBlockDevice>(512, 4096);
  SimDisk disk(std::move(inner_dev), DiskModelConfig{});
  BufferCache cache(&disk, 4, WritePolicy::kWriteThrough);
  CacheBlockStore inner(&cache);
  CoalescingStore co(&inner);

  IoTrace trace;
  std::vector<uint8_t> data(512, 1);
  for (uint64_t b : {900u, 3u, 512u, 77u, 2048u}) {
    ASSERT_TRUE(co.WriteBlock(b, data.data()).ok());
  }
  disk.set_trace(&trace);
  ASSERT_TRUE(co.Flush().ok());
  disk.set_trace(nullptr);
  ASSERT_EQ(trace.size(), 5u);
  for (size_t i = 1; i < trace.size(); ++i) {
    EXPECT_GT(trace[i].lba, trace[i - 1].lba);  // elevator order
  }
}

}  // namespace
}  // namespace stegfs
