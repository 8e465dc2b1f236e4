// FileIo + CoalescingStore: the byte-granular engine shared by plain,
// directory and hidden file I/O.
#include "fs/file_io.h"

#include <gtest/gtest.h>

#include "blockdev/mem_block_device.h"
#include "blockdev/sim_disk.h"
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
