#include "fs/block_mapper.h"

#include <gtest/gtest.h>

#include <set>

#include "blockdev/mem_block_device.h"
#include "fs/bitmap.h"
#include "fs/block_store.h"

namespace stegfs {
namespace {

// A simple allocator over the bitmap with the random policy.
class TestAllocator : public BlockAllocator {
 public:
  TestAllocator(BlockBitmap* bm, Xoshiro* rng) : bm_(bm), rng_(rng) {}
  StatusOr<uint64_t> AllocateBlock() override {
    return bm_->AllocateByPolicy(AllocPolicy::kRandom, rng_);
  }
  Status FreeBlock(uint64_t block) override { return bm_->Free(block); }

 private:
  BlockBitmap* bm_;
  Xoshiro* rng_;
};

// Counts the blocks read through the wrapped store.
class CountingStore : public BlockStore {
 public:
  explicit CountingStore(BlockStore* base) : base_(base) {}
  uint32_t block_size() const override { return base_->block_size(); }
  Status ReadBlocks(const BlockIoVec* iov, size_t n) override {
    reads += n;
    return base_->ReadBlocks(iov, n);
  }
  Status WriteBlocks(const ConstBlockIoVec* iov, size_t n) override {
    return base_->WriteBlocks(iov, n);
  }
  uint64_t reads = 0;

 private:
  BlockStore* base_;
};

class BlockMapperTest : public ::testing::Test {
 protected:
  BlockMapperTest()
      : layout_(Layout::Compute(512, 40000, 64)),
        dev_(layout_.block_size, layout_.num_blocks),
        cache_(&dev_, 512),
        store_(&cache_),
        bitmap_(layout_),
        rng_(11),
        alloc_(&bitmap_, &rng_),
        mapper_(layout_.block_size) {}

  // Single lookups, each through a fresh memo (nothing carried over).
  StatusOr<uint64_t> Map(const Inode& ino, uint64_t idx) {
    BlockMapper::Memo memo;
    return mapper_.Map(ino, idx, &store_, &memo);
  }
  StatusOr<uint64_t> MapOrAllocate(Inode* ino, uint64_t idx, bool* dirty) {
    BlockMapper::Memo memo;
    return mapper_.MapOrAllocate(ino, idx, &store_, &alloc_, dirty, &memo);
  }

  Layout layout_;
  MemBlockDevice dev_;
  BufferCache cache_;
  CacheBlockStore store_;
  BlockBitmap bitmap_;
  Xoshiro rng_;
  TestAllocator alloc_;
  BlockMapper mapper_;
};

TEST_F(BlockMapperTest, MaxFileBlocks) {
  // 512 B blocks -> 128 pointers per block: 10 + 128 + 128*128 = 16522.
  EXPECT_EQ(mapper_.MaxFileBlocks(), 10u + 128u + 128u * 128u);
}

TEST_F(BlockMapperTest, HoleReportsNotFound) {
  Inode ino;
  ino.type = InodeType::kFile;
  EXPECT_TRUE(Map(ino, 0).status().IsNotFound());
  EXPECT_TRUE(Map(ino, 100).status().IsNotFound());
  EXPECT_TRUE(Map(ino, 16000).status().IsNotFound());
  // Beyond the maximum file size is a caller error, not a hole.
  EXPECT_TRUE(Map(ino, 20000).status().IsInvalidArgument());
}

TEST_F(BlockMapperTest, MapOrAllocateDirect) {
  Inode ino;
  ino.type = InodeType::kFile;
  bool dirty = false;
  auto b = MapOrAllocate(&ino, 3, &dirty);
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(dirty);
  EXPECT_EQ(ino.direct[3], b.value());
  // Mapping again returns the same block without reallocation.
  auto again = Map(ino, 3);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value(), b.value());
}

TEST_F(BlockMapperTest, SingleIndirectRange) {
  Inode ino;
  ino.type = InodeType::kFile;
  bool dirty = false;
  uint64_t idx = kDirectPointers + 5;
  auto b = MapOrAllocate(&ino, idx, &dirty);
  ASSERT_TRUE(b.ok());
  EXPECT_NE(ino.single_indirect, kNullBlock);
  auto read_back = Map(ino, idx);
  ASSERT_TRUE(read_back.ok());
  EXPECT_EQ(read_back.value(), b.value());
}

TEST_F(BlockMapperTest, DoubleIndirectRange) {
  Inode ino;
  ino.type = InodeType::kFile;
  bool dirty = false;
  uint64_t ptrs = 128;
  uint64_t idx = kDirectPointers + ptrs + 3 * ptrs + 7;  // deep in double
  auto b = MapOrAllocate(&ino, idx, &dirty);
  ASSERT_TRUE(b.ok());
  EXPECT_NE(ino.double_indirect, kNullBlock);
  auto read_back = Map(ino, idx);
  ASSERT_TRUE(read_back.ok());
  EXPECT_EQ(read_back.value(), b.value());
}

TEST_F(BlockMapperTest, BeyondMaxRejected) {
  Inode ino;
  ino.type = InodeType::kFile;
  bool dirty = false;
  uint64_t idx = mapper_.MaxFileBlocks();
  EXPECT_TRUE(MapOrAllocate(&ino, idx, &dirty).status().IsInvalidArgument());
}

TEST_F(BlockMapperTest, DistinctIndicesGetDistinctBlocks) {
  Inode ino;
  ino.type = InodeType::kFile;
  bool dirty = false;
  std::set<uint64_t> blocks;
  for (uint64_t idx = 0; idx < 300; ++idx) {
    auto b = MapOrAllocate(&ino, idx, &dirty);
    ASSERT_TRUE(b.ok());
    EXPECT_TRUE(blocks.insert(b.value()).second) << "dup at " << idx;
  }
}

TEST_F(BlockMapperTest, FreeFromReturnsAllBlocks) {
  Inode ino;
  ino.type = InodeType::kFile;
  bool dirty = false;
  uint64_t before = bitmap_.free_count();
  for (uint64_t idx = 0; idx < 200; ++idx) {
    ASSERT_TRUE(MapOrAllocate(&ino, idx, &dirty).ok());
  }
  EXPECT_LT(bitmap_.free_count(), before);
  ASSERT_TRUE(mapper_.FreeFrom(&ino, 0, &store_, &alloc_).ok());
  EXPECT_EQ(bitmap_.free_count(), before);  // no leaks, indirects included
  EXPECT_EQ(ino.single_indirect, kNullBlock);
  EXPECT_EQ(ino.double_indirect, kNullBlock);
  for (uint32_t i = 0; i < kDirectPointers; ++i) {
    EXPECT_EQ(ino.direct[i], kNullBlock);
  }
}

TEST_F(BlockMapperTest, PartialTruncateKeepsPrefix) {
  Inode ino;
  ino.type = InodeType::kFile;
  bool dirty = false;
  std::vector<uint64_t> blocks;
  for (uint64_t idx = 0; idx < 150; ++idx) {
    auto b = MapOrAllocate(&ino, idx, &dirty);
    ASSERT_TRUE(b.ok());
    blocks.push_back(b.value());
  }
  ASSERT_TRUE(mapper_.FreeFrom(&ino, 100, &store_, &alloc_).ok());
  for (uint64_t idx = 0; idx < 100; ++idx) {
    auto b = Map(ino, idx);
    ASSERT_TRUE(b.ok()) << idx;
    EXPECT_EQ(b.value(), blocks[idx]);
  }
  for (uint64_t idx = 100; idx < 150; ++idx) {
    EXPECT_TRUE(Map(ino, idx).status().IsNotFound()) << idx;
  }
}

TEST_F(BlockMapperTest, CollectBlocksCountsDataAndIndirect) {
  Inode ino;
  ino.type = InodeType::kFile;
  bool dirty = false;
  const uint64_t kData = 150;  // spans direct + single + into double
  for (uint64_t idx = 0; idx < kData; ++idx) {
    ASSERT_TRUE(MapOrAllocate(&ino, idx, &dirty).ok());
  }
  std::vector<uint64_t> collected;
  ASSERT_TRUE(mapper_.CollectBlocks(ino, &store_, &collected).ok());
  // 150 data + 1 single-indirect + 1 double-indirect + 1 L2 block.
  EXPECT_EQ(collected.size(), kData + 3);
}

TEST_F(BlockMapperTest, MemoReadsEachPointerBlockOncePerLoop) {
  Inode ino;
  ino.type = InodeType::kFile;
  bool dirty = false;
  // 512 B blocks: 128 pointers per block. Blocks [0, 400) cover the
  // direct range, the single-indirect block, the double root and three
  // L2 blocks.
  const uint64_t kData = 400;
  for (uint64_t idx = 0; idx < kData; ++idx) {
    ASSERT_TRUE(MapOrAllocate(&ino, idx, &dirty).ok());
  }
  CountingStore counting(&store_);
  BlockMapper::Memo memo;
  for (uint64_t idx = 0; idx < kData; ++idx) {
    ASSERT_TRUE(mapper_.Map(ino, idx, &counting, &memo).ok()) << idx;
  }
  EXPECT_EQ(counting.reads, 1u + 1u + 3u);
}

}  // namespace
}  // namespace stegfs
