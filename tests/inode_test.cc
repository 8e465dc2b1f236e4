#include "fs/inode.h"

#include <gtest/gtest.h>

#include "blockdev/mem_block_device.h"

namespace stegfs {
namespace {

TEST(InodeTest, EncodeDecodeRoundTrip) {
  Inode ino;
  ino.type = InodeType::kFile;
  ino.size = 123456789;
  ino.mtime = 42;
  for (uint32_t i = 0; i < kDirectPointers; ++i) ino.direct[i] = 100 + i;
  ino.single_indirect = 777;
  ino.double_indirect = 888;

  uint8_t buf[kInodeSize];
  ino.EncodeTo(buf);
  Inode back = Inode::DecodeFrom(buf);
  EXPECT_EQ(back.type, InodeType::kFile);
  EXPECT_EQ(back.size, 123456789u);
  EXPECT_EQ(back.mtime, 42u);
  for (uint32_t i = 0; i < kDirectPointers; ++i) {
    EXPECT_EQ(back.direct[i], 100 + i);
  }
  EXPECT_EQ(back.single_indirect, 777u);
  EXPECT_EQ(back.double_indirect, 888u);
}

TEST(InodeTest, FreeInodeIsNotInUse) {
  Inode ino;
  EXPECT_FALSE(ino.InUse());
  ino.type = InodeType::kDirectory;
  EXPECT_TRUE(ino.InUse());
}

class InodeTableTest : public ::testing::Test {
 protected:
  InodeTableTest()
      : layout_(Layout::Compute(1024, 4096, 64)),
        dev_(layout_.block_size, layout_.num_blocks),
        cache_(&dev_, 64) {}

  Layout layout_;
  MemBlockDevice dev_;
  BufferCache cache_;
};

TEST_F(InodeTableTest, AllocatePersistLoad) {
  InodeTable table(&cache_, layout_);
  table.InitEmpty();
  auto a = table.Allocate(InodeType::kDirectory);
  auto b = table.Allocate(InodeType::kFile);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE(a.value(), b.value());
  table.Get(b.value())->size = 4096;
  ASSERT_TRUE(table.PersistAll().ok());

  InodeTable loaded(&cache_, layout_);
  ASSERT_TRUE(loaded.Load().ok());
  EXPECT_EQ(loaded.Get(a.value())->type, InodeType::kDirectory);
  EXPECT_EQ(loaded.Get(b.value())->type, InodeType::kFile);
  EXPECT_EQ(loaded.Get(b.value())->size, 4096u);
  EXPECT_EQ(loaded.used_count(), 2u);
}

TEST_F(InodeTableTest, FreeMakesSlotReusable) {
  InodeTable table(&cache_, layout_);
  table.InitEmpty();
  auto a = table.Allocate(InodeType::kFile);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(table.FreeInode(a.value()).ok());
  EXPECT_FALSE(table.Get(a.value())->InUse());
  EXPECT_TRUE(table.FreeInode(a.value()).IsFailedPrecondition());
}

TEST_F(InodeTableTest, ExhaustsAtCapacity) {
  InodeTable table(&cache_, layout_);
  table.InitEmpty();
  for (uint32_t i = 0; i < layout_.num_inodes; ++i) {
    ASSERT_TRUE(table.Allocate(InodeType::kFile).ok()) << i;
  }
  EXPECT_TRUE(table.Allocate(InodeType::kFile).status().IsNoSpace());
  EXPECT_EQ(table.used_count(), layout_.num_inodes);
}

TEST_F(InodeTableTest, PersistIsIncremental) {
  InodeTable table(&cache_, layout_);
  table.InitEmpty();
  ASSERT_TRUE(table.PersistAll().ok());
  uint64_t misses_before = cache_.metrics().misses.value();
  // Nothing dirty: PersistAll touches no blocks.
  ASSERT_TRUE(table.PersistAll().ok());
  EXPECT_EQ(cache_.metrics().misses.value(), misses_before);
}

}  // namespace
}  // namespace stegfs
