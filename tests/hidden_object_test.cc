#include "core/hidden_object.h"

#include <gtest/gtest.h>

#include "blockdev/mem_block_device.h"
#include "obs/metrics.h"
#include "util/random.h"

namespace stegfs {
namespace {

std::string RandomData(size_t n, uint64_t seed) {
  Xoshiro rng(seed);
  std::string s(n, '\0');
  rng.FillBytes(reinterpret_cast<uint8_t*>(s.data()), n);
  return s;
}

class HiddenObjectTest : public ::testing::Test {
 protected:
  HiddenObjectTest()
      : layout_(Layout::Compute(1024, 32768, 512)),  // 32 MB volume
        dev_(layout_.block_size, layout_.num_blocks),
        cache_(&dev_, 1024),
        bitmap_(layout_),
        rng_(777) {
    vol_.cache = &cache_;
    vol_.bitmap = &bitmap_;
    vol_.layout = layout_;
    vol_.params = StegParams{};  // Table 1 defaults
    vol_.rng = &rng_;
    vol_.probe_limit = 2000;
  }

  Layout layout_;
  MemBlockDevice dev_;
  BufferCache cache_;
  BlockBitmap bitmap_;
  Xoshiro rng_;
  HiddenVolume vol_;
};

TEST_F(HiddenObjectTest, CreateOpenRoundTrip) {
  auto obj = HiddenObject::Create(vol_, "user1-secret.txt", "fak-1",
                                  HiddenType::kFile);
  ASSERT_TRUE(obj.ok()) << obj.status().ToString();
  ASSERT_TRUE((*obj)->WriteAll("top secret content").ok());
  ASSERT_TRUE((*obj)->Sync().ok());
  obj->reset();

  auto reopened = HiddenObject::Open(vol_, "user1-secret.txt", "fak-1");
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  auto content = (*reopened)->ReadAll();
  ASSERT_TRUE(content.ok());
  EXPECT_EQ(content.value(), "top secret content");
}

TEST_F(HiddenObjectTest, WrongKeyNotFound) {
  auto obj =
      HiddenObject::Create(vol_, "name", "right-key", HiddenType::kFile);
  ASSERT_TRUE(obj.ok());
  ASSERT_TRUE((*obj)->Sync().ok());
  EXPECT_TRUE(
      HiddenObject::Open(vol_, "name", "wrong-key").status().IsNotFound());
}

TEST_F(HiddenObjectTest, DuplicateCreateRejected) {
  ASSERT_TRUE(HiddenObject::Create(vol_, "n", "k", HiddenType::kFile).ok());
  EXPECT_TRUE(HiddenObject::Create(vol_, "n", "k", HiddenType::kFile)
                  .status()
                  .IsAlreadyExists());
}

TEST_F(HiddenObjectTest, LargeContentRoundTrip) {
  std::string big = RandomData(2 << 20, 42);  // 2 MB (paper's max file size)
  auto obj = HiddenObject::Create(vol_, "big", "k", HiddenType::kFile);
  ASSERT_TRUE(obj.ok());
  ASSERT_TRUE((*obj)->WriteAll(big).ok());
  ASSERT_TRUE((*obj)->Sync().ok());
  obj->reset();

  auto reopened = HiddenObject::Open(vol_, "big", "k");
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->size(), big.size());
  auto content = (*reopened)->ReadAll();
  ASSERT_TRUE(content.ok());
  EXPECT_EQ(content.value(), big);
}

TEST_F(HiddenObjectTest, PoolMaintainedAtCreation) {
  auto obj = HiddenObject::Create(vol_, "pooled", "k", HiddenType::kFile);
  ASSERT_TRUE(obj.ok());
  // Paper: blocks allocated to the file straightaway at creation.
  EXPECT_EQ((*obj)->pool_size(), vol_.params.free_pool_max);
}

TEST_F(HiddenObjectTest, PoolBlocksAreMarkedAllocated) {
  uint64_t free_before = bitmap_.free_count();
  auto obj = HiddenObject::Create(vol_, "pooled", "k", HiddenType::kFile);
  ASSERT_TRUE(obj.ok());
  // Header + pool blocks all marked.
  EXPECT_EQ(bitmap_.free_count(),
            free_before - 1 - vol_.params.free_pool_max);
}

TEST_F(HiddenObjectTest, RemoveReturnsEveryBlock) {
  uint64_t free_before = bitmap_.free_count();
  auto obj = HiddenObject::Create(vol_, "doomed", "k", HiddenType::kFile);
  ASSERT_TRUE(obj.ok());
  ASSERT_TRUE((*obj)->WriteAll(RandomData(300000, 7)).ok());
  ASSERT_TRUE((*obj)->Sync().ok());
  EXPECT_LT(bitmap_.free_count(), free_before);
  ASSERT_TRUE((*obj)->Remove().ok());
  EXPECT_EQ(bitmap_.free_count(), free_before);  // zero leakage
}

TEST_F(HiddenObjectTest, RemovedObjectCannotBeFound) {
  auto obj = HiddenObject::Create(vol_, "gone", "k", HiddenType::kFile);
  ASSERT_TRUE(obj.ok());
  ASSERT_TRUE((*obj)->WriteAll("data").ok());
  ASSERT_TRUE((*obj)->Sync().ok());
  ASSERT_TRUE((*obj)->Remove().ok());
  EXPECT_TRUE(HiddenObject::Open(vol_, "gone", "k").status().IsNotFound());
}

TEST_F(HiddenObjectTest, TruncateShrinkAndRegrow) {
  auto obj = HiddenObject::Create(vol_, "t", "k", HiddenType::kFile);
  ASSERT_TRUE(obj.ok());
  std::string data = RandomData(100000, 9);
  ASSERT_TRUE((*obj)->WriteAll(data).ok());
  ASSERT_TRUE((*obj)->Truncate(1000).ok());
  EXPECT_EQ((*obj)->size(), 1000u);
  auto content = (*obj)->ReadAll();
  ASSERT_TRUE(content.ok());
  EXPECT_EQ(content.value(), data.substr(0, 1000));
  // Regrow and verify the old tail is not resurrected.
  ASSERT_TRUE((*obj)->Write(1000, std::string(5000, 'Z')).ok());
  auto content2 = (*obj)->ReadAll();
  ASSERT_TRUE(content2.ok());
  EXPECT_EQ(content2->substr(1000), std::string(5000, 'Z'));
}

TEST_F(HiddenObjectTest, PoolBoundsRespectedDuringChurn) {
  StegParams params;
  params.free_pool_min = 2;
  params.free_pool_max = 8;
  vol_.params = params;
  auto obj = HiddenObject::Create(vol_, "churn", "k", HiddenType::kFile);
  ASSERT_TRUE(obj.ok());
  Xoshiro workload(5);
  uint64_t size = 0;
  for (int round = 0; round < 40; ++round) {
    if (workload.Bernoulli(0.6)) {
      std::string chunk = RandomData(workload.UniformRange(500, 20000), round);
      ASSERT_TRUE((*obj)->Write(size, chunk).ok());
      size += chunk.size();
    } else if (size > 0) {
      size /= 2;
      ASSERT_TRUE((*obj)->Truncate(size).ok());
    }
    EXPECT_LE((*obj)->pool_size(), params.free_pool_max + 1);
  }
}

TEST_F(HiddenObjectTest, ManyObjectsNoCrosstalk) {
  std::vector<std::string> contents;
  for (int i = 0; i < 20; ++i) {
    std::string name = "obj-" + std::to_string(i);
    std::string key = "key-" + std::to_string(i);
    contents.push_back(RandomData(5000 + i * 991, 100 + i));
    auto obj = HiddenObject::Create(vol_, name, key, HiddenType::kFile);
    ASSERT_TRUE(obj.ok()) << i;
    ASSERT_TRUE((*obj)->WriteAll(contents.back()).ok());
    ASSERT_TRUE((*obj)->Sync().ok());
  }
  for (int i = 0; i < 20; ++i) {
    auto obj = HiddenObject::Open(vol_, "obj-" + std::to_string(i),
                                  "key-" + std::to_string(i));
    ASSERT_TRUE(obj.ok()) << i;
    auto content = (*obj)->ReadAll();
    ASSERT_TRUE(content.ok());
    EXPECT_EQ(content.value(), contents[i]) << i;
  }
}

TEST_F(HiddenObjectTest, SparseWriteReadsHolesAsZeros) {
  auto obj = HiddenObject::Create(vol_, "sparse", "k", HiddenType::kFile);
  ASSERT_TRUE(obj.ok());
  ASSERT_TRUE((*obj)->Write(10000, "end").ok());
  std::string out;
  ASSERT_TRUE((*obj)->Read(0, 10, &out).ok());
  EXPECT_EQ(out, std::string(10, '\0'));
}

TEST_F(HiddenObjectTest, UseAfterRemoveRejected) {
  auto obj = HiddenObject::Create(vol_, "x", "k", HiddenType::kFile);
  ASSERT_TRUE(obj.ok());
  ASSERT_TRUE((*obj)->Remove().ok());
  EXPECT_TRUE((*obj)->WriteAll("nope").IsFailedPrecondition());
  EXPECT_TRUE((*obj)->Sync().IsFailedPrecondition());
  EXPECT_TRUE((*obj)->Remove().IsFailedPrecondition());
}

// The pointer-block memo, seen from the crypto counters: a 1 MiB extent
// deep in the double-indirect range decrypts its 256 data blocks plus
// the double root and one L2 block, not both per data block; a
// whole-block overwrite of it decrypts only those pointer blocks.
TEST(HiddenObjectMemoTest, ExtentDecryptsEachPointerBlockOnce) {
  // 4 KiB blocks: 1024 pointers per indirect block, so the double-indirect
  // range starts at file block 10 + 1024 (~4 MiB).
  Layout layout = Layout::Compute(4096, 8192, 64);  // 32 MB volume
  MemBlockDevice dev(layout.block_size, layout.num_blocks);
  BufferCache cache(&dev, 1024);
  BlockBitmap bitmap(layout);
  Xoshiro rng(4242);
  HiddenVolume vol;
  vol.cache = &cache;
  vol.bitmap = &bitmap;
  vol.layout = layout;
  vol.params = StegParams{};
  vol.rng = &rng;
  vol.probe_limit = 2000;

  auto obj = HiddenObject::Create(vol, "memo-object", "fak-memo",
                                  HiddenType::kFile);
  ASSERT_TRUE(obj.ok()) << obj.status().ToString();
  std::string content = RandomData(6 << 20, 17);
  ASSERT_TRUE((*obj)->WriteAll(content).ok());
  ASSERT_TRUE((*obj)->Sync().ok());

  const uint64_t kOffset = 5 << 20, kLen = 1 << 20;  // blocks 1280..1535
  obs::Counter& decrypted = obs::GlobalCryptoMetrics().blocks_decrypted;
  std::string out;
  uint64_t before = decrypted.value();
  ASSERT_TRUE((*obj)->Read(kOffset, kLen, &out).ok());
  const uint64_t read_cost = decrypted.value() - before;
  EXPECT_EQ(out, content.substr(kOffset, kLen));
  EXPECT_GE(read_cost, 256u);
  EXPECT_LE(read_cost, 256u + 6u);

  std::string patch = RandomData(kLen, 18);
  before = decrypted.value();
  ASSERT_TRUE((*obj)->Write(kOffset, patch).ok());
  EXPECT_LE(decrypted.value() - before, 3u);

  content.replace(kOffset, kLen, patch);
  auto back = (*obj)->ReadAll();
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), content);
}

}  // namespace
}  // namespace stegfs
