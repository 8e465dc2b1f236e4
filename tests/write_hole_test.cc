// The redundancy write hole (PR 8 satellite): a partial-stripe write used
// to fold whatever the UNTOUCHED sibling shares currently held into the
// fresh parity — if a sibling had rotted since the last encode, the new
// parity (and new checksums) laundered the corruption into "verified"
// state. EncodeStripe now verifies untouched siblings against the OLD
// stripe record first, heals stale ones from the old codeword when k old
// shares survive, and fails with DataLoss (keeping the old record, so
// detection is preserved) when they don't.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "blockdev/mem_block_device.h"
#include "core/stegfs.h"
#include "util/random.h"

namespace stegfs {
namespace {

constexpr uint32_t kBs = 512;
constexpr uint64_t kBlocks = 4096;
const char* kUid = "alice";
const char* kUak = "uak-secret";
const char* kObj = "payload";

StegFormatOptions SmallFormat() {
  StegFormatOptions fmt;
  fmt.params.dummy_file_count = 2;
  fmt.params.dummy_file_avg_bytes = 2048;
  fmt.entropy = "write-hole-entropy";
  return fmt;
}

std::string Content(size_t bytes, uint64_t tag) {
  std::string s;
  s.reserve(bytes);
  while (s.size() < bytes) {
    s += "wh" + std::to_string(tag) + ":";
    s.push_back(static_cast<char>('A' + (s.size() % 29)));
  }
  s.resize(bytes);
  return s;
}

void OverwriteWithNoise(BlockDevice* dev, uint64_t block, uint64_t seed) {
  Xoshiro rng(0x5742a1e ^ seed);
  std::vector<uint8_t> noise(kBs);
  rng.FillBytes(noise.data(), noise.size());
  ASSERT_TRUE(dev->WriteBlock(block, noise.data()).ok());
}

// Creates the object under `policy`, flushes, and returns the device
// blocks of stripe 0's shares (data 0..k-1, then parity).
std::vector<uint64_t> SetUpObject(MemBlockDevice* dev,
                                  const RedundancyPolicy& policy,
                                  const std::string& content) {
  std::vector<uint64_t> shares;
  auto fs = StegFs::Mount(dev, StegFsOptions());
  EXPECT_TRUE(fs.ok());
  EXPECT_TRUE(
      (*fs)->StegCreate(kUid, kObj, kUak, HiddenType::kFile, policy).ok());
  EXPECT_TRUE((*fs)->StegConnect(kUid, kObj, kUak).ok());
  EXPECT_TRUE((*fs)->HiddenWriteAll(kUid, kObj, content).ok());
  auto obj = (*fs)->ConnectedForTesting(kUid, kObj);
  EXPECT_TRUE(obj.ok());
  auto blocks = obj.value()->ShareBlocksForTesting(0);
  EXPECT_TRUE(blocks.ok());
  shares = std::move(blocks).value();
  EXPECT_TRUE((*fs)->Flush().ok());
  return shares;
}

// IDA(2,4): two parity shares, so one rotted sibling is recoverable from
// the old codeword even while another data share is being rewritten. The
// unaligned write must succeed, heal the sibling, and leave the object
// reading back as (old content + patch) — not parity-laundered garbage.
TEST(WriteHoleTest, StaleSiblingHealedOnPartialStripeWrite) {
  MemBlockDevice dev(kBs, kBlocks);
  ASSERT_TRUE(StegFs::Format(&dev, SmallFormat()).ok());
  const RedundancyPolicy policy = RedundancyPolicy::Ida(2, 4);
  const std::string content = Content(4 * policy.k * kBs, 1);
  std::vector<uint64_t> stripe0 = SetUpObject(&dev, policy, content);
  ASSERT_EQ(stripe0.size(), 4u);
  ASSERT_NE(stripe0[0], 0u);

  // Rot data share 0 of stripe 0 beneath everything (cache is gone with
  // the unmount, so the corruption is what the next mount reads).
  OverwriteWithNoise(&dev, stripe0[0], 1);

  // Unaligned write INSIDE data share 1 of stripe 0: touches only that
  // share, so share 0 is an untouched sibling of the re-encode.
  const uint64_t patch_off = 1 * kBs + 37;  // file block 1 = share 1 (k=2)
  const std::string patch = "PATCHED-BYTES";
  std::string expected = content;
  expected.replace(patch_off, patch.size(), patch);
  {
    auto fs = StegFs::Mount(&dev, StegFsOptions());
    ASSERT_TRUE(fs.ok());
    ASSERT_TRUE((*fs)->StegConnect(kUid, kObj, kUak).ok());
    Status w = (*fs)->HiddenWrite(kUid, kObj, patch_off, patch);
    ASSERT_TRUE(w.ok()) << w.ToString();
    // The stale sibling was detected against the old record and healed
    // from the old codeword before parity was recomputed.
    EXPECT_GE((*fs)->redundancy_stats().verify_failures.value(), 1u);
    EXPECT_GE((*fs)->redundancy_stats().shares_healed.value(), 1u);
    auto back = (*fs)->HiddenReadAll(kUid, kObj);
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    EXPECT_EQ(back.value(), expected);
    ASSERT_TRUE((*fs)->Flush().ok());
  }
  // The healed state persists: a cold mount reads the same bytes.
  auto fs = StegFs::Mount(&dev, StegFsOptions());
  ASSERT_TRUE(fs.ok());
  ASSERT_TRUE((*fs)->StegConnect(kUid, kObj, kUak).ok());
  auto back = (*fs)->HiddenReadAll(kUid, kObj);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back.value(), expected);
}

// IDA(3,4): one parity share. With one sibling rotted and one sibling
// legitimately being rewritten, only k-1 old shares survive — recovery
// is impossible and the write must fail CLEANLY with DataLoss. The old
// stripe record stays, so later reads still flag the stripe instead of
// returning laundered bytes (this is the regression the old code failed:
// it would re-checksum the rot and report success everywhere).
TEST(WriteHoleTest, UnrecoverableStaleSiblingFailsCleanNotSilent) {
  MemBlockDevice dev(kBs, kBlocks);
  ASSERT_TRUE(StegFs::Format(&dev, SmallFormat()).ok());
  const RedundancyPolicy policy = RedundancyPolicy::Ida(3, 4);
  const std::string content = Content(4 * policy.k * kBs, 2);
  std::vector<uint64_t> stripe0 = SetUpObject(&dev, policy, content);
  ASSERT_EQ(stripe0.size(), 4u);
  ASSERT_NE(stripe0[0], 0u);

  OverwriteWithNoise(&dev, stripe0[0], 2);

  auto fs = StegFs::Mount(&dev, StegFsOptions());
  ASSERT_TRUE(fs.ok());
  ASSERT_TRUE((*fs)->StegConnect(kUid, kObj, kUak).ok());
  const uint64_t patch_off = 1 * kBs + 37;  // file block 1 = share 1 (k=3)
  Status w = (*fs)->HiddenWrite(kUid, kObj, patch_off, "DOOMED");
  ASSERT_FALSE(w.ok()) << "write silently laundered a rotted sibling";
  EXPECT_TRUE(w.IsDataLoss()) << w.ToString();
  EXPECT_GE((*fs)->redundancy_stats().verify_failures.value(), 1u);

  // Reading the object must never return garbage: either the damaged
  // stripe flags DataLoss, or (if healing found enough shares) the bytes
  // are exactly one of the two legitimate states.
  auto back = (*fs)->HiddenReadAll(kUid, kObj);
  if (back.ok()) {
    std::string patched = content;
    patched.replace(patch_off, 6, "DOOMED");
    EXPECT_TRUE(back.value() == content || back.value() == patched)
        << "read returned bytes matching neither version";
  } else {
    EXPECT_TRUE(back.status().IsDataLoss()) << back.status().ToString();
  }
}

// Fault-free partial-stripe writes keep working exactly as before the
// verify-before-write change (the verification must not reject stripes
// whose siblings are simply fine, including trailing holes).
TEST(WriteHoleTest, CleanPartialStripeWritesUnaffected) {
  MemBlockDevice dev(kBs, kBlocks);
  ASSERT_TRUE(StegFs::Format(&dev, SmallFormat()).ok());
  const RedundancyPolicy policy = RedundancyPolicy::Ida(3, 4);
  // 1.5 stripes: stripe 1 has a trailing hole share.
  const std::string content = Content(4 * kBs + 200, 3);
  SetUpObject(&dev, policy, content);

  auto fs = StegFs::Mount(&dev, StegFsOptions());
  ASSERT_TRUE(fs.ok());
  ASSERT_TRUE((*fs)->StegConnect(kUid, kObj, kUak).ok());
  std::string expected = content;
  // Patch every file block in turn: full-stripe and partial-stripe
  // encodes, boundary stripe included.
  for (uint64_t blk = 0; blk * kBs < content.size(); ++blk) {
    const uint64_t off = blk * kBs + (blk % 100);
    const std::string patch = "p" + std::to_string(blk);
    Status w = (*fs)->HiddenWrite(kUid, kObj, off, patch);
    ASSERT_TRUE(w.ok()) << "block " << blk << ": " << w.ToString();
    expected.replace(off, patch.size(), patch);
  }
  EXPECT_EQ((*fs)->redundancy_stats().verify_failures.value(), 0u);
  EXPECT_EQ((*fs)->redundancy_stats().shares_healed.value(), 0u);
  auto back = (*fs)->HiddenReadAll(kUid, kObj);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back.value(), expected);
}

// Growing the object across the old boundary stripe re-encodes it with
// the new blocks marked touched; the old shares must verify, not flag.
TEST(WriteHoleTest, BoundaryStripeGrowthVerifiesOldShares) {
  MemBlockDevice dev(kBs, kBlocks);
  ASSERT_TRUE(StegFs::Format(&dev, SmallFormat()).ok());
  const RedundancyPolicy policy = RedundancyPolicy::Ida(2, 3);
  // 0.75 of a stripe, then append past the stripe boundary.
  const std::string head = Content(kBs + kBs / 2, 4);
  SetUpObject(&dev, policy, head);

  auto fs = StegFs::Mount(&dev, StegFsOptions());
  ASSERT_TRUE(fs.ok());
  ASSERT_TRUE((*fs)->StegConnect(kUid, kObj, kUak).ok());
  const std::string tail = Content(3 * kBs, 5);
  ASSERT_TRUE((*fs)->HiddenWrite(kUid, kObj, head.size(), tail).ok());
  EXPECT_EQ((*fs)->redundancy_stats().verify_failures.value(), 0u);
  auto back = (*fs)->HiddenReadAll(kUid, kObj);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back.value(), head + tail);
}

}  // namespace
}  // namespace stegfs
