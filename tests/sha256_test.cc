#include "crypto/sha256.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "util/hex.h"
#include "util/random.h"

namespace stegfs {
namespace crypto {
namespace {

std::string HexOf(const Sha256Digest& d) {
  return HexEncode(d.data(), d.size());
}

// Switches the process to one compression tier for the lifetime of the
// scope, restoring the original tier afterwards.
class ShaTierScope {
 public:
  explicit ShaTierScope(ShaTier tier) : saved_(ActiveShaTier()) {
    active_ = SetShaTier(tier);
  }
  ~ShaTierScope() { SetShaTier(saved_); }
  bool active() const { return active_; }

 private:
  ShaTier saved_;
  bool active_;
};

// Every case below runs once per tier; the SHA-NI leg skips on CPUs
// without the SHA extensions.
class Sha256Test : public ::testing::TestWithParam<ShaTier> {
 protected:
  void SetUp() override {
    if (!scope_.active()) GTEST_SKIP() << "CPU has no SHA-NI";
  }

 private:
  ShaTierScope scope_{GetParam()};
};

INSTANTIATE_TEST_SUITE_P(
    Tiers, Sha256Test, ::testing::Values(ShaTier::kPortable, ShaTier::kShaNi),
    [](const ::testing::TestParamInfo<ShaTier>& info) {
      return std::string(info.param == ShaTier::kShaNi ? "ShaNi" : "Portable");
    });

// FIPS 180-2 appendix B test vectors.
TEST_P(Sha256Test, EmptyString) {
  EXPECT_EQ(HexOf(Sha256::Hash("")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST_P(Sha256Test, Abc) {
  EXPECT_EQ(HexOf(Sha256::Hash("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST_P(Sha256Test, TwoBlockMessage) {
  EXPECT_EQ(HexOf(Sha256::Hash(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST_P(Sha256Test, MillionA) {
  Sha256 h;
  std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.Update(chunk);
  EXPECT_EQ(HexOf(h.Finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST_P(Sha256Test, IncrementalMatchesOneShot) {
  std::string msg =
      "The quick brown fox jumps over the lazy dog, repeatedly, to exercise "
      "buffer boundaries in the incremental hashing path.";
  Sha256Digest oneshot = Sha256::Hash(msg);
  // Feed in every possible split position.
  for (size_t split = 0; split <= msg.size(); ++split) {
    Sha256 h;
    h.Update(msg.substr(0, split));
    h.Update(msg.substr(split));
    EXPECT_EQ(h.Finish(), oneshot) << "split at " << split;
  }
}

TEST_P(Sha256Test, ExactBlockBoundaries) {
  // Messages of exactly 55, 56, 63, 64, 65 bytes hit all padding branches.
  for (size_t len : {55u, 56u, 63u, 64u, 65u, 119u, 120u, 128u}) {
    std::string msg(len, 'x');
    Sha256Digest a = Sha256::Hash(msg);
    Sha256 h;
    for (char c : msg) h.Update(&c, 1);
    EXPECT_EQ(h.Finish(), a) << "length " << len;
  }
}

TEST_P(Sha256Test, Hash2ConcatenatesInputs) {
  EXPECT_EQ(Sha256::Hash2("foo", "bar"), Sha256::Hash("foobar"));
  EXPECT_NE(Sha256::Hash2("foo", "bar"), Sha256::Hash2("fo", "obar2"));
}

TEST_P(Sha256Test, AvalancheOnSingleBitFlip) {
  std::string a = "stegfs hidden file signature";
  std::string b = a;
  b[0] ^= 1;
  Sha256Digest da = Sha256::Hash(a);
  Sha256Digest db = Sha256::Hash(b);
  int differing_bits = 0;
  for (size_t i = 0; i < da.size(); ++i) {
    uint8_t x = da[i] ^ db[i];
    while (x) {
      differing_bits += x & 1;
      x >>= 1;
    }
  }
  // Expected ~128 of 256 bits; anything in [80, 176] is a sane avalanche.
  EXPECT_GT(differing_bits, 80);
  EXPECT_LT(differing_bits, 176);
}

TEST_P(Sha256Test, ResetReusesContext) {
  Sha256 h;
  h.Update("garbage");
  h.Reset();
  h.Update("abc");
  EXPECT_EQ(HexOf(h.Finish()),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST_P(Sha256Test, TierNameMatchesTier) {
  EXPECT_STREQ(ShaTierName(),
               GetParam() == ShaTier::kShaNi ? "sha-ni" : "portable");
}

// Digests one message fed to Update in random splits.
Sha256Digest SplitDigest(const std::vector<uint8_t>& msg, Xoshiro& splits) {
  Sha256 h;
  size_t off = 0;
  while (off < msg.size()) {
    size_t take = splits.UniformRange(1, msg.size() - off);
    // Favour short pieces too, so the partial-block buffer path runs.
    if (splits.Uniform(2) == 0) take = std::min<size_t>(take, 70);
    h.Update(msg.data() + off, take);
    off += take;
  }
  return h.Finish();
}

TEST(Sha256CrossTierTest, RandomMessagesInRandomSplitsAgree) {
  ShaTierScope probe(ShaTier::kShaNi);
  if (!probe.active()) GTEST_SKIP() << "CPU has no SHA-NI; single-tier machine";
  Xoshiro rng(0x5ba256);
  for (int i = 0; i < 1000; ++i) {
    std::vector<uint8_t> msg(rng.UniformRange(0, 10000));
    rng.FillBytes(msg.data(), msg.size());
    const uint64_t split_seed = rng.Next();
    Xoshiro hw_splits(split_seed), sw_splits(split_seed ^ 0x9e37);

    ASSERT_TRUE(SetShaTier(ShaTier::kShaNi));
    const Sha256Digest hw = SplitDigest(msg, hw_splits);
    ASSERT_TRUE(SetShaTier(ShaTier::kPortable));
    const Sha256Digest sw = SplitDigest(msg, sw_splits);
    ASSERT_EQ(HexOf(hw), HexOf(sw))
        << "message " << i << ", " << msg.size() << " bytes";
  }
}

}  // namespace
}  // namespace crypto
}  // namespace stegfs
