#include "crypto/gf256.h"

#include <gtest/gtest.h>

#include "crypto/gf256_simd.h"
#include "crypto/sha256.h"
#include "util/hex.h"
#include "util/random.h"

namespace stegfs {
namespace crypto {
namespace {

TEST(Gf256Test, MulBasics) {
  EXPECT_EQ(Gf256::Mul(0, 77), 0);
  EXPECT_EQ(Gf256::Mul(1, 77), 77);
  EXPECT_EQ(Gf256::Mul(2, 0x80), 0x1b);  // AES xtime wraparound
  // Known AES-field product: 0x57 * 0x83 = 0xc1 (FIPS 197 example).
  EXPECT_EQ(Gf256::Mul(0x57, 0x83), 0xc1);
}

TEST(Gf256Test, MulIsCommutativeAndAssociative) {
  Xoshiro rng(1);
  for (int i = 0; i < 2000; ++i) {
    uint8_t a = static_cast<uint8_t>(rng.Next());
    uint8_t b = static_cast<uint8_t>(rng.Next());
    uint8_t c = static_cast<uint8_t>(rng.Next());
    EXPECT_EQ(Gf256::Mul(a, b), Gf256::Mul(b, a));
    EXPECT_EQ(Gf256::Mul(Gf256::Mul(a, b), c),
              Gf256::Mul(a, Gf256::Mul(b, c)));
    // Distributivity over XOR (field addition).
    EXPECT_EQ(Gf256::Mul(a, b ^ c),
              Gf256::Mul(a, b) ^ Gf256::Mul(a, c));
  }
}

TEST(Gf256Test, InverseRoundTrip) {
  for (int a = 1; a < 256; ++a) {
    uint8_t inv = Gf256::Inv(static_cast<uint8_t>(a));
    EXPECT_EQ(Gf256::Mul(static_cast<uint8_t>(a), inv), 1) << a;
  }
}

TEST(Gf256Test, DivIsMulByInverse) {
  Xoshiro rng(2);
  for (int i = 0; i < 1000; ++i) {
    uint8_t a = static_cast<uint8_t>(rng.Next());
    uint8_t b = static_cast<uint8_t>(1 + rng.Uniform(255));
    EXPECT_EQ(Gf256::Div(a, b), Gf256::Mul(a, Gf256::Inv(b)));
  }
}

TEST(Gf256Test, PowMatchesRepeatedMul) {
  uint8_t acc = 1;
  for (unsigned e = 0; e < 20; ++e) {
    EXPECT_EQ(Gf256::Pow(3, e), acc) << e;
    acc = Gf256::Mul(acc, 3);
  }
}

std::vector<uint8_t> RandomBytes(size_t n, uint64_t seed) {
  Xoshiro rng(seed);
  std::vector<uint8_t> v(n);
  rng.FillBytes(v.data(), n);
  return v;
}

// --- SIMD GF(256) tiers ----------------------------------------------
// Same pattern as crypto_tiers_test.cc for AES: force each backend in
// turn and require bit-identical results against the scalar reference.

class GfTierScope {
 public:
  explicit GfTierScope(GfTier tier) : saved_(ActiveGfTier()) {
    active_ = SetGfTier(tier);
  }
  ~GfTierScope() { SetGfTier(saved_); }
  // False when the CPU lacks the tier (the setter refused the switch).
  bool active() const { return active_; }

 private:
  GfTier saved_;
  bool active_ = false;
};

const GfTier kAllTiers[] = {GfTier::kScalar, GfTier::kPshufb, GfTier::kGfni};

TEST(GfSimdTest, TierNameIsStable) {
  const char* name = GfTierName();
  ASSERT_NE(name, nullptr);
  EXPECT_TRUE(std::string(name) == "gfni" || std::string(name) == "pshufb" ||
              std::string(name) == "gf-scalar");
}

TEST(GfSimdTest, DotProdMatchesMulReferenceOnEveryTier) {
  // Lengths straddle the 16- and 32-byte vector steps and the scalar
  // tier's 8-byte words; the rows mix 0 and 1 (the old fast paths) with
  // arbitrary coefficients.
  const size_t kLens[] = {0, 1, 31, 32, 33, 4096, 4113};
  for (GfTier tier : kAllTiers) {
    GfTierScope scope(tier);
    if (!scope.active()) continue;  // CPU lacks this tier
    for (int m = 1; m <= 16; ++m) {
      Xoshiro rng(0x600d + m);
      std::vector<std::vector<uint8_t>> rows(4, std::vector<uint8_t>(m));
      for (uint8_t& c : rows[0]) c = static_cast<uint8_t>(rng.Next());
      rows[0][0] = 0;
      rows[0][m - 1] = 1;
      rows[1].assign(m, 1);
      rows[2].assign(m, 0);
      for (uint8_t& c : rows[3]) c = static_cast<uint8_t>(rng.Next());
      for (size_t len : kLens) {
        std::vector<std::vector<uint8_t>> srcs(m);
        std::vector<const uint8_t*> ptrs(m);
        for (int j = 0; j < m; ++j) {
          srcs[j] = RandomBytes(len, 0x1000 * m + 16 * len + j);
          ptrs[j] = srcs[j].data();
        }
        for (const std::vector<uint8_t>& row : rows) {
          std::vector<uint8_t> expect(len, 0);
          for (int j = 0; j < m; ++j) {
            for (size_t i = 0; i < len; ++i) {
              expect[i] ^= Gf256::Mul(row[j], srcs[j][i]);
            }
          }
          // dst starts as garbage (it is overwritten, not accumulated
          // into) and carries a guard byte the kernel must not touch.
          std::vector<uint8_t> dst = RandomBytes(len + 1, 0x2000 + len);
          const uint8_t guard = dst[len];
          GfDotProd(row.data(), ptrs.data(), m, dst.data(), len);
          EXPECT_EQ(dst[len], guard) << GfTierName();
          dst.pop_back();
          EXPECT_EQ(dst, expect) << GfTierName() << " m=" << m
                                 << " len=" << len;
        }
      }
    }
  }
}

// (share index, block) pairs for the shares whose bit is set in `mask`,
// highest index first so the decoder has to reorder rows.
std::vector<std::pair<uint8_t, std::vector<uint8_t>>> Select(
    const std::vector<std::vector<uint8_t>>& shares, uint32_t mask) {
  std::vector<std::pair<uint8_t, std::vector<uint8_t>>> sel;
  for (int s = static_cast<int>(shares.size()) - 1; s >= 0; --s) {
    if (mask & (1u << s)) sel.emplace_back(static_cast<uint8_t>(s), shares[s]);
  }
  return sel;
}

std::vector<std::vector<uint8_t>> RandomStripe(int m, size_t len,
                                               uint64_t seed) {
  std::vector<std::vector<uint8_t>> blocks(m);
  for (int j = 0; j < m; ++j) blocks[j] = RandomBytes(len, seed + j);
  return blocks;
}

TEST(IdaStripeTest, EveryKSubsetReconstructsOnEveryTier) {
  const std::pair<int, int> kShapes[] = {{1, 4}, {3, 4}, {4, 8}, {5, 5},
                                         {16, 16}};
  for (GfTier tier : kAllTiers) {
    GfTierScope scope(tier);
    if (!scope.active()) continue;
    for (auto [m, n] : kShapes) {
      auto blocks = RandomStripe(m, 4096 + 7, 0x5000 + 32 * m + n);
      auto shares = IdaEncodeStripe(blocks, n);
      ASSERT_EQ(shares.size(), static_cast<size_t>(n));
      for (int j = 0; j < m; ++j) EXPECT_EQ(shares[j], blocks[j]);
      int subsets = 0;
      for (uint32_t mask = 0; mask < (1u << n); ++mask) {
        if (__builtin_popcount(mask) != m) continue;
        ++subsets;
        auto back = IdaDecodeStripe(Select(shares, mask), m);
        ASSERT_TRUE(back.ok()) << GfTierName() << " (" << m << "," << n
                               << ") mask " << mask;
        EXPECT_EQ(back.value(), blocks)
            << GfTierName() << " (" << m << "," << n << ") mask " << mask;
      }
      EXPECT_GE(subsets, 1);
    }
  }
}

TEST(IdaStripeTest, FewerThanKSharesRejected) {
  auto shares = IdaEncodeStripe(RandomStripe(3, 100, 4), 5);
  auto two = IdaDecodeStripe({{0, shares[0]}, {4, shares[4]}}, 3);
  EXPECT_TRUE(two.status().IsInvalidArgument());
  // Duplicate indices don't count twice.
  auto dup = IdaDecodeStripe({{0, shares[0]}, {0, shares[0]}, {0, shares[0]}},
                             3);
  EXPECT_TRUE(dup.status().IsInvalidArgument());
}

TEST(IdaStripeTest, DuplicateIndicesAreIgnoredOnEveryTier) {
  auto blocks = RandomStripe(3, 500, 9);
  for (GfTier tier : kAllTiers) {
    GfTierScope scope(tier);
    if (!scope.active()) continue;
    auto shares = IdaEncodeStripe(blocks, 5);
    // A repeat of share 4 (even one whose bytes were damaged) is skipped;
    // the first three distinct indices decode.
    std::vector<uint8_t> bad = shares[4];
    bad[0] ^= 0xff;
    auto back = IdaDecodeStripe(
        {{4, shares[4]}, {4, bad}, {1, shares[1]}, {4, bad}, {3, shares[3]}},
        3);
    ASSERT_TRUE(back.ok()) << GfTierName();
    EXPECT_EQ(back.value(), blocks) << GfTierName();
  }
}

TEST(IdaStripeTest, LengthMismatchRejected) {
  auto shares = IdaEncodeStripe(RandomStripe(3, 64, 11), 5);
  shares[3].pop_back();
  auto back =
      IdaDecodeStripe({{0, shares[0]}, {3, shares[3]}, {4, shares[4]}}, 3);
  EXPECT_TRUE(back.status().IsInvalidArgument());
}

TEST(IdaStripeTest, CorruptedShareYieldsWrongDataNotCrashOnEveryTier) {
  auto blocks = RandomStripe(3, 300, 8);
  for (GfTier tier : kAllTiers) {
    GfTierScope scope(tier);
    if (!scope.active()) continue;
    auto shares = IdaEncodeStripe(blocks, 5);
    shares[4][10] ^= 0xff;
    auto back =
        IdaDecodeStripe({{2, shares[2]}, {3, shares[3]}, {4, shares[4]}}, 3);
    // The stripe code has no integrity check (callers MAC their shares);
    // decode either fails structurally or returns different bytes.
    if (back.ok()) {
      EXPECT_NE(back.value(), blocks) << GfTierName();
    }
  }
}

TEST(GfSimdTest, StripeEncodeDecodeAcrossTiers) {
  const int m = 4, n = 7;
  const size_t len = 4096 + 13;
  auto blocks = RandomStripe(m, len, 99);
  std::vector<std::vector<uint8_t>> first;
  for (GfTier tier : kAllTiers) {
    GfTierScope scope(tier);
    if (!scope.active()) continue;
    auto shares = IdaEncodeStripe(blocks, n);
    ASSERT_EQ(shares.size(), static_cast<size_t>(n));
    // Decode from the last m shares (all parity rows involved).
    std::vector<std::pair<uint8_t, std::vector<uint8_t>>> sel;
    for (int j = 0; j < m; ++j) {
      sel.emplace_back(static_cast<uint8_t>(n - m + j), shares[n - m + j]);
    }
    auto back = IdaDecodeStripe(sel, m);
    ASSERT_TRUE(back.ok()) << GfTierName();
    for (int j = 0; j < m; ++j) {
      EXPECT_EQ(back.value()[j], blocks[j]) << GfTierName() << " block "
                                            << j;
    }
    if (first.empty()) {
      first = shares;
    } else {
      for (int s = 0; s < n; ++s) {
        EXPECT_EQ(shares[s], first[s]) << GfTierName() << " share " << s;
      }
    }
  }
}

// Pins the bytes of one fixed kIda(3,5) stripe: both parity shares and
// the data decoded from a subset that mixes data and parity rows. Every
// tier must reproduce these digests, whatever loop shape its kernel has.
TEST(GfSimdTest, GoldenIda35StripeDigests) {
  const int m = 3, n = 5;
  const size_t len = 4096 + 13;
  std::vector<std::vector<uint8_t>> blocks(m);
  for (int j = 0; j < m; ++j) blocks[j] = RandomBytes(len, 0x6017 + j);
  for (GfTier tier : kAllTiers) {
    GfTierScope scope(tier);
    if (!scope.active()) continue;
    auto shares = IdaEncodeStripe(blocks, n);
    ASSERT_EQ(shares.size(), static_cast<size_t>(n));
    Sha256 parity;
    for (int s = m; s < n; ++s) parity.Update(shares[s].data(), len);
    Sha256Digest pd = parity.Finish();
    EXPECT_EQ(HexEncode(pd.data(), pd.size()),
              "7c324b34ee21ab8066b5fa35dd5e9f24b7f0518ead83f4b07ecf9ae4dfa4ec8d")
        << GfTierName();

    auto back = IdaDecodeStripe({{4, shares[4]}, {1, shares[1]},
                                 {3, shares[3]}},
                                m);
    ASSERT_TRUE(back.ok()) << GfTierName();
    Sha256 decoded;
    for (const auto& b : back.value()) decoded.Update(b.data(), b.size());
    Sha256Digest dd = decoded.Finish();
    EXPECT_EQ(HexEncode(dd.data(), dd.size()),
              "10c53f96fadc33f6bb2cde876586573665736fa47f70295b48866fcf8ab4fc4c")
        << GfTierName();
    for (int j = 0; j < m; ++j) EXPECT_EQ(back.value()[j], blocks[j]);
  }
}

TEST(GfSimdTest, SetGfTierRefusesUnsupportedTier) {
  GfTierScope probe(GfTier::kGfni);
  if (!probe.active()) {
    // On a CPU without GFNI the setter must refuse and leave the active
    // tier untouched.
    EXPECT_NE(ActiveGfTier(), GfTier::kGfni);
  } else {
    EXPECT_EQ(ActiveGfTier(), GfTier::kGfni);
  }
}

}  // namespace
}  // namespace crypto
}  // namespace stegfs
