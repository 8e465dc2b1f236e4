// Equivalence tests for the AES dispatch tiers and the batched
// BlockCrypter entry points:
//   - every tier (t-table always; AES-NI when the CPU has it) must match
//     the FIPS 197 appendix C vectors AND the byte-wise reference
//     implementation (crypto::AesRef) on random data,
//   - the ECB / 4-lane batch entry points must match the single-block
//     path,
//   - BlockCrypter::{Encrypt,Decrypt}Blocks must be bitwise identical to
//     the per-block transforms on random batches with non-contiguous
//     block numbers, including across tiers (encrypt on one, decrypt on
//     the other).
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "crypto/aes.h"
#include "crypto/aes_ref.h"
#include "crypto/block_crypter.h"
#include "obs/metrics.h"
#include "util/hex.h"
#include "util/random.h"

namespace stegfs {
namespace crypto {
namespace {

// Runs the test body once per tier supported on this CPU, restoring the
// original tier afterwards.
class TierScope {
 public:
  explicit TierScope(AesTier tier) : saved_(ActiveAesTier()) {
    active_ = SetAesTier(tier);
  }
  ~TierScope() { SetAesTier(saved_); }
  bool active() const { return active_; }

 private:
  AesTier saved_;
  bool active_;
};

const AesTier kAllTiers[] = {AesTier::kTable, AesTier::kAesNi};

std::vector<uint8_t> FromHex(const std::string& h) {
  std::vector<uint8_t> out;
  EXPECT_TRUE(HexDecode(h, &out));
  return out;
}

void CheckFipsVectors() {
  struct Vec {
    const char* key;
    const char* ct;
  };
  // FIPS 197 appendix C: plaintext 00112233...eeff, key 000102....
  const char* pt_hex = "00112233445566778899aabbccddeeff";
  const Vec vecs[] = {
      {"000102030405060708090a0b0c0d0e0f",
       "69c4e0d86a7b0430d8cdb78070b4c55a"},
      {"000102030405060708090a0b0c0d0e0f1011121314151617",
       "dda97ca4864cdfe06eaf70a0ec0d7191"},
      {"000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f",
       "8ea2b7ca516745bfeafc49904b496089"},
  };
  for (const Vec& v : vecs) {
    auto key = FromHex(v.key);
    auto pt = FromHex(pt_hex);
    Aes aes(key.data(), key.size());
    uint8_t enc[16], dec[16];
    aes.EncryptBlock(pt.data(), enc);
    EXPECT_EQ(HexEncode(enc, 16), v.ct);
    aes.DecryptBlock(enc, dec);
    EXPECT_EQ(HexEncode(dec, 16), pt_hex);
  }
}

TEST(CryptoTiersTest, EveryTierMatchesFips197) {
  for (AesTier tier : kAllTiers) {
    TierScope scope(tier);
    if (!scope.active()) continue;  // AES-NI absent on this CPU
    SCOPED_TRACE(AesTierName());
    CheckFipsVectors();
  }
}

TEST(CryptoTiersTest, ReferenceMatchesFips197) {
  auto key = FromHex(
      "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f");
  auto pt = FromHex("00112233445566778899aabbccddeeff");
  AesRef ref(key.data(), key.size());
  uint8_t enc[16], dec[16];
  ref.EncryptBlock(pt.data(), enc);
  EXPECT_EQ(HexEncode(enc, 16), "8ea2b7ca516745bfeafc49904b496089");
  ref.DecryptBlock(enc, dec);
  EXPECT_EQ(HexEncode(dec, 16), "00112233445566778899aabbccddeeff");
}

TEST(CryptoTiersTest, TiersMatchByteWiseReferenceOnRandomData) {
  Xoshiro rng(0xc0ffee);
  for (size_t key_len : {16u, 24u, 32u}) {
    std::vector<uint8_t> key(key_len);
    rng.FillBytes(key.data(), key.size());
    AesRef ref(key.data(), key.size());
    Aes aes(key.data(), key.size());
    for (int i = 0; i < 64; ++i) {
      uint8_t pt[16], want_ct[16], want_pt[16];
      rng.FillBytes(pt, 16);
      ref.EncryptBlock(pt, want_ct);
      ref.DecryptBlock(want_ct, want_pt);
      ASSERT_EQ(std::memcmp(want_pt, pt, 16), 0);  // the reference itself
      for (AesTier tier : kAllTiers) {
        TierScope scope(tier);
        if (!scope.active()) continue;
        SCOPED_TRACE(AesTierName());
        uint8_t got[16];
        aes.EncryptBlock(pt, got);
        EXPECT_EQ(std::memcmp(got, want_ct, 16), 0);
        aes.DecryptBlock(want_ct, got);
        EXPECT_EQ(std::memcmp(got, pt, 16), 0);
      }
    }
  }
}

TEST(CryptoTiersTest, EcbBatchMatchesSingleBlocks) {
  Xoshiro rng(0xba7c4ed);
  std::vector<uint8_t> key(32);
  rng.FillBytes(key.data(), key.size());
  Aes aes(key.data(), key.size());
  // Odd count exercises the 4-wide pipeline remainder.
  const size_t kN = 23;
  std::vector<uint8_t> in(kN * 16), want(kN * 16), got(kN * 16);
  rng.FillBytes(in.data(), in.size());
  for (AesTier tier : kAllTiers) {
    TierScope scope(tier);
    if (!scope.active()) continue;
    SCOPED_TRACE(AesTierName());
    for (size_t i = 0; i < kN; ++i) {
      aes.EncryptBlock(in.data() + 16 * i, want.data() + 16 * i);
    }
    aes.EncryptBlocksEcb(in.data(), got.data(), kN);
    EXPECT_EQ(want, got);
    aes.DecryptBlocksEcb(want.data(), got.data(), kN);
    EXPECT_EQ(std::memcmp(got.data(), in.data(), in.size()), 0);
    // In-place batch.
    got = in;
    aes.EncryptBlocksEcb(got.data(), got.data(), kN);
    EXPECT_EQ(want, got);
  }
}

TEST(CryptoTiersTest, Encrypt4MatchesSingleBlocks) {
  Xoshiro rng(0x4444);
  std::vector<uint8_t> key(32);
  rng.FillBytes(key.data(), key.size());
  Aes aes(key.data(), key.size());
  uint8_t in[4][16], want[4][16], got[4][16];
  for (int l = 0; l < 4; ++l) rng.FillBytes(in[l], 16);
  for (AesTier tier : kAllTiers) {
    TierScope scope(tier);
    if (!scope.active()) continue;
    SCOPED_TRACE(AesTierName());
    for (int l = 0; l < 4; ++l) aes.EncryptBlock(in[l], want[l]);
    const uint8_t* inp[4] = {in[0], in[1], in[2], in[3]};
    uint8_t* outp[4] = {got[0], got[1], got[2], got[3]};
    aes.Encrypt4(inp, outp);
    for (int l = 0; l < 4; ++l) {
      EXPECT_EQ(std::memcmp(got[l], want[l], 16), 0) << "lane " << l;
    }
  }
}

TEST(CryptoTiersTest, BlockCrypterBatchMatchesSingleNonContiguous) {
  Xoshiro rng(0x5e9);
  BlockCrypter bc("tier-equivalence-key");
  const size_t kBlock = 1024;
  // Deliberately non-contiguous, unsorted, well-spread block numbers.
  const uint64_t kBlocks[] = {7, 123456789, 42, 0, 999999999999ULL, 8191, 13};
  const size_t kN = sizeof(kBlocks) / sizeof(kBlocks[0]);

  std::vector<uint8_t> plain(kN * kBlock);
  rng.FillBytes(plain.data(), plain.size());

  for (AesTier tier : kAllTiers) {
    TierScope scope(tier);
    if (!scope.active()) continue;
    SCOPED_TRACE(AesTierName());

    // Single-block transforms = ground truth.
    std::vector<uint8_t> want = plain;
    for (size_t i = 0; i < kN; ++i) {
      bc.EncryptBlock(kBlocks[i], want.data() + i * kBlock, kBlock);
    }

    std::vector<uint8_t> got = plain;
    std::vector<CryptSpan> spans(kN);
    for (size_t i = 0; i < kN; ++i) {
      spans[i] = {kBlocks[i], got.data() + i * kBlock};
    }
    bc.EncryptBlocks(spans.data(), kN, kBlock);
    EXPECT_EQ(want, got);

    bc.DecryptBlocks(spans.data(), kN, kBlock);
    EXPECT_EQ(got, plain);
  }
}

TEST(CryptoTiersTest, DecryptPrefixMatchesDecryptBlock) {
  Xoshiro rng(0x9f1c);
  BlockCrypter bc("prefix-key");
  const uint64_t kBlocks[] = {7, 123456789, 42, 0, 999999999999ULL, 8191, 13};
  const size_t kN = sizeof(kBlocks) / sizeof(kBlocks[0]);

  for (AesTier tier : kAllTiers) {
    TierScope scope(tier);
    if (!scope.active()) continue;
    SCOPED_TRACE(AesTierName());
    for (size_t size = 512; size <= 65536; size *= 2) {
      SCOPED_TRACE(size);
      std::vector<uint8_t> cipher(kN * size);
      rng.FillBytes(cipher.data(), cipher.size());
      // Whole-block single decrypts = ground truth.
      std::vector<uint8_t> plain = cipher;
      for (size_t i = 0; i < kN; ++i) {
        bc.DecryptBlock(kBlocks[i], plain.data() + i * size, size);
      }
      std::vector<CryptSpan> spans(kN);
      for (size_t i = 0; i < kN; ++i) {
        spans[i] = {kBlocks[i], cipher.data() + i * size};
      }
      const std::vector<uint8_t> before = cipher;
      for (size_t cells : {size_t{1}, size_t{2}, size / 16}) {
        SCOPED_TRACE(cells);
        std::vector<uint8_t> got(kN * cells * 16);
        bc.DecryptPrefix(spans.data(), kN, cells, got.data());
        for (size_t i = 0; i < kN; ++i) {
          EXPECT_EQ(std::memcmp(got.data() + i * cells * 16,
                                plain.data() + i * size, cells * 16),
                    0)
              << "block " << kBlocks[i];
        }
        EXPECT_EQ(cipher, before);  // the ciphertext is only read
      }
    }
  }
}

TEST(CryptoTiersTest, DecryptPrefixIsTimedButNotCountedAsBlocks) {
  BlockCrypter bc("prefix-metrics-key");
  std::vector<uint8_t> block(4096, 0x3c);
  CryptSpan span{99, block.data()};
  uint8_t sig[32];
  obs::CryptoMetrics& cm = obs::GlobalCryptoMetrics();
  const uint64_t blocks0 = cm.blocks_decrypted.value();
  const uint64_t timed0 = cm.decrypt_ns.count();
  bc.DecryptPrefix(&span, 1, 2, sig);
  EXPECT_EQ(cm.blocks_decrypted.value(), blocks0);
  if (obs::MetricsEnabled()) {
    EXPECT_EQ(cm.decrypt_ns.count(), timed0 + 1);
  }
}

TEST(CryptoTiersTest, CiphertextIdenticalAcrossTiers) {
  TierScope probe(AesTier::kAesNi);
  if (!probe.active()) {
    GTEST_SKIP() << "CPU has no AES-NI; single-tier machine";
  }
  BlockCrypter bc("cross-tier-key");
  std::vector<uint8_t> data(4096);
  Xoshiro rng(0xabcd);
  rng.FillBytes(data.data(), data.size());
  std::vector<uint8_t> plain = data;

  // Encrypt with hardware, decrypt with software (and vice versa).
  ASSERT_TRUE(SetAesTier(AesTier::kAesNi));
  bc.EncryptBlock(31337, data.data(), data.size());
  std::vector<uint8_t> hw_cipher = data;
  ASSERT_TRUE(SetAesTier(AesTier::kTable));
  bc.DecryptBlock(31337, data.data(), data.size());
  EXPECT_EQ(data, plain);
  bc.EncryptBlock(31337, data.data(), data.size());
  EXPECT_EQ(data, hw_cipher);  // bitwise-identical ciphertext
  ASSERT_TRUE(SetAesTier(AesTier::kAesNi));
  bc.DecryptBlock(31337, data.data(), data.size());
  EXPECT_EQ(data, plain);
}

}  // namespace
}  // namespace crypto
}  // namespace stegfs
