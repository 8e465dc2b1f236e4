#include "crypto/aes.h"

#include <atomic>
#include <cassert>

#include "crypto/aes_ni.h"

namespace stegfs {
namespace crypto {

namespace {

std::atomic<AesTier>& TierSlot() {
  static std::atomic<AesTier> tier{aesni::Supported() ? AesTier::kAesNi
                                                      : AesTier::kTable};
  return tier;
}

}  // namespace

AesTier ActiveAesTier() {
  return TierSlot().load(std::memory_order_relaxed);
}

const char* AesTierName() {
  return ActiveAesTier() == AesTier::kAesNi ? "aes-ni" : "t-table";
}

bool SetAesTier(AesTier tier) {
  if (tier == AesTier::kAesNi && !aesni::Supported()) return false;
  TierSlot().store(tier, std::memory_order_relaxed);
  return true;
}

namespace {

// Forward S-box (FIPS 197 figure 7).
constexpr uint8_t kSbox[256] = {
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b,
    0xfe, 0xd7, 0xab, 0x76, 0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0,
    0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0, 0xb7, 0xfd, 0x93, 0x26,
    0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2,
    0xeb, 0x27, 0xb2, 0x75, 0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0,
    0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84, 0x53, 0xd1, 0x00, 0xed,
    0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f,
    0x50, 0x3c, 0x9f, 0xa8, 0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5,
    0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2, 0xcd, 0x0c, 0x13, 0xec,
    0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14,
    0xde, 0x5e, 0x0b, 0xdb, 0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c,
    0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79, 0xe7, 0xc8, 0x37, 0x6d,
    0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f,
    0x4b, 0xbd, 0x8b, 0x8a, 0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e,
    0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e, 0xe1, 0xf8, 0x98, 0x11,
    0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f,
    0xb0, 0x54, 0xbb, 0x16};

// Inverse S-box (FIPS 197 figure 14).
constexpr uint8_t kInvSbox[256] = {
    0x52, 0x09, 0x6a, 0xd5, 0x30, 0x36, 0xa5, 0x38, 0xbf, 0x40, 0xa3, 0x9e,
    0x81, 0xf3, 0xd7, 0xfb, 0x7c, 0xe3, 0x39, 0x82, 0x9b, 0x2f, 0xff, 0x87,
    0x34, 0x8e, 0x43, 0x44, 0xc4, 0xde, 0xe9, 0xcb, 0x54, 0x7b, 0x94, 0x32,
    0xa6, 0xc2, 0x23, 0x3d, 0xee, 0x4c, 0x95, 0x0b, 0x42, 0xfa, 0xc3, 0x4e,
    0x08, 0x2e, 0xa1, 0x66, 0x28, 0xd9, 0x24, 0xb2, 0x76, 0x5b, 0xa2, 0x49,
    0x6d, 0x8b, 0xd1, 0x25, 0x72, 0xf8, 0xf6, 0x64, 0x86, 0x68, 0x98, 0x16,
    0xd4, 0xa4, 0x5c, 0xcc, 0x5d, 0x65, 0xb6, 0x92, 0x6c, 0x70, 0x48, 0x50,
    0xfd, 0xed, 0xb9, 0xda, 0x5e, 0x15, 0x46, 0x57, 0xa7, 0x8d, 0x9d, 0x84,
    0x90, 0xd8, 0xab, 0x00, 0x8c, 0xbc, 0xd3, 0x0a, 0xf7, 0xe4, 0x58, 0x05,
    0xb8, 0xb3, 0x45, 0x06, 0xd0, 0x2c, 0x1e, 0x8f, 0xca, 0x3f, 0x0f, 0x02,
    0xc1, 0xaf, 0xbd, 0x03, 0x01, 0x13, 0x8a, 0x6b, 0x3a, 0x91, 0x11, 0x41,
    0x4f, 0x67, 0xdc, 0xea, 0x97, 0xf2, 0xcf, 0xce, 0xf0, 0xb4, 0xe6, 0x73,
    0x96, 0xac, 0x74, 0x22, 0xe7, 0xad, 0x35, 0x85, 0xe2, 0xf9, 0x37, 0xe8,
    0x1c, 0x75, 0xdf, 0x6e, 0x47, 0xf1, 0x1a, 0x71, 0x1d, 0x29, 0xc5, 0x89,
    0x6f, 0xb7, 0x62, 0x0e, 0xaa, 0x18, 0xbe, 0x1b, 0xfc, 0x56, 0x3e, 0x4b,
    0xc6, 0xd2, 0x79, 0x20, 0x9a, 0xdb, 0xc0, 0xfe, 0x78, 0xcd, 0x5a, 0xf4,
    0x1f, 0xdd, 0xa8, 0x33, 0x88, 0x07, 0xc7, 0x31, 0xb1, 0x12, 0x10, 0x59,
    0x27, 0x80, 0xec, 0x5f, 0x60, 0x51, 0x7f, 0xa9, 0x19, 0xb5, 0x4a, 0x0d,
    0x2d, 0xe5, 0x7a, 0x9f, 0x93, 0xc9, 0x9c, 0xef, 0xa0, 0xe0, 0x3b, 0x4d,
    0xae, 0x2a, 0xf5, 0xb0, 0xc8, 0xeb, 0xbb, 0x3c, 0x83, 0x53, 0x99, 0x61,
    0x17, 0x2b, 0x04, 0x7e, 0xba, 0x77, 0xd6, 0x26, 0xe1, 0x69, 0x14, 0x63,
    0x55, 0x21, 0x0c, 0x7d};

constexpr uint8_t kRcon[11] = {0x00, 0x01, 0x02, 0x04, 0x08, 0x10,
                               0x20, 0x40, 0x80, 0x1b, 0x36};

// Multiply in GF(2^8) modulo x^8 + x^4 + x^3 + x + 1. Used for table
// construction only — encryption, decryption and key expansion are pure
// table lookups.
uint8_t GfMul(uint8_t a, uint8_t b) {
  uint8_t p = 0;
  for (int i = 0; i < 8; ++i) {
    if (b & 1) p ^= a;
    uint8_t hi = a & 0x80;
    a = static_cast<uint8_t>(a << 1);
    if (hi) a ^= 0x1b;
    b >>= 1;
  }
  return p;
}

// Encryption/decryption T-tables (the classic Rijndael optimization:
// SubBytes + ShiftRows + MixColumns fused into four 1 KB lookup tables).
struct AesTables {
  uint32_t te[4][256];
  uint32_t td[4][256];

  AesTables() {
    for (int x = 0; x < 256; ++x) {
      uint8_t s = kSbox[x];
      uint8_t s2 = GfMul(s, 2);
      uint8_t s3 = GfMul(s, 3);
      uint32_t w = (static_cast<uint32_t>(s2) << 24) |
                   (static_cast<uint32_t>(s) << 16) |
                   (static_cast<uint32_t>(s) << 8) | s3;
      te[0][x] = w;
      te[1][x] = (w >> 8) | (w << 24);
      te[2][x] = (w >> 16) | (w << 16);
      te[3][x] = (w >> 24) | (w << 8);

      uint8_t is = kInvSbox[x];
      uint32_t v = (static_cast<uint32_t>(GfMul(is, 14)) << 24) |
                   (static_cast<uint32_t>(GfMul(is, 9)) << 16) |
                   (static_cast<uint32_t>(GfMul(is, 13)) << 8) |
                   GfMul(is, 11);
      td[0][x] = v;
      td[1][x] = (v >> 8) | (v << 24);
      td[2][x] = (v >> 16) | (v << 16);
      td[3][x] = (v >> 24) | (v << 8);
    }
  }
};

const AesTables& Tables() {
  static const AesTables tables;
  return tables;
}

inline uint32_t SubWord(uint32_t w) {
  return (static_cast<uint32_t>(kSbox[(w >> 24) & 0xff]) << 24) |
         (static_cast<uint32_t>(kSbox[(w >> 16) & 0xff]) << 16) |
         (static_cast<uint32_t>(kSbox[(w >> 8) & 0xff]) << 8) |
         static_cast<uint32_t>(kSbox[w & 0xff]);
}

inline uint32_t RotWord(uint32_t w) { return (w << 8) | (w >> 24); }

// InvMixColumns on a raw round-key word (for the equivalent inverse cipher).
// td[i][x] is InvMixColumns of InvSubBytes(x) placed in byte lane i, so
// indexing it with SubBytes(b) leaves InvMixColumns of b alone: four table
// lookups per word instead of sixteen GfMul loops.
inline uint32_t InvMixColumnsWord(const AesTables& t, uint32_t w) {
  return t.td[0][kSbox[w >> 24]] ^ t.td[1][kSbox[(w >> 16) & 0xff]] ^
         t.td[2][kSbox[(w >> 8) & 0xff]] ^ t.td[3][kSbox[w & 0xff]];
}

inline uint32_t LoadWord(const uint8_t* p) {
  return (static_cast<uint32_t>(p[0]) << 24) |
         (static_cast<uint32_t>(p[1]) << 16) |
         (static_cast<uint32_t>(p[2]) << 8) | p[3];
}

inline void StoreWord(uint8_t* p, uint32_t w) {
  p[0] = static_cast<uint8_t>(w >> 24);
  p[1] = static_cast<uint8_t>(w >> 16);
  p[2] = static_cast<uint8_t>(w >> 8);
  p[3] = static_cast<uint8_t>(w);
}

}  // namespace

Aes::Aes(const uint8_t* key, size_t key_len) { ExpandKey(key, key_len); }

void Aes::ExpandKey(const uint8_t* key, size_t key_len) {
  assert(key_len == 16 || key_len == 24 || key_len == 32);
  const int nk = static_cast<int>(key_len / 4);
  rounds_ = nk + 6;
  const int total_words = 4 * (rounds_ + 1);

  for (int i = 0; i < nk; ++i) {
    round_keys_[i] = LoadWord(key + 4 * i);
  }
  for (int i = nk; i < total_words; ++i) {
    uint32_t temp = round_keys_[i - 1];
    if (i % nk == 0) {
      temp = SubWord(RotWord(temp)) ^
             (static_cast<uint32_t>(kRcon[i / nk]) << 24);
    } else if (nk > 6 && i % nk == 4) {
      temp = SubWord(temp);
    }
    round_keys_[i] = round_keys_[i - nk] ^ temp;
  }

  // Equivalent inverse cipher key schedule: reversed round order, with
  // InvMixColumns applied to every middle round key.
  const AesTables& t = Tables();
  for (int round = 0; round <= rounds_; ++round) {
    for (int c = 0; c < 4; ++c) {
      uint32_t w = round_keys_[(rounds_ - round) * 4 + c];
      if (round != 0 && round != rounds_) w = InvMixColumnsWord(t, w);
      dec_round_keys_[round * 4 + c] = w;
    }
  }

  // Serialize both schedules to FIPS-197 byte order for the AES-NI tier
  // (AESENC/AESDEC consume round keys as raw bytes; the equivalent inverse
  // schedule above is exactly what AESDEC expects).
  for (int i = 0; i < total_words; ++i) {
    StoreWord(enc_ks_ + 4 * i, round_keys_[i]);
    StoreWord(dec_ks_ + 4 * i, dec_round_keys_[i]);
  }
}

void Aes::EncryptBlock(const uint8_t in[16], uint8_t out[16]) const {
  if (ActiveAesTier() == AesTier::kAesNi) {
    aesni::Encrypt1(enc_ks_, rounds_, in, out);
    return;
  }
  EncryptBlockTable(in, out);
}

void Aes::DecryptBlock(const uint8_t in[16], uint8_t out[16]) const {
  if (ActiveAesTier() == AesTier::kAesNi) {
    aesni::Decrypt1(dec_ks_, rounds_, in, out);
    return;
  }
  DecryptBlockTable(in, out);
}

void Aes::EncryptBlocksEcb(const uint8_t* in, uint8_t* out, size_t n) const {
  if (ActiveAesTier() == AesTier::kAesNi) {
    aesni::EncryptEcb(enc_ks_, rounds_, in, out, n);
    return;
  }
  for (size_t i = 0; i < n; ++i) {
    EncryptBlockTable(in + 16 * i, out + 16 * i);
  }
}

void Aes::DecryptBlocksEcb(const uint8_t* in, uint8_t* out, size_t n) const {
  if (ActiveAesTier() == AesTier::kAesNi) {
    aesni::DecryptEcb(dec_ks_, rounds_, in, out, n);
    return;
  }
  for (size_t i = 0; i < n; ++i) {
    DecryptBlockTable(in + 16 * i, out + 16 * i);
  }
}

void Aes::Encrypt4(const uint8_t* const in[4], uint8_t* const out[4]) const {
  if (ActiveAesTier() == AesTier::kAesNi) {
    aesni::Encrypt4(enc_ks_, rounds_, in, out);
    return;
  }
  for (int i = 0; i < 4; ++i) EncryptBlockTable(in[i], out[i]);
}

void Aes::EncryptBlockTable(const uint8_t in[16], uint8_t out[16]) const {
  const AesTables& t = Tables();
  uint32_t s0 = LoadWord(in) ^ round_keys_[0];
  uint32_t s1 = LoadWord(in + 4) ^ round_keys_[1];
  uint32_t s2 = LoadWord(in + 8) ^ round_keys_[2];
  uint32_t s3 = LoadWord(in + 12) ^ round_keys_[3];

  for (int round = 1; round < rounds_; ++round) {
    const uint32_t* rk = round_keys_ + round * 4;
    uint32_t t0 = t.te[0][s0 >> 24] ^ t.te[1][(s1 >> 16) & 0xff] ^
                  t.te[2][(s2 >> 8) & 0xff] ^ t.te[3][s3 & 0xff] ^ rk[0];
    uint32_t t1 = t.te[0][s1 >> 24] ^ t.te[1][(s2 >> 16) & 0xff] ^
                  t.te[2][(s3 >> 8) & 0xff] ^ t.te[3][s0 & 0xff] ^ rk[1];
    uint32_t t2 = t.te[0][s2 >> 24] ^ t.te[1][(s3 >> 16) & 0xff] ^
                  t.te[2][(s0 >> 8) & 0xff] ^ t.te[3][s1 & 0xff] ^ rk[2];
    uint32_t t3 = t.te[0][s3 >> 24] ^ t.te[1][(s0 >> 16) & 0xff] ^
                  t.te[2][(s1 >> 8) & 0xff] ^ t.te[3][s2 & 0xff] ^ rk[3];
    s0 = t0;
    s1 = t1;
    s2 = t2;
    s3 = t3;
  }

  // Final round: SubBytes + ShiftRows only.
  const uint32_t* rk = round_keys_ + rounds_ * 4;
  uint32_t t0 = (static_cast<uint32_t>(kSbox[s0 >> 24]) << 24) |
                (static_cast<uint32_t>(kSbox[(s1 >> 16) & 0xff]) << 16) |
                (static_cast<uint32_t>(kSbox[(s2 >> 8) & 0xff]) << 8) |
                kSbox[s3 & 0xff];
  uint32_t t1 = (static_cast<uint32_t>(kSbox[s1 >> 24]) << 24) |
                (static_cast<uint32_t>(kSbox[(s2 >> 16) & 0xff]) << 16) |
                (static_cast<uint32_t>(kSbox[(s3 >> 8) & 0xff]) << 8) |
                kSbox[s0 & 0xff];
  uint32_t t2 = (static_cast<uint32_t>(kSbox[s2 >> 24]) << 24) |
                (static_cast<uint32_t>(kSbox[(s3 >> 16) & 0xff]) << 16) |
                (static_cast<uint32_t>(kSbox[(s0 >> 8) & 0xff]) << 8) |
                kSbox[s1 & 0xff];
  uint32_t t3 = (static_cast<uint32_t>(kSbox[s3 >> 24]) << 24) |
                (static_cast<uint32_t>(kSbox[(s0 >> 16) & 0xff]) << 16) |
                (static_cast<uint32_t>(kSbox[(s1 >> 8) & 0xff]) << 8) |
                kSbox[s2 & 0xff];
  StoreWord(out, t0 ^ rk[0]);
  StoreWord(out + 4, t1 ^ rk[1]);
  StoreWord(out + 8, t2 ^ rk[2]);
  StoreWord(out + 12, t3 ^ rk[3]);
}

void Aes::DecryptBlockTable(const uint8_t in[16], uint8_t out[16]) const {
  const AesTables& t = Tables();
  uint32_t s0 = LoadWord(in) ^ dec_round_keys_[0];
  uint32_t s1 = LoadWord(in + 4) ^ dec_round_keys_[1];
  uint32_t s2 = LoadWord(in + 8) ^ dec_round_keys_[2];
  uint32_t s3 = LoadWord(in + 12) ^ dec_round_keys_[3];

  for (int round = 1; round < rounds_; ++round) {
    const uint32_t* rk = dec_round_keys_ + round * 4;
    uint32_t t0 = t.td[0][s0 >> 24] ^ t.td[1][(s3 >> 16) & 0xff] ^
                  t.td[2][(s2 >> 8) & 0xff] ^ t.td[3][s1 & 0xff] ^ rk[0];
    uint32_t t1 = t.td[0][s1 >> 24] ^ t.td[1][(s0 >> 16) & 0xff] ^
                  t.td[2][(s3 >> 8) & 0xff] ^ t.td[3][s2 & 0xff] ^ rk[1];
    uint32_t t2 = t.td[0][s2 >> 24] ^ t.td[1][(s1 >> 16) & 0xff] ^
                  t.td[2][(s0 >> 8) & 0xff] ^ t.td[3][s3 & 0xff] ^ rk[2];
    uint32_t t3 = t.td[0][s3 >> 24] ^ t.td[1][(s2 >> 16) & 0xff] ^
                  t.td[2][(s1 >> 8) & 0xff] ^ t.td[3][s0 & 0xff] ^ rk[3];
    s0 = t0;
    s1 = t1;
    s2 = t2;
    s3 = t3;
  }

  const uint32_t* rk = dec_round_keys_ + rounds_ * 4;
  uint32_t t0 = (static_cast<uint32_t>(kInvSbox[s0 >> 24]) << 24) |
                (static_cast<uint32_t>(kInvSbox[(s3 >> 16) & 0xff]) << 16) |
                (static_cast<uint32_t>(kInvSbox[(s2 >> 8) & 0xff]) << 8) |
                kInvSbox[s1 & 0xff];
  uint32_t t1 = (static_cast<uint32_t>(kInvSbox[s1 >> 24]) << 24) |
                (static_cast<uint32_t>(kInvSbox[(s0 >> 16) & 0xff]) << 16) |
                (static_cast<uint32_t>(kInvSbox[(s3 >> 8) & 0xff]) << 8) |
                kInvSbox[s2 & 0xff];
  uint32_t t2 = (static_cast<uint32_t>(kInvSbox[s2 >> 24]) << 24) |
                (static_cast<uint32_t>(kInvSbox[(s1 >> 16) & 0xff]) << 16) |
                (static_cast<uint32_t>(kInvSbox[(s0 >> 8) & 0xff]) << 8) |
                kInvSbox[s3 & 0xff];
  uint32_t t3 = (static_cast<uint32_t>(kInvSbox[s3 >> 24]) << 24) |
                (static_cast<uint32_t>(kInvSbox[(s2 >> 16) & 0xff]) << 16) |
                (static_cast<uint32_t>(kInvSbox[(s1 >> 8) & 0xff]) << 8) |
                kInvSbox[s0 & 0xff];
  StoreWord(out, t0 ^ rk[0]);
  StoreWord(out + 4, t1 ^ rk[1]);
  StoreWord(out + 8, t2 ^ rk[2]);
  StoreWord(out + 12, t3 ^ rk[3]);
}

}  // namespace crypto
}  // namespace stegfs
