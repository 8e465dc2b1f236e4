#include "crypto/gf256_simd.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstring>

#include "crypto/gf256.h"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define STEGFS_GF_X86 1
#endif

namespace stegfs {
namespace crypto {

namespace {

// 16-entry nibble product tables for a fixed coefficient c:
//   c * b == lo[b & 15] ^ hi[b >> 4]
// because multiplication distributes over the XOR split of b.
struct NibbleTables {
  uint8_t lo[16];
  uint8_t hi[16];
};

// Every coefficient's tables, built once: mul[c][b] == c * b for the scalar
// tier, nib[c] for the PSHUFB tiers (72 KiB in all).
struct ProductTables {
  uint8_t mul[256][256];
  NibbleTables nib[256];

  ProductTables() {
    for (int c = 0; c < 256; ++c) {
      for (int b = 0; b < 256; ++b) {
        mul[c][b] =
            Gf256::Mul(static_cast<uint8_t>(c), static_cast<uint8_t>(b));
      }
      for (int x = 0; x < 16; ++x) {
        nib[c].lo[x] = mul[c][x];
        nib[c].hi[x] = mul[c][x << 4];
      }
    }
  }
};

const ProductTables& Products() {
  static const ProductTables tables;
  return tables;
}

// Bytes [from, len) of the dot product. A byte loop that walks the m
// sources for every output byte runs slower than per-source passes here,
// so the scalar tier accumulates source by source into a chunk of dst
// small enough to stay in L1: the first source writes the chunk, the rest
// XOR into it, and coefficient 1 XORs eight bytes at a time.
void DotProdScalar(const uint8_t* coefs, const uint8_t* const* srcs, int m,
                   uint8_t* dst, size_t from, size_t len) {
  constexpr size_t kChunk = 1024;
  const ProductTables& t = Products();
  for (size_t begin = from; begin < len; begin += kChunk) {
    const size_t end = std::min(len, begin + kChunk);
    const uint8_t* row = t.mul[coefs[0]];
    const uint8_t* first = srcs[0];
    for (size_t i = begin; i < end; ++i) dst[i] = row[first[i]];
    for (int j = 1; j < m; ++j) {
      const uint8_t* src = srcs[j];
      size_t i = begin;
      if (coefs[j] == 1) {
        for (; i + 8 <= end; i += 8) {
          uint64_t d = 0, s = 0;
          std::memcpy(&d, dst + i, 8);
          std::memcpy(&s, src + i, 8);
          d ^= s;
          std::memcpy(dst + i, &d, 8);
        }
      }
      row = t.mul[coefs[j]];
      for (; i < end; ++i) dst[i] ^= row[src[i]];
    }
  }
}

#ifdef STEGFS_GF_X86

#define STEGFS_GF_SSSE3 __attribute__((target("ssse3")))
#define STEGFS_GF_AVX2 __attribute__((target("avx2")))
#define STEGFS_GF_GFNI __attribute__((target("gfni,avx2")))

// The vector tiers keep one output vector in a register across all m
// sources and store it once; the bytes past the last whole vector go to the
// scalar kernel.

STEGFS_GF_SSSE3 void DotProdPshufb128(const uint8_t* coefs,
                                      const uint8_t* const* srcs, int m,
                                      uint8_t* dst, size_t len) {
  const NibbleTables* nib = Products().nib;
  const __m128i mask = _mm_set1_epi8(0x0f);
  size_t i = 0;
  for (; i + 16 <= len; i += 16) {
    __m128i acc = _mm_setzero_si128();
    for (int j = 0; j < m; ++j) {
      const NibbleTables& t = nib[coefs[j]];
      const __m128i lo =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(t.lo));
      const __m128i hi =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(t.hi));
      __m128i v =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(srcs[j] + i));
      __m128i l = _mm_shuffle_epi8(lo, _mm_and_si128(v, mask));
      __m128i h =
          _mm_shuffle_epi8(hi, _mm_and_si128(_mm_srli_epi64(v, 4), mask));
      acc = _mm_xor_si128(acc, _mm_xor_si128(l, h));
    }
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i), acc);
  }
  DotProdScalar(coefs, srcs, m, dst, i, len);
}

STEGFS_GF_AVX2 void DotProdPshufb256(const uint8_t* coefs,
                                     const uint8_t* const* srcs, int m,
                                     uint8_t* dst, size_t len) {
  const NibbleTables* nib = Products().nib;
  const __m256i mask = _mm256_set1_epi8(0x0f);
  size_t i = 0;
  for (; i + 32 <= len; i += 32) {
    __m256i acc = _mm256_setzero_si256();
    for (int j = 0; j < m; ++j) {
      const NibbleTables& t = nib[coefs[j]];
      const __m256i lo = _mm256_broadcastsi128_si256(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(t.lo)));
      const __m256i hi = _mm256_broadcastsi128_si256(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(t.hi)));
      __m256i v =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(srcs[j] + i));
      __m256i l = _mm256_shuffle_epi8(lo, _mm256_and_si256(v, mask));
      __m256i h = _mm256_shuffle_epi8(
          hi, _mm256_and_si256(_mm256_srli_epi64(v, 4), mask));
      acc = _mm256_xor_si256(acc, _mm256_xor_si256(l, h));
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i), acc);
  }
  DotProdScalar(coefs, srcs, m, dst, i, len);
}

// GF2P8MULB multiplies in x^8 + x^4 + x^3 + x + 1 — exactly our field, no
// tables needed.
STEGFS_GF_GFNI void DotProdGfni(const uint8_t* coefs,
                                const uint8_t* const* srcs, int m,
                                uint8_t* dst, size_t len) {
  size_t i = 0;
  for (; i + 32 <= len; i += 32) {
    __m256i acc = _mm256_setzero_si256();
    for (int j = 0; j < m; ++j) {
      __m256i v =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(srcs[j] + i));
      __m256i c = _mm256_set1_epi8(static_cast<char>(coefs[j]));
      acc = _mm256_xor_si256(acc, _mm256_gf2p8mul_epi8(v, c));
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i), acc);
  }
  DotProdScalar(coefs, srcs, m, dst, i, len);
}

bool GfniSupported() {
  return __builtin_cpu_supports("gfni") && __builtin_cpu_supports("avx2");
}
bool PshufbSupported() { return __builtin_cpu_supports("ssse3"); }
bool Avx2Supported() { return __builtin_cpu_supports("avx2"); }

#else  // !STEGFS_GF_X86

bool GfniSupported() { return false; }
bool PshufbSupported() { return false; }
bool Avx2Supported() { return false; }

#endif  // STEGFS_GF_X86

GfTier DetectTier() {
  if (GfniSupported()) return GfTier::kGfni;
  if (PshufbSupported()) return GfTier::kPshufb;
  return GfTier::kScalar;
}

std::atomic<GfTier>& TierSlot() {
  static std::atomic<GfTier> tier{DetectTier()};
  return tier;
}

}  // namespace

GfTier ActiveGfTier() {
  return TierSlot().load(std::memory_order_relaxed);
}

const char* GfTierName() {
  switch (ActiveGfTier()) {
    case GfTier::kGfni:
      return "gfni";
    case GfTier::kPshufb:
      return "pshufb";
    case GfTier::kScalar:
      break;
  }
  return "gf-scalar";
}

bool SetGfTier(GfTier tier) {
  if (tier == GfTier::kGfni && !GfniSupported()) return false;
  if (tier == GfTier::kPshufb && !PshufbSupported()) return false;
  TierSlot().store(tier, std::memory_order_relaxed);
  return true;
}

void GfDotProd(const uint8_t* coefs, const uint8_t* const* srcs, int m,
               uint8_t* dst, size_t len) {
  assert(m >= 1);
  switch (ActiveGfTier()) {
#ifdef STEGFS_GF_X86
    case GfTier::kGfni:
      DotProdGfni(coefs, srcs, m, dst, len);
      return;
    case GfTier::kPshufb:
      if (Avx2Supported()) {
        DotProdPshufb256(coefs, srcs, m, dst, len);
      } else {
        DotProdPshufb128(coefs, srcs, m, dst, len);
      }
      return;
#else
    case GfTier::kGfni:
    case GfTier::kPshufb:
#endif
    case GfTier::kScalar:
      break;
  }
  DotProdScalar(coefs, srcs, m, dst, 0, len);
}

}  // namespace crypto
}  // namespace stegfs
