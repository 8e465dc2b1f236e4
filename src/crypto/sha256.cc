#include "crypto/sha256.h"

#include <atomic>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#include <immintrin.h>
#define STEGFS_HAVE_SHANI 1
#endif

namespace stegfs {
namespace crypto {

namespace {

// First 32 bits of the fractional parts of the cube roots of the first 64
// primes (FIPS 180-2 section 4.2.2).
alignas(16) constexpr uint32_t kK[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

inline uint32_t Rotr(uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }
inline uint32_t Ch(uint32_t x, uint32_t y, uint32_t z) {
  return (x & y) ^ (~x & z);
}
inline uint32_t Maj(uint32_t x, uint32_t y, uint32_t z) {
  return (x & y) ^ (x & z) ^ (y & z);
}
inline uint32_t BigSigma0(uint32_t x) {
  return Rotr(x, 2) ^ Rotr(x, 13) ^ Rotr(x, 22);
}
inline uint32_t BigSigma1(uint32_t x) {
  return Rotr(x, 6) ^ Rotr(x, 11) ^ Rotr(x, 25);
}
inline uint32_t SmallSigma0(uint32_t x) {
  return Rotr(x, 7) ^ Rotr(x, 18) ^ (x >> 3);
}
inline uint32_t SmallSigma1(uint32_t x) {
  return Rotr(x, 17) ^ Rotr(x, 19) ^ (x >> 10);
}

#ifdef STEGFS_HAVE_SHANI

// SHA-NI needs the SHA extensions (CPUID.7.0:EBX[29]) and SSE4.1
// (CPUID.1:ECX[19]; it implies the SSSE3 byte shuffle).
bool ShaNiSupported() {
  unsigned a, b, c, d;
  if (!__get_cpuid(1, &a, &b, &c, &d) || !(c & (1u << 19))) return false;
  if (!__get_cpuid_count(7, 0, &a, &b, &c, &d)) return false;
  return (b & (1u << 29)) != 0;
}

// Each function carries its own target attribute instead of compiling the
// whole TU with -msha: the library stays runnable on CPUs without SHA-NI
// (ProcessBlocks never calls in here unless ShaNiSupported() is true).
#define STEGFS_SHANI __attribute__((target("sha,sse4.1")))

// Four rounds: the two SHA256RNDS2 steps for message words i*4 .. i*4+3.
// state0/state1 hold ABEF/CDGH, the register layout SHA256RNDS2 works on.
STEGFS_SHANI inline void Rounds4(__m128i& state0, __m128i& state1,
                                 __m128i msg, int i) {
  __m128i wk = _mm_add_epi32(
      msg, _mm_load_si128(reinterpret_cast<const __m128i*>(kK) + i));
  state1 = _mm_sha256rnds2_epu32(state1, state0, wk);
  state0 = _mm_sha256rnds2_epu32(state0, state1, _mm_shuffle_epi32(wk, 0x0e));
}

// The next four message-schedule words from the previous sixteen
// (m0 oldest): W[t] = s1(W[t-2]) + W[t-7] + s0(W[t-15]) + W[t-16].
STEGFS_SHANI inline __m128i Schedule(__m128i m0, __m128i m1, __m128i m2,
                                     __m128i m3) {
  __m128i t = _mm_add_epi32(_mm_sha256msg1_epu32(m0, m1),
                            _mm_alignr_epi8(m3, m2, 4));
  return _mm_sha256msg2_epu32(t, m3);
}

STEGFS_SHANI void CompressShaNi(uint32_t state[8], const uint8_t* p,
                                size_t n) {
  // Big-endian message words: byte-reverse each 32-bit lane.
  const __m128i kBswap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
  // state[0..7] = A..H  ->  state0 = ABEF, state1 = CDGH.
  __m128i tmp = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));
  __m128i state1 =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4));
  tmp = _mm_shuffle_epi32(tmp, 0xb1);        // CDAB
  state1 = _mm_shuffle_epi32(state1, 0x1b);  // EFGH
  __m128i state0 = _mm_alignr_epi8(tmp, state1, 8);  // ABEF
  state1 = _mm_blend_epi16(state1, tmp, 0xf0);       // CDGH

  for (; n > 0; --n, p += 64) {
    const __m128i abef = state0;
    const __m128i cdgh = state1;
    const __m128i* in = reinterpret_cast<const __m128i*>(p);
    __m128i m0 = _mm_shuffle_epi8(_mm_loadu_si128(in + 0), kBswap);
    __m128i m1 = _mm_shuffle_epi8(_mm_loadu_si128(in + 1), kBswap);
    __m128i m2 = _mm_shuffle_epi8(_mm_loadu_si128(in + 2), kBswap);
    __m128i m3 = _mm_shuffle_epi8(_mm_loadu_si128(in + 3), kBswap);
    Rounds4(state0, state1, m0, 0);
    Rounds4(state0, state1, m1, 1);
    Rounds4(state0, state1, m2, 2);
    Rounds4(state0, state1, m3, 3);
    for (int i = 4; i < 16; i += 4) {
      m0 = Schedule(m0, m1, m2, m3);
      Rounds4(state0, state1, m0, i);
      m1 = Schedule(m1, m2, m3, m0);
      Rounds4(state0, state1, m1, i + 1);
      m2 = Schedule(m2, m3, m0, m1);
      Rounds4(state0, state1, m2, i + 2);
      m3 = Schedule(m3, m0, m1, m2);
      Rounds4(state0, state1, m3, i + 3);
    }
    state0 = _mm_add_epi32(state0, abef);
    state1 = _mm_add_epi32(state1, cdgh);
  }

  // ABEF/CDGH back to A..H.
  tmp = _mm_shuffle_epi32(state0, 0x1b);        // FEBA
  state1 = _mm_shuffle_epi32(state1, 0xb1);     // DCHG
  state0 = _mm_blend_epi16(tmp, state1, 0xf0);  // DCBA
  state1 = _mm_alignr_epi8(state1, tmp, 8);     // HGFE
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state), state0);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4), state1);
}

#undef STEGFS_SHANI

#else  // non-x86: the tier is never selected.

bool ShaNiSupported() { return false; }
void CompressShaNi(uint32_t*, const uint8_t*, size_t) {}

#endif

std::atomic<ShaTier>& TierSlot() {
  static std::atomic<ShaTier> tier{ShaNiSupported() ? ShaTier::kShaNi
                                                    : ShaTier::kPortable};
  return tier;
}

}  // namespace

ShaTier ActiveShaTier() { return TierSlot().load(std::memory_order_relaxed); }

const char* ShaTierName() {
  return ActiveShaTier() == ShaTier::kShaNi ? "sha-ni" : "portable";
}

bool SetShaTier(ShaTier tier) {
  if (tier == ShaTier::kShaNi && !ShaNiSupported()) return false;
  TierSlot().store(tier, std::memory_order_relaxed);
  return true;
}

void Sha256::Reset() {
  // Initial hash value (FIPS 180-2 section 5.3.2).
  state_[0] = 0x6a09e667;
  state_[1] = 0xbb67ae85;
  state_[2] = 0x3c6ef372;
  state_[3] = 0xa54ff53a;
  state_[4] = 0x510e527f;
  state_[5] = 0x9b05688c;
  state_[6] = 0x1f83d9ab;
  state_[7] = 0x5be0cd19;
  bit_count_ = 0;
  buffer_len_ = 0;
}

void Sha256::ProcessBlock(const uint8_t block[64]) {
  uint32_t w[64];
  for (int t = 0; t < 16; ++t) {
    w[t] = (static_cast<uint32_t>(block[t * 4]) << 24) |
           (static_cast<uint32_t>(block[t * 4 + 1]) << 16) |
           (static_cast<uint32_t>(block[t * 4 + 2]) << 8) |
           static_cast<uint32_t>(block[t * 4 + 3]);
  }
  for (int t = 16; t < 64; ++t) {
    w[t] = SmallSigma1(w[t - 2]) + w[t - 7] + SmallSigma0(w[t - 15]) +
           w[t - 16];
  }

  uint32_t a = state_[0], b = state_[1], c = state_[2], d = state_[3];
  uint32_t e = state_[4], f = state_[5], g = state_[6], h = state_[7];

  for (int t = 0; t < 64; ++t) {
    uint32_t t1 = h + BigSigma1(e) + Ch(e, f, g) + kK[t] + w[t];
    uint32_t t2 = BigSigma0(a) + Maj(a, b, c);
    h = g;
    g = f;
    f = e;
    e = d + t1;
    d = c;
    c = b;
    b = a;
    a = t1 + t2;
  }

  state_[0] += a;
  state_[1] += b;
  state_[2] += c;
  state_[3] += d;
  state_[4] += e;
  state_[5] += f;
  state_[6] += g;
  state_[7] += h;
}

void Sha256::ProcessBlocks(const uint8_t* blocks, size_t n) {
  if (ActiveShaTier() == ShaTier::kShaNi) {
    CompressShaNi(state_, blocks, n);
    return;
  }
  for (; n > 0; --n, blocks += 64) ProcessBlock(blocks);
}

void Sha256::Update(const void* data, size_t len) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  bit_count_ += static_cast<uint64_t>(len) * 8;

  if (buffer_len_ > 0) {
    size_t need = 64 - buffer_len_;
    size_t take = len < need ? len : need;
    std::memcpy(buffer_ + buffer_len_, p, take);
    buffer_len_ += take;
    p += take;
    len -= take;
    if (buffer_len_ == 64) {
      ProcessBlocks(buffer_, 1);
      buffer_len_ = 0;
    }
  }
  if (len >= 64) {
    const size_t whole = len / 64;
    ProcessBlocks(p, whole);
    p += whole * 64;
    len -= whole * 64;
  }
  if (len > 0) {
    std::memcpy(buffer_, p, len);
    buffer_len_ = len;
  }
}

Sha256Digest Sha256::Finish() {
  // Pad: 0x80, zeros, then the 64-bit big-endian bit count.
  uint64_t bits = bit_count_;
  uint8_t pad[72];
  size_t pad_len = (buffer_len_ < 56) ? (56 - buffer_len_) : (120 - buffer_len_);
  pad[0] = 0x80;
  std::memset(pad + 1, 0, pad_len - 1);
  for (int i = 0; i < 8; ++i) {
    pad[pad_len + i] = static_cast<uint8_t>(bits >> (56 - 8 * i));
  }
  Update(pad, pad_len + 8);

  Sha256Digest out;
  for (int i = 0; i < 8; ++i) {
    out[i * 4] = static_cast<uint8_t>(state_[i] >> 24);
    out[i * 4 + 1] = static_cast<uint8_t>(state_[i] >> 16);
    out[i * 4 + 2] = static_cast<uint8_t>(state_[i] >> 8);
    out[i * 4 + 3] = static_cast<uint8_t>(state_[i]);
  }
  return out;
}

Sha256Digest Sha256::Hash(const void* data, size_t len) {
  Sha256 h;
  h.Update(data, len);
  return h.Finish();
}

Sha256Digest Sha256::Hash2(const std::string& a, const std::string& b) {
  Sha256 h;
  h.Update(a);
  h.Update(b);
  return h.Finish();
}

}  // namespace crypto
}  // namespace stegfs
