// Deterministic pseudo-random number generation for workloads and tests.
//
// This is NOT the cryptographic PRNG used to place hidden-file headers (see
// crypto/prng.h for that). Xoshiro256** is fast and statistically strong,
// which is what workload generation and Monte-Carlo space experiments need.
#ifndef STEGFS_UTIL_RANDOM_H_
#define STEGFS_UTIL_RANDOM_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

namespace stegfs {

// xoshiro256** 1.0 by Blackman & Vigna (public domain reference algorithm).
class Xoshiro {
 public:
  explicit Xoshiro(uint64_t seed) {
    // SplitMix64 seeding, as recommended by the xoshiro authors.
    uint64_t x = seed;
    for (auto& si : s_) {
      x += 0x9e3779b97f4a7c15ULL;
      uint64_t z = x;
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
      si = z ^ (z >> 31);
    }
  }

  uint64_t Next() {
    const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = Rotl(s_[3], 45);
    return result;
  }

  // Uniform integer in [0, n). n must be > 0.
  uint64_t Uniform(uint64_t n) { return Next() % n; }

  // Uniform integer in [lo, hi] inclusive.
  uint64_t UniformRange(uint64_t lo, uint64_t hi) {
    return lo + Uniform(hi - lo + 1);
  }

  // Uniform double in [0, 1).
  double NextDouble() {
    return static_cast<double>(Next() >> 11) * 0x1.0p-53;
  }

  // Returns true with probability p.
  bool Bernoulli(double p) { return NextDouble() < p; }

  // Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    for (size_t i = v->size(); i > 1; --i) {
      size_t j = Uniform(i);
      std::swap((*v)[i - 1], (*v)[j]);
    }
  }

  // Fills `out` with pseudo-random bytes, each draw little-endian. Each
  // whole draw goes out through one fixed-size 8-byte memcpy, which
  // optimizing compilers lower to a single store. A per-byte loop here ran
  // ~30% slower or faster depending on where the linker placed its
  // inlining caller (stegbench setup_s; StegFs::Format at 16 vs 32 mod 64).
  void FillBytes(uint8_t* out, size_t n) {
    size_t i = 0;
    for (; i + 8 <= n; i += 8) {
      uint64_t v = Next();
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
      v = __builtin_bswap64(v);
#endif
      std::memcpy(out + i, &v, sizeof(v));
    }
    if (i < n) {
      uint64_t v = Next();
      // Bound b explicitly: the tail is < 8 bytes, and an unbounded loop
      // lets the optimizer assume a shift >= 64 (undefined) is reachable.
      for (int b = 0; b < 8 && i < n; ++b) {
        out[i++] = static_cast<uint8_t>(v >> (8 * b));
      }
    }
  }

 private:
  static uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }
  uint64_t s_[4];
};

}  // namespace stegfs

#endif  // STEGFS_UTIL_RANDOM_H_
