// SHA-256 (FIPS 180-2), implemented from the standard.
//
// StegFS uses SHA-256 for:
//   - hidden-file signatures: SHA256(physical name || access key) (paper 3.1)
//   - seeding and advancing the header-locator PRNG (paper 4, API 1:
//     "the seed is recursively hashed to generate the pseudorandom numbers")
//   - key derivation (crypto/keys.h)
//
// Two compression tiers, selected once at process start and overridable for
// tests/benchmarks (the same shape as AesTier in aes.h):
//   kShaNi    - the SHA extensions (SHA256RNDS2/MSG1/MSG2; runtime cpuid
//               detection), fed every run of whole 64-byte blocks at once
//   kPortable - the scalar FIPS 180-2 compression, the fallback on CPUs
//               without SHA-NI and the reference the tests compare against
// Both produce the same digest for every input.
#ifndef STEGFS_CRYPTO_SHA256_H_
#define STEGFS_CRYPTO_SHA256_H_

#include <array>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace stegfs {
namespace crypto {

enum class ShaTier { kPortable, kShaNi };

// The tier every Sha256 context currently compresses with. Defaults to
// kShaNi when the CPU supports it, kPortable otherwise.
ShaTier ActiveShaTier();
// Short stable name of the active tier: "sha-ni" or "portable".
const char* ShaTierName();
// Overrides the tier (process-wide). Returns false — and changes nothing —
// if the requested tier is unsupported on this CPU.
bool SetShaTier(ShaTier tier);

// 32-byte digest.
using Sha256Digest = std::array<uint8_t, 32>;

// Incremental SHA-256 context.
//
//   Sha256 h;
//   h.Update(data, len);
//   Sha256Digest d = h.Finish();
//
// Finish() may be called once; the context is not reusable afterwards.
class Sha256 {
 public:
  Sha256() { Reset(); }

  void Reset();
  void Update(const void* data, size_t len);
  void Update(const std::string& s) { Update(s.data(), s.size()); }
  Sha256Digest Finish();

  // One-shot helpers.
  static Sha256Digest Hash(const void* data, size_t len);
  static Sha256Digest Hash(const std::string& s) {
    return Hash(s.data(), s.size());
  }
  // Hash of the concatenation a || b (used for name||key signatures).
  static Sha256Digest Hash2(const std::string& a, const std::string& b);

 private:
  // Compresses n whole 64-byte blocks into state_ on the active tier.
  void ProcessBlocks(const uint8_t* blocks, size_t n);
  // The portable compression of one block.
  void ProcessBlock(const uint8_t block[64]);

  uint32_t state_[8];
  uint64_t bit_count_;
  uint8_t buffer_[64];
  size_t buffer_len_;
};

}  // namespace crypto
}  // namespace stegfs

#endif  // STEGFS_CRYPTO_SHA256_H_
