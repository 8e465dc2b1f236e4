// The bulk GF(2^8) kernel (AES polynomial 0x11b) behind the IDA stripe
// codecs, with runtime-detected SIMD tiers mirroring the AES dispatch in
// crypto/aes.h:
//   kGfni   - GF2P8MULB, which multiplies in the AES field natively,
//             32 bytes per instruction (requires GFNI + AVX2),
//   kPshufb - the classic nibble-table multiply (two PSHUFB lookups per
//             vector), 32 bytes (AVX2) or 16 bytes (SSSE3) per step,
//   kScalar - a static 64 KiB product table, eight bytes per step.
// All tiers produce bitwise-identical results; SetGfTier lets tests and
// benchmarks pin a specific one.
#ifndef STEGFS_CRYPTO_GF256_SIMD_H_
#define STEGFS_CRYPTO_GF256_SIMD_H_

#include <cstddef>
#include <cstdint>

namespace stegfs {
namespace crypto {

enum class GfTier { kScalar, kPshufb, kGfni };

// The tier bulk operations currently dispatch to (highest supported by
// default).
GfTier ActiveGfTier();

// Human-readable name of the active tier ("gfni", "pshufb", "gf-scalar").
// Static storage — safe to hand across the C API.
const char* GfTierName();

// Selects a tier; returns false (and changes nothing) if this CPU cannot
// run it. kScalar always succeeds.
bool SetGfTier(GfTier tier);

// dst[i] = sum over j < m of coefs[j] * srcs[j][i], for i in [0, len) —
// the one encode / decode primitive (a row of a coding matrix times m
// source buffers). m >= 1. dst is overwritten, not accumulated into, and
// must not overlap any source.
void GfDotProd(const uint8_t* coefs, const uint8_t* const* srcs, int m,
               uint8_t* dst, size_t len);

}  // namespace crypto
}  // namespace stegfs

#endif  // STEGFS_CRYPTO_GF256_SIMD_H_
