// GF(2^8) arithmetic and systematic Cauchy stripe coding — the
// machinery behind Rabin's Information Dispersal Algorithm (IDA), which the
// paper's related-work section cites as Hand & Roscoe's improvement over
// naive replication for the random-placement scheme: a file is encoded into
// n fragments such that any m reconstruct it, with storage blow-up n/m
// instead of the replication factor r.
#ifndef STEGFS_CRYPTO_GF256_H_
#define STEGFS_CRYPTO_GF256_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "util/status.h"
#include "util/statusor.h"

namespace stegfs {
namespace crypto {

// Field arithmetic modulo x^8 + x^4 + x^3 + x + 1 (the AES polynomial),
// table-driven (exp/log tables built once).
class Gf256 {
 public:
  static uint8_t Add(uint8_t a, uint8_t b) { return a ^ b; }
  static uint8_t Mul(uint8_t a, uint8_t b);
  static uint8_t Div(uint8_t a, uint8_t b);  // b != 0
  static uint8_t Inv(uint8_t a);             // a != 0
  static uint8_t Pow(uint8_t a, unsigned e);
};

// Stripe-level coding for block stores (Mnemosyne-style): m equal-size
// data blocks in, n coded blocks out (shares 0..m-1 systematic, the rest
// Cauchy parity); any m distinct shares reconstruct the stripe.
//
// The coefficient row for share `index` over `m` data blocks: unit vector
// for index < m, Cauchy 1/(index XOR j) otherwise.
std::vector<uint8_t> IdaRow(uint8_t index, int m);

// blocks.size() == m, all the same size; returns n share blocks.
std::vector<std::vector<uint8_t>> IdaEncodeStripe(
    const std::vector<std::vector<uint8_t>>& blocks, int n);

// Parity-only stripe encode: computes shares m..n-1 into parity[0..n-m),
// each `len` bytes, from the m data blocks — no copies of the systematic
// shares. This is the hot write-path entry (SIMD GF(256) under the hood).
void IdaEncodeParity(const uint8_t* const* blocks, int m, int n, size_t len,
                     uint8_t* const* parity);

// shares = (share index, block) pairs, >= m distinct; returns the m data
// blocks of the stripe. The first m distinct shares are used: their m x m
// coefficient matrix is inverted once, and each data block is one dot
// product of an inverse row with the share blocks.
StatusOr<std::vector<std::vector<uint8_t>>> IdaDecodeStripe(
    const std::vector<std::pair<uint8_t, std::vector<uint8_t>>>& shares,
    int m);

}  // namespace crypto
}  // namespace stegfs

#endif  // STEGFS_CRYPTO_GF256_H_
