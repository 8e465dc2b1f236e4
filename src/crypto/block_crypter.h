// Sector-level encryption: AES-256-CBC with ESSIV per-block IVs.
//
// Every block of a hidden object (header, inode blocks, data blocks, and the
// free blocks it holds) is encrypted so that it is indistinguishable from
// the random fill written at format time (paper section 3.1). ESSIV
// (IV = AES_k2(block_number), k2 = SHA256(key)) makes the IV secret and
// position-dependent without storing it, so identical plaintext at two
// addresses yields unrelated ciphertext and no per-block metadata leaks.
#ifndef STEGFS_CRYPTO_BLOCK_CRYPTER_H_
#define STEGFS_CRYPTO_BLOCK_CRYPTER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "crypto/aes.h"
#include "util/status.h"

namespace stegfs {
namespace crypto {

// One device block in a batch: the ESSIV tweak (block_number) plus its
// in-place payload. Block numbers need not be contiguous or ordered —
// each block is an independent CBC chain.
struct CryptSpan {
  uint64_t block_number;
  uint8_t* data;
};

// Encrypts/decrypts fixed-size device blocks keyed by (key, block_number).
// Block size must be a multiple of 16 bytes (true for all supported device
// block sizes, 512 B - 64 KB).
class BlockCrypter {
 public:
  // `key` is arbitrary-length key material; internally a 256-bit data key
  // and a 256-bit IV key are derived from it.
  explicit BlockCrypter(const std::string& key);

  // In-place whole-block transforms. `size` must be a multiple of 16.
  void EncryptBlock(uint64_t block_number, uint8_t* data, size_t size) const;
  void DecryptBlock(uint64_t block_number, uint8_t* data, size_t size) const;

  // Batch transforms over n device blocks of `size` bytes each, in place.
  // All ESSIV IVs are derived in one pipelined ECB pass; encryption then
  // interleaves four device blocks' CBC chains through the AES pipeline
  // (chains are independent across blocks, sequential only within one),
  // and decryption runs each block as a single pipelined ECB pass followed
  // by the XOR un-chaining. Bitwise-identical to calling the single-block
  // transforms once per span.
  void EncryptBlocks(const CryptSpan* spans, size_t n, size_t size) const;
  void DecryptBlocks(const CryptSpan* spans, size_t n, size_t size) const;

  // Plaintext of the 16-byte cells [first, first + cells) of each of n
  // ciphertext blocks, without touching the rest: CBC gives
  // P0 = D(C0) ^ IV and Pi = D(Ci) ^ C(i-1), so the range costs `cells`
  // ECB cells per block in one pipelined pass, plus one ESSIV IV per
  // block when it starts at cell 0. `spans[i].data` is read only; `out`
  // receives n * cells * 16 bytes, block after block. Equal to the
  // matching slice of DecryptBlock. Timed under the decrypt histogram but
  // not counted in blocks_decrypted — no whole block is decrypted. The
  // locator checks header signatures with the prefix form; a durable open
  // reads a header anchor's signature and commit sequence with it.
  void DecryptCells(const CryptSpan* spans, size_t n, size_t first,
                    size_t cells, uint8_t* out) const;
  void DecryptPrefix(const CryptSpan* spans, size_t n, size_t cells,
                     uint8_t* out) const {
    DecryptCells(spans, n, 0, cells, out);
  }

 private:
  void ComputeIv(uint64_t block_number, uint8_t iv[16]) const;
  // Derives the IVs for n spans into ivs (n * 16 bytes) with one ECB batch.
  void ComputeIvs(const CryptSpan* spans, size_t n, uint8_t* ivs) const;
  // CBC-encrypts one block whose IV is already derived.
  void EncryptWithIv(const uint8_t iv[16], uint8_t* data, size_t size) const;

  std::unique_ptr<Aes> data_cipher_;
  std::unique_ptr<Aes> iv_cipher_;
};

}  // namespace crypto
}  // namespace stegfs

#endif  // STEGFS_CRYPTO_BLOCK_CRYPTER_H_
