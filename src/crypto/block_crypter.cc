#include "crypto/block_crypter.h"

#include <cassert>
#include <cstring>

#include "crypto/hmac.h"
#include "crypto/sha256.h"
#include "obs/metrics.h"

namespace stegfs {
namespace crypto {

BlockCrypter::BlockCrypter(const std::string& key) {
  // Derive independent data and IV keys so a related-key interaction between
  // the two cipher instances is impossible.
  std::vector<uint8_t> dk = HkdfExpand(key, "stegfs-block-data-key", 32);
  std::vector<uint8_t> ik = HkdfExpand(key, "stegfs-block-essiv-key", 32);
  data_cipher_ = std::make_unique<Aes>(dk.data(), dk.size());
  iv_cipher_ = std::make_unique<Aes>(ik.data(), ik.size());
}

void BlockCrypter::ComputeIv(uint64_t block_number, uint8_t iv[16]) const {
  uint8_t plain[16] = {0};
  for (int i = 0; i < 8; ++i) {
    plain[i] = static_cast<uint8_t>(block_number >> (8 * i));
  }
  iv_cipher_->EncryptBlock(plain, iv);
}

void BlockCrypter::ComputeIvs(const CryptSpan* spans, size_t n,
                              uint8_t* ivs) const {
  // Little-endian block numbers, zero-padded to 16 bytes, then one
  // pipelined ECB pass over all n counters.
  std::memset(ivs, 0, n * 16);
  for (size_t s = 0; s < n; ++s) {
    for (int i = 0; i < 8; ++i) {
      ivs[s * 16 + i] = static_cast<uint8_t>(spans[s].block_number >> (8 * i));
    }
  }
  iv_cipher_->EncryptBlocksEcb(ivs, ivs, n);
}

void BlockCrypter::EncryptWithIv(const uint8_t iv[16], uint8_t* data,
                                 size_t size) const {
  uint8_t chain[16];
  std::memcpy(chain, iv, 16);
  for (size_t off = 0; off < size; off += 16) {
    for (int i = 0; i < 16; ++i) data[off + i] ^= chain[i];
    data_cipher_->EncryptBlock(data + off, data + off);
    std::memcpy(chain, data + off, 16);
  }
}

void BlockCrypter::EncryptBlock(uint64_t block_number, uint8_t* data,
                                size_t size) const {
  assert(size % 16 == 0);
  uint8_t iv[16];
  ComputeIv(block_number, iv);
  EncryptWithIv(iv, data, size);
}

void BlockCrypter::DecryptBlock(uint64_t block_number, uint8_t* data,
                                size_t size) const {
  CryptSpan span{block_number, data};
  DecryptBlocks(&span, 1, size);
}

void BlockCrypter::EncryptBlocks(const CryptSpan* spans, size_t n,
                                 size_t size) const {
  assert(size % 16 == 0);
  if (n == 0) return;
  // One timer per batch call, never per block — the AES work below is the
  // hot loop.
  obs::CryptoMetrics& cm = obs::GlobalCryptoMetrics();
  obs::LatencyTimer timer(&cm.encrypt_ns);
  cm.blocks_encrypted.Add(n);
  std::vector<uint8_t> ivs(n * 16);
  ComputeIvs(spans, n, ivs.data());

  // Four device blocks at a time: their CBC chains are independent, so the
  // four lanes keep the hardware AES pipeline full even though each chain
  // is sequential internally.
  size_t s = 0;
  for (; s + 4 <= n; s += 4) {
    uint8_t chain[4][16];
    for (int l = 0; l < 4; ++l) std::memcpy(chain[l], &ivs[(s + l) * 16], 16);
    for (size_t off = 0; off < size; off += 16) {
      const uint8_t* in[4];
      uint8_t* out[4];
      for (int l = 0; l < 4; ++l) {
        uint8_t* p = spans[s + l].data + off;
        for (int i = 0; i < 16; ++i) p[i] ^= chain[l][i];
        in[l] = p;
        out[l] = p;
      }
      data_cipher_->Encrypt4(in, out);
      for (int l = 0; l < 4; ++l) {
        std::memcpy(chain[l], spans[s + l].data + off, 16);
      }
    }
  }
  for (; s < n; ++s) {
    EncryptWithIv(&ivs[s * 16], spans[s].data, size);
  }
}

void BlockCrypter::DecryptBlocks(const CryptSpan* spans, size_t n,
                                 size_t size) const {
  assert(size % 16 == 0);
  if (n == 0) return;
  obs::CryptoMetrics& cm = obs::GlobalCryptoMetrics();
  obs::LatencyTimer timer(&cm.decrypt_ns);
  cm.blocks_decrypted.Add(n);
  std::vector<uint8_t> ivs(n * 16);
  ComputeIvs(spans, n, ivs.data());

  // CBC decryption is ciphertext-parallel: keep a copy of the ciphertext,
  // ECB-decrypt the whole block pipelined, then XOR each 16-byte cell with
  // the previous ciphertext cell (the IV for the first).
  std::vector<uint8_t> cipher(size);
  for (size_t s = 0; s < n; ++s) {
    uint8_t* data = spans[s].data;
    std::memcpy(cipher.data(), data, size);
    data_cipher_->DecryptBlocksEcb(data, data, size / 16);
    for (int i = 0; i < 16; ++i) data[i] ^= ivs[s * 16 + i];
    for (size_t off = 16; off < size; off += 16) {
      const uint8_t* prev = cipher.data() + off - 16;
      for (int i = 0; i < 16; ++i) data[off + i] ^= prev[i];
    }
  }
}

void BlockCrypter::DecryptPrefix(const CryptSpan* spans, size_t n,
                                 size_t cells, uint8_t* out) const {
  if (n == 0 || cells == 0) return;
  obs::LatencyTimer timer(&obs::GlobalCryptoMetrics().decrypt_ns);
  std::vector<uint8_t> ivs(n * 16);
  ComputeIvs(spans, n, ivs.data());
  const size_t stride = cells * 16;
  for (size_t s = 0; s < n; ++s) {
    std::memcpy(out + s * stride, spans[s].data, stride);
  }
  data_cipher_->DecryptBlocksEcb(out, out, n * cells);
  for (size_t s = 0; s < n; ++s) {
    uint8_t* p = out + s * stride;
    for (int i = 0; i < 16; ++i) p[i] ^= ivs[s * 16 + i];
    for (size_t off = 16; off < stride; off += 16) {
      const uint8_t* prev = spans[s].data + off - 16;
      for (int i = 0; i < 16; ++i) p[off + i] ^= prev[i];
    }
  }
}

}  // namespace crypto
}  // namespace stegfs
