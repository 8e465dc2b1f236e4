#include "baselines/steg_cover.h"

#include <algorithm>
#include <cstring>

#include "crypto/block_crypter.h"
#include "crypto/hmac.h"
#include "crypto/keys.h"
#include "crypto/prng.h"
#include "util/coding.h"
#include "util/random.h"

namespace stegfs {

// Covers are organized into GROUPS of `cover_count` covers; a hidden file
// lives in one group and its password selects a nonzero membership mask
// over that group. Writes re-satisfy the whole group's XOR constraints by
// solving a <=16x16 GF(2) system — exactly Anderson's linear-algebra
// construction, at group granularity so a group accommodates as many files
// as it has covers while writes never corrupt co-resident files.

StegCoverStore::StegCoverStore(BlockDevice* device,
                               const FileStoreOptions& options)
    : device_(device),
      cache_(std::make_unique<BufferCache>(device, options.cache_blocks,
                                           WritePolicy::kWriteThrough)),
      block_size_(device->block_size()),
      cover_bytes_(options.cover_size_bytes),
      blocks_per_cover_(
          static_cast<uint32_t>(options.cover_size_bytes / block_size_)),
      num_covers_(device->capacity_bytes() / options.cover_size_bytes),
      cover_count_(options.cover_count) {}

StatusOr<std::unique_ptr<StegCoverStore>> StegCoverStore::Create(
    BlockDevice* device, const FileStoreOptions& options) {
  if (options.cover_size_bytes % device->block_size() != 0) {
    return Status::InvalidArgument("cover size not block aligned");
  }
  if (options.cover_count > 32) {
    return Status::InvalidArgument("cover_count > 32 unsupported");
  }
  std::unique_ptr<StegCoverStore> store(
      new StegCoverStore(device, options));
  if (store->num_covers_ < options.cover_count) {
    return Status::InvalidArgument("volume smaller than one cover group");
  }
  // Format: fill every cover block with noise so XOR embeddings are
  // indistinguishable from never-written covers.
  Xoshiro fill(options.rng_seed);
  std::vector<uint8_t> buf(store->block_size_);
  uint64_t total_blocks =
      store->num_covers_ * static_cast<uint64_t>(store->blocks_per_cover_);
  for (uint64_t b = 0; b < total_blocks; ++b) {
    fill.FillBytes(buf.data(), buf.size());
    STEGFS_RETURN_IF_ERROR(device->WriteBlock(b, buf.data()));
  }
  return store;
}

std::vector<uint32_t> StegCoverStore::SubsetFor(const std::string& name,
                                                const std::string& key) const {
  // Group index and membership mask, both password-derived.
  crypto::HashChainPrng prng(crypto::LocatorSeed(name, key), UINT64_MAX);
  uint64_t num_groups = num_covers_ / cover_count_;
  uint64_t group = prng.Next() % num_groups;
  uint32_t mask = 0;
  while (mask == 0) {
    mask = static_cast<uint32_t>(prng.Next() &
                                 ((1ULL << cover_count_) - 1));
  }
  std::vector<uint32_t> subset;
  for (uint32_t i = 0; i < cover_count_; ++i) {
    if (mask & (1u << i)) {
      subset.push_back(static_cast<uint32_t>(group * cover_count_ + i));
    }
  }
  return subset;
}

Status StegCoverStore::ReadCover(uint32_t cover, std::vector<uint8_t>* out) {
  out->resize(cover_bytes_);
  uint64_t base = static_cast<uint64_t>(cover) * blocks_per_cover_;
  for (uint32_t b = 0; b < blocks_per_cover_; ++b) {
    STEGFS_RETURN_IF_ERROR(
        cache_->Read(base + b, out->data() + b * block_size_));
  }
  return Status::OK();
}

Status StegCoverStore::WriteCover(uint32_t cover,
                                  const std::vector<uint8_t>& data) {
  uint64_t base = static_cast<uint64_t>(cover) * blocks_per_cover_;
  for (uint32_t b = 0; b < blocks_per_cover_; ++b) {
    STEGFS_RETURN_IF_ERROR(
        cache_->Write(base + b, data.data() + b * block_size_));
  }
  return Status::OK();
}

Status StegCoverStore::XorSubset(const std::vector<uint32_t>& subset,
                                 std::vector<uint8_t>* out) {
  out->assign(cover_bytes_, 0);
  // Block-round-robin across the subset: read block b of every cover, then
  // block b+1 — bounded memory, and the multi-stream access pattern the
  // paper's measurements reflect.
  std::vector<uint8_t> buf(block_size_);
  for (uint32_t b = 0; b < blocks_per_cover_; ++b) {
    for (uint32_t cover : subset) {
      uint64_t lba = static_cast<uint64_t>(cover) * blocks_per_cover_ + b;
      STEGFS_RETURN_IF_ERROR(cache_->Read(lba, buf.data()));
      uint8_t* dst = out->data() + b * block_size_;
      for (uint32_t i = 0; i < block_size_; ++i) dst[i] ^= buf[i];
    }
  }
  return Status::OK();
}

StatusOr<std::string> StegCoverStore::DecodePayload(
    const std::vector<uint8_t>& image) {
  uint32_t len = DecodeFixed32(image.data());
  if (len > cover_bytes_ - 4) {
    return Status::NotFound("no file at this name/key (bad length)");
  }
  return std::string(reinterpret_cast<const char*>(image.data() + 4), len);
}

Status StegCoverStore::WriteFile(const std::string& name,
                                 const std::string& key,
                                 const std::string& data) {
  if (4 + (data.size() + 15) / 16 * 16 + 32 > cover_bytes_) {
    return Status::InvalidArgument("file larger than a cover");
  }
  std::string physical = name + '\0' + key;
  std::vector<uint32_t> subset = SubsetFor(name, key);
  uint32_t group = subset[0] / cover_count_;
  uint32_t my_mask = 0;
  for (uint32_t c : subset) my_mask |= 1u << (c % cover_count_);

  // Target payload image: [u32 len][ciphertext][32-byte HMAC][noise pad].
  // Encrypted + MAC'd under the password so the embedded image carries no
  // structure and a wrong key is detected instead of yielding garbage.
  std::vector<uint8_t> target(cover_bytes_, 0);
  {
    std::string body = data;
    crypto::BlockCrypter crypter("stegcover:" + key);
    // Pad the body to a multiple of 16 for the block cipher.
    size_t padded = (body.size() + 15) / 16 * 16;
    body.resize(padded, '\0');
    std::vector<uint8_t> cipher(body.begin(), body.end());
    EncodeFixed32(target.data(), static_cast<uint32_t>(data.size()));
    if (!cipher.empty()) {
      crypter.EncryptBlock(0, cipher.data(), cipher.size());
      // An empty vector's data() may be null, which memcpy forbids.
      std::memcpy(target.data() + 4, cipher.data(), cipher.size());
    }
    crypto::Sha256Digest tag = crypto::HmacSha256(
        "stegcover-tag:" + key,
        std::string(cipher.begin(), cipher.end()));
    std::memcpy(target.data() + 4 + cipher.size(), tag.data(), tag.size());
    Xoshiro pad_rng(std::hash<std::string>{}(physical));
    pad_rng.FillBytes(target.data() + 4 + cipher.size() + tag.size(),
                      cover_bytes_ - 4 - cipher.size() - tag.size());
  }

  // Current XOR of our subset, to compute the delta we must inject.
  std::vector<uint8_t> current;
  STEGFS_RETURN_IF_ERROR(XorSubset(subset, &current));
  std::vector<uint8_t> delta(cover_bytes_);
  for (uint64_t i = 0; i < cover_bytes_; ++i) {
    delta[i] = current[i] ^ target[i];
  }

  // Solve for the set T of group covers to flip with `delta`:
  //   parity(T & mask_g) = 0 for every other registered file g in group,
  //   parity(T & my_mask) = 1.
  // Unknowns = cover_count_ bits; constraints = registered files + 1.
  std::vector<uint32_t> rows;   // constraint masks
  std::vector<uint32_t> rhs;    // parities
  for (const auto& [other_name, reg] : registry_) {
    if (other_name == physical) continue;
    if (reg.subset[0] / cover_count_ != group) continue;
    uint32_t m = 0;
    for (uint32_t c : reg.subset) m |= 1u << (c % cover_count_);
    rows.push_back(m);
    rhs.push_back(0);
  }
  rows.push_back(my_mask);
  rhs.push_back(1);

  // Gaussian elimination over GF(2), unknowns x (bit i = flip cover i).
  uint32_t x = 0;
  {
    std::vector<uint32_t> mat = rows;
    std::vector<uint32_t> b = rhs;
    std::vector<int> pivot_col(mat.size(), -1);
    size_t rank = 0;
    for (uint32_t col = 0; col < cover_count_ && rank < mat.size(); ++col) {
      size_t sel = rank;
      while (sel < mat.size() && !(mat[sel] & (1u << col))) ++sel;
      if (sel == mat.size()) continue;
      std::swap(mat[rank], mat[sel]);
      std::swap(b[rank], b[sel]);
      for (size_t r = 0; r < mat.size(); ++r) {
        if (r != rank && (mat[r] & (1u << col))) {
          mat[r] ^= mat[rank];
          b[r] ^= b[rank];
        }
      }
      pivot_col[rank] = static_cast<int>(col);
      ++rank;
    }
    // Inconsistent system (0 = 1 row) => the new file's mask is linearly
    // dependent on the co-residents': the group is at Anderson capacity.
    for (size_t r = rank; r < mat.size(); ++r) {
      if (mat[r] == 0 && b[r] == 1) {
        return Status::NoSpace("cover group at capacity (dependent mask)");
      }
    }
    for (size_t r = 0; r < rank; ++r) {
      if (b[r]) x |= 1u << pivot_col[r];
    }
  }

  // Apply delta to the selected covers.
  std::vector<uint8_t> cover_image;
  for (uint32_t i = 0; i < cover_count_; ++i) {
    if (!(x & (1u << i))) continue;
    uint32_t cover = group * cover_count_ + i;
    STEGFS_RETURN_IF_ERROR(ReadCover(cover, &cover_image));
    for (uint64_t k = 0; k < cover_bytes_; ++k) cover_image[k] ^= delta[k];
    STEGFS_RETURN_IF_ERROR(WriteCover(cover, cover_image));
  }

  Registered reg;
  reg.subset = subset;
  reg.length_bytes = static_cast<uint32_t>(data.size());
  registry_[physical] = reg;
  return Status::OK();
}

StatusOr<std::string> StegCoverStore::ReadFile(const std::string& name,
                                               const std::string& key) {
  std::vector<uint32_t> subset = SubsetFor(name, key);
  std::vector<uint8_t> image;
  STEGFS_RETURN_IF_ERROR(XorSubset(subset, &image));
  STEGFS_ASSIGN_OR_RETURN(std::string truncated, DecodePayload(image));
  size_t len = truncated.size();
  size_t padded = (len + 15) / 16 * 16;
  if (4 + padded + 32 > cover_bytes_) {
    return Status::NotFound("no file at this name/key (bad length)");
  }
  // Authenticate before decrypting.
  std::string cipher(reinterpret_cast<const char*>(image.data() + 4), padded);
  crypto::Sha256Digest tag = crypto::HmacSha256("stegcover-tag:" + key,
                                                cipher);
  if (std::memcmp(tag.data(), image.data() + 4 + padded, tag.size()) != 0) {
    return Status::NotFound("no file at this name/key (tag mismatch)");
  }
  if (len == 0) return std::string();
  std::vector<uint8_t> buf(cipher.begin(), cipher.end());
  crypto::BlockCrypter crypter("stegcover:" + key);
  crypter.DecryptBlock(0, buf.data(), buf.size());
  return std::string(reinterpret_cast<const char*>(buf.data()), len);
}

}  // namespace stegfs
