// The hidden-object header (paper figure 2). One device block, encrypted
// with the object's File Access Key, holding:
//   - the signature that "uniquely identifies the file"
//     (SHA-256 of physical name || FAK; verified after decrypting a
//     locator candidate),
//   - the object's inode (the "link to an inode table that indexes all the
//     data blocks"),
//   - the internal free-block pool (the "linked list of pointers to free
//     blocks held by the file"; stored inline — equivalent content, single
//     block — see DESIGN.md),
//   - size / mtime / type metadata that a plain file would keep in the
//     central directory.
#ifndef STEGFS_CORE_HIDDEN_HEADER_H_
#define STEGFS_CORE_HIDDEN_HEADER_H_

#include <array>
#include <cstdint>
#include <vector>

#include "fs/inode.h"
#include "util/status.h"
#include "util/statusor.h"

namespace stegfs {

// Upper bound on pool entries representable in one 512-byte header block,
// alongside the commit-protocol trailer (seq + partner + checksum; 28
// bytes — what brought this down from the pre-journal 96).
inline constexpr uint32_t kMaxFreePool = 94;

enum class HiddenType : uint8_t {
  kFile = 1,       // 'f' in the paper's API
  kDirectory = 2,  // 'd'
};

// Per-object redundancy policy: how extents are protected against
// the paper's central availability hazard — hidden blocks look free to
// plain allocations and can be silently overwritten.
enum class RedundancyKind : uint8_t {
  kNone = 0,       // bare extents (the paper's baseline)
  kReplicate = 1,  // n copies of every block (k == 1)
  kIda = 2,        // Rabin dispersal: any k of n shares reconstruct
};

// Most shares a stripe can have; bounds the per-stripe map entry and keeps
// the matrix solve tiny.
inline constexpr uint8_t kMaxRedundancyShares = 16;

struct RedundancyPolicy {
  RedundancyKind kind = RedundancyKind::kNone;
  uint8_t k = 1;  // data shares per stripe
  uint8_t n = 1;  // total shares per stripe (n - k parity)

  static RedundancyPolicy None() { return {}; }
  static RedundancyPolicy Replicate(uint8_t copies) {
    return {RedundancyKind::kReplicate, 1, copies};
  }
  static RedundancyPolicy Ida(uint8_t k, uint8_t n) {
    return {RedundancyKind::kIda, k, n};
  }

  bool enabled() const { return kind != RedundancyKind::kNone; }
  uint8_t parity() const { return enabled() ? n - k : 0; }
  // Shares an object can lose per stripe without data loss.
  uint8_t tolerance() const { return parity(); }
  bool Valid() const {
    switch (kind) {
      case RedundancyKind::kNone:
        return true;
      case RedundancyKind::kReplicate:
        return k == 1 && n >= 2 && n <= kMaxRedundancyShares;
      case RedundancyKind::kIda:
        return k >= 2 && n > k && n <= kMaxRedundancyShares;
    }
    return false;
  }
};

// Trailing commit-protocol fields, packed at the END of the header block:
// [seq u64][partner u32][checksum 16B] — SHA-256 (truncated) over
// everything before the checksum. All three decode as zero from a header
// written before the crash-consistency subsystem (legacy accept); any
// torn block yields a nonzero mismatching checksum and is rejected, which
// is what lets the dual-header protocol pick the surviving image.
inline constexpr size_t kHeaderTrailerBytes = 8 + 4 + 16;

struct HiddenHeader {
  std::array<uint8_t, 32> signature = {};
  HiddenType type = HiddenType::kFile;
  uint64_t size = 0;
  uint64_t mtime = 0;
  Inode inode;  // only the pointer fields are meaningful here
  std::vector<uint32_t> free_pool;
  // Commit sequence of the durable dual-header protocol (0 on volumes
  // that never mounted durable). The higher valid (primary, anchor) image
  // wins at open.
  uint64_t seq = 0;
  // The image's partner block: in the PRIMARY image, the anchor block
  // this object journals its header through; in the ANCHOR image, the
  // primary header block to restore. 0 = no anchor (non-durable object).
  uint32_t partner = 0;
  // Redundancy policy + first block of the FAK-encrypted stripe-map chain
  // (0 = none). Packed into the 7 former pad bytes after the type, so the
  // layout is unchanged and headers written without a policy (all-zero
  // pad) decode as kNone.
  RedundancyPolicy redundancy;
  uint32_t red_map_block = 0;

  // Serializes into a block-size buffer (then encrypted under the FAK, so
  // the on-disk block stays indistinguishable from noise). The checksum
  // trailer is always written; pool capacity shrinks by the trailer.
  Status EncodeTo(uint8_t* buf, size_t buf_size) const;
  // Rejects torn images: a nonzero checksum must verify (all-zero is
  // accepted as legacy).
  static StatusOr<HiddenHeader> DecodeFrom(const uint8_t* buf, size_t size);
};

}  // namespace stegfs

#endif  // STEGFS_CORE_HIDDEN_HEADER_H_
