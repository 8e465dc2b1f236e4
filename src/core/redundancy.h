// RedundancyManager: per-object IDA share bookkeeping and self-healing.
// The paper's availability weakness is that hidden blocks look
// free to plain allocations and can be silently overwritten; StegFS
// bounds the loss statistically with replication it never integrates into
// the data path. Here redundancy IS the data path:
//
//   - Share placement is systematic: the k data shares of stripe s are
//     the object's file blocks [s*k, (s+1)*k) exactly as the inode maps
//     them (layout unchanged), and the n-k parity shares are pool-
//     allocated blocks, FAK-encrypted like everything else the object
//     owns — indistinguishable from data, dummies, or abandoned blocks.
//   - A per-stripe map entry records the parity block addresses plus a
//     fast checksum of every share's plaintext. The map serializes into a
//     chain of FAK-encrypted blocks referenced by the hidden header
//     (HiddenHeader::red_map_block); each Persist writes a FRESH chain
//     and frees the old one through the allocator, so the chain the
//     committed header references is never rewritten in place (the same
//     no-overwrite rule the durable commit protocol imposes on data).
//   - Reads verify each share against its checksum AND the bitmap (a
//     cleared bit is evidence the block was reclaimed); a lost share is
//     healed by decoding the stripe from any k intact shares and
//     re-dispersing onto fresh pool blocks. The lost block itself is
//     NEVER freed — it may now belong to a plain file, and from the
//     bitmap alone stolen-by-plain and corrupted-in-place are
//     indistinguishable, so the old block is simply abandoned.
#ifndef STEGFS_CORE_REDUNDANCY_H_
#define STEGFS_CORE_REDUNDANCY_H_

#include <atomic>
#include <cstdint>
#include <cstring>
#include <vector>

#include "core/hidden_header.h"
#include "fs/bitmap.h"
#include "fs/file_io.h"
#include "obs/metrics.h"
#include "util/status.h"
#include "util/statusor.h"

namespace stegfs {

// Volume-wide share accounting, shared by every hidden object of a mount
// and surfaced through the metrics registry and steg_metric.
struct RedundancyStats {
  obs::Counter stripes_encoded;   // parity (re)computations
  obs::Counter shares_written;    // parity share blocks written
  obs::Counter degraded_reads;    // stripes found degraded on read
  obs::Counter shares_healed;     // shares re-dispersed
  obs::Counter verify_failures;   // share checksum/bitmap flunks
  obs::Histogram decode_ns;       // IDA stripe decode latency
  obs::Histogram heal_ns;         // full stripe heal latency

  void RegisterWith(obs::MetricsRegistry* reg) const {
    reg->RegisterCounter("stegfs_red_stripes_encoded_total",
                         "Parity (re)computations", &stripes_encoded);
    reg->RegisterCounter("stegfs_red_shares_written_total",
                         "Parity share blocks written", &shares_written);
    reg->RegisterCounter("stegfs_red_degraded_reads_total",
                         "Stripes found degraded on read", &degraded_reads);
    reg->RegisterCounter("stegfs_red_shares_healed_total",
                         "Shares re-dispersed", &shares_healed);
    reg->RegisterCounter("stegfs_red_verify_failures_total",
                         "Share checksum/bitmap verification failures",
                         &verify_failures);
    reg->RegisterHistogram("stegfs_red_decode_seconds",
                           "IDA stripe decode latency", &decode_ns);
    reg->RegisterHistogram("stegfs_red_heal_seconds",
                           "Full stripe heal latency", &heal_ns);
  }
};

// Per-object scrub outcome (fsck accumulates these across objects).
struct RedundancyScrubReport {
  uint64_t stripes_checked = 0;
  uint64_t degraded_stripes = 0;
  uint64_t healed_shares = 0;
  uint64_t unrecoverable_stripes = 0;
};

// Fast non-cryptographic content checksum for share verification. An
// adversary cannot forge share content anyway (shares are FAK-encrypted;
// any tamper decrypts to noise), so 32 mixed bits suffice to detect loss.
inline uint32_t BlockSum32(const uint8_t* p, size_t n) {
  uint64_t h = 0x9e3779b97f4a7c15ULL ^ (n * 0xff51afd7ed558ccdULL);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    uint64_t w;
    std::memcpy(&w, p + i, 8);
    h ^= w * 0xff51afd7ed558ccdULL;
    h = (h << 27 | h >> 37) * 0x9e3779b97f4a7c15ULL;
  }
  if (i < n) {
    uint64_t w = 0;
    std::memcpy(&w, p + i, n - i);
    h ^= w * 0xff51afd7ed558ccdULL;
    h = (h << 27 | h >> 37) * 0x9e3779b97f4a7c15ULL;
  }
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  h ^= h >> 29;
  return static_cast<uint32_t>(h ^ (h >> 32));
}

class RedundancyManager : public ExtentRedundancy {
 public:
  // `bitmap` (for reclaim evidence) and `stats` may be null (tests).
  RedundancyManager(RedundancyPolicy policy, uint32_t block_size,
                    BlockBitmap* bitmap, RedundancyStats* stats);

  const RedundancyPolicy& policy() const { return policy_; }

  // Loads the stripe map from the chain starting at `first_block` (0 =
  // empty map). A corrupt or torn chain degrades gracefully: coverage is
  // dropped (reads skip verification, data shares remain intact because
  // the code is systematic) and the next scrub rebuilds it; the orphaned
  // chain blocks are abandoned, never freed.
  Status Load(uint32_t first_block, BlockStore* store);

  // Writes the stripe map to a fresh chain of blocks from `alloc` and
  // frees the previous chain through it. Returns the new chain head (0
  // when the map is empty). Clears dirty().
  StatusOr<uint32_t> Persist(BlockStore* store, BlockAllocator* alloc);

  // True when the in-memory map has changes the header's chain does not.
  bool dirty() const { return dirty_; }

  // Full-object audit: verifies every share of every stripe, heals what
  // it can (including rebuilding coverage lost with a corrupt map chain),
  // and reports what it found. Unrecoverable stripes are reported, not
  // fatal — the rest of the object still heals.
  Status Scrub(const RedundancyIoCtx& ctx, RedundancyScrubReport* report);

  // Frees every parity and map-chain block through `alloc` (object
  // removal). The manager is empty afterwards.
  Status ReleaseAll(BlockAllocator* alloc);

  // ExtentRedundancy:
  Status OnExtentRead(const RedundancyIoCtx& ctx, ReadBlockRef* refs,
                      size_t count) override;
  Status OnExtentWrite(const RedundancyIoCtx& ctx, uint64_t first_idx,
                       uint64_t last_idx) override;
  Status OnTruncate(const RedundancyIoCtx& ctx,
                    uint64_t new_file_blocks) override;

  // Test introspection: device block of every share of stripe `s` in
  // share order (data 0..k-1 then parity; 0 = hole / unallocated).
  Status ShareBlocksForTesting(const RedundancyIoCtx& ctx, uint64_t s,
                               std::vector<uint64_t>* out);
  uint64_t StripeCountForTesting() const { return stripes_.size(); }

 private:
  struct Stripe {
    uint32_t present = 0;          // data shares whose checksum is current
    std::vector<uint32_t> parity;  // n-k parity device blocks (0 = none)
    std::vector<uint32_t> sums;    // n share checksums (data, then parity)
  };

  // One gathered share during heal/scrub: its content and whether the
  // checksum + bitmap evidence say it survived.
  struct GatheredShare {
    uint8_t index = 0;
    bool device_backed = false;  // false: logical hole (content zeros)
    bool valid = false;
    uint64_t device_block = 0;
    std::vector<uint8_t> content;
  };

  uint64_t FileBlocks(const Inode& inode) const;
  uint64_t StripesNeeded(uint64_t file_blocks) const;
  void EnsureStripes(uint64_t count);
  bool BlockLost(uint64_t device_block) const;

  // Reads every share of stripe `s` and classifies it.
  Status GatherStripe(const RedundancyIoCtx& ctx, uint64_t s,
                      std::vector<GatheredShare>* out);
  // Recomputes parity for stripe `s` from its current data blocks,
  // allocating parity blocks as needed. [touched_first, touched_last] is
  // the file-block range the caller just (re)wrote: those shares are
  // trusted as-is, while every OTHER share of the stripe is verified
  // against the old stripe record first — a stale sibling folded into
  // fresh parity would silently poison the whole stripe (the RAID-5
  // write hole). A stale sibling is recovered from the OLD codeword
  // (untouched shares + old parity) and re-dispersed before encoding;
  // when fewer than k old shares survive, DataLoss returns and the old
  // record is kept so detection is preserved. The defaults mark the
  // whole stripe touched (full trust — scrub's coverage rebuild).
  Status EncodeStripe(const RedundancyIoCtx& ctx, uint64_t s,
                      uint64_t touched_first = 0,
                      uint64_t touched_last = ~0ULL);
  // Reconstructs stripe `s` from any k intact shares and re-disperses the
  // lost ones onto fresh blocks. `healed` counts re-dispersed shares.
  // DataLoss when fewer than k shares survive.
  Status HealStripe(const RedundancyIoCtx& ctx, uint64_t s,
                    uint64_t* healed);

  RedundancyPolicy policy_;
  uint32_t block_size_;
  BlockBitmap* bitmap_;
  RedundancyStats* stats_;
  std::vector<Stripe> stripes_;
  std::vector<uint32_t> chain_;  // current persisted map chain
  bool dirty_ = false;
};

}  // namespace stegfs

#endif  // STEGFS_CORE_REDUNDANCY_H_
