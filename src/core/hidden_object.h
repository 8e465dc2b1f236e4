// HiddenObject: one hidden file or hidden directory (paper section 3.1).
//
// Everything about the object — header, inode pointers, data, indirect
// blocks, and its internal pool of free blocks — lives in bitmap-allocated
// blocks that are encrypted under the object's access key (FAK) and listed
// in no central structure. Without the (name, key) pair the object's blocks
// are indistinguishable from abandoned blocks and dummy files.
//
// Block allocation goes through the internal free pool:
//   - the pool is topped up to `free_pool_max` with uniformly random free
//     blocks whenever it drains below `free_pool_min`,
//   - extension pops a *random* pool entry (so even an intruder who diffs
//     bitmap snapshots cannot tell data blocks from pool blocks, nor their
//     order),
//   - truncation pushes freed blocks back into the pool; beyond
//     `free_pool_max` the excess returns to the file system.
#ifndef STEGFS_CORE_HIDDEN_OBJECT_H_
#define STEGFS_CORE_HIDDEN_OBJECT_H_

#include <array>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "blockdev/async_block_device.h"
#include "blockdev/block_device.h"
#include "cache/buffer_cache.h"
#include "concurrency/group_barrier.h"
#include "core/hidden_header.h"
#include "core/locator.h"
#include "core/redundancy.h"
#include "crypto/block_crypter.h"
#include "fs/bitmap.h"
#include "fs/block_store.h"
#include "fs/file_io.h"
#include "fs/layout.h"
#include "util/random.h"
#include "util/status.h"
#include "util/statusor.h"

namespace stegfs {

// Shared volume context handed to hidden objects by the StegFs facade. All
// pointers are non-owning and must outlive the object.
struct HiddenVolume {
  BufferCache* cache = nullptr;
  BlockBitmap* bitmap = nullptr;
  Layout layout;
  StegParams params;
  Xoshiro* rng = nullptr;  // placement randomness (pool refills)
  uint32_t probe_limit = 10000;
  // When non-null, the volume's allocation lock: it serializes every
  // compound bitmap/free-pool mutation AND every draw from the shared
  // `rng`. StegFs sets it so hidden objects on different sessions can run
  // in parallel; single-threaded users (tests, benches, the baselines) may
  // leave it null for exactly the historical behavior. Lock order: taken
  // below the per-object lock, above the bitmap/cache internal locks.
  std::mutex* alloc_mu = nullptr;
  // Readahead window (file blocks) hinted after every extent read; only
  // effective when the shared cache has a prefetch pool attached.
  uint32_t readahead = 0;
  // Durable-commit wiring (Durability::kJournal mounts). When `durable`
  // is set, every header update runs the dual-header commit protocol
  // (anchor image -> barrier -> primary image) and Sync/Remove issue real
  // write barriers through `device` (draining `engine` first — the async
  // half of the barrier contract). All three stay null/false for the
  // historical behavior every seeded test pins.
  BlockDevice* device = nullptr;
  AsyncBlockDevice* engine = nullptr;
  bool durable = false;
  // When set, commit barriers route through this volume-wide coalescer
  // instead of issuing their own drain/write-back/sync — concurrent
  // hidden commits and plain journal batches then share device syncs.
  concurrency::GroupBarrier* barrier = nullptr;
  // Volume-wide share accounting for redundant objects (may stay null:
  // counters are then simply not kept).
  RedundancyStats* red_stats = nullptr;
  // Volume-wide header-walk instruments and the trace recorder the
  // `locator.find` spans land in (either may stay null).
  LocatorStats* locator_stats = nullptr;
  obs::TraceRecorder* trace = nullptr;
};

// Threading contract: one HiddenObject instance is used by one thread at a
// time (StegFs serializes per-instance access behind the session manager's
// per-object lock). Cross-instance shared state — bitmap, cache, and the
// shared rng — is protected by those components' own locks plus the
// volume-wide allocation lock in HiddenVolume::alloc_mu.
class HiddenObject {
 public:
  // Creates a new hidden object under a caller-supplied key. Fails with
  // AlreadyExists if an object with the same (name, key) already exists on
  // the volume: before claiming, it walks the full probe_limit candidate
  // sequence for the primary header and, on durable volumes, for the
  // anchor, so even an object whose primary is torn is found. `redundancy`
  // selects the extent protection policy, fixed for the object's lifetime
  // and persisted in its header.
  static StatusOr<std::unique_ptr<HiddenObject>> Create(
      const HiddenVolume& vol, const std::string& physical_name,
      const std::string& access_key, HiddenType type,
      RedundancyPolicy redundancy = RedundancyPolicy());

  // Create for a (name, key) that no live object can hold: a fresh FAK
  // (StegFs::FreshFak), or a pair whose Open just returned NotFound. Skips
  // Create's walks and only claims, taking the first free candidate as in
  // paper section 3. The claims still check the allocated candidates they
  // step over — the only headers the new one could shadow — and return
  // AlreadyExists if one carries this (name, key)'s signature (a header a
  // crash left behind, for example).
  static StatusOr<std::unique_ptr<HiddenObject>> CreateClaimOnly(
      const HiddenVolume& vol, const std::string& physical_name,
      const std::string& access_key, HiddenType type,
      RedundancyPolicy redundancy = RedundancyPolicy());

  // Opens an existing hidden object; NotFound if (name, key) match nothing.
  static StatusOr<std::unique_ptr<HiddenObject>> Open(
      const HiddenVolume& vol, const std::string& physical_name,
      const std::string& access_key);

  ~HiddenObject();
  HiddenObject(const HiddenObject&) = delete;
  HiddenObject& operator=(const HiddenObject&) = delete;

  HiddenType type() const { return header_.type; }
  uint64_t size() const { return header_.inode.size; }
  uint64_t header_block() const { return header_block_; }
  // Locator probes used by the last Create/Open (A3 ablation metric).
  uint32_t last_probe_count() const { return last_probes_; }
  uint32_t pool_size() const {
    return static_cast<uint32_t>(header_.free_pool.size());
  }
  const RedundancyPolicy& redundancy_policy() const {
    return header_.redundancy;
  }

  Status Read(uint64_t offset, uint64_t n, std::string* out);
  StatusOr<std::string> ReadAll();
  Status Write(uint64_t offset, std::string_view data);
  // Replaces the whole content.
  Status WriteAll(std::string_view data);
  Status Truncate(uint64_t new_size);

  // Persists the header block (inode pointers, size, pool). Data blocks
  // are written through immediately; only the header is deferred. On a
  // durable volume this is the object's COMMIT POINT, run as the
  // dual-header protocol:
  //   1. barrier: data + bitmap durable (nothing the new header
  //      references may be garbage after a crash),
  //   2. the new header image — seq+1, checksummed, chained to its
  //      partner — is written to the object's ANCHOR block (claimed at
  //      create via a salted locator sequence, so it is recoverable
  //      without the primary and looks like any other random block),
  //      then a barrier makes it durable: THE commit,
  //   3. the primary header is rewritten in place (torn? the anchor has
  //      the committed image; lost entirely? the salted probe finds the
  //      anchor and restores the primary — Open does both).
  // Data blocks freed since the last Sync re-enter the pool only here
  // (step 0) and pool blocks leave for the bitmap only after step 2, so
  // no uncommitted operation can overwrite a block the committed on-disk
  // state still references.
  Status Sync();
  uint64_t anchor_block() const { return anchor_block_; }

  // Destroys the object: frees data, indirect, pool and header blocks and
  // overwrites the header with fresh noise so the signature is gone. The
  // object must not be used afterwards.
  Status Remove();

  // Audits and heals every stripe of a redundant object (no-op for policy
  // kNone). Called by steg_fsck's hidden-side scrub; accumulates into
  // *report. Healing changes are persisted at the next Sync.
  Status ScrubShares(RedundancyScrubReport* report);

  // Fault-injection hooks for the loss-matrix tests: device blocks of
  // stripe `stripe` in share order (0 = hole/unallocated), and the
  // current stripe count.
  StatusOr<std::vector<uint64_t>> ShareBlocksForTesting(uint64_t stripe);
  uint64_t StripeCountForTesting() const {
    return redundancy_ != nullptr ? redundancy_->StripeCountForTesting() : 0;
  }

 private:
  class PoolAllocator : public BlockAllocator {
   public:
    explicit PoolAllocator(HiddenObject* obj) : obj_(obj) {}
    StatusOr<uint64_t> AllocateBlock() override;
    Status FreeBlock(uint64_t block) override;

   private:
    HiddenObject* obj_;
  };

  HiddenObject(const HiddenVolume& vol, const std::string& physical_name,
               const std::string& access_key);

  // Create (`claim_only` false) and CreateClaimOnly (true).
  static StatusOr<std::unique_ptr<HiddenObject>> CreateImpl(
      const HiddenVolume& vol, const std::string& physical_name,
      const std::string& access_key, HiddenType type,
      RedundancyPolicy redundancy, bool claim_only);

  // Salted name for the anchor-block locator sequence ('\x01' can never
  // appear at that position in a real uid||'\0'||path physical name).
  static std::string AnchorName(const std::string& physical_name);
  // Write barrier: drain the async engine, flush the cache, sync the
  // device (the durable path's ordering primitive).
  Status CommitBarrier();
  // Encodes + writes one header image (primary or anchor role) through
  // the encrypted store.
  Status WriteHeaderImage(uint64_t at_block, const std::array<uint8_t, 32>& sig,
                          uint32_t partner);

  // Refills the pool to free_pool_max with random free blocks. Freshly
  // acquired blocks may hold stale plaintext (e.g. from a deleted plain
  // file); they are queued for scrubbing and overwritten with noise at the
  // next Sync unless a data write claims them first — so steady-state
  // write traffic is one device write per data block, not two.
  Status TopUpPool();
  // Releases random pool entries back to the file system until the pool is
  // at most free_pool_max.
  Status ReleaseExcess();
  // *Locked variants assume vol_.alloc_mu (if any) is already held.
  Status TopUpPoolLocked();
  Status ReleaseExcessLocked();
  uint32_t EffectivePoolMax() const;
  // Instantiates the redundancy manager for header_.redundancy and hooks
  // it into the data path.
  void AttachRedundancy();

  HiddenVolume vol_;
  std::string physical_name_;
  std::string access_key_;
  crypto::BlockCrypter crypter_;
  EncryptedBlockStore store_;
  FileIo io_;
  PoolAllocator allocator_;
  HiddenHeader header_;
  // Non-null iff header_.redundancy is enabled; owns the stripe map and
  // implements the FileIo redundancy hook.
  std::unique_ptr<RedundancyManager> redundancy_;
  uint64_t header_block_ = 0;
  uint64_t anchor_block_ = 0;  // durable volumes only (0 otherwise)
  uint32_t last_probes_ = 0;
  bool header_dirty_ = false;
  bool removed_ = false;
  // Pool entries acquired since the last Sync that still hold whatever the
  // block contained before (scrubbed with noise at Sync).
  std::set<uint32_t> unscrubbed_;
  // Durable mode: data blocks freed since the last Sync. They re-enter
  // the pool only at the next commit — reusing one earlier would
  // overwrite a block the committed on-disk header still references.
  std::vector<uint32_t> deferred_returns_;
  // Durable mode: pool blocks released toward the bitmap, bit-cleared
  // only after the releasing header image has committed (the committed
  // pool must always be a subset of the bitmap's allocated set).
  std::vector<uint32_t> pending_bitmap_frees_;
};

}  // namespace stegfs

#endif  // STEGFS_CORE_HIDDEN_OBJECT_H_
