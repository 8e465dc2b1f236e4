// BlockStore: how file machinery (block mapper, directory code) touches
// blocks. A store implements one transfer body per direction, the
// vectored ReadBlocks / WriteBlocks over (block, buffer) pairs, the same
// BlockIoVec / ConstBlockIoVec lists the device layer takes. The
// contiguous (blocks, n, buf) calls and ReadBlock / WriteBlock are
// wrappers over that body. Two stores make the same mapping code serve
// both plain and hidden files:
//
//   CacheBlockStore     - plain blocks, straight through the buffer cache
//   EncryptedBlockStore - hidden blocks: AES-CBC-ESSIV encrypt on write,
//                         decrypt on read, keyed by the file's FAK
//
// and two decorate another store within one operation: RecordingStore
// logs the blocks a metadata mutation writes, CoalescingStore stages an
// operation's metadata and partial-block writes and flushes each block
// once, together with the operation's whole data blocks.
//
// Stores keep the order of the list they are given, down to the device.
// The LBA sort of a file extent lives in FileIo, above them: it sorts each
// read chunk and each write's whole batch before the list reaches
// EncryptedBlockStore, whose fan-out splits it into chunks.
//
// BlockAllocator is the matching allocation seam: PlainFs allocates by
// bitmap policy; a hidden file allocates from its internal free-block pool
// (which refills from random bitmap allocations, per paper 3.1).
#ifndef STEGFS_FS_BLOCK_STORE_H_
#define STEGFS_FS_BLOCK_STORE_H_

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <functional>
#include <map>
#include <utility>
#include <vector>

#include "blockdev/block_device.h"
#include "cache/buffer_cache.h"
#include "crypto/block_crypter.h"
#include "util/status.h"
#include "util/statusor.h"

namespace stegfs {

class BlockStore {
 public:
  virtual ~BlockStore() = default;
  virtual uint32_t block_size() const = 0;

  // Transfers n blocks, each to/from its own buffer of block_size() bytes,
  // in list order. A read's buffers must not overlap; a write's blocks may
  // repeat (the last one wins) unless the store says otherwise.
  virtual Status ReadBlocks(const BlockIoVec* iov, size_t n) = 0;
  virtual Status WriteBlocks(const ConstBlockIoVec* iov, size_t n) = 0;

  // n blocks back to back in one buffer (n * block_size() bytes, request
  // order).
  Status ReadBlocks(const uint64_t* blocks, size_t n, uint8_t* out) {
    return ReadBlocks(
        BackToBack<BlockIoVec>(blocks, n, out, block_size()).data(), n);
  }
  Status WriteBlocks(const uint64_t* blocks, size_t n, const uint8_t* data) {
    return WriteBlocks(
        BackToBack<ConstBlockIoVec>(blocks, n, data, block_size()).data(), n);
  }

  // One block: the n = 1 case.
  Status ReadBlock(uint64_t block, uint8_t* buf) {
    const BlockIoVec v{block, buf};
    return ReadBlocks(&v, 1);
  }
  Status WriteBlock(uint64_t block, const uint8_t* buf) {
    const ConstBlockIoVec v{block, buf};
    return WriteBlocks(&v, 1);
  }

  // Best-effort readahead hint; default is to ignore it.
  virtual void Prefetch(const uint64_t* blocks, size_t n) {
    (void)blocks;
    (void)n;
  }
};

class CacheBlockStore : public BlockStore {
 public:
  using BlockStore::ReadBlocks;
  using BlockStore::WriteBlocks;

  explicit CacheBlockStore(BufferCache* cache) : cache_(cache) {}
  uint32_t block_size() const override { return cache_->block_size(); }
  Status ReadBlocks(const BlockIoVec* iov, size_t n) override {
    return cache_->ReadBatch(iov, n);
  }
  Status WriteBlocks(const ConstBlockIoVec* iov, size_t n) override {
    return cache_->WriteBatch(iov, n);
  }
  void Prefetch(const uint64_t* blocks, size_t n) override {
    cache_->Prefetch(blocks, n);
  }

 private:
  BufferCache* cache_;
};

class EncryptedBlockStore : public BlockStore {
 public:
  using BlockStore::ReadBlocks;
  using BlockStore::WriteBlocks;

  // Extents of more than this many blocks fan out (below); smaller ones,
  // one block included, stay on the caller's thread.
  static constexpr size_t kFanOutThreshold = 64;

  EncryptedBlockStore(BufferCache* cache, const crypto::BlockCrypter* crypter)
      : cache_(cache), crypter_(crypter) {}
  uint32_t block_size() const override { return cache_->block_size(); }

  // At most kFanOutThreshold blocks: one vectored cache transfer and one
  // batch decrypt/encrypt on the caller's thread, counted and timed in the
  // crypto instruments. Reads decrypt in place, in the caller's buffers.
  // The caller's plaintext is never modified by a write: each block is
  // copied once, into ciphertext staging, and encrypted there.
  //
  // Larger extents stream past the cache, which holds only ciphertext: a
  // large extent would evict the working set for blocks nobody reads back
  // soon. The list is split, in its own order, into 16-block chunks that
  // the caller and up to workers() engine tasks claim in turn (the caller
  // alone without an engine); the path depends only on the extent's size.
  // A caller that wants the device to see ascending LBAs sorts the list
  // first (FileIo does). Per chunk:
  //   - ReadBlocks: BufferCache::StreamBatch copies the hits, reads the
  //     misses with one vectored device call straight into the caller's
  //     buffers, and inserts nothing; the chunk then decrypts in place.
  //   - WriteBlocks: the chunk's plaintext is copied into chunk-sized
  //     staging and encrypted there, then BufferCache::StreamWrite writes
  //     it through to the device under either write policy, updating
  //     (and cleaning) any cached copy but inserting nothing. Its blocks
  //     must be distinct (debug-asserted), since chunks run concurrently.
  //     An early device write of hidden data is a state a write-back
  //     eviction could always produce, so the crash and deniability
  //     invariants already admit it.
  // Plaintext only ever lands in the caller's buffers; the cache and the
  // device see ciphertext. Every chunk has finished before the call
  // returns, error or not. The caller must not be an engine worker
  // (debug-asserted): it waits on the engine.
  Status ReadBlocks(const BlockIoVec* iov, size_t n) override;
  Status WriteBlocks(const ConstBlockIoVec* iov, size_t n) override;

  // The cache holds ciphertext, so prefetched blocks decrypt on demand.
  void Prefetch(const uint64_t* blocks, size_t n) override {
    cache_->Prefetch(blocks, n);
  }

 private:
  BufferCache* cache_;
  const crypto::BlockCrypter* crypter_;
};

// Transaction-scoped log of the metadata blocks an operation writes
// in place (directory data blocks, indirect pointer blocks). `blocks`
// accumulates the touched block numbers for journal capture; `on_record`
// — when set — fires BEFORE the write reaches the store, so PlainFs can
// park the block in the journal's refcounted parked set before any
// concurrent flusher could push the uncommitted bytes to the device
// (record-before-write is what makes the park race-free).
struct MetaWriteLog {
  std::vector<uint64_t> blocks;
  std::function<void(uint64_t)> on_record;

  void Record(uint64_t block) {
    if (on_record) on_record(block);
    blocks.push_back(block);
  }
  void clear() { blocks.clear(); }
};

// Forwards to an inner store, recording the block number of every write
// into a caller-owned MetaWriteLog. PlainFs wraps its directory mutations
// with one so the journal transaction can capture directory data blocks
// (their in-place rewrites must commit atomically with the bitmap and
// inode images; see src/journal/journal.h). Reads pass straight through.
class RecordingStore : public BlockStore {
 public:
  using BlockStore::ReadBlocks;
  using BlockStore::WriteBlocks;

  RecordingStore(BlockStore* inner, MetaWriteLog* sink)
      : inner_(inner), sink_(sink) {}

  uint32_t block_size() const override { return inner_->block_size(); }
  Status ReadBlocks(const BlockIoVec* iov, size_t n) override {
    return inner_->ReadBlocks(iov, n);
  }
  Status WriteBlocks(const ConstBlockIoVec* iov, size_t n) override {
    for (size_t i = 0; i < n; ++i) sink_->Record(iov[i].block);
    return inner_->WriteBlocks(iov, n);
  }
  void Prefetch(const uint64_t* blocks, size_t n) override {
    inner_->Prefetch(blocks, n);
  }

 private:
  BlockStore* inner_;
  MetaWriteLog* sink_;
};

class BlockAllocator {
 public:
  virtual ~BlockAllocator() = default;
  // Returns a block already marked allocated in the bitmap.
  virtual StatusOr<uint64_t> AllocateBlock() = 0;
  // Releases a block back (to the bitmap or to a hidden file's pool).
  virtual Status FreeBlock(uint64_t block) = 0;
};

// Coalesces repeated writes to the same block within one logical operation
// (read-your-writes semantics), flushing each block once, in ascending LBA
// order. FileIo::Write uses this so that indirect-pointer blocks — which
// are updated on every data-block allocation — reach the device once per
// operation instead of once per block, matching what any write-back buffer
// cache does and keeping sequential files sequential on the device. Only
// what is written through the store is staged (a copy per block): the
// mapper's pointer blocks and a write's partial head and tail blocks. The
// write's whole data blocks join at Flush by reference, straight from the
// caller's bytes.
class CoalescingStore : public BlockStore {
 public:
  using BlockStore::ReadBlocks;
  using BlockStore::WriteBlocks;

  explicit CoalescingStore(BlockStore* inner) : inner_(inner) {}

  uint32_t block_size() const override { return inner_->block_size(); }

  // Serves staged blocks from memory and fetches the rest with one
  // vectored inner read.
  Status ReadBlocks(const BlockIoVec* iov, size_t n) override {
    if (staged_.empty()) return inner_->ReadBlocks(iov, n);
    const size_t bs = inner_->block_size();
    std::vector<BlockIoVec> missing;
    for (size_t i = 0; i < n; ++i) {
      auto it = staged_.find(iov[i].block);
      if (it != staged_.end()) {
        std::memcpy(iov[i].buf, it->second.data(), bs);
      } else {
        missing.push_back(iov[i]);
      }
    }
    if (missing.empty()) return Status::OK();
    return inner_->ReadBlocks(missing.data(), missing.size());
  }

  // Stages the blocks; a later write of the same block replaces it.
  Status WriteBlocks(const ConstBlockIoVec* iov, size_t n) override {
    const size_t bs = inner_->block_size();
    for (size_t i = 0; i < n; ++i) {
      staged_[iov[i].block].assign(iov[i].buf, iov[i].buf + bs);
    }
    return Status::OK();
  }

  void Prefetch(const uint64_t* blocks, size_t n) override {
    inner_->Prefetch(blocks, n);
  }

  // Writes the staged blocks and `extent` through as ONE vectored batch,
  // ascending by LBA, so a sequential extent reaches a coalescing device
  // as a single transfer and a random-placed one reaches the encrypted
  // store's fan-out already sorted. `extent` holds blocks written by
  // reference: distinct from each other and from every staged block
  // (debug-asserted), their buffers valid for the call.
  Status Flush(std::vector<ConstBlockIoVec> extent = {}) {
    for (const auto& [block, bytes] : staged_) {
      extent.push_back({block, bytes.data()});
    }
    if (extent.empty()) return Status::OK();
    std::sort(extent.begin(), extent.end(),
              [](const ConstBlockIoVec& a, const ConstBlockIoVec& b) {
                return a.block < b.block;
              });
    assert(std::adjacent_find(extent.begin(), extent.end(),
                              [](const ConstBlockIoVec& a,
                                 const ConstBlockIoVec& b) {
                                return a.block == b.block;
                              }) == extent.end());
    STEGFS_RETURN_IF_ERROR(inner_->WriteBlocks(extent.data(), extent.size()));
    staged_.clear();
    return Status::OK();
  }

 private:
  BlockStore* inner_;
  std::map<uint64_t, std::vector<uint8_t>> staged_;
};

}  // namespace stegfs

#endif  // STEGFS_FS_BLOCK_STORE_H_
