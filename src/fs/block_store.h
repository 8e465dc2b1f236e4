// BlockStore: how file machinery (block mapper, directory code) touches
// blocks. A store implements one transfer body per direction, the n-block
// ReadBlocks / WriteBlocks; ReadBlock / WriteBlock are their n = 1 case.
// Two stores make the same mapping code serve both plain and hidden files:
//
//   CacheBlockStore     - plain blocks, straight through the buffer cache
//   EncryptedBlockStore - hidden blocks: AES-CBC-ESSIV encrypt on write,
//                         decrypt on read, keyed by the file's FAK
//
// and two decorate another store within one operation: RecordingStore
// logs the blocks a metadata mutation writes, CoalescingStore stages an
// operation's writes and flushes each block once.
//
// BlockAllocator is the matching allocation seam: PlainFs allocates by
// bitmap policy; a hidden file allocates from its internal free-block pool
// (which refills from random bitmap allocations, per paper 3.1).
#ifndef STEGFS_FS_BLOCK_STORE_H_
#define STEGFS_FS_BLOCK_STORE_H_

#include <cstdint>
#include <cstring>
#include <functional>
#include <map>
#include <vector>

#include "cache/buffer_cache.h"
#include "crypto/block_crypter.h"
#include "util/status.h"
#include "util/statusor.h"

namespace stegfs {

class BlockStore {
 public:
  virtual ~BlockStore() = default;
  virtual uint32_t block_size() const = 0;

  // Transfers n blocks to/from the contiguous buffer (request order,
  // n * block_size() bytes).
  virtual Status ReadBlocks(const uint64_t* blocks, size_t n,
                            uint8_t* out) = 0;
  virtual Status WriteBlocks(const uint64_t* blocks, size_t n,
                             const uint8_t* data) = 0;

  // One block: the n = 1 case.
  Status ReadBlock(uint64_t block, uint8_t* buf) {
    return ReadBlocks(&block, 1, buf);
  }
  Status WriteBlock(uint64_t block, const uint8_t* buf) {
    return WriteBlocks(&block, 1, buf);
  }

  // Best-effort readahead hint; default is to ignore it.
  virtual void Prefetch(const uint64_t* blocks, size_t n) {
    (void)blocks;
    (void)n;
  }
};

class CacheBlockStore : public BlockStore {
 public:
  explicit CacheBlockStore(BufferCache* cache) : cache_(cache) {}
  uint32_t block_size() const override { return cache_->block_size(); }
  Status ReadBlocks(const uint64_t* blocks, size_t n,
                    uint8_t* out) override {
    return cache_->ReadBatch(blocks, n, out);
  }
  Status WriteBlocks(const uint64_t* blocks, size_t n,
                     const uint8_t* data) override {
    return cache_->WriteBatch(blocks, n, data);
  }
  void Prefetch(const uint64_t* blocks, size_t n) override {
    cache_->Prefetch(blocks, n);
  }

 private:
  BufferCache* cache_;
};

class EncryptedBlockStore : public BlockStore {
 public:
  // Extents of more than this many blocks fan out (below); smaller ones,
  // one block included, stay on the caller's thread.
  static constexpr size_t kFanOutThreshold = 64;

  EncryptedBlockStore(BufferCache* cache, const crypto::BlockCrypter* crypter)
      : cache_(cache), crypter_(crypter) {}
  uint32_t block_size() const override { return cache_->block_size(); }

  // At most kFanOutThreshold blocks: one vectored cache transfer and one
  // batch decrypt/encrypt on the caller's thread, counted and timed in the
  // crypto instruments. The caller's plaintext buffer is never modified:
  // writes encrypt a staging copy.
  //
  // Larger extents stream past the cache, which holds only ciphertext: a
  // large extent would evict the working set for blocks nobody reads back
  // soon. They are split into 16-block chunks that the caller and up to
  // workers() engine tasks claim in turn (the caller alone without an
  // engine); the path depends only on the extent's size. Per chunk:
  //   - ReadBlocks: BufferCache::StreamBatch copies the hits, reads the
  //     misses with one vectored device call straight into `out`, and
  //     inserts nothing; the chunk then decrypts in place.
  //   - WriteBlocks: the chunk's plaintext is copied into chunk-sized
  //     staging and encrypted there, then BufferCache::StreamWrite writes
  //     it through to the device under either write policy, updating
  //     (and cleaning) any cached copy but inserting nothing. Its blocks
  //     must be distinct (debug-asserted), since chunks run concurrently.
  //     An early device write of hidden data is a state a write-back
  //     eviction could always produce, so the crash and deniability
  //     invariants already admit it.
  // Plaintext only ever lands in the caller's buffer; the cache and the
  // device see ciphertext. Every chunk has finished before the call
  // returns, error or not. The caller must not be an engine worker
  // (debug-asserted): it waits on the engine.
  Status ReadBlocks(const uint64_t* blocks, size_t n, uint8_t* out) override;
  Status WriteBlocks(const uint64_t* blocks, size_t n,
                     const uint8_t* data) override;

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
  RecordingStore(BlockStore* inner, MetaWriteLog* sink)
      : inner_(inner), sink_(sink) {}

  uint32_t block_size() const override { return inner_->block_size(); }
  Status ReadBlocks(const uint64_t* blocks, size_t n,
                    uint8_t* out) override {
    return inner_->ReadBlocks(blocks, n, out);
  }
  Status WriteBlocks(const uint64_t* blocks, size_t n,
                     const uint8_t* data) override {
    for (size_t i = 0; i < n; ++i) sink_->Record(blocks[i]);
    return inner_->WriteBlocks(blocks, n, data);
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
// cache does and keeping sequential files sequential on the device.
class CoalescingStore : public BlockStore {
 public:
  explicit CoalescingStore(BlockStore* inner) : inner_(inner) {}

  uint32_t block_size() const override { return inner_->block_size(); }

  // Serves pending blocks from memory and fetches the rest with one
  // vectored inner read.
  Status ReadBlocks(const uint64_t* blocks, size_t n,
                    uint8_t* out) override {
    const size_t bs = inner_->block_size();
    std::vector<uint64_t> missing;
    std::vector<size_t> missing_pos;
    for (size_t i = 0; i < n; ++i) {
      auto it = pending_.find(blocks[i]);
      if (it != pending_.end()) {
        std::memcpy(out + i * bs, it->second.data(), bs);
      } else {
        missing.push_back(blocks[i]);
        missing_pos.push_back(i);
      }
    }
    if (missing.empty()) return Status::OK();
    if (missing.size() == n) return inner_->ReadBlocks(blocks, n, out);
    std::vector<uint8_t> buf(missing.size() * bs);
    STEGFS_RETURN_IF_ERROR(
        inner_->ReadBlocks(missing.data(), missing.size(), buf.data()));
    for (size_t j = 0; j < missing.size(); ++j) {
      std::memcpy(out + missing_pos[j] * bs, buf.data() + j * bs, bs);
    }
    return Status::OK();
  }

  // Stages the blocks; a later write of the same block replaces it.
  Status WriteBlocks(const uint64_t* blocks, size_t n,
                     const uint8_t* data) override {
    const size_t bs = inner_->block_size();
    for (size_t i = 0; i < n; ++i) {
      pending_[blocks[i]].assign(data + i * bs, data + (i + 1) * bs);
    }
    return Status::OK();
  }

  void Prefetch(const uint64_t* blocks, size_t n) override {
    inner_->Prefetch(blocks, n);
  }

  // Writes all pending blocks through as ONE vectored batch, ascending by
  // LBA (std::map order) — a sequential extent reaches a coalescing device
  // as a single transfer.
  Status Flush() {
    if (pending_.empty()) return Status::OK();
    const size_t bs = inner_->block_size();
    std::vector<uint64_t> blocks;
    std::vector<uint8_t> data;
    blocks.reserve(pending_.size());
    data.reserve(pending_.size() * bs);
    for (const auto& [block, buf] : pending_) {
      blocks.push_back(block);
      data.insert(data.end(), buf.begin(), buf.end());
    }
    STEGFS_RETURN_IF_ERROR(
        inner_->WriteBlocks(blocks.data(), blocks.size(), data.data()));
    pending_.clear();
    return Status::OK();
  }

 private:
  BlockStore* inner_;
  std::map<uint64_t, std::vector<uint8_t>> pending_;
};

}  // namespace stegfs

#endif  // STEGFS_FS_BLOCK_STORE_H_
