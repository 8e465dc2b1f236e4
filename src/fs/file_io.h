// Byte-granular file I/O over an inode: the read/write/truncate engine
// shared by plain files, directories and (through an EncryptedBlockStore +
// pool allocator) hidden files.
//
// FileIo is where a file extent becomes the store's (block, buffer) list,
// and where that list is sorted by LBA: the stores, the cache and the
// encrypted store's fan-out keep the order they are given. Every buffer in
// the list points straight into the caller's bytes, apart from a partial
// head or tail block, so a whole block is copied once between the caller
// and the cache or the device (once into ciphertext staging, for a hidden
// write).
#ifndef STEGFS_FS_FILE_IO_H_
#define STEGFS_FS_FILE_IO_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "fs/block_mapper.h"
#include "fs/block_store.h"
#include "fs/inode.h"
#include "util/status.h"

namespace stegfs {

// Everything a redundancy hook needs to reach back into the file it is
// protecting: the inode (healing remaps block pointers), the store and
// allocator (fresh blocks for re-dispersed shares), and the mapper.
struct RedundancyIoCtx {
  Inode* inode = nullptr;
  BlockStore* store = nullptr;
  BlockAllocator* alloc = nullptr;
  BlockMapper* mapper = nullptr;
  bool* inode_dirty = nullptr;
};

// Per-extent redundancy hook: FileIo calls it inline on the batched
// data path — after each vectored chunk read (verify + heal in place,
// before a partial block's bytes are copied out), after each write's coalesced flush (re-encode the
// touched stripes' parity), and after truncate (drop parity past the new
// end). Implemented by core::RedundancyManager; null = policy kNone.
class ExtentRedundancy {
 public:
  virtual ~ExtentRedundancy() = default;

  // One mapped block of a read chunk: its file block index, the device
  // block it mapped to, and its plaintext: in the caller's buffer for a
  // whole block, in a block-sized bounce buffer for a partial head or
  // tail. A heal rewrites `data` in place, so the caller reads the
  // repaired bytes.
  struct ReadBlockRef {
    uint64_t file_idx = 0;
    uint64_t device_block = 0;
    uint8_t* data = nullptr;
  };

  // Verify `count` freshly read blocks; heal any share whose checksum or
  // bitmap evidence says it was lost. DataLoss when a stripe has fewer
  // than k intact shares.
  virtual Status OnExtentRead(const RedundancyIoCtx& ctx, ReadBlockRef* refs,
                              size_t count) = 0;

  // Re-encode parity for every stripe overlapping file blocks
  // [first_idx, last_idx] after their data reached the store.
  virtual Status OnExtentWrite(const RedundancyIoCtx& ctx, uint64_t first_idx,
                               uint64_t last_idx) = 0;

  // The file now ends at `new_file_blocks` blocks: release parity beyond
  // it and re-encode the boundary stripe.
  virtual Status OnTruncate(const RedundancyIoCtx& ctx,
                            uint64_t new_file_blocks) = 0;
};

class FileIo {
 public:
  explicit FileIo(uint32_t block_size)
      : block_size_(block_size), mapper_(block_size) {}

  // Readahead window in file blocks: after each Read, the next `blocks`
  // mapped blocks are hinted to the store's prefetcher (0 = off, the
  // default). Takes effect only when the underlying cache has an async
  // engine attached.
  void set_readahead(uint32_t blocks) { readahead_ = blocks; }
  uint32_t readahead() const { return readahead_; }

  // Attaches a redundancy hook (not owned). Write and Truncate consult it
  // unconditionally; reads verify only through ReadVerified (plain Read
  // has no allocator to heal with).
  void set_redundancy(ExtentRedundancy* redundancy) {
    redundancy_ = redundancy;
  }

  // Reads up to `n` bytes from `offset`; stops at end-of-file. Holes read
  // as zeros. Appends to *out, which grows once by the bytes read; on
  // error *out is left as it was. The extent is resolved through the
  // mapper first, then all mapped blocks transfer as vectored batches (at
  // most kMaxBatchBlocks at a time) sorted ascending by device LBA, each
  // whole block read (and decrypted) in place at its final position in
  // *out. So a sequential extent reaches the device as coalesced runs, a
  // random-placed hidden extent reaches the device as one ascending sweep
  // per batch, and the crypto layer sees pipelined batches either way.
  Status Read(const Inode& inode, uint64_t offset, uint64_t n,
              BlockStore* store, std::string* out);

  // Read with share verification and in-place healing through the attached
  // redundancy hook (a heal allocates fresh blocks and remaps the inode,
  // hence the mutable inode + allocator). Behaves exactly like Read when
  // no hook is attached.
  Status ReadVerified(Inode* inode, uint64_t offset, uint64_t n,
                      BlockStore* store, BlockAllocator* alloc,
                      bool* inode_dirty, std::string* out);

  // Writes `data` at `offset`, allocating blocks and growing inode->size as
  // needed. Partial first/last blocks are read-modify-written. All blocks
  // the write touches (data, partial and pointer blocks) reach the store
  // as one batch sorted by LBA; whole data blocks go by reference into
  // `data`.
  Status Write(Inode* inode, uint64_t offset, std::string_view data,
               BlockStore* store, BlockAllocator* alloc, bool* inode_dirty);

  // Shrinks the file, freeing blocks past the new end. Growing sets the
  // size without allocating blocks (the gap reads as zeros); growing past
  // the maximum file size is InvalidArgument, as for Write.
  Status Truncate(Inode* inode, uint64_t new_size, BlockStore* store,
                  BlockAllocator* alloc, bool* inode_dirty);

  BlockMapper* mapper() { return &mapper_; }

  // File blocks per read batch: the window of the LBA sort, so the device
  // sees a long read as one ascending sweep per 256 blocks (the request
  // order the paper-figure benches are pinned to). It also bounds a
  // batch's mapping scratch and the life of its mapper memo. Reads stage
  // nothing: the bytes land in the caller's buffer.
  static constexpr size_t kMaxBatchBlocks = 256;

 private:
  // Shared body of Read / ReadVerified; verifies through the redundancy
  // hook only when `alloc` is non-null.
  Status ReadImpl(Inode* inode, uint64_t offset, uint64_t n,
                  BlockStore* store, BlockAllocator* alloc, bool* inode_dirty,
                  std::string* out);
  // Reads file bytes [offset, offset + n), all before end-of-file, into
  // `dst`, which holds zeros where the file has holes.
  Status ReadExtent(Inode* inode, uint64_t offset, uint64_t n, uint8_t* dst,
                    BlockStore* store, BlockAllocator* alloc,
                    bool* inode_dirty);

  // Hints the prefetcher at the next `readahead_` mapped file blocks
  // following `next_idx`.
  void IssueReadahead(const Inode& inode, uint64_t next_idx,
                      BlockStore* store);

  uint32_t block_size_;
  uint32_t readahead_ = 0;
  BlockMapper mapper_;
  ExtentRedundancy* redundancy_ = nullptr;
};

}  // namespace stegfs

#endif  // STEGFS_FS_FILE_IO_H_
