// BlockMapper: translates (inode, file block index) -> device block through
// the classic direct / single-indirect / double-indirect walk, allocating or
// freeing blocks on demand. Parameterized on BlockStore + BlockAllocator so
// the identical logic drives plain files, directories AND encrypted hidden
// files (whose indirect blocks are themselves encrypted and pool-allocated).
#ifndef STEGFS_FS_BLOCK_MAPPER_H_
#define STEGFS_FS_BLOCK_MAPPER_H_

#include <cstdint>
#include <vector>

#include "fs/block_store.h"
#include "fs/inode.h"
#include "util/status.h"
#include "util/statusor.h"

namespace stegfs {

class BlockMapper {
 public:
  explicit BlockMapper(uint32_t block_size)
      : block_size_(block_size), ptrs_per_block_(block_size / 4) {}

  // Largest addressable file, in blocks.
  uint64_t MaxFileBlocks() const {
    return kDirectPointers + ptrs_per_block_ +
           static_cast<uint64_t>(ptrs_per_block_) * ptrs_per_block_;
  }

  // The decoded pointer blocks one mapping loop walks: the single-indirect
  // block, the double-indirect root (L1) and the current L2 block, each
  // keyed by its device block number. Map and MapOrAllocate read through
  // it, so a loop over an extent reads, decrypts and decodes each pointer
  // block once instead of once per data block, and pointer updates land in
  // the memo as they are written to the store. A memo is valid only while
  // nothing else rewrites the inode's pointer blocks: scope one to a single
  // loop and never carry it across Remap, FreeFrom or a redundancy hook.
  // It is a stack object for the loop's lifetime — decoded pointers are
  // never kept beyond the operation, and nothing reaches the cache or disk.
  class Memo {
   private:
    friend class BlockMapper;
    struct Slot {
      uint64_t block = kNullBlock;  // pointer block held; kNullBlock = none
      std::vector<uint32_t> ptrs;
    };
    Slot single_, l1_, l2_;
  };

  // Device block holding file block `idx`, or NotFound for a hole.
  StatusOr<uint64_t> Map(const Inode& inode, uint64_t idx, BlockStore* store,
                         Memo* memo);

  // Like Map but allocates missing data/indirect blocks. Sets *inode_dirty
  // when the inode's pointer fields changed.
  StatusOr<uint64_t> MapOrAllocate(Inode* inode, uint64_t idx,
                                   BlockStore* store, BlockAllocator* alloc,
                                   bool* inode_dirty, Memo* memo);

  // Repoints file block `idx` at `new_block` WITHOUT freeing the block it
  // previously mapped to — the self-healing path: the old block may have
  // been claimed by a plain allocation, and freeing a block we no longer
  // own would corrupt someone else's data. NotFound when `idx` is a hole.
  Status Remap(Inode* inode, uint64_t idx, uint64_t new_block,
               BlockStore* store, bool* inode_dirty);

  // Frees all data blocks with file index >= first_kept and any indirect
  // blocks that become empty. (first_kept = 0 frees everything.)
  Status FreeFrom(Inode* inode, uint64_t first_kept, BlockStore* store,
                  BlockAllocator* alloc);

  // Appends every device block reachable from `inode` — data AND indirect
  // blocks — to `out`. Used by backup and the space accountant.
  Status CollectBlocks(const Inode& inode, BlockStore* store,
                       std::vector<uint64_t>* out) const;

  // Metadata-write recorder: while non-null, every indirect pointer block
  // this mapper writes (allocation, pointer update, truncate zeroing) is
  // recorded into *sink BEFORE the write reaches the store. PlainFs's
  // journal transactions use it to capture the pointer blocks an operation
  // touched — in-place pointer rewrites are exactly the tear ordered-data
  // writeback cannot protect, so they must ride the journal record — and
  // the log's on_record hook parks the block against concurrent flushers.
  // The recorder is txn-scoped: set before the operation, cleared after;
  // the mapper stays single-owner per thread (PlainFs's metadata lock /
  // the per-object lock).
  void set_meta_recorder(MetaWriteLog* sink) { meta_recorder_ = sink; }

 private:
  Status ReadPointerBlock(BlockStore* store, uint64_t block,
                          std::vector<uint32_t>* ptrs) const;
  Status WritePointerBlock(BlockStore* store, uint64_t block,
                           const std::vector<uint32_t>& ptrs) const;
  // Pointer block `block`, decoded into `slot` unless the slot holds it.
  StatusOr<std::vector<uint32_t>*> LoadPointerBlock(BlockStore* store,
                                                    uint64_t block,
                                                    Memo::Slot* slot) const;
  // Allocates and writes a zeroed pointer block; `slot` then holds it.
  StatusOr<uint64_t> AllocateZeroedPointerBlock(BlockStore* store,
                                                BlockAllocator* alloc,
                                                Memo::Slot* slot) const;

  uint32_t block_size_;
  uint32_t ptrs_per_block_;
  MetaWriteLog* meta_recorder_ = nullptr;
};

}  // namespace stegfs

#endif  // STEGFS_FS_BLOCK_MAPPER_H_
