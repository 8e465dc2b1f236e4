#include "fs/block_mapper.h"

#include <cstring>

#include "util/coding.h"

namespace stegfs {

Status BlockMapper::ReadPointerBlock(BlockStore* store, uint64_t block,
                                     std::vector<uint32_t>* ptrs) const {
  std::vector<uint8_t> buf(block_size_);
  STEGFS_RETURN_IF_ERROR(store->ReadBlock(block, buf.data()));
  ptrs->resize(ptrs_per_block_);
  for (uint32_t i = 0; i < ptrs_per_block_; ++i) {
    (*ptrs)[i] = DecodeFixed32(buf.data() + i * 4);
  }
  return Status::OK();
}

Status BlockMapper::WritePointerBlock(BlockStore* store, uint64_t block,
                                      const std::vector<uint32_t>& ptrs) const {
  std::vector<uint8_t> buf(block_size_, 0);
  for (uint32_t i = 0; i < ptrs_per_block_ && i < ptrs.size(); ++i) {
    EncodeFixed32(buf.data() + i * 4, ptrs[i]);
  }
  if (meta_recorder_ != nullptr) meta_recorder_->Record(block);
  return store->WriteBlock(block, buf.data());
}

StatusOr<std::vector<uint32_t>*> BlockMapper::LoadPointerBlock(
    BlockStore* store, uint64_t block, Memo::Slot* slot) const {
  if (slot->block != block) {
    slot->block = kNullBlock;  // holds nothing until the read succeeds
    STEGFS_RETURN_IF_ERROR(ReadPointerBlock(store, block, &slot->ptrs));
    slot->block = block;
  }
  return &slot->ptrs;
}

StatusOr<uint64_t> BlockMapper::AllocateZeroedPointerBlock(
    BlockStore* store, BlockAllocator* alloc, Memo::Slot* slot) const {
  STEGFS_ASSIGN_OR_RETURN(uint64_t block, alloc->AllocateBlock());
  std::vector<uint8_t> zero(block_size_, 0);
  if (meta_recorder_ != nullptr) meta_recorder_->Record(block);
  STEGFS_RETURN_IF_ERROR(store->WriteBlock(block, zero.data()));
  slot->ptrs.assign(ptrs_per_block_, kNullBlock);
  slot->block = block;
  return block;
}

StatusOr<uint64_t> BlockMapper::Map(const Inode& inode, uint64_t idx,
                                    BlockStore* store, Memo* memo) {
  if (idx < kDirectPointers) {
    uint32_t b = inode.direct[idx];
    if (b == kNullBlock) return Status::NotFound("hole (direct)");
    return static_cast<uint64_t>(b);
  }
  idx -= kDirectPointers;
  if (idx < ptrs_per_block_) {
    if (inode.single_indirect == kNullBlock) {
      return Status::NotFound("hole (single indirect missing)");
    }
    STEGFS_ASSIGN_OR_RETURN(
        const std::vector<uint32_t>* ptrs,
        LoadPointerBlock(store, inode.single_indirect, &memo->single_));
    if ((*ptrs)[idx] == kNullBlock) return Status::NotFound("hole (single)");
    return static_cast<uint64_t>((*ptrs)[idx]);
  }
  idx -= ptrs_per_block_;
  uint64_t outer = idx / ptrs_per_block_;
  uint64_t inner = idx % ptrs_per_block_;
  if (outer >= ptrs_per_block_) {
    return Status::InvalidArgument("file block index beyond maximum size");
  }
  if (inode.double_indirect == kNullBlock) {
    return Status::NotFound("hole (double indirect missing)");
  }
  STEGFS_ASSIGN_OR_RETURN(
      const std::vector<uint32_t>* l1,
      LoadPointerBlock(store, inode.double_indirect, &memo->l1_));
  if ((*l1)[outer] == kNullBlock) return Status::NotFound("hole (double L1)");
  STEGFS_ASSIGN_OR_RETURN(const std::vector<uint32_t>* l2,
                          LoadPointerBlock(store, (*l1)[outer], &memo->l2_));
  if ((*l2)[inner] == kNullBlock) return Status::NotFound("hole (double L2)");
  return static_cast<uint64_t>((*l2)[inner]);
}

StatusOr<uint64_t> BlockMapper::MapOrAllocate(Inode* inode, uint64_t idx,
                                              BlockStore* store,
                                              BlockAllocator* alloc,
                                              bool* inode_dirty, Memo* memo) {
  if (idx < kDirectPointers) {
    if (inode->direct[idx] == kNullBlock) {
      STEGFS_ASSIGN_OR_RETURN(uint64_t b, alloc->AllocateBlock());
      inode->direct[idx] = static_cast<uint32_t>(b);
      *inode_dirty = true;
    }
    return static_cast<uint64_t>(inode->direct[idx]);
  }
  uint64_t rel = idx - kDirectPointers;
  if (rel < ptrs_per_block_) {
    if (inode->single_indirect == kNullBlock) {
      STEGFS_ASSIGN_OR_RETURN(
          uint64_t b, AllocateZeroedPointerBlock(store, alloc, &memo->single_));
      inode->single_indirect = static_cast<uint32_t>(b);
      *inode_dirty = true;
    }
    STEGFS_ASSIGN_OR_RETURN(
        std::vector<uint32_t>* ptrs,
        LoadPointerBlock(store, inode->single_indirect, &memo->single_));
    if ((*ptrs)[rel] == kNullBlock) {
      STEGFS_ASSIGN_OR_RETURN(uint64_t b, alloc->AllocateBlock());
      (*ptrs)[rel] = static_cast<uint32_t>(b);
      STEGFS_RETURN_IF_ERROR(
          WritePointerBlock(store, inode->single_indirect, *ptrs));
    }
    return static_cast<uint64_t>((*ptrs)[rel]);
  }
  rel -= ptrs_per_block_;
  uint64_t outer = rel / ptrs_per_block_;
  uint64_t inner = rel % ptrs_per_block_;
  if (outer >= ptrs_per_block_) {
    return Status::InvalidArgument("file block index beyond maximum size");
  }
  if (inode->double_indirect == kNullBlock) {
    STEGFS_ASSIGN_OR_RETURN(
        uint64_t b, AllocateZeroedPointerBlock(store, alloc, &memo->l1_));
    inode->double_indirect = static_cast<uint32_t>(b);
    *inode_dirty = true;
  }
  STEGFS_ASSIGN_OR_RETURN(
      std::vector<uint32_t>* l1,
      LoadPointerBlock(store, inode->double_indirect, &memo->l1_));
  if ((*l1)[outer] == kNullBlock) {
    STEGFS_ASSIGN_OR_RETURN(
        uint64_t b, AllocateZeroedPointerBlock(store, alloc, &memo->l2_));
    (*l1)[outer] = static_cast<uint32_t>(b);
    STEGFS_RETURN_IF_ERROR(
        WritePointerBlock(store, inode->double_indirect, *l1));
  }
  STEGFS_ASSIGN_OR_RETURN(std::vector<uint32_t>* l2,
                          LoadPointerBlock(store, (*l1)[outer], &memo->l2_));
  if ((*l2)[inner] == kNullBlock) {
    STEGFS_ASSIGN_OR_RETURN(uint64_t b, alloc->AllocateBlock());
    (*l2)[inner] = static_cast<uint32_t>(b);
    STEGFS_RETURN_IF_ERROR(WritePointerBlock(store, (*l1)[outer], *l2));
  }
  return static_cast<uint64_t>((*l2)[inner]);
}

Status BlockMapper::Remap(Inode* inode, uint64_t idx, uint64_t new_block,
                          BlockStore* store, bool* inode_dirty) {
  if (idx < kDirectPointers) {
    if (inode->direct[idx] == kNullBlock) {
      return Status::NotFound("hole (direct)");
    }
    inode->direct[idx] = static_cast<uint32_t>(new_block);
    *inode_dirty = true;
    return Status::OK();
  }
  uint64_t rel = idx - kDirectPointers;
  if (rel < ptrs_per_block_) {
    if (inode->single_indirect == kNullBlock) {
      return Status::NotFound("hole (single indirect missing)");
    }
    std::vector<uint32_t> ptrs;
    STEGFS_RETURN_IF_ERROR(
        ReadPointerBlock(store, inode->single_indirect, &ptrs));
    if (ptrs[rel] == kNullBlock) return Status::NotFound("hole (single)");
    ptrs[rel] = static_cast<uint32_t>(new_block);
    return WritePointerBlock(store, inode->single_indirect, ptrs);
  }
  rel -= ptrs_per_block_;
  uint64_t outer = rel / ptrs_per_block_;
  uint64_t inner = rel % ptrs_per_block_;
  if (outer >= ptrs_per_block_) {
    return Status::InvalidArgument("file block index beyond maximum size");
  }
  if (inode->double_indirect == kNullBlock) {
    return Status::NotFound("hole (double indirect missing)");
  }
  std::vector<uint32_t> l1;
  STEGFS_RETURN_IF_ERROR(ReadPointerBlock(store, inode->double_indirect, &l1));
  if (l1[outer] == kNullBlock) return Status::NotFound("hole (double L1)");
  std::vector<uint32_t> l2;
  STEGFS_RETURN_IF_ERROR(ReadPointerBlock(store, l1[outer], &l2));
  if (l2[inner] == kNullBlock) return Status::NotFound("hole (double L2)");
  l2[inner] = static_cast<uint32_t>(new_block);
  return WritePointerBlock(store, l1[outer], l2);
}

Status BlockMapper::FreeFrom(Inode* inode, uint64_t first_kept,
                             BlockStore* store, BlockAllocator* alloc) {
  // Direct pointers.
  for (uint64_t i = 0; i < kDirectPointers; ++i) {
    if (i >= first_kept && inode->direct[i] != kNullBlock) {
      STEGFS_RETURN_IF_ERROR(alloc->FreeBlock(inode->direct[i]));
      inode->direct[i] = kNullBlock;
    }
  }
  // Single indirect.
  if (inode->single_indirect != kNullBlock) {
    std::vector<uint32_t> ptrs;
    STEGFS_RETURN_IF_ERROR(
        ReadPointerBlock(store, inode->single_indirect, &ptrs));
    bool any_kept = false;
    bool changed = false;
    for (uint32_t i = 0; i < ptrs_per_block_; ++i) {
      uint64_t file_idx = kDirectPointers + i;
      if (ptrs[i] == kNullBlock) continue;
      if (file_idx >= first_kept) {
        STEGFS_RETURN_IF_ERROR(alloc->FreeBlock(ptrs[i]));
        ptrs[i] = kNullBlock;
        changed = true;
      } else {
        any_kept = true;
      }
    }
    if (!any_kept) {
      STEGFS_RETURN_IF_ERROR(alloc->FreeBlock(inode->single_indirect));
      inode->single_indirect = kNullBlock;
    } else if (changed) {
      STEGFS_RETURN_IF_ERROR(
          WritePointerBlock(store, inode->single_indirect, ptrs));
    }
  }
  // Double indirect.
  if (inode->double_indirect != kNullBlock) {
    std::vector<uint32_t> l1;
    STEGFS_RETURN_IF_ERROR(
        ReadPointerBlock(store, inode->double_indirect, &l1));
    bool any_l1_kept = false;
    bool l1_changed = false;
    for (uint32_t o = 0; o < ptrs_per_block_; ++o) {
      if (l1[o] == kNullBlock) continue;
      std::vector<uint32_t> l2;
      STEGFS_RETURN_IF_ERROR(ReadPointerBlock(store, l1[o], &l2));
      bool any_l2_kept = false;
      bool l2_changed = false;
      for (uint32_t i = 0; i < ptrs_per_block_; ++i) {
        if (l2[i] == kNullBlock) continue;
        uint64_t file_idx = kDirectPointers + ptrs_per_block_ +
                            static_cast<uint64_t>(o) * ptrs_per_block_ + i;
        if (file_idx >= first_kept) {
          STEGFS_RETURN_IF_ERROR(alloc->FreeBlock(l2[i]));
          l2[i] = kNullBlock;
          l2_changed = true;
        } else {
          any_l2_kept = true;
        }
      }
      if (!any_l2_kept) {
        STEGFS_RETURN_IF_ERROR(alloc->FreeBlock(l1[o]));
        l1[o] = kNullBlock;
        l1_changed = true;
      } else {
        any_l1_kept = true;
        if (l2_changed) {
          STEGFS_RETURN_IF_ERROR(WritePointerBlock(store, l1[o], l2));
        }
      }
    }
    if (!any_l1_kept) {
      STEGFS_RETURN_IF_ERROR(alloc->FreeBlock(inode->double_indirect));
      inode->double_indirect = kNullBlock;
    } else if (l1_changed) {
      STEGFS_RETURN_IF_ERROR(
          WritePointerBlock(store, inode->double_indirect, l1));
    }
  }
  return Status::OK();
}

Status BlockMapper::CollectBlocks(const Inode& inode, BlockStore* store,
                                  std::vector<uint64_t>* out) const {
  for (uint64_t i = 0; i < kDirectPointers; ++i) {
    if (inode.direct[i] != kNullBlock) out->push_back(inode.direct[i]);
  }
  if (inode.single_indirect != kNullBlock) {
    out->push_back(inode.single_indirect);
    std::vector<uint32_t> ptrs;
    STEGFS_RETURN_IF_ERROR(
        ReadPointerBlock(store, inode.single_indirect, &ptrs));
    for (uint32_t p : ptrs) {
      if (p != kNullBlock) out->push_back(p);
    }
  }
  if (inode.double_indirect != kNullBlock) {
    out->push_back(inode.double_indirect);
    std::vector<uint32_t> l1;
    STEGFS_RETURN_IF_ERROR(
        ReadPointerBlock(store, inode.double_indirect, &l1));
    for (uint32_t o : l1) {
      if (o == kNullBlock) continue;
      out->push_back(o);
      std::vector<uint32_t> l2;
      STEGFS_RETURN_IF_ERROR(ReadPointerBlock(store, o, &l2));
      for (uint32_t p : l2) {
        if (p != kNullBlock) out->push_back(p);
      }
    }
  }
  return Status::OK();
}

}  // namespace stegfs
