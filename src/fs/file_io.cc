#include "fs/file_io.h"

#include <algorithm>
#include <cstring>
#include <numeric>
#include <vector>

namespace stegfs {

Status FileIo::Read(const Inode& inode, uint64_t offset, uint64_t n,
                    BlockStore* store, std::string* out) {
  return ReadImpl(const_cast<Inode*>(&inode), offset, n, store,
                  /*alloc=*/nullptr, /*inode_dirty=*/nullptr, out);
}

Status FileIo::ReadVerified(Inode* inode, uint64_t offset, uint64_t n,
                            BlockStore* store, BlockAllocator* alloc,
                            bool* inode_dirty, std::string* out) {
  return ReadImpl(inode, offset, n, store, alloc, inode_dirty, out);
}

Status FileIo::ReadImpl(Inode* inode, uint64_t offset, uint64_t n,
                        BlockStore* store, BlockAllocator* alloc,
                        bool* inode_dirty, std::string* out) {
  if (inode->size > mapper_.MaxFileBlocks() * block_size_) {
    // Only a hostile or corrupt inode gets here; Write and Truncate
    // never grow a file past the mapping's reach.
    return Status::Corruption("inode size exceeds the maximum file size");
  }
  if (offset >= inode->size) return Status::OK();
  n = std::min(n, inode->size - offset);
  out->reserve(out->size() + n);
  const bool verify = redundancy_ != nullptr && alloc != nullptr;

  // One chunk = up to kMaxBatchBlocks file blocks: resolve the mapping for
  // the whole chunk, fetch every mapped block with one vectored store
  // read, then assemble bytes (holes read as zeros).
  std::vector<uint64_t> device_blocks;
  std::vector<uint64_t> file_idxs;
  std::vector<bool> is_hole;
  std::vector<uint32_t> takes;
  std::vector<uint8_t> buf;
  uint64_t total_blocks = 0;
  while (n > 0) {
    device_blocks.clear();
    file_idxs.clear();
    is_hole.clear();
    takes.clear();
    uint64_t chunk_off = offset;
    uint64_t chunk_n = n;
    // One memo per chunk: the heal below may Remap pointers behind it.
    BlockMapper::Memo memo;
    while (chunk_n > 0 && is_hole.size() < kMaxBatchBlocks) {
      uint64_t block_idx = chunk_off / block_size_;
      uint32_t in_block = static_cast<uint32_t>(chunk_off % block_size_);
      uint32_t take = static_cast<uint32_t>(
          std::min<uint64_t>(chunk_n, block_size_ - in_block));
      auto mapped = mapper_.Map(*inode, block_idx, store, &memo);
      if (mapped.ok()) {
        is_hole.push_back(false);
        device_blocks.push_back(mapped.value());
        file_idxs.push_back(block_idx);
      } else if (mapped.status().IsNotFound()) {
        is_hole.push_back(true);
      } else {
        return mapped.status();
      }
      takes.push_back(take);
      chunk_off += take;
      chunk_n -= take;
    }

    total_blocks += takes.size();
    // Submit the chunk ascending by LBA: the FileBlockDevice coalescer
    // then sees every contiguous run the mapping contains. Plain contiguous
    // extents are already ascending (the sort is a no-op); hidden
    // extents arrive in logical order, which random placement makes
    // device-random. `slot_of` maps each logical mapped index to its
    // position in the sorted transfer for reassembly below.
    std::vector<uint32_t> order(device_blocks.size());
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
      return device_blocks[a] < device_blocks[b];
    });
    std::vector<uint64_t> sorted_blocks(device_blocks.size());
    std::vector<uint32_t> slot_of(device_blocks.size());
    for (size_t j = 0; j < order.size(); ++j) {
      sorted_blocks[j] = device_blocks[order[j]];
      slot_of[order[j]] = static_cast<uint32_t>(j);
    }
    buf.resize(sorted_blocks.size() * block_size_);
    if (!sorted_blocks.empty()) {
      STEGFS_RETURN_IF_ERROR(store->ReadBlocks(
          sorted_blocks.data(), sorted_blocks.size(), buf.data()));
    }

    // Share verification rides the batch: every mapped whole block of the
    // chunk is checked (and healed in place) before a byte is assembled.
    if (verify && !device_blocks.empty()) {
      std::vector<ExtentRedundancy::ReadBlockRef> refs(device_blocks.size());
      for (size_t j = 0; j < device_blocks.size(); ++j) {
        refs[j] = {file_idxs[j], device_blocks[j],
                   buf.data() + slot_of[j] * block_size_};
      }
      RedundancyIoCtx ctx{inode, store, alloc, &mapper_, inode_dirty};
      STEGFS_RETURN_IF_ERROR(
          redundancy_->OnExtentRead(ctx, refs.data(), refs.size()));
    }

    size_t mapped_i = 0;
    for (size_t i = 0; i < takes.size(); ++i) {
      uint32_t in_block = static_cast<uint32_t>(offset % block_size_);
      if (is_hole[i]) {
        out->append(takes[i], '\0');
      } else {
        const uint8_t* src =
            buf.data() + slot_of[mapped_i] * block_size_ + in_block;
        out->append(reinterpret_cast<const char*>(src), takes[i]);
        ++mapped_i;
      }
      offset += takes[i];
      n -= takes[i];
    }
  }

  // Hint the window after the extent — but only for multi-block extents:
  // a block-at-a-time reader would enqueue one prefetch task per block,
  // all chasing the block the next call is about to demand-read anyway,
  // and the task overhead swamps the win (measured 0.6x on one core).
  if (readahead_ > 0 && total_blocks >= 2) {
    IssueReadahead(*inode, offset / block_size_ + (offset % block_size_ != 0),
                   store);
  }
  return Status::OK();
}

void FileIo::IssueReadahead(const Inode& inode, uint64_t next_idx,
                            BlockStore* store) {
  std::vector<uint64_t> blocks;
  uint64_t file_blocks = (inode.size + block_size_ - 1) / block_size_;
  // The window is the next readahead_ FILE blocks — holes inside it yield
  // nothing but do not extend the scan, so a sparse tail costs at most
  // readahead_ mapper lookups per read, never a walk of the whole file.
  uint64_t window_end = std::min(file_blocks, next_idx + readahead_);
  BlockMapper::Memo memo;
  for (uint64_t idx = next_idx; idx < window_end; ++idx) {
    auto mapped = mapper_.Map(inode, idx, store, &memo);
    if (!mapped.ok()) {
      if (mapped.status().IsNotFound()) continue;  // hole: nothing to warm
      return;  // mapping error: skip the hint, the demand path reports it
    }
    blocks.push_back(mapped.value());
  }
  if (!blocks.empty()) store->Prefetch(blocks.data(), blocks.size());
}

Status FileIo::Write(Inode* inode, uint64_t offset, std::string_view data,
                     BlockStore* store, BlockAllocator* alloc,
                     bool* inode_dirty) {
  const uint64_t max_bytes = mapper_.MaxFileBlocks() * block_size_;
  if (offset > max_bytes || data.size() > max_bytes - offset) {
    return Status::InvalidArgument("write exceeds maximum file size");
  }
  // Coalesce per-operation: indirect-pointer blocks are touched on every
  // allocation but must reach the device only once per logical write.
  // The memo decodes each of them once per write; it ends with the loop,
  // before the redundancy hook can Remap.
  CoalescingStore coalesced(store);
  BlockMapper::Memo memo;
  std::vector<uint8_t> buf(block_size_);
  size_t written = 0;
  while (written < data.size()) {
    uint64_t pos = offset + written;
    uint64_t block_idx = pos / block_size_;
    uint32_t in_block = static_cast<uint32_t>(pos % block_size_);
    uint32_t take = static_cast<uint32_t>(std::min<uint64_t>(
        data.size() - written, block_size_ - in_block));
    STEGFS_ASSIGN_OR_RETURN(
        uint64_t device_block,
        mapper_.MapOrAllocate(inode, block_idx, &coalesced, alloc,
                              inode_dirty, &memo));
    if (take < block_size_) {
      // Partial block: read-modify-write (block may hold older data).
      STEGFS_RETURN_IF_ERROR(coalesced.ReadBlock(device_block, buf.data()));
    }
    std::memcpy(buf.data() + in_block, data.data() + written, take);
    STEGFS_RETURN_IF_ERROR(coalesced.WriteBlock(device_block, buf.data()));
    written += take;
  }
  STEGFS_RETURN_IF_ERROR(coalesced.Flush());
  if (offset + data.size() > inode->size) {
    inode->size = offset + data.size();
    *inode_dirty = true;
  }
  if (!data.empty()) {
    inode->mtime++;
    *inode_dirty = true;
  }
  // Parity rides behind the data batch: re-encode every stripe the write
  // touched, now that the new block contents are visible in the store.
  if (redundancy_ != nullptr && !data.empty()) {
    RedundancyIoCtx ctx{inode, store, alloc, &mapper_, inode_dirty};
    STEGFS_RETURN_IF_ERROR(redundancy_->OnExtentWrite(
        ctx, offset / block_size_,
        (offset + data.size() - 1) / block_size_));
  }
  return Status::OK();
}

Status FileIo::Truncate(Inode* inode, uint64_t new_size, BlockStore* store,
                        BlockAllocator* alloc, bool* inode_dirty) {
  if (new_size > mapper_.MaxFileBlocks() * block_size_) {
    return Status::InvalidArgument("truncate exceeds maximum file size");
  }
  if (new_size >= inode->size) {
    if (new_size != inode->size) {
      inode->size = new_size;  // grow: reads of the gap return zeros (hole)
      *inode_dirty = true;
    }
    return Status::OK();
  }
  uint64_t first_kept = (new_size + block_size_ - 1) / block_size_;
  STEGFS_RETURN_IF_ERROR(mapper_.FreeFrom(inode, first_kept, store, alloc));
  inode->size = new_size;
  inode->mtime++;
  *inode_dirty = true;
  if (redundancy_ != nullptr) {
    RedundancyIoCtx ctx{inode, store, alloc, &mapper_, inode_dirty};
    STEGFS_RETURN_IF_ERROR(redundancy_->OnTruncate(ctx, first_kept));
  }
  return Status::OK();
}

}  // namespace stegfs
