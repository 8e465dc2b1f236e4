#include "fs/file_io.h"

#include <algorithm>
#include <cstring>
#include <utility>
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
  if (offset >= inode->size || n == 0) return Status::OK();
  n = std::min(n, inode->size - offset);
  // Sized once: the blocks land at their final positions, and holes are
  // already zeros.
  const size_t base = out->size();
  out->resize(base + n);
  Status s = ReadExtent(inode, offset, n,
                        reinterpret_cast<uint8_t*>(&(*out)[base]), store,
                        alloc, inode_dirty);
  if (!s.ok()) out->resize(base);
  return s;
}

Status FileIo::ReadExtent(Inode* inode, uint64_t offset, uint64_t n,
                          uint8_t* dst, BlockStore* store,
                          BlockAllocator* alloc, bool* inode_dirty) {
  const uint64_t bs = block_size_;
  const uint64_t end = offset + n;
  const uint64_t first_idx = offset / bs;
  const uint64_t end_idx = (end + bs - 1) / bs;
  const bool verify = redundancy_ != nullptr && alloc != nullptr;

  // A whole block reads straight into `dst`. The partial head and tail
  // blocks, if any, read into `edge` (slot 0 and 1), and only their
  // slices are copied out.
  std::vector<uint8_t> edge;
  uint64_t edge_idx[2] = {0, 0};
  bool edge_read[2] = {false, false};
  std::vector<BlockIoVec> iov;
  std::vector<ExtentRedundancy::ReadBlockRef> refs;
  // One chunk = up to kMaxBatchBlocks file blocks: resolve the mapping for
  // the whole chunk, then fetch every mapped block with one vectored store
  // read sorted ascending by LBA. The FileBlockDevice coalescer then sees
  // every contiguous run the mapping contains, and a random-placed hidden
  // extent reaches the encrypted store's fan-out (which splits it into
  // chunks in list order) as one ascending sweep.
  for (uint64_t chunk = first_idx; chunk < end_idx;
       chunk += kMaxBatchBlocks) {
    const uint64_t chunk_end = std::min(end_idx, chunk + kMaxBatchBlocks);
    iov.clear();
    refs.clear();
    // One memo per chunk: the heal below may Remap pointers behind it.
    BlockMapper::Memo memo;
    for (uint64_t idx = chunk; idx < chunk_end; ++idx) {
      auto mapped = mapper_.Map(*inode, idx, store, &memo);
      if (!mapped.ok()) {
        if (mapped.status().IsNotFound()) continue;  // hole: zeros already
        return mapped.status();
      }
      uint8_t* buf = nullptr;
      if (idx * bs < offset || (idx + 1) * bs > end) {
        const int slot = idx == first_idx ? 0 : 1;
        edge.resize(2 * bs);
        buf = edge.data() + slot * bs;
        edge_idx[slot] = idx;
        edge_read[slot] = true;
      } else {
        buf = dst + (idx * bs - offset);
      }
      iov.push_back({mapped.value(), buf});
      if (verify) refs.push_back({idx, mapped.value(), buf});
    }
    if (iov.empty()) continue;
    std::sort(iov.begin(), iov.end(),
              [](const BlockIoVec& a, const BlockIoVec& b) {
                return a.block < b.block;
              });
    STEGFS_RETURN_IF_ERROR(store->ReadBlocks(iov.data(), iov.size()));

    // Share verification rides the batch: every mapped block of the chunk
    // is checked, and healed in place, before the edges are copied out.
    if (verify) {
      RedundancyIoCtx ctx{inode, store, alloc, &mapper_, inode_dirty};
      STEGFS_RETURN_IF_ERROR(
          redundancy_->OnExtentRead(ctx, refs.data(), refs.size()));
    }
    for (int slot = 0; slot < 2; ++slot) {
      if (!edge_read[slot]) continue;
      edge_read[slot] = false;
      const uint64_t start = edge_idx[slot] * bs;
      const uint64_t from = std::max(offset, start);
      const uint64_t to = std::min(end, start + bs);
      std::memcpy(dst + (from - offset),
                  edge.data() + slot * bs + (from - start), to - from);
    }
  }

  // Hint the window after the extent — but only for multi-block extents:
  // a block-at-a-time reader would submit one prefetch batch per block,
  // all chasing the block the next call is about to demand-read anyway,
  // and the submission overhead swamps the win (measured 0.6x on one
  // core).
  if (readahead_ > 0 && end_idx - first_idx >= 2) {
    IssueReadahead(*inode, end_idx, store);
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
  // before the redundancy hook can Remap. Whole blocks go to the store by
  // reference, straight from `data`, in the flush's one LBA-sorted batch;
  // only a partial head or tail block is read-modify-written.
  CoalescingStore coalesced(store);
  BlockMapper::Memo memo;
  const auto* src = reinterpret_cast<const uint8_t*>(data.data());
  std::vector<ConstBlockIoVec> extent;
  extent.reserve(data.size() / block_size_ + 1);
  std::vector<uint8_t> buf;
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
    if (take == block_size_) {
      extent.push_back({device_block, src + written});
    } else {
      // Partial block: read-modify-write (block may hold older data).
      buf.resize(block_size_);
      STEGFS_RETURN_IF_ERROR(coalesced.ReadBlock(device_block, buf.data()));
      std::memcpy(buf.data() + in_block, src + written, take);
      STEGFS_RETURN_IF_ERROR(coalesced.WriteBlock(device_block, buf.data()));
    }
    written += take;
  }
  STEGFS_RETURN_IF_ERROR(coalesced.Flush(std::move(extent)));
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
