#include "blockdev/mem_block_device.h"

#include <cassert>
#include <cstring>
#include <mutex>

namespace stegfs {

MemBlockDevice::MemBlockDevice(uint32_t block_size, uint64_t num_blocks)
    : block_size_(block_size), num_blocks_(num_blocks) {
  assert(block_size >= 512 && (block_size & (block_size - 1)) == 0);
  data_.assign(static_cast<size_t>(block_size) * num_blocks, 0);
}

Status MemBlockDevice::ReadBlock(uint64_t block, uint8_t* buf) {
  if (block >= num_blocks_) {
    return Status::InvalidArgument("read past end of device");
  }
  metrics_.blocks_read.Increment();
  std::shared_lock<std::shared_mutex> lock(stripes_[block % kStripes]);
  std::memcpy(buf, data_.data() + block * block_size_, block_size_);
  return Status::OK();
}

Status MemBlockDevice::WriteBlock(uint64_t block, const uint8_t* buf) {
  if (block >= num_blocks_) {
    return Status::InvalidArgument("write past end of device");
  }
  metrics_.blocks_written.Increment();
  std::lock_guard<std::shared_mutex> lock(stripes_[block % kStripes]);
  std::memcpy(data_.data() + block * block_size_, buf, block_size_);
  return Status::OK();
}

}  // namespace stegfs
