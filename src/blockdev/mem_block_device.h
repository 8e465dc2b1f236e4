// RAM-backed block device used by all tests and simulations.
//
// Thread-safe per block: a read racing a write of the same block sees one
// whole image, never a torn mix. Readers outside the buffer cache's shard
// locks (BufferCache::ProbeBatch, the async engines) rely on this.
#ifndef STEGFS_BLOCKDEV_MEM_BLOCK_DEVICE_H_
#define STEGFS_BLOCKDEV_MEM_BLOCK_DEVICE_H_

#include <array>
#include <cstdint>
#include <shared_mutex>
#include <vector>

#include "blockdev/block_device.h"

namespace stegfs {

class MemBlockDevice : public BlockDevice {
 public:
  // Storage is zero-initialized. block_size must be a power of two >= 512.
  MemBlockDevice(uint32_t block_size, uint64_t num_blocks);

  uint32_t block_size() const override { return block_size_; }
  uint64_t num_blocks() const override { return num_blocks_; }
  Status ReadBlock(uint64_t block, uint8_t* buf) override;
  Status WriteBlock(uint64_t block, const uint8_t* buf) override;
  Status Flush() override { return Status::OK(); }
  // Nothing to make durable; the barrier is only counted.
  Status Sync() override {
    metrics_.syncs.Increment();
    return Status::OK();
  }
  const DeviceMetrics* device_metrics() const override { return &metrics_; }

  // Direct access for tests and the deniability auditor (an "attacker" that
  // scans the raw disk image).
  const std::vector<uint8_t>& raw() const { return data_; }
  std::vector<uint8_t>* mutable_raw() { return &data_; }

 private:
  uint32_t block_size_;
  uint64_t num_blocks_;
  std::vector<uint8_t> data_;
  // Block b is guarded by stripes_[b % kStripes].
  static constexpr size_t kStripes = 64;
  std::array<std::shared_mutex, kStripes> stripes_;
  // Counters only — no latency timers on a memcpy-speed device.
  DeviceMetrics metrics_;
};

}  // namespace stegfs

#endif  // STEGFS_BLOCKDEV_MEM_BLOCK_DEVICE_H_
