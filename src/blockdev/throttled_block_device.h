// ThrottledBlockDevice: a BlockDevice decorator that charges every request
// a real wall-clock latency (a sleep), turning an in-memory device into a
// stand-in for a storage device with per-request service time.
//
// The real-thread benchmarks (bench_concurrent_throughput, the --threads
// mode of bench_fig7_multiuser) need this: on a machine with few cores the
// aggregate-throughput gain from multithreading comes from OVERLAPPING
// device waits, exactly as it does on real disks — so the decorated device
// must actually wait, unlike SimDisk which only accounts virtual time.
//
// Thread-safety: the decorator adds no shared mutable state, so it is as
// thread-safe as the wrapped device. (MemBlockDevice is safe for
// concurrent access to distinct blocks; the buffer cache's per-shard
// locking already serializes same-block access.)
#ifndef STEGFS_BLOCKDEV_THROTTLED_BLOCK_DEVICE_H_
#define STEGFS_BLOCKDEV_THROTTLED_BLOCK_DEVICE_H_

#include <chrono>
#include <cstdint>
#include <thread>

#include "blockdev/block_device.h"

namespace stegfs {

class ThrottledBlockDevice : public BlockDevice {
 public:
  // `inner` must outlive the decorator. Latencies are per whole-block
  // request; 0 disables the corresponding sleep. `sync_lat` charges every
  // Sync() barrier (the fdatasync stand-in the durable-write benches
  // need: group commit only pays off if barriers actually cost time).
  ThrottledBlockDevice(
      BlockDevice* inner, std::chrono::microseconds read_lat,
      std::chrono::microseconds write_lat,
      std::chrono::microseconds sync_lat = std::chrono::microseconds(0))
      : inner_(inner),
        read_lat_(read_lat),
        write_lat_(write_lat),
        sync_lat_(sync_lat) {}

  uint32_t block_size() const override { return inner_->block_size(); }
  uint64_t num_blocks() const override { return inner_->num_blocks(); }

  Status ReadBlock(uint64_t block, uint8_t* buf) override {
    if (read_lat_.count() > 0) std::this_thread::sleep_for(read_lat_);
    return inner_->ReadBlock(block, buf);
  }

  Status WriteBlock(uint64_t block, const uint8_t* buf) override {
    if (write_lat_.count() > 0) std::this_thread::sleep_for(write_lat_);
    return inner_->WriteBlock(block, buf);
  }

  Status Flush() override { return inner_->Flush(); }
  // The barrier, sleep included, is one sample of the device's exported
  // sync_ns histogram (the wrapped device's group, which this decorator
  // forwards). The wrapped devices in use (MemBlockDevice) only count
  // their barriers; one that times its own (FileBlockDevice) would record
  // each barrier twice.
  Status Sync() override {
    const DeviceMetrics* m = inner_->device_metrics();
    // The group is the wrapped device's own member, never a const object.
    obs::LatencyTimer timer(
        m != nullptr ? &const_cast<DeviceMetrics*>(m)->sync_ns : nullptr);
    if (sync_lat_.count() > 0) std::this_thread::sleep_for(sync_lat_);
    return inner_->Sync();
  }
  void set_flush_durability(FlushDurability mode) override {
    inner_->set_flush_durability(mode);
  }
  FlushDurability flush_durability() const override {
    return inner_->flush_durability();
  }

  // Physical-I/O accounting belongs to the wrapped device.
  const DeviceMetrics* device_metrics() const override {
    return inner_->device_metrics();
  }

 private:
  BlockDevice* inner_;
  std::chrono::microseconds read_lat_;
  std::chrono::microseconds write_lat_;
  std::chrono::microseconds sync_lat_;
};

}  // namespace stegfs

#endif  // STEGFS_BLOCKDEV_THROTTLED_BLOCK_DEVICE_H_
