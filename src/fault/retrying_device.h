// RetryingBlockDevice: the retry layer of fault-tolerant mounts. A
// BlockDevice decorator that classifies every inner error
// (fault/error_taxonomy.h) and re-attempts transient/timeout-classed ones
// under a RetryPolicy — exponential backoff, deterministic seeded jitter,
// per-op deadline. Every transfer of the mount passes through it: the
// buffer cache and journal call it directly, and the async engine
// (ThreadPoolAsyncDevice) runs each batch slice through it on a pool
// thread. The layers above only ever see faults that survived the policy.
//
// What it reports where:
//   - every fault's class        -> FaultStats counters
//   - retries exhausted          -> HealthMonitor::ReportRetryExhausted
//   - persistent-classed faults  -> HealthMonitor::ReportPersistentWrite/
//                                   ReadFault (write/sync faults trip the
//                                   mount read-only)
//
// Success path cost is one virtual hop and one ok() branch — the bench
// gate holds fault-tolerant mounts within 3% of raw on the fault-free
// 1 MiB sequential path.
//
// Decorator conventions (blockdev/block_device.h): device_metrics() and
// Sync() forward to the inner device. Fault injection and the
// crash recorder sit below this decorator, so they see every attempt.
#ifndef STEGFS_FAULT_RETRYING_DEVICE_H_
#define STEGFS_FAULT_RETRYING_DEVICE_H_

#include <atomic>
#include <cstdint>

#include "blockdev/block_device.h"
#include "fault/health.h"
#include "fault/retry_policy.h"
#include "util/status.h"

namespace stegfs {
namespace fault {

class RetryingBlockDevice : public BlockDevice {
 public:
  // `stats` and `health` may be null (counters / state transitions are
  // then skipped); `inner` must outlive this decorator.
  RetryingBlockDevice(BlockDevice* inner, const RetryPolicy& policy,
                      FaultStats* stats, HealthMonitor* health)
      : inner_(inner), policy_(policy), stats_(stats), health_(health) {}

  uint32_t block_size() const override { return inner_->block_size(); }
  uint64_t num_blocks() const override { return inner_->num_blocks(); }

  Status ReadBlock(uint64_t block, uint8_t* buf) override;
  Status WriteBlock(uint64_t block, const uint8_t* buf) override;
  Status ReadBlocks(const BlockIoVec* iov, size_t n) override;
  Status WriteBlocks(const ConstBlockIoVec* iov, size_t n) override;
  Status Flush() override;
  Status Sync() override;

  const DeviceMetrics* device_metrics() const override {
    return inner_->device_metrics();
  }
  void set_flush_durability(FlushDurability mode) override {
    inner_->set_flush_durability(mode);
  }
  FlushDurability flush_durability() const override {
    return inner_->flush_durability();
  }

  BlockDevice* inner() { return inner_; }
  const RetryPolicy& policy() const { return policy_; }

 private:
  // Runs `fn` (returning Status) under the retry policy. `is_write`
  // selects which health transition a persistent fault causes.
  template <typename Fn>
  Status RunWithRetry(bool is_write, Fn&& fn);

  BlockDevice* inner_;
  RetryPolicy policy_;
  FaultStats* stats_;
  HealthMonitor* health_;
  // Per-op sequence feeding the deterministic jitter.
  std::atomic<uint64_t> op_seq_{0};
};

}  // namespace fault
}  // namespace stegfs

#endif  // STEGFS_FAULT_RETRYING_DEVICE_H_
