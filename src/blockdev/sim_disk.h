// SimDisk: a BlockDevice decorator that (a) charges every request to a
// DiskModel, accumulating simulated wall-clock time, and (b) optionally
// records the request stream into an IoTrace for later interleaved replay.
//
// All benchmarks run the real file-system implementations against a SimDisk;
// "access time" in the reproduced figures is SimDisk model time, not host
// CPU time (the paper measures a real disk; we measure a modeled one).
#ifndef STEGFS_BLOCKDEV_SIM_DISK_H_
#define STEGFS_BLOCKDEV_SIM_DISK_H_

#include <memory>

#include "blockdev/block_device.h"
#include "blockdev/disk_model.h"
#include "blockdev/io_trace.h"

namespace stegfs {

class SimDisk : public BlockDevice {
 public:
  SimDisk(std::unique_ptr<BlockDevice> inner, const DiskModelConfig& config)
      : inner_(std::move(inner)),
        model_(config, inner_->block_size()) {}

  uint32_t block_size() const override { return inner_->block_size(); }
  uint64_t num_blocks() const override { return inner_->num_blocks(); }

  Status ReadBlock(uint64_t block, uint8_t* buf) override {
    Status s = inner_->ReadBlock(block, buf);
    if (!s.ok()) return s;
    Account({block, 1, /*is_write=*/false});
    return s;
  }

  Status WriteBlock(uint64_t block, const uint8_t* buf) override {
    Status s = inner_->WriteBlock(block, buf);
    if (!s.ok()) return s;
    Account({block, 1, /*is_write=*/true});
    return s;
  }

  Status Flush() override { return inner_->Flush(); }
  Status Sync() override { return inner_->Sync(); }
  void set_flush_durability(FlushDurability mode) override {
    inner_->set_flush_durability(mode);
  }
  FlushDurability flush_durability() const override {
    return inner_->flush_durability();
  }

  // Total modeled service time of all requests so far.
  double sim_time_seconds() const { return sim_time_seconds_; }
  DiskModelStats stats() const { return model_.stats(); }
  DiskModel* model() { return &model_; }
  BlockDevice* inner() { return inner_.get(); }
  // Physical-I/O accounting belongs to the wrapped device.
  const DeviceMetrics* device_metrics() const override {
    return inner_->device_metrics();
  }

  // When non-null, every request is appended to *trace (in addition to being
  // charged). Caller keeps ownership; pass nullptr to stop recording.
  void set_trace(IoTrace* trace) { trace_ = trace; }

  // Zeroes accumulated time and model state. Benchmarks call this after
  // volume setup so measurements cover only the workload itself.
  void ResetClock() {
    sim_time_seconds_ = 0;
    model_.Reset();
  }

 private:
  void Account(const IoRequest& req) {
    sim_time_seconds_ += model_.AccessSeconds(req);
    if (trace_ != nullptr) trace_->push_back(req);
  }

  std::unique_ptr<BlockDevice> inner_;
  DiskModel model_;
  double sim_time_seconds_ = 0;
  IoTrace* trace_ = nullptr;
};

}  // namespace stegfs

#endif  // STEGFS_BLOCKDEV_SIM_DISK_H_
