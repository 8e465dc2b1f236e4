// ThreadPoolAsyncDevice: the portable async engine — adapts any
// synchronous BlockDevice to the AsyncBlockDevice interface by running
// each read batch's slices on a small worker pool
// (concurrency/thread_pool.h).
//
// Because every transfer ends up in the base device's own vectored
// ReadBlocks (whose default is the per-block loop), the decorated devices
// keep their semantics unchanged: SimDisk still charges its model per
// request, ThrottledBlockDevice still sleeps per block, and
// FaultInjectionBlockDevice still applies its schedule per operation.
// That is what lets the whole async read path be fault-tested.
//
// A batch is split into at most `workers` slices so its blocks transfer in
// parallel; the last slice to finish completes the batch (exactly once)
// with the first error any slice saw.
//
// Retries: on fault-tolerant mounts the base device is the mount's
// RetryingBlockDevice, so each slice is one retry unit. A transient fault
// is re-issued and backed off on the pool thread inside the slice, and
// Drain() covers the backoff because the slice has not finished. Each
// slice runs under an "async.transfer" span continued from the
// submitter's trace context, so a retry's "fault.retry" span stays in the
// submitting operation's tree.
//
// The workers also carry the hidden data path's large extents:
// SubmitTask queues EncryptedBlockStore's fan-out behind the transfers,
// and each task claims 16-block chunks (a device read and decrypt, or an
// encrypt and device write). A task never waits on the engine, and no
// thread that waits on the engine may be a worker (OnWorkerThread), or it
// could block on work queued behind itself.
#ifndef STEGFS_BLOCKDEV_THREAD_POOL_ASYNC_DEVICE_H_
#define STEGFS_BLOCKDEV_THREAD_POOL_ASYNC_DEVICE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "blockdev/async_block_device.h"
#include "concurrency/thread_pool.h"
#include "obs/metrics.h"

namespace stegfs {

// The engine's instruments; a mount registers them under stegfs_async_*
// names.
struct AsyncIoMetrics {
  obs::Counter submitted_batches;
  obs::Counter submitted_blocks;
  obs::Counter completed_batches;
  obs::Counter failed_batches;  // completed with a non-OK status
  obs::Histogram batch_ns;      // submit -> finalize, per batch

  void RegisterWith(obs::MetricsRegistry* reg) const {
    reg->RegisterCounter("stegfs_async_submitted_batches_total",
                         "Async batches submitted", &submitted_batches);
    reg->RegisterCounter("stegfs_async_submitted_blocks_total",
                         "Async blocks submitted", &submitted_blocks);
    reg->RegisterCounter("stegfs_async_completed_batches_total",
                         "Async batches completed", &completed_batches);
    reg->RegisterCounter("stegfs_async_failed_batches_total",
                         "Async batches that completed with an error",
                         &failed_batches);
    reg->RegisterHistogram("stegfs_async_batch_seconds",
                           "Async batch submit-to-finalize latency",
                           &batch_ns);
  }
};

class ThreadPoolAsyncDevice : public AsyncBlockDevice {
 public:
  // `base` must outlive the engine. workers == 0 picks a small default
  // (half the hardware threads, clamped to [2, 4] — enough to overlap
  // I/O with crypto without oversubscribing the demand path).
  explicit ThreadPoolAsyncDevice(BlockDevice* base, size_t workers = 0);
  ~ThreadPoolAsyncDevice() override;  // drains, then joins the pool

  uint32_t block_size() const override { return base_->block_size(); }
  uint64_t num_blocks() const override { return base_->num_blocks(); }
  const char* engine_name() const override { return "thread-pool"; }

  IoTicket SubmitRead(std::vector<BlockIoVec> iov,
                      IoCompletionFn done = nullptr) override;

  void SubmitTask(std::function<void()> task) override {
    pool_.Submit(std::move(task));
  }
  size_t workers() const override { return pool_.size(); }
  bool OnWorkerThread() const override { return pool_.OnWorkerThread(); }

  void Drain() override;

  const AsyncIoMetrics& metrics() const { return metrics_; }
  // Blocks submitted and not yet completed (steg_stats' in-flight gauge).
  uint64_t inflight_blocks() const;

 private:
  // One in-flight batch: the remaining-slice countdown, the first-error
  // latch, and the callback + ticket pair. The slice that drops
  // `remaining` to zero finalizes it (Finalize).
  struct Batch {
    std::atomic<size_t> remaining{0};
    std::mutex mu;  // guards `status`
    Status status;
    IoCompletionFn done;
    IoCompletion completion;
    size_t blocks = 0;
    uint64_t submit_ns = 0;  // NowNanos() at submission (0 = obs disabled)

    // Latches the first error a slice reports.
    void RecordError(const Status& s) {
      if (s.ok()) return;
      std::lock_guard<std::mutex> lock(mu);
      if (status.ok()) status = s;
    }
    Status Snapshot() {
      std::lock_guard<std::mutex> lock(mu);
      return status;
    }
  };

  void Finalize(const std::shared_ptr<Batch>& batch);

  BlockDevice* base_;
  concurrency::ThreadPool pool_;

  mutable std::mutex mu_;          // guards inflight_* for Drain
  std::condition_variable drain_cv_;
  uint64_t inflight_batches_ = 0;
  uint64_t inflight_blocks_ = 0;

  AsyncIoMetrics metrics_;
};

}  // namespace stegfs

#endif  // STEGFS_BLOCKDEV_THREAD_POOL_ASYNC_DEVICE_H_
