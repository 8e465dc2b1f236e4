// RetryingAsyncDevice: the asynchronous half of the fault-tolerance layer
// (PR 8). Wraps any AsyncBlockDevice and re-submits batches that complete
// with a transient/timeout-classed status under the same RetryPolicy as
// the sync decorator.
//
// Why a dedicated retry thread: the AsyncBlockDevice contract forbids a
// completion callback from submitting new batches or waiting on tickets
// of the same engine (either can deadlock the completion thread behind
// itself). So a retryable completion does NOT resubmit inline — it parks
// the batch on the retry worker's queue and returns; the worker sleeps
// the deterministic backoff and resubmits from its own thread. The
// caller's ticket and completion callback stay pending across the whole
// dance and fire exactly once, with the final status.
//
// Trace continuity: the submitter's SpanContext is captured at the OUTER
// submit, each resubmission runs under a "fault.retry" continuation span
// of it, and the caller's completion runs with that context current — the
// same cross-thread hand-off the engines already use, so a retried batch
// stays one operation tree in the trace ring.
//
// Buffer lifetime is the engine contract unchanged: the caller keeps the
// data buffers alive until the OUTER ticket completes, which covers every
// inner resubmission.
#ifndef STEGFS_FAULT_RETRYING_ASYNC_DEVICE_H_
#define STEGFS_FAULT_RETRYING_ASYNC_DEVICE_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "blockdev/async_block_device.h"
#include "fault/health.h"
#include "fault/retry_policy.h"
#include "obs/trace.h"

namespace stegfs {
namespace fault {

class RetryingAsyncDevice : public AsyncBlockDevice {
 public:
  RetryingAsyncDevice(std::unique_ptr<AsyncBlockDevice> inner,
                      const RetryPolicy& policy, FaultStats* stats,
                      HealthMonitor* health);
  ~RetryingAsyncDevice() override;

  uint32_t block_size() const override { return inner_->block_size(); }
  uint64_t num_blocks() const override { return inner_->num_blocks(); }
  // The engine identity is the inner engine's: the retry wrapper does not
  // change what steg_stats reports.
  const char* engine_name() const override { return inner_->engine_name(); }

  IoTicket SubmitRead(std::vector<BlockIoVec> iov,
                      IoCompletionFn done = nullptr) override;
  IoTicket SubmitWrite(std::vector<ConstBlockIoVec> iov,
                       IoCompletionFn done = nullptr) override;

  void Drain() override;

  AsyncIoStats stats() const override;
  void RegisterMetrics(obs::MetricsRegistry* reg) const override {
    inner_->RegisterMetrics(reg);
  }

  AsyncBlockDevice* inner() { return inner_.get(); }

 private:
  // One outer batch, alive from outer submit to outer completion.
  struct PendingOp {
    bool is_read = false;
    std::vector<BlockIoVec> riov;
    std::vector<ConstBlockIoVec> wiov;
    IoCompletionFn done;
    IoCompletion completion;
    obs::SpanContext ctx;     // submitter's span, for continuations
    uint64_t op_seq = 0;      // feeds the deterministic jitter
    uint32_t attempt = 1;     // attempts issued so far
    uint64_t first_submit_ns = 0;
    uint64_t wake_at_ns = 0;  // when the worker may resubmit
    size_t blocks = 0;
  };

  IoTicket SubmitOp(std::shared_ptr<PendingOp> op);
  void SubmitToInner(const std::shared_ptr<PendingOp>& op);
  void OnInnerComplete(std::shared_ptr<PendingOp> op, const Status& s);
  void FinalizeOp(const std::shared_ptr<PendingOp>& op, const Status& s);
  void RetryWorker();

  std::unique_ptr<AsyncBlockDevice> inner_;
  const RetryPolicy policy_;
  FaultStats* stats_;
  HealthMonitor* health_;

  std::atomic<uint64_t> op_seq_{0};
  std::atomic<uint64_t> submitted_batches_{0};
  std::atomic<uint64_t> completed_batches_{0};
  std::atomic<uint64_t> failed_batches_{0};
  std::atomic<uint64_t> submitted_blocks_{0};

  // outstanding_ counts outer batches from submit to finalize (parked
  // retries included), so Drain() covers faults mid-backoff.
  std::mutex mu_;
  std::condition_variable drain_cv_;
  std::condition_variable worker_cv_;
  uint64_t outstanding_ = 0;
  bool stop_ = false;
  std::deque<std::shared_ptr<PendingOp>> retry_queue_;
  std::thread worker_;
};

}  // namespace fault
}  // namespace stegfs

#endif  // STEGFS_FAULT_RETRYING_ASYNC_DEVICE_H_
