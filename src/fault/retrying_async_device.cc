#include "fault/retrying_async_device.h"

#include <algorithm>
#include <chrono>
#include <utility>

namespace stegfs {
namespace fault {

RetryingAsyncDevice::RetryingAsyncDevice(
    std::unique_ptr<AsyncBlockDevice> inner, const RetryPolicy& policy,
    FaultStats* stats, HealthMonitor* health)
    : inner_(std::move(inner)),
      policy_(policy),
      stats_(stats),
      health_(health) {
  worker_ = std::thread([this] { RetryWorker(); });
}

RetryingAsyncDevice::~RetryingAsyncDevice() {
  Drain();
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  worker_cv_.notify_all();
  worker_.join();
  // inner_ destruction drains its own in-flight work.
}

IoTicket RetryingAsyncDevice::SubmitRead(std::vector<BlockIoVec> iov,
                                         IoCompletionFn done) {
  auto op = std::make_shared<PendingOp>();
  op->is_read = true;
  op->riov = std::move(iov);
  op->blocks = op->riov.size();
  op->done = std::move(done);
  return SubmitOp(std::move(op));
}

IoTicket RetryingAsyncDevice::SubmitWrite(std::vector<ConstBlockIoVec> iov,
                                          IoCompletionFn done) {
  auto op = std::make_shared<PendingOp>();
  op->is_read = false;
  op->wiov = std::move(iov);
  op->blocks = op->wiov.size();
  op->done = std::move(done);
  return SubmitOp(std::move(op));
}

IoTicket RetryingAsyncDevice::SubmitOp(std::shared_ptr<PendingOp> op) {
  op->ctx = obs::CurrentSpanContext();
  op->op_seq = op_seq_.fetch_add(1, std::memory_order_relaxed);
  submitted_batches_.fetch_add(1, std::memory_order_relaxed);
  submitted_blocks_.fetch_add(op->blocks, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++outstanding_;
  }
  IoTicket ticket = op->completion.ticket();
  SubmitToInner(op);
  return ticket;
}

void RetryingAsyncDevice::SubmitToInner(const std::shared_ptr<PendingOp>& op) {
  // The inner engine owns a COPY of the iov: resubmission needs the
  // original, and the engine contract moves the vector in.
  auto on_done = [this, op](const Status& s) { OnInnerComplete(op, s); };
  if (op->is_read) {
    std::vector<BlockIoVec> iov = op->riov;
    inner_->SubmitRead(std::move(iov), std::move(on_done));
  } else {
    std::vector<ConstBlockIoVec> iov = op->wiov;
    inner_->SubmitWrite(std::move(iov), std::move(on_done));
  }
}

void RetryingAsyncDevice::OnInnerComplete(std::shared_ptr<PendingOp> op,
                                          const Status& s) {
  if (!s.ok()) {
    const IoErrorClass cls = Classify(s);
    if (stats_ != nullptr) stats_->CountClass(cls);
    if (IsRetryable(s)) {
      if (op->first_submit_ns == 0) op->first_submit_ns = obs::NowNanos();
      const uint64_t elapsed = obs::NowNanos() - op->first_submit_ns;
      const bool budget_left =
          op->attempt < policy_.max_attempts &&
          (policy_.op_deadline_ns == 0 || elapsed < policy_.op_deadline_ns);
      if (budget_left) {
        // Completion threads must not resubmit (engine contract): park the
        // batch for the retry worker and leave the outer ticket pending.
        const uint64_t backoff = BackoffNanos(policy_, op->op_seq, op->attempt);
        if (stats_ != nullptr) {
          stats_->retries.Increment();
          stats_->retry_backoff_ns.Record(backoff);
        }
        op->wake_at_ns = obs::NowNanos() + backoff;
        ++op->attempt;
        {
          std::lock_guard<std::mutex> lock(mu_);
          if (!stop_) {
            retry_queue_.push_back(std::move(op));
            worker_cv_.notify_one();
            return;
          }
        }
        // Shutdown raced the retry: fall through and surface the fault.
      } else {
        if (stats_ != nullptr) stats_->retry_exhausted.Increment();
        if (health_ != nullptr) health_->ReportRetryExhausted();
      }
    } else if (health_ != nullptr) {
      if (cls == IoErrorClass::kPersistent) {
        if (op->is_read) {
          health_->ReportPersistentReadFault();
        } else {
          health_->ReportPersistentWriteFault();
        }
      } else if (cls == IoErrorClass::kCorruption) {
        health_->ReportCorruption();
      }
    }
  } else if (op->attempt > 1 && stats_ != nullptr) {
    stats_->retry_successes.Increment();
    stats_->retry_latency_ns.Record(obs::NowNanos() - op->first_submit_ns);
  }
  FinalizeOp(op, s);
}

void RetryingAsyncDevice::FinalizeOp(const std::shared_ptr<PendingOp>& op,
                                     const Status& s) {
  completed_batches_.fetch_add(1, std::memory_order_relaxed);
  if (!s.ok()) failed_batches_.fetch_add(1, std::memory_order_relaxed);
  // Same finalize order as the engine (AsyncBlockDevice contract): the
  // caller's callback runs first — under the submitter's span so a
  // retried batch's completion lands in the right operation tree — then
  // the outstanding count drops (Drain covers the callback), and the
  // ticket unblocks last.
  if (op->done) {
    obs::Span cont(op->ctx, "fault.complete", "fault");
    op->done(s);
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    --outstanding_;
    drain_cv_.notify_all();
  }
  op->completion.Complete(s);
}

void RetryingAsyncDevice::RetryWorker() {
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    if (retry_queue_.empty()) {
      if (stop_) return;
      worker_cv_.wait(lock);
      continue;
    }
    // Earliest-deadline-first keeps resubmission order deterministic for
    // identical schedules (ties broken by queue order, which is the
    // completion order the schedule produced).
    auto it = std::min_element(
        retry_queue_.begin(), retry_queue_.end(),
        [](const std::shared_ptr<PendingOp>& a,
           const std::shared_ptr<PendingOp>& b) {
          return a->wake_at_ns < b->wake_at_ns;
        });
    const uint64_t now = obs::NowNanos();
    if ((*it)->wake_at_ns > now && !stop_) {
      worker_cv_.wait_for(
          lock, std::chrono::nanoseconds((*it)->wake_at_ns - now));
      continue;
    }
    std::shared_ptr<PendingOp> op = std::move(*it);
    retry_queue_.erase(it);
    lock.unlock();
    {
      // Continuation span: the resubmission (and any span the inner
      // engine opens during Submit) nests under the original operation.
      obs::Span retry_span(op->ctx, "fault.retry", "fault");
      SubmitToInner(op);
    }
    lock.lock();
  }
}

void RetryingAsyncDevice::Drain() {
  // Quiesce the inner engine and every parked retry. A retry completing
  // with another retryable fault re-enters the queue, so loop until the
  // outer count is zero — bounded by max_attempts per op.
  while (true) {
    inner_->Drain();
    std::unique_lock<std::mutex> lock(mu_);
    if (outstanding_ == 0) return;
    // Wake the worker in case everything outstanding is parked.
    worker_cv_.notify_all();
    drain_cv_.wait_for(lock, std::chrono::milliseconds(1));
  }
}

AsyncIoStats RetryingAsyncDevice::stats() const {
  // The outer view: batches as the callers submitted them (inner counts
  // every resubmission as a fresh batch, which would double-count).
  AsyncIoStats s;
  s.submitted_batches = submitted_batches_.load(std::memory_order_relaxed);
  s.submitted_blocks = submitted_blocks_.load(std::memory_order_relaxed);
  s.completed_batches = completed_batches_.load(std::memory_order_relaxed);
  s.failed_batches = failed_batches_.load(std::memory_order_relaxed);
  s.inflight_blocks = inner_->stats().inflight_blocks;
  return s;
}

}  // namespace fault
}  // namespace stegfs
