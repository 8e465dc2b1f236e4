#include "blockdev/thread_pool_async_device.h"

#include <algorithm>
#include <thread>
#include <utility>

#include "obs/trace.h"

namespace stegfs {

namespace {

// Below this many blocks a slice is not worth a task dispatch.
constexpr size_t kMinSliceBlocks = 8;

size_t DefaultWorkers() {
  size_t hw = std::thread::hardware_concurrency();
  return std::max<size_t>(2, std::min<size_t>(4, hw / 2));
}

}  // namespace

ThreadPoolAsyncDevice::ThreadPoolAsyncDevice(BlockDevice* base, size_t workers)
    : base_(base), pool_(workers == 0 ? DefaultWorkers() : workers) {}

ThreadPoolAsyncDevice::~ThreadPoolAsyncDevice() { Drain(); }

void ThreadPoolAsyncDevice::Finalize(const std::shared_ptr<Batch>& batch) {
  Status status = batch->Snapshot();
  if (!status.ok()) metrics_.failed_batches.Increment();
  metrics_.completed_batches.Increment();
  if (batch->submit_ns != 0) {
    metrics_.batch_ns.Record(obs::NowNanos() - batch->submit_ns);
  }
  // Callback first (before the ticket unblocks — the interface contract,
  // and before the counters drop so Drain() covers the callback), then
  // the counters, then the ticket: a waiter that returns from Wait() must
  // observe quiesced counters. Completing last is safe even against a
  // post-Drain destruction because the ticket state is independently
  // shared and this worker is joined by the pool's destructor.
  if (batch->done) batch->done(status);
  {
    std::lock_guard<std::mutex> lock(mu_);
    inflight_batches_--;
    inflight_blocks_ -= batch->blocks;
    // Notify under the lock: once Drain() returns the engine may be
    // destroyed, so the condvar must not be touched after the counters
    // that release Drain() are published.
    drain_cv_.notify_all();
  }
  batch->completion.Complete(status);
}

IoTicket ThreadPoolAsyncDevice::SubmitRead(std::vector<BlockIoVec> iov,
                                           IoCompletionFn done) {
  if (iov.empty()) {
    if (done) done(Status::OK());
    return IoTicket();
  }
  auto batch = std::make_shared<Batch>();
  batch->done = std::move(done);
  batch->blocks = iov.size();
  batch->submit_ns = obs::MetricsEnabled() ? obs::NowNanos() : 0;

  const size_t slices = std::max<size_t>(
      1, std::min(pool_.size(),
                  (iov.size() + kMinSliceBlocks - 1) / kMinSliceBlocks));
  batch->remaining.store(slices, std::memory_order_relaxed);

  metrics_.submitted_batches.Increment();
  metrics_.submitted_blocks.Add(iov.size());
  {
    std::lock_guard<std::mutex> lock(mu_);
    inflight_batches_++;
    inflight_blocks_ += iov.size();
  }

  IoTicket ticket = batch->completion.ticket();
  // The iov lives in one shared vector; each slice transfers a disjoint
  // [begin, end) range of it through the base device's vectored call,
  // under the submitter's trace context.
  auto shared_iov =
      std::make_shared<std::vector<BlockIoVec>>(std::move(iov));
  const obs::SpanContext ctx = obs::CurrentSpanContext();
  const size_t n = shared_iov->size();
  const size_t per = (n + slices - 1) / slices;
  for (size_t s = 0; s < slices; ++s) {
    const size_t begin = s * per;
    const size_t end = std::min(n, begin + per);
    pool_.Submit([this, batch, shared_iov, begin, end, ctx] {
      {
        obs::Span span(ctx, "async.transfer", "blockdev");
        batch->RecordError(
            base_->ReadBlocks(shared_iov->data() + begin, end - begin));
      }
      if (batch->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        Finalize(batch);
      }
    });
  }
  return ticket;
}

void ThreadPoolAsyncDevice::Drain() {
  std::unique_lock<std::mutex> lock(mu_);
  drain_cv_.wait(lock, [&] { return inflight_batches_ == 0; });
}

uint64_t ThreadPoolAsyncDevice::inflight_blocks() const {
  std::lock_guard<std::mutex> lock(mu_);
  return inflight_blocks_;
}

}  // namespace stegfs
