// AsyncBlockDevice: the submit/complete half of the storage stack, for
// reads.
//
// The synchronous BlockDevice::ReadBlocks call coalesces well but
// serializes the machine: the device idles while the CPU decrypts and the
// CPU idles while the device transfers. AsyncBlockDevice splits every
// read batch into a submission (returns immediately with a waitable
// IoTicket) and a completion (an optional callback that runs exactly once
// when the whole batch is done), so the layers above can keep several
// batches in flight and overlap crypto with device time. This is what
// makes random-placed hidden blocks fast to read: their requests can
// never coalesce into contiguous runs (the placement randomness IS the
// deniability), but they can all be in flight at once.
//
// Writes never go through an engine: every write is synchronous under
// its cache shard's lock. A hidden extent of more than 64 blocks writes
// through to the device past the cache (BufferCache::StreamWrite), in
// chunks the engine's workers help with (SubmitTask); smaller writes
// update the cache, and the device too under write-through.
//
// The implementation is ThreadPoolAsyncDevice, which adapts any
// synchronous BlockDevice via a small thread pool, so the decorated
// devices (SimDisk, ThrottledBlockDevice, FaultInjectionBlockDevice)
// keep their per-request accounting and fault-injection semantics
// (blockdev/thread_pool_async_device.h). On fault-tolerant mounts that
// base device is the sync retry decorator (fault/retrying_device.h), so
// the engine needs no retry layer of its own.
//
// Contracts shared by every implementation:
//   - The buffers referenced by a submitted iov must stay alive until the
//     batch completes (callback has returned / Wait() has returned).
//   - The completion callback runs exactly once per batch, possibly
//     inline during Submit*, possibly on an internal engine thread. It
//     may acquire locks (the buffer cache's completion handlers take a
//     shard stripe), but it must not Wait() on tickets of the same engine
//     and must not submit new batches (either could deadlock the
//     completion thread behind itself).
//   - A batch has no intra-batch ordering guarantee: its blocks may
//     transfer in any order and a mid-batch error does NOT say which
//     blocks transferred.
//   - Threads blocked in Wait() must not hold any lock a completion
//     callback can take (see the lock hierarchy in docs/ARCHITECTURE.md).
//   - Finalize order: run `done` FIRST (before the ticket unblocks, and
//     before the inflight counters drop so Drain() covers the callback),
//     then drop the counters and notify the drain condvar UNDER the
//     engine mutex (once Drain() returns the engine may be destroyed),
//     and Complete() the ticket LAST so a waiter returning from Wait()
//     observes quiesced counters.
#ifndef STEGFS_BLOCKDEV_ASYNC_BLOCK_DEVICE_H_
#define STEGFS_BLOCKDEV_ASYNC_BLOCK_DEVICE_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "blockdev/block_device.h"
#include "util/status.h"

namespace stegfs {

// Runs when a batch completes; receives the batch status.
using IoCompletionFn = std::function<void(const Status&)>;

// Waitable handle for one submitted batch. Copyable (all copies share the
// batch state); Wait() is idempotent and multi-waiter safe. A
// default-constructed ticket is already complete with OK — the inline
// paths (all-hits cache batches, engineless fallbacks) return one.
class IoTicket {
 public:
  IoTicket() = default;

  // Blocks until the batch completes (its callback included) and returns
  // the batch status.
  Status Wait() {
    if (state_ == nullptr) return Status::OK();
    std::unique_lock<std::mutex> lock(state_->mu);
    state_->cv.wait(lock, [&] { return state_->done; });
    return state_->status;
  }

  bool done() const {
    if (state_ == nullptr) return true;
    std::lock_guard<std::mutex> lock(state_->mu);
    return state_->done;
  }

 private:
  friend class IoCompletion;
  struct State {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    Status status;
  };
  std::shared_ptr<State> state_;
};

// Engine-side producer end of an IoTicket: Complete() fires the ticket
// exactly once (asserting against double completion is the engines' job;
// the state simply latches the first call).
class IoCompletion {
 public:
  IoCompletion() : state_(std::make_shared<IoTicket::State>()) {}

  IoTicket ticket() const {
    IoTicket t;
    t.state_ = state_;
    return t;
  }

  void Complete(Status s) {
    std::lock_guard<std::mutex> lock(state_->mu);
    if (state_->done) return;  // never complete a request twice
    state_->status = std::move(s);
    state_->done = true;
    state_->cv.notify_all();
  }

 private:
  std::shared_ptr<IoTicket::State> state_;
};

class AsyncBlockDevice {
 public:
  virtual ~AsyncBlockDevice() = default;

  virtual uint32_t block_size() const = 0;
  virtual uint64_t num_blocks() const = 0;
  // Static identifier, e.g. "thread-pool".
  virtual const char* engine_name() const = 0;

  // Submits one read batch; the engine owns the iov vector (moved in),
  // the caller keeps the target buffers alive until completion. `done`
  // (may be empty) runs exactly once with the final batch status, BEFORE
  // the returned ticket unblocks. An empty iov completes inline with OK.
  virtual IoTicket SubmitRead(std::vector<BlockIoVec> iov,
                              IoCompletionFn done = nullptr) = 0;

  // Runs `task` on one of the engine's workers, behind the batches
  // already queued there: CPU work that belongs beside the I/O (the
  // extent crypto fan-out of EncryptedBlockStore). Fire-and-forget — the
  // task keeps alive whatever it touches, and Drain() does not wait for
  // it. The default runs it inline, for engines without workers.
  virtual void SubmitTask(std::function<void()> task) { task(); }
  // How many workers SubmitTask spreads over (0 = it runs inline).
  virtual size_t workers() const { return 0; }
  // True on one of the engine's own workers. A thread that waits on this
  // engine's tickets must never be one: the wait could block on tasks
  // queued behind it.
  virtual bool OnWorkerThread() const { return false; }

  // Blocks until every batch submitted so far has completed. Destructors
  // of all engines drain, so fire-and-forget submitters (the cache's
  // prefetcher) need no bookkeeping.
  virtual void Drain() = 0;
};

}  // namespace stegfs

#endif  // STEGFS_BLOCKDEV_ASYNC_BLOCK_DEVICE_H_
