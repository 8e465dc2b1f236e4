#include "fs/block_store.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <condition_variable>
#include <cstring>
#include <memory>
#include <mutex>
#include <utility>

#include "blockdev/async_block_device.h"
#include "obs/trace.h"

namespace stegfs {

namespace {

// Blocks per claim of a fan-out: big enough that a claim's atomic, cache
// peek and batch setup vanish beside its device read and AES, small
// enough that the caller and the workers run out of claims at nearly the
// same moment.
constexpr size_t kClaim = 16;

// One fan-out over an extent's n blocks, shared by the caller and the
// engine tasks that help it. Each participant claims kClaim-block chunks
// until none is left and runs the chunk function on each; the first error
// wins. Tasks hold the job by shared_ptr: one the pool reaches only after
// every chunk is claimed touches nothing but the job (not the function,
// whose captures may be gone by then), so the caller waits for the claimed
// chunks, never for the pool's queue.
class ChunkJob {
 public:
  using ChunkFn = std::function<Status(size_t begin, size_t count)>;

  ChunkJob(size_t n, const char* span_name, ChunkFn fn)
      : n_(n),
        span_name_(span_name),
        fn_(std::move(fn)),
        chunks_((n + kClaim - 1) / kClaim) {}

  size_t chunks() const { return chunks_; }

  // Runs claimed chunks until none is left.
  void Work(const obs::SpanContext& ctx) {
    size_t c = next_.fetch_add(1, std::memory_order_relaxed);
    if (c >= chunks_) return;
    size_t finished = 0;
    Status first;
    {
      // Closed before the chunks count as done, so a participant's span
      // is recorded before the caller can return.
      obs::Span span(ctx, span_name_, "store");
      for (; c < chunks_;
           c = next_.fetch_add(1, std::memory_order_relaxed)) {
        const size_t begin = c * kClaim;
        Status s = fn_(begin, std::min(kClaim, n_ - begin));
        if (first.ok()) first = std::move(s);
        ++finished;
      }
    }
    std::lock_guard<std::mutex> lock(mu_);
    if (status_.ok()) status_ = std::move(first);
    done_ += finished;
    if (done_ == chunks_) cv_.notify_all();
  }

  // Waits for every chunk; returns the first error.
  Status Wait() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return done_ == chunks_; });
    return status_;
  }

 private:
  const size_t n_;
  const char* const span_name_;
  const ChunkFn fn_;
  const size_t chunks_;
  std::atomic<size_t> next_{0};
  std::mutex mu_;
  std::condition_variable cv_;
  size_t done_ = 0;  // chunks finished; guarded by mu_
  Status status_;    // first error; guarded by mu_
};

// Runs `fn` over n blocks in kClaim-block chunks on the caller, helped by
// up to engine->workers() engine tasks when `engine` is set. Returns once
// every chunk has run, with the first error.
Status FanOut(AsyncBlockDevice* engine, size_t n, const char* span_name,
              ChunkJob::ChunkFn fn) {
  const obs::SpanContext ctx = obs::CurrentSpanContext();
  auto job = std::make_shared<ChunkJob>(n, span_name, std::move(fn));
  if (engine != nullptr) {
    assert(!engine->OnWorkerThread());
    const size_t helpers = std::min(engine->workers(), job->chunks() - 1);
    for (size_t h = 0; h < helpers; ++h) {
      engine->SubmitTask([job, ctx] { job->Work(ctx); });
    }
  }
  job->Work(ctx);
  return job->Wait();
}

// Decrypts the n blocks of `iov` in place, in their own buffers.
void DecryptInPlace(const crypto::BlockCrypter* crypter, const BlockIoVec* iov,
                    size_t n, size_t bs) {
  std::vector<crypto::CryptSpan> spans(n);
  for (size_t i = 0; i < n; ++i) spans[i] = {iov[i].block, iov[i].buf};
  crypter->DecryptBlocks(spans.data(), n, bs);
}

// The ciphertext of n plaintext blocks, in staging that a write owns:
// each block's one copy on its way to the cache or the device.
class Ciphertext {
 public:
  Ciphertext(const crypto::BlockCrypter* crypter, const ConstBlockIoVec* iov,
             size_t n, size_t bs)
      : bytes_(n * bs), iov_(n) {
    std::vector<crypto::CryptSpan> spans(n);
    for (size_t i = 0; i < n; ++i) {
      uint8_t* dst = bytes_.data() + i * bs;
      std::memcpy(dst, iov[i].buf, bs);
      spans[i] = {iov[i].block, dst};
      iov_[i] = {iov[i].block, dst};
    }
    crypter->EncryptBlocks(spans.data(), n, bs);
  }
  const ConstBlockIoVec* iov() const { return iov_.data(); }

 private:
  std::vector<uint8_t> bytes_;
  std::vector<ConstBlockIoVec> iov_;
};

}  // namespace

Status EncryptedBlockStore::ReadBlocks(const BlockIoVec* iov, size_t n) {
  const size_t bs = cache_->block_size();
  if (n <= kFanOutThreshold) {
    obs::Span span("store.read", "store");
    STEGFS_RETURN_IF_ERROR(cache_->ReadBatch(iov, n));
    DecryptInPlace(crypter_, iov, n, bs);
    return Status::OK();
  }
  obs::Span pipeline_span("store.read_pipeline", "store");
  return FanOut(cache_->async_engine(), n, "store.read",
                [this, iov, bs](size_t begin, size_t count) {
                  STEGFS_RETURN_IF_ERROR(
                      cache_->StreamBatch(iov + begin, count));
                  DecryptInPlace(crypter_, iov + begin, count, bs);
                  return Status::OK();
                });
}

Status EncryptedBlockStore::WriteBlocks(const ConstBlockIoVec* iov,
                                        size_t n) {
  const size_t bs = cache_->block_size();
  if (n <= kFanOutThreshold) {
    obs::Span span("store.write", "store");
    const Ciphertext cipher(crypter_, iov, n, bs);
    return cache_->WriteBatch(cipher.iov(), n);
  }
#ifndef NDEBUG
  std::vector<uint64_t> sorted(n);
  for (size_t i = 0; i < n; ++i) sorted[i] = iov[i].block;
  std::sort(sorted.begin(), sorted.end());
  assert(std::adjacent_find(sorted.begin(), sorted.end()) == sorted.end());
#endif
  obs::Span pipeline_span("store.write_pipeline", "store");
  return FanOut(cache_->async_engine(), n, "store.write",
                [this, iov, bs](size_t begin, size_t count) {
                  const Ciphertext cipher(crypter_, iov + begin, count, bs);
                  return cache_->StreamWrite(cipher.iov(), count);
                });
}

}  // namespace stegfs
