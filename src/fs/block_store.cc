#include "fs/block_store.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <utility>

#include "blockdev/async_block_device.h"
#include "obs/trace.h"

namespace stegfs {

namespace {

// Blocks per claim of a crypto fan-out: big enough that a claim's atomic
// and batch setup vanish beside its AES, small enough that the caller and
// the workers run out of claims at nearly the same moment.
constexpr size_t kCryptClaim = 16;

// One fan-out's spans, shared by the caller and the engine tasks that
// help it. Each participant claims kCryptClaim-span chunks until none is
// left. Tasks hold the job by shared_ptr: one the pool reaches only after
// every chunk is claimed touches nothing but the job, so the caller waits
// for the claimed chunks, never for the pool's queue.
class CryptJob {
 public:
  CryptJob(const crypto::BlockCrypter* crypter,
           std::vector<crypto::CryptSpan> spans, size_t block_size,
           bool encrypt)
      : crypter_(crypter),
        spans_(std::move(spans)),
        block_size_(block_size),
        encrypt_(encrypt),
        chunks_((spans_.size() + kCryptClaim - 1) / kCryptClaim) {}

  size_t chunks() const { return chunks_; }

  // Transforms claimed chunks until none is left.
  void Work(const obs::SpanContext& ctx) {
    size_t c = next_.fetch_add(1, std::memory_order_relaxed);
    if (c >= chunks_) return;
    obs::Span span(ctx, encrypt_ ? "store.encrypt" : "store.decrypt",
                   "store");
    size_t finished = 0;
    for (; c < chunks_; c = next_.fetch_add(1, std::memory_order_relaxed)) {
      const size_t begin = c * kCryptClaim;
      const size_t count = std::min(kCryptClaim, spans_.size() - begin);
      if (encrypt_) {
        crypter_->EncryptBlocks(spans_.data() + begin, count, block_size_);
      } else {
        crypter_->DecryptBlocks(spans_.data() + begin, count, block_size_);
      }
      ++finished;
    }
    std::lock_guard<std::mutex> lock(mu_);
    done_ += finished;
    if (done_ == chunks_) cv_.notify_all();
  }

  void WaitAll() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return done_ == chunks_; });
  }

 private:
  const crypto::BlockCrypter* crypter_;
  const std::vector<crypto::CryptSpan> spans_;
  const size_t block_size_;
  const bool encrypt_;
  const size_t chunks_;
  std::atomic<size_t> next_{0};
  std::mutex mu_;
  std::condition_variable cv_;
  size_t done_ = 0;  // chunks finished; guarded by mu_
};

// Starts a fan-out of `spans`: queues up to engine->workers() engine
// tasks to help. The caller joins with Work() and then WaitAll().
std::shared_ptr<CryptJob> StartFanOut(AsyncBlockDevice* engine,
                                      const crypto::BlockCrypter* crypter,
                                      std::vector<crypto::CryptSpan> spans,
                                      size_t block_size, bool encrypt,
                                      const obs::SpanContext& ctx) {
  auto job = std::make_shared<CryptJob>(crypter, std::move(spans),
                                        block_size, encrypt);
  const size_t helpers =
      std::min(engine->workers(), std::max<size_t>(job->chunks(), 1) - 1);
  for (size_t h = 0; h < helpers; ++h) {
    engine->SubmitTask([job, ctx] { job->Work(ctx); });
  }
  return job;
}

// The synchronous read: one cache batch, then one batch decrypt, both on
// the calling thread.
Status ReadAndDecrypt(BufferCache* cache, const crypto::BlockCrypter* crypter,
                      const uint64_t* blocks, size_t n, uint8_t* out) {
  obs::Span span("store.read", "store");
  STEGFS_RETURN_IF_ERROR(cache->ReadBatch(blocks, n, out));
  const size_t bs = cache->block_size();
  std::vector<crypto::CryptSpan> spans(n);
  for (size_t i = 0; i < n; ++i) spans[i] = {blocks[i], out + i * bs};
  crypter->DecryptBlocks(spans.data(), n, bs);
  return Status::OK();
}

}  // namespace

Status EncryptedBlockStore::ReadBlocks(const uint64_t* blocks, size_t n,
                                       uint8_t* out) {
  const size_t bs = cache_->block_size();
  AsyncBlockDevice* engine = cache_->async_engine();
  if (engine == nullptr || n <= kAsyncSubBatch) {
    return ReadAndDecrypt(cache_, crypter_, blocks, n, out);
  }
  assert(!engine->OnWorkerThread());
  obs::Span pipeline_span("store.read_pipeline", "store");
  const obs::SpanContext ctx = obs::CurrentSpanContext();
  // The caller keeps one share of the extent (the tail) per participant;
  // the rest goes to the engine up front in sub-batches (they target
  // disjoint ranges of `out`). Each miss group decrypts on the worker that
  // completes its read, and the hits come back in `ready`. The caller
  // reads and decrypts its share meanwhile, then helps with the hits.
  const size_t last = n - n / (engine->workers() + 1);
  std::vector<CacheIoTicket> tickets;
  tickets.reserve((last + kAsyncSubBatch - 1) / kAsyncSubBatch);
  std::vector<crypto::CryptSpan> hits;
  std::vector<size_t> ready;
  for (size_t off = 0; off < last; off += kAsyncSubBatch) {
    const size_t count = std::min(last - off, kAsyncSubBatch);
    const uint64_t* sub_blocks = blocks + off;
    uint8_t* sub_out = out + off * bs;
    ready.clear();
    tickets.push_back(cache_->ReadBatchAsync(
        sub_blocks, count, sub_out,
        [this, sub_blocks, sub_out, bs,
         ctx](const std::vector<size_t>& positions) {
          obs::Span span(ctx, "store.decrypt", "store");
          std::vector<crypto::CryptSpan> spans(positions.size());
          for (size_t i = 0; i < positions.size(); ++i) {
            spans[i] = {sub_blocks[positions[i]],
                        sub_out + positions[i] * bs};
          }
          crypter_->DecryptBlocks(spans.data(), spans.size(), bs);
        },
        &ready));
    for (size_t pos : ready) {
      hits.push_back({sub_blocks[pos], sub_out + pos * bs});
    }
  }
  std::shared_ptr<CryptJob> job = StartFanOut(
      engine, crypter_, std::move(hits), bs, /*encrypt=*/false, ctx);
  Status first = ReadAndDecrypt(cache_, crypter_, blocks + last, n - last,
                                out + last * bs);
  job->Work(ctx);
  job->WaitAll();
  // Wait for every ticket, even past an error: a completion may still be
  // decrypting into `out`, which may be freed once this returns.
  for (CacheIoTicket& t : tickets) {
    Status s = t.Wait();
    if (first.ok() && !s.ok()) first = s;
  }
  return first;
}

Status EncryptedBlockStore::WriteBlocks(const uint64_t* blocks, size_t n,
                                        const uint8_t* data) {
  const size_t bs = cache_->block_size();
  AsyncBlockDevice* engine = cache_->async_engine();
  std::vector<uint8_t> tmp(data, data + n * bs);  // ciphertext staging
  std::vector<crypto::CryptSpan> spans(n);
  for (size_t i = 0; i < n; ++i) spans[i] = {blocks[i], tmp.data() + i * bs};
  if (engine == nullptr || n <= kAsyncSubBatch) {
    obs::Span span("store.write", "store");
    crypter_->EncryptBlocks(spans.data(), n, bs);
    return cache_->WriteBatch(blocks, n, tmp.data());
  }
  assert(!engine->OnWorkerThread());
  obs::Span pipeline_span("store.write_pipeline", "store");
  const obs::SpanContext ctx = obs::CurrentSpanContext();
  std::shared_ptr<CryptJob> job = StartFanOut(
      engine, crypter_, std::move(spans), bs, /*encrypt=*/true, ctx);
  job->Work(ctx);
  job->WaitAll();
  return cache_->WriteBatch(blocks, n, tmp.data());
}

}  // namespace stegfs
