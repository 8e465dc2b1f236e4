// BufferCache: a sharded, thread-safe LRU block cache between the
// file-system drivers and the block device — the user-space stand-in for
// the Linux buffer cache layer in the paper's figure 5 architecture.
//
// Sharding: the capacity is split across `shard_count` independent shards
// (per-shard LRU list + hash map), and a block's shard is fixed by a keyed
// stripe mapping (concurrency/shard_lock.h) so hot contiguous ranges
// spread across every shard. Each shard is guarded by its own stripe
// lock, held across the shard's device I/O too — that is what makes a
// concurrent miss on the SAME block read the device exactly once, and
// what keeps write-back eviction correct under contention (a victim's
// write-back completes before its entry disappears, so no reader can see
// the device's stale bytes through a cache gap). Operations on blocks in
// different shards proceed fully in parallel.
//
// Sharding vs coalescing: the keyed mapping scatters a contiguous extent
// across shards, so a batch's vectored device calls (one per shard, under
// that shard's lock) rarely form contiguous runs on a multi-shard cache —
// parallelism is bought with device-run locality. A single-session
// sequential mount should use cache_shards = 1: the whole extent then
// leaves as one coalescable device call (bench_seq_throughput does this).
//
// Statistics are obs::Counter instruments (relaxed atomics): readers
// (hit-rate probes, the C API's steg_stats) never take any lock, and a
// mount registers them with its MetricsRegistry (RegisterMetrics) so
// they scrape through steg_metrics_text() under stable names.
//
// Single-threaded determinism: with one shard this behaves exactly like the
// classic single-list LRU. Auto-sharding (shard_count = 0) keeps small
// caches — every cache a test constructs — at one shard, so seeded tests
// see the historical eviction order; big caches get up to 16 shards.
//
// Write policy is configurable:
//   kWriteBack    - dirty blocks written on eviction / Flush (default; what
//                   a kernel buffer cache does)
//   kWriteThrough - every Write goes straight to the device (used by the
//                   benchmarks so each logical operation's trace contains
//                   its own writes, making interleaved replay attribution
//                   exact)
#ifndef STEGFS_CACHE_BUFFER_CACHE_H_
#define STEGFS_CACHE_BUFFER_CACHE_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "blockdev/async_block_device.h"
#include "blockdev/block_device.h"
#include "concurrency/shard_lock.h"
#include "concurrency/thread_pool.h"
#include "obs/metrics.h"
#include "util/status.h"

namespace stegfs {

enum class WritePolicy { kWriteBack, kWriteThrough };

// A point-in-time snapshot of the cache counters (taken lock-free).
struct CacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t writebacks = 0;
  // Blocks moved through ReadBatch / WriteBatch.
  uint64_t batched_reads = 0;
  uint64_t batched_writes = 0;
  // Blocks inserted by the async prefetcher, and how many of those were
  // later claimed by a demand read before eviction.
  uint64_t prefetched = 0;
  uint64_t prefetch_hits = 0;
  // Blocks moved through the async batch paths (subset of batched_*).
  uint64_t async_batched_reads = 0;
  uint64_t async_batched_writes = 0;

  double HitRate() const {
    uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / total;
  }
};

// Waitable handle for one async cache batch: aggregates the per-shard
// engine tickets plus the status of the inline (hit-only) part. Wait()
// blocks until every group's device I/O AND cache insertion has finished,
// returning the first error. Callers must not hold any cache shard lock
// while waiting (completion handlers acquire shard locks).
class CacheIoTicket {
 public:
  Status Wait() {
    Status first = base_;
    for (IoTicket& t : tickets_) {
      Status s = t.Wait();
      if (first.ok() && !s.ok()) first = s;
    }
    return first;
  }

 private:
  friend class BufferCache;
  Status base_;
  std::vector<IoTicket> tickets_;
};

class BufferCache {
 public:
  // `device` must outlive the cache. capacity_blocks >= 1. shard_count 0 =
  // auto: one shard per 64 blocks of capacity, clamped to [1, 16].
  BufferCache(BlockDevice* device, size_t capacity_blocks,
              WritePolicy policy = WritePolicy::kWriteBack,
              size_t shard_count = 0);
  ~BufferCache();

  BufferCache(const BufferCache&) = delete;
  BufferCache& operator=(const BufferCache&) = delete;

  uint32_t block_size() const { return device_->block_size(); }
  uint64_t num_blocks() const { return device_->num_blocks(); }

  // Reads a whole block through the cache. `out` holds block_size() bytes.
  Status Read(uint64_t block, uint8_t* out);
  // Writes a whole block through the cache.
  Status Write(uint64_t block, const uint8_t* data);

  // Batched read of n blocks (any numbers, duplicates allowed) into the
  // contiguous buffer `out` (n * block_size() bytes, request order).
  // Processed one shard at a time — only that shard's lock is held, so
  // other shards stay fully parallel under concurrent sessions — with the
  // shard's misses leaving as ONE vectored ReadBlocks call (a single
  // coalescable transfer when the cache has one shard). Per shard,
  // hit/miss accounting, LRU updates and eviction order match a per-block
  // Read loop exactly (the seeded tests rely on this).
  Status ReadBatch(const uint64_t* blocks, size_t n, uint8_t* out);
  // Batched write of n blocks from the contiguous buffer `data`; same
  // locking scheme. Under kWriteThrough the device sees one vectored
  // WriteBlocks call per shard group (request order; on a mid-batch
  // device error the group's cached entries are invalidated so the cache
  // can never serve bytes older than the device); entry updates then
  // replay in request order, matching the per-block loop.
  Status WriteBatch(const uint64_t* blocks, size_t n, const uint8_t* data);

  // Side-effect-free batched read for the header locator's probes: the
  // current bytes of n blocks into `out` (n * block_size() bytes, request
  // order). Per shard group it takes the stripe SHARED, copies out the
  // hits (dirty entries included) and collects the misses; with every
  // stripe released it reads all misses with ONE vectored device call
  // straight into `out`. Nothing is inserted or evicted, the LRU order
  // and the hit/miss counters are untouched, so a create's 10 000-candidate
  // walk cannot flush the working set out of the cache. `cache_hits`
  // (optional) receives how many blocks the cache served.
  //
  // Why reading misses outside the locks is still exact for a probe:
  //   - a block absent from the cache at peek time holds its latest
  //     completed write on the device, because EnsureRoom writes a dirty
  //     victim back before erasing it, under the same stripe lock the
  //     peek took;
  //   - only the owner of a (name, key) pair ever writes that header, so
  //     a write racing the probe linearizes after it. (A header rewrite
  //     also leaves the signature cells' ciphertext unchanged: same IV,
  //     same leading plaintext under CBC.)
  // Holding the stripes across the device read instead convoyed connects
  // behind creates.
  Status ProbeBatch(const uint64_t* blocks, size_t n, uint8_t* out,
                    size_t* cache_hits = nullptr);

  // Attaches an async I/O engine. While attached, ReadBatchAsync /
  // WriteBatchAsync submit real asynchronous device I/O and Prefetch
  // becomes a pure submitter (no thread pool needed). The engine must be
  // drained and destroyed before the cache (PlainFs declares it after the
  // cache for exactly this reason) or detached first. nullptr detaches;
  // the async entry points then degrade to the synchronous batch calls.
  void SetAsyncEngine(AsyncBlockDevice* engine);
  AsyncBlockDevice* async_engine() const {
    return async_engine_.load(std::memory_order_acquire);
  }

  // Async batch read: hits are copied to `out` inline; each shard's
  // distinct misses are submitted to the engine as one batch WITHOUT the
  // shard lock held across the wait (the PR 3 sync path holds it — that
  // is its concurrent-miss dedup, and why it cannot overlap anything).
  // The completion handler re-acquires the shard lock and inserts the
  // fetched blocks, guarded by a per-shard generation counter: if any
  // write/invalidation touched the shard since submission, the inserts
  // are skipped, so the cache can never serve bytes older than the
  // device. Counter parity with the sync path: pass-1 hits and distinct
  // misses count identically; insert-time eviction replay happens only
  // when the generation guard admits the insert.
  //
  // `blocks` and `out` must stay alive until Wait() returns.
  CacheIoTicket ReadBatchAsync(const uint64_t* blocks, size_t n,
                               uint8_t* out);
  // Async batch write (write-through only — under write-back the device
  // is not involved, so this degrades to the synchronous WriteBatch).
  // Device batches are submitted per shard group; each submission claims
  // the shard's next write sequence, and the completion handler replays
  // the entry updates under the shard lock PER BLOCK: an entry a newer
  // write already updated is kept, older-or-unwritten entries take this
  // batch's bytes, and a block whose entry is gone is re-inserted only
  // while this batch's claim is still the block's latest — so a
  // pipeline's sibling sub-batches (disjoint blocks) all stay cached.
  // On a mid-batch device error the group's cached entries are
  // invalidated — mirroring the PR 3 write-through contract — so the
  // cache re-reads the device's authoritative bytes. A batch containing
  // duplicate blocks degrades to the synchronous path (async batches
  // have no intra-batch ordering), and concurrent UNSERIALIZED writes to
  // the same block remain the caller's race, exactly as with a real
  // kernel page cache — every in-tree writer serializes per object.
  //
  // `blocks` and `data` must stay alive until Wait() returns.
  CacheIoTicket WriteBatchAsync(const uint64_t* blocks, size_t n,
                                const uint8_t* data);

  // Attaches the worker pool the async prefetcher runs on (nullptr
  // detaches; then Prefetch becomes a no-op unless an async engine is
  // attached). The pool must outlive the cache or be detached first.
  void SetPrefetchPool(concurrency::ThreadPool* pool);
  // Schedules a background load of the given blocks into the cache
  // (best-effort: errors are swallowed, already-cached blocks skipped).
  // A later demand read that claims a prefetched entry counts as a normal
  // hit plus one prefetch_hit.
  void Prefetch(const uint64_t* blocks, size_t n);

  // Writes back all dirty blocks and flushes the device.
  Status Flush();
  // Ordered group writeback — the journal's ordered-data phase: pushes
  // every dirty block (minus `hold_back` and the parked set) to the
  // device WITHOUT the trailing device Flush, so file data drains while
  // a transaction's metadata images stay in the cache until the record
  // has committed. This is also the barrier primitive: the journal and
  // the dual-header protocol follow it with ONE device Sync(), instead
  // of paying Flush's fdatasync and then Sync's again. Held-back entries
  // keep their dirty flag.
  Status WriteBackDirty(const std::unordered_set<uint64_t>* hold_back =
                            nullptr);

  // Journal checkpoint primitive: writes `data` (block_size() bytes)
  // straight to the device under the block's shard lock — the same lock
  // every write-back path holds across ITS device write, which makes this
  // atomic against concurrent flushers without parking the block. The
  // cached entry is then reconciled: bytes identical -> dirty cleared
  // (the device now holds them); bytes differ -> the entry is STRICTLY
  // NEWER (every metadata writer snapshots monotone in-memory state, and
  // anything older was cleaned by the committing transaction's own
  // ordered flush) and keeps its dirty flag; absent -> nothing is
  // inserted. Unlike a Write() this can never regress the cache or the
  // device to an older image, which is what lets group commit checkpoint
  // bitmap/inode images while other sessions keep mutating them.
  Status CheckpointBlock(uint64_t block, const uint8_t* data);

  // Parks a set of blocks: EVERY write-back path — Flush, FlushExcept,
  // WriteBackDirty, eviction victims — skips them until unparked
  // (nullptr). This is how a journal transaction's held-back metadata
  // images survive CONCURRENT flushers (another session's hidden commit
  // barrier, PlainFs::Flush): the hold_back argument only protects the
  // journal's own calls, parking protects against everyone else's. The
  // journal parks for the window between its ordered-data flush and its
  // commit barrier, then unparks before checkpointing.
  void ParkBlocks(std::shared_ptr<const std::unordered_set<uint64_t>> blocks);
  // Dirty-epoch tracking: each write-back pass opens a new epoch; the
  // counter together with dirty_count() makes writeback progress
  // observable (steg_stats exposes both).
  uint64_t dirty_epoch() const {
    return dirty_epoch_.load(std::memory_order_relaxed);
  }
  // Dirty blocks currently parked in the cache (all shards).
  size_t dirty_count() const;
  // Discards every cached block (dirty contents are LOST — recovery paths
  // use this after rewriting the device underneath the cache).
  void DropAll();

  CacheStats stats() const;                    // lock-free snapshot
  double hit_rate() const { return stats().HitRate(); }
  // Registers this cache's instruments with `reg` under stegfs_cache_*
  // names. The cache keeps ownership; it must outlive the registry's
  // scrapes (PlainFs registers at mount, where destruction order
  // guarantees it).
  void RegisterMetrics(obs::MetricsRegistry* reg) const;
  // Miss-fill device latency (sync vectored fills and async
  // submit-to-completion), exposed for the demand-fill percentiles.
  const obs::Histogram& fill_histogram() const { return fill_ns_; }
  size_t size() const;                         // cached blocks, all shards
  size_t capacity() const { return capacity_; }
  size_t shard_count() const { return shards_.size(); }

 private:
  struct Entry {
    uint64_t block;
    std::vector<uint8_t> data;
    bool dirty = false;
    // Inserted by the prefetcher and not yet claimed by a demand access.
    bool prefetched = false;
    // Shard write sequence of the last write that set these bytes (0 for
    // read-inserted entries). Async write completions use it to decide
    // whether their bytes are newer than the entry's.
    uint64_t wseq = 0;
  };
  using EntryList = std::list<Entry>;

  // One LRU domain; guarded by the same-index stripe of `locks_`.
  struct Shard {
    size_t capacity = 1;
    EntryList lru;  // front = most recently used
    std::unordered_map<uint64_t, EntryList::iterator> map;
    // Bumped (under the stripe) by anything that begins changing this
    // shard's device bytes: entry writes, async write SUBMISSIONS,
    // write-through invalidations, DropAll. Async READ completions
    // compare it against their submission-time snapshot and skip their
    // inserts on mismatch — that is what makes inserting device bytes
    // read OUTSIDE the shard lock safe.
    uint64_t gen = 0;
    // Monotonic ordering of writes in this shard. Every sync write group
    // and every async write submission claims the next value; entries
    // record their writer's value in Entry::wseq, so an async write
    // completion can tell "a newer write superseded me, keep the entry"
    // from "my bytes are the newest, replay them" — per BLOCK, which is
    // what lets a pipeline's sibling sub-batches (disjoint blocks, same
    // shard) all cache their groups instead of invalidating each other.
    uint64_t write_seq = 0;
    // False only while no entry is dirty: set by every write that leaves
    // one dirty, cleared by a flush that wrote every dirty entry back.
    // A barrier's WriteBackDirty then skips clean shards without walking
    // their LRU lists under the exclusive lock.
    bool has_dirty = false;
    // Blocks with an async write in flight -> that write's sequence
    // (latest submission wins; erased at completion). An absent entry is
    // insert-safe for a completing write only while its claim is still
    // the block's latest.
    std::unordered_map<uint64_t, uint64_t> pending_writes;
  };

  static size_t AutoShardCount(size_t capacity_blocks);

  size_t ShardOf(uint64_t block) const { return locks_.StripeOf(block); }

  // All helpers below run with the shard's stripe held exclusively.
  Entry& Touch(Shard* shard, EntryList::iterator it);
  Status EnsureRoom(Shard* shard);
  Status FlushShard(Shard* shard,
                    const std::unordered_set<uint64_t>* hold_back = nullptr);
  // Counts a demand hit on `e`, claiming its prefetched flag if set.
  void CountHit(Entry& e);
  // Marks `e` (an entry of `shard`) dirty under the write policy.
  void MarkWritten(Shard* shard, Entry* e) {
    e->dirty = (policy_ == WritePolicy::kWriteBack);
    shard->has_dirty |= e->dirty;
  }
  // Loads the listed blocks into one shard (missing ones only) with a
  // single vectored device read. Used by the pool-based prefetcher.
  void PopulateShard(size_t idx, const std::vector<uint64_t>& blocks);

  // Completion handlers of the async paths (run on engine threads; take
  // the shard stripe, never hold it across device I/O except dirty-victim
  // write-back, same as the sync path).
  void CompleteAsyncRead(size_t idx, const std::vector<BlockIoVec>& misses,
                         uint64_t gen, bool prefetch);
  void CompleteAsyncWrite(size_t idx, const std::vector<size_t>& positions,
                          const uint64_t* blocks, const uint8_t* data,
                          uint64_t seq, const Status& status);

  // Request positions grouped per shard, in request order (index into the
  // caller's blocks array). Shards with no requests are empty.
  std::vector<std::vector<size_t>> GroupByShard(const uint64_t* blocks,
                                                size_t n) const;

  // Snapshot of the parked set (see ParkBlocks); null when nothing is
  // parked. Guarded by parked_mu_; write-back paths take a shared_ptr
  // snapshot so the owner can unpark without racing them.
  std::shared_ptr<const std::unordered_set<uint64_t>> ParkedSnapshot() const {
    std::lock_guard<std::mutex> lock(parked_mu_);
    return parked_;
  }

  BlockDevice* device_;
  size_t capacity_;
  WritePolicy policy_;
  mutable std::mutex parked_mu_;
  std::shared_ptr<const std::unordered_set<uint64_t>> parked_;
  concurrency::StripedSharedMutex locks_;
  std::vector<Shard> shards_;
  std::atomic<concurrency::ThreadPool*> prefetch_pool_{nullptr};
  std::atomic<AsyncBlockDevice*> async_engine_{nullptr};

  obs::Counter hits_;
  obs::Counter misses_;
  obs::Counter evictions_;
  obs::Counter writebacks_;
  obs::Counter batched_reads_;
  obs::Counter batched_writes_;
  obs::Counter prefetched_;
  obs::Counter prefetch_hits_;
  obs::Counter async_batched_reads_;
  obs::Counter async_batched_writes_;
  obs::Histogram fill_ns_;
  std::atomic<uint64_t> dirty_epoch_{1};
};

}  // namespace stegfs

#endif  // STEGFS_CACHE_BUFFER_CACHE_H_
