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
// Statistics are obs instruments (CacheMetrics, relaxed atomics): readers
// (tests, the C API's steg_metric) never take a cache lock, and a mount
// registers them with its MetricsRegistry so they scrape through
// steg_metrics_text() under stable names.
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
//
// One transfer body per direction: ReadBatch and WriteBatch take the
// device layer's (block, buffer) lists, each block to/from its own caller
// buffer, so a file extent's blocks are copied straight between the
// caller's bytes and the entries or the device, with no gather or scatter
// here. Read and Write are their n = 1 case, and the contiguous
// (blocks, n, buf) forms wrap the same bodies. A demand transfer keeps
// each shard group in list order: the LBA order the device sees is the
// caller's (FileIo sorts each extent; only write-back sorts here). Every
// write is synchronous under its shard lock, whether or not an async
// engine is attached; an attached engine carries Prefetch's background
// loads only. For extents too large for the cache to hold, StreamBatch
// and StreamWrite move blocks past it: they insert, evict and reorder
// nothing, and StreamWrite writes through to the device under either
// policy.
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
#include "obs/metrics.h"
#include "util/status.h"

namespace stegfs {

enum class WritePolicy { kWriteBack, kWriteThrough };

// The cache's instruments. Readers (steg_metric, tests, benches) never
// take a cache lock; a mount registers them under stegfs_cache_* names.
struct CacheMetrics {
  obs::Counter hits;
  obs::Counter misses;
  obs::Counter evictions;
  obs::Counter writebacks;
  // Blocks moved through ReadBatch / StreamBatch / WriteBatch: every block
  // a demand transfer moves, since Read and Write are the n = 1 case.
  obs::Counter batched_reads;
  obs::Counter batched_writes;
  // Blocks inserted by the engine prefetcher, and how many of those were
  // later claimed by a demand read before eviction.
  obs::Counter prefetched;
  obs::Counter prefetch_hits;
  // Demand miss-fill device latency (one sample per vectored miss read).
  obs::Histogram fill_ns;

  void RegisterWith(obs::MetricsRegistry* reg) const {
    reg->RegisterCounter("stegfs_cache_hits_total", "Cache demand hits",
                         &hits);
    reg->RegisterCounter("stegfs_cache_misses_total", "Cache demand misses",
                         &misses);
    reg->RegisterCounter("stegfs_cache_evictions_total", "LRU evictions",
                         &evictions);
    reg->RegisterCounter("stegfs_cache_writebacks_total",
                         "Dirty block write-backs", &writebacks);
    reg->RegisterCounter("stegfs_cache_batched_reads_total",
                         "Blocks read through batch calls", &batched_reads);
    reg->RegisterCounter("stegfs_cache_batched_writes_total",
                         "Blocks written through batch calls",
                         &batched_writes);
    reg->RegisterCounter("stegfs_cache_prefetched_total",
                         "Blocks inserted by the prefetcher", &prefetched);
    reg->RegisterCounter("stegfs_cache_prefetch_hits_total",
                         "Prefetched blocks claimed by demand reads",
                         &prefetch_hits);
    reg->RegisterHistogram("stegfs_cache_fill_seconds",
                           "Demand miss fill latency (device read)",
                           &fill_ns);
  }
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

  uint32_t block_size() const { return block_size_; }
  uint64_t num_blocks() const { return device_->num_blocks(); }

  // One whole block (block_size() bytes): the n = 1 case of ReadBatch /
  // WriteBatch, which are the cache's only transfer bodies.
  Status Read(uint64_t b, uint8_t* out) {
    const BlockIoVec v{b, out};
    return ReadBatch(&v, 1);
  }
  Status Write(uint64_t b, const uint8_t* in) {
    const ConstBlockIoVec v{b, in};
    return WriteBatch(&v, 1);
  }

  // Batched read of n blocks (any numbers, duplicates allowed), each into
  // its own buffer (block_size() bytes; the buffers must not overlap).
  // Processed one shard at a time — only that shard's lock is held, so
  // other shards stay fully parallel under concurrent sessions — with the
  // shard's misses leaving as ONE vectored ReadBlocks call (a single
  // coalescable transfer when the cache has one shard). Per shard,
  // hit/miss accounting, LRU updates and eviction order match a loop of
  // one-block calls exactly (the seeded tests rely on this), and each hit
  // is copied out once. Per-call scratch is inline for small n, so a
  // one-block call allocates nothing unless it misses.
  Status ReadBatch(const BlockIoVec* iov, size_t n);
  // ReadBatch into one buffer (n * block_size() bytes, request order).
  Status ReadBatch(const uint64_t* blocks, size_t n, uint8_t* out) {
    return ReadBatch(
        BackToBack<BlockIoVec>(blocks, n, out, block_size_).data(), n);
  }
  // Batched write of n blocks, each from its own buffer; same locking
  // scheme. Under kWriteThrough the device sees one vectored
  // WriteBlocks call per shard group (request order; on a device error,
  // torn writes included, the group's cached entries are invalidated so
  // the cache can never serve bytes other than the device's); entry
  // updates then replay in request order, matching the one-block loop.
  Status WriteBatch(const ConstBlockIoVec* iov, size_t n) {
    return WriteGroups(iov, n, /*stream=*/false);
  }
  Status WriteBatch(const uint64_t* blocks, size_t n, const uint8_t* data) {
    return WriteBatch(
        BackToBack<ConstBlockIoVec>(blocks, n, data, block_size_).data(), n);
  }
  // WriteBatch past the cache, for extents that would only churn it:
  // under either policy each shard group is written through with one
  // vectored device call, under the stripe held exclusively, exactly as
  // WriteBatch's write-through branch (a device error drops the group's
  // cached entries). A block already cached takes the new bytes and turns
  // clean; nothing is inserted or evicted and the LRU order does not
  // move. Every position counts as one hit or miss. A batch holding a
  // parked block (ParkBlocks) takes WriteBatch instead, so a journal's
  // held-back image never reaches the device early. The blocks must be
  // distinct (debug-asserted): callers run chunks of one extent
  // concurrently, so a duplicate's last value would be a race's winner.
  Status StreamWrite(const ConstBlockIoVec* iov, size_t n);

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
  // Why reading misses outside the locks is still exact:
  //   - a block absent from the cache at peek time holds its latest
  //     completed write on the device, because EnsureRoom writes a dirty
  //     victim back before erasing it, and StreamWrite writes through,
  //     under the same stripe lock the peek took;
  //   - a write racing the read may show in it or not, as any racing
  //     write may: the device only moves forward to newer images. (A
  //     probe races no write at all: only the owner of a (name, key)
  //     pair ever writes that header, and a header rewrite leaves the
  //     signature cells' ciphertext unchanged: same IV, same leading
  //     plaintext under CBC.)
  // Holding the stripes across the device read instead convoyed connects
  // behind creates.
  Status ProbeBatch(const uint64_t* blocks, size_t n, uint8_t* out,
                    size_t* cache_hits = nullptr) {
    return Peek(BackToBack<BlockIoVec>(blocks, n, out, block_size_).data(),
                n, /*demand=*/false, cache_hits);
  }
  // ProbeBatch as a demand read, for extents that would only churn the
  // cache: the same access pattern, so nothing is inserted, evicted or
  // moved in the LRU, but every position counts as a hit or a miss, a hit
  // claims its entry's prefetched flag, and the miss read is timed as a
  // fill. Each block lands in its own buffer.
  Status StreamBatch(const BlockIoVec* iov, size_t n) {
    return Peek(iov, n, /*demand=*/true, nullptr);
  }
  Status StreamBatch(const uint64_t* blocks, size_t n, uint8_t* out) {
    return StreamBatch(
        BackToBack<BlockIoVec>(blocks, n, out, block_size_).data(), n);
  }

  // Attaches an async I/O engine: Prefetch loads blocks in the background
  // through it, and EncryptedBlockStore runs large extents' chunks on its
  // workers.
  // The engine must be drained and destroyed before the cache (PlainFs
  // declares it after the cache for exactly this reason) or detached
  // first. nullptr detaches; Prefetch then degrades to a no-op.
  void SetAsyncEngine(AsyncBlockDevice* engine);
  AsyncBlockDevice* async_engine() const {
    return async_engine_.load(std::memory_order_acquire);
  }

  // Schedules a background load of the given blocks into the cache
  // through the attached engine (best-effort: errors are swallowed,
  // already-cached and out-of-range blocks skipped; without an engine
  // nothing is loaded). The caller never waits: the engine's completion
  // inserts the blocks, skipping the insert if a write or invalidation
  // touched the shard meanwhile. A later demand read that claims a
  // prefetched entry counts as a normal hit plus one prefetch_hit.
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
  // Dirty blocks held in the cache, all shards: the sum of the per-shard
  // dirty-list counts (parked and held-back blocks included).
  size_t dirty_count() const;
  // Discards every cached block (dirty contents are LOST — recovery paths
  // use this after rewriting the device underneath the cache).
  void DropAll();

  // The cache's instruments. The cache keeps ownership; it must outlive
  // any registry they are registered with (PlainFs registers them at
  // mount, where destruction order guarantees it).
  const CacheMetrics& metrics() const { return metrics_; }
  size_t size() const;                         // cached blocks, all shards
  size_t capacity() const { return capacity_; }
  size_t shard_count() const { return shards_.size(); }

 private:
  struct Entry {
    uint64_t block;
    std::vector<uint8_t> data;
    // True exactly while the entry is linked on its shard's dirty list.
    bool dirty = false;
    // Inserted by the prefetcher and not yet claimed by a demand access.
    // Atomic because StreamBatch claims it under the shared stripe lock.
    std::atomic<bool> prefetched{false};
    // Dirty-list links (intrusive: a std::list node never moves, so the
    // links stay valid until the entry is erased, and the list costs no
    // allocation of its own).
    Entry* dirty_prev = nullptr;
    Entry* dirty_next = nullptr;
  };
  using EntryList = std::list<Entry>;

  // One LRU domain; guarded by the same-index stripe of `locks_`.
  struct Shard {
    size_t capacity = 1;
    EntryList lru;  // front = most recently used
    std::unordered_map<uint64_t, EntryList::iterator> map;
    // Bumped (under the stripe) by anything that begins changing this
    // shard's device bytes or entries: writes, checkpoints, DropAll.
    // Prefetch completions compare it against their submission-time
    // snapshot and skip their inserts on mismatch — that is what makes
    // inserting device bytes read OUTSIDE the shard lock safe.
    uint64_t gen = 0;
    // The shard's dirty entries, unordered, linked through
    // Entry::dirty_prev/dirty_next. An entry is linked when a write-back
    // write dirties it (MarkWritten) and unlinked when it turns clean or
    // leaves: a flush wrote it, a checkpoint wrote its exact bytes, it
    // was evicted, or DropAll discarded the shard. A flush therefore
    // costs its dirty count, not the shard's size, and a clean shard
    // costs one null check.
    Entry* dirty_head = nullptr;
    size_t dirty_count = 0;
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
  // The body of ProbeBatch and StreamBatch; only a demand read counts.
  Status Peek(const BlockIoVec* iov, size_t n, bool demand,
              size_t* cache_hits);
  // The body of WriteBatch and StreamWrite; a stream write inserts nothing.
  Status WriteGroups(const ConstBlockIoVec* iov, size_t n, bool stream);
  // Makes room (EnsureRoom), then inserts `block` holding a copy of
  // `bytes` as the shard's most recently used entry. The one insertion
  // path of the reads, the prefetcher and the writes.
  Status Insert(Shard* shard, uint64_t block, const uint8_t* bytes,
                bool prefetched = false);
  // Marks `e` (an entry already in `shard`'s LRU list, so its address is
  // stable) dirty under the write policy.
  void MarkWritten(Shard* shard, Entry* e) {
    if (policy_ == WritePolicy::kWriteBack) MarkDirty(shard, e);
  }
  // Dirty-list maintenance: MarkDirty sets `dirty` and links `e`,
  // MarkClean clears it and unlinks `e`; each is a no-op on an entry
  // already in that state.
  static void MarkDirty(Shard* shard, Entry* e);
  static void MarkClean(Shard* shard, Entry* e);
  // Completion handler of Prefetch's reads (runs on an engine thread;
  // takes the shard stripe, never holds it across device I/O except
  // dirty-victim write-back, same as the sync path).
  void CompleteAsyncRead(size_t idx, const std::vector<BlockIoVec>& misses,
                         uint64_t gen);

  // A batch's request positions grouped per shard (buffer_cache.cc).
  class ShardGroups;

  // Snapshot of the parked set (see ParkBlocks); null when nothing is
  // parked. Guarded by parked_mu_; write-back paths take a shared_ptr
  // snapshot so the owner can unpark without racing them.
  std::shared_ptr<const std::unordered_set<uint64_t>> ParkedSnapshot() const {
    std::lock_guard<std::mutex> lock(parked_mu_);
    return parked_;
  }

  BlockDevice* device_;
  const uint32_t block_size_;
  size_t capacity_;
  WritePolicy policy_;
  mutable std::mutex parked_mu_;
  std::shared_ptr<const std::unordered_set<uint64_t>> parked_;
  mutable concurrency::StripedSharedMutex locks_;
  std::vector<Shard> shards_;
  std::atomic<AsyncBlockDevice*> async_engine_{nullptr};

  CacheMetrics metrics_;
};

}  // namespace stegfs

#endif  // STEGFS_CACHE_BUFFER_CACHE_H_
