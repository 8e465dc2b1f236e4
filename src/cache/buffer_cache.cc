#include "cache/buffer_cache.h"

#include <algorithm>
#include <cstdint>
#include <cassert>
#include <cstring>
#include <memory>
#include <mutex>
#include <unordered_set>
#include <utility>

namespace stegfs {

size_t BufferCache::AutoShardCount(size_t capacity_blocks) {
  return std::max<size_t>(1, std::min<size_t>(16, capacity_blocks / 64));
}

BufferCache::BufferCache(BlockDevice* device, size_t capacity_blocks,
                         WritePolicy policy, size_t shard_count)
    : device_(device),
      block_size_(device->block_size()),
      capacity_(capacity_blocks),
      policy_(policy),
      locks_(shard_count == 0 ? AutoShardCount(capacity_blocks)
                              : shard_count),
      shards_(locks_.stripe_count()) {
  assert(capacity_ >= 1);
  // Split the capacity across shards; early shards take the remainder so
  // every shard holds at least one block.
  size_t base = capacity_ / shards_.size();
  size_t extra = capacity_ % shards_.size();
  for (size_t i = 0; i < shards_.size(); ++i) {
    shards_[i].capacity = std::max<size_t>(1, base + (i < extra ? 1 : 0));
  }
}

BufferCache::~BufferCache() {
  // Best-effort writeback; errors cannot be reported from a destructor, so
  // correctness-sensitive callers must Flush() explicitly first.
  (void)Flush();
}

BufferCache::Entry& BufferCache::Touch(Shard* shard, EntryList::iterator it) {
  shard->lru.splice(shard->lru.begin(), shard->lru, it);
  return *shard->lru.begin();
}

void BufferCache::MarkDirty(Shard* shard, Entry* e) {
  if (e->dirty) return;
  e->dirty = true;
  e->dirty_prev = nullptr;
  e->dirty_next = shard->dirty_head;
  if (shard->dirty_head != nullptr) shard->dirty_head->dirty_prev = e;
  shard->dirty_head = e;
  shard->dirty_count++;
}

void BufferCache::MarkClean(Shard* shard, Entry* e) {
  if (!e->dirty) return;
  e->dirty = false;
  if (e->dirty_prev != nullptr) {
    e->dirty_prev->dirty_next = e->dirty_next;
  } else {
    shard->dirty_head = e->dirty_next;
  }
  if (e->dirty_next != nullptr) e->dirty_next->dirty_prev = e->dirty_prev;
  e->dirty_prev = e->dirty_next = nullptr;
  shard->dirty_count--;
}

Status BufferCache::EnsureRoom(Shard* shard) {
  auto parked = ParkedSnapshot();
  while (shard->map.size() >= shard->capacity) {
    auto victim_it = std::prev(shard->lru.end());
    if (parked != nullptr) {
      // Never write a parked dirty block early (it is a journal txn's
      // held-back image): walk up the LRU for an unparked victim. The
      // parked set is a handful of blocks, caches are far larger, so a
      // fallback to the true LRU victim is effectively unreachable —
      // but memory correctness wins over write ordering if it happens.
      auto it = victim_it;
      while (it->dirty && parked->count(it->block) != 0) {
        if (it == shard->lru.begin()) {
          it = victim_it;
          break;
        }
        --it;
      }
      victim_it = it;
    }
    Entry& victim = *victim_it;
    if (victim.dirty) {
      STEGFS_RETURN_IF_ERROR(
          device_->WriteBlock(victim.block, victim.data.data()));
      metrics_.writebacks.Increment();
      MarkClean(shard, &victim);
    }
    shard->map.erase(victim.block);
    shard->lru.erase(victim_it);
    metrics_.evictions.Increment();
  }
  return Status::OK();
}

void BufferCache::CountHit(Entry& e) {
  metrics_.hits.Increment();
  // Exclusive lock: no other claimant, so a plain load and store will do.
  if (e.prefetched.load(std::memory_order_relaxed)) {
    e.prefetched.store(false, std::memory_order_relaxed);
    metrics_.prefetch_hits.Increment();
  }
}

Status BufferCache::Insert(Shard* shard, uint64_t block, const uint8_t* bytes,
                           bool prefetched) {
  STEGFS_RETURN_IF_ERROR(EnsureRoom(shard));
  Entry& e = shard->lru.emplace_front();
  e.block = block;
  e.data.assign(bytes, bytes + block_size_);
  e.prefetched.store(prefetched, std::memory_order_relaxed);
  shard->map[block] = shard->lru.begin();
  return Status::OK();
}

namespace {

// Per-call scratch whose capacity is fixed at construction: inline for up
// to kInline elements, one heap allocation beyond. The batch calls size
// theirs by the request, so a one-block call allocates nothing.
template <typename T, size_t kInline = 8>
class Scratch {
 public:
  explicit Scratch(size_t capacity) {
    if (capacity > kInline) {
      heap_.reset(new T[capacity]);
      data_ = heap_.get();
    }
  }
  Scratch(const Scratch&) = delete;

  void push_back(const T& v) { data_[size_++] = v; }
  size_t size() const { return size_; }
  T* data() { return data_; }
  T* begin() { return data_; }
  T* end() { return data_ + size_; }
  T& operator[](size_t i) { return data_[i]; }

 private:
  T inline_[kInline];
  std::unique_ptr<T[]> heap_;
  T* data_ = inline_;
  size_t size_ = 0;
};

}  // namespace

// The positions of a batch grouped by shard: ascending shard order (the
// multi-stripe lock order), request order within a shard. One in-place
// sort of (shard << 32 | position) keys, so no group has a heap vector.
class BufferCache::ShardGroups {
 public:
  // `v` is a block-number array or a (block, buffer) list.
  template <typename V>
  ShardGroups(const BufferCache& cache, const V* v, size_t n) : keys_(n) {
    assert(n <= UINT32_MAX);
    const bool one_shard = cache.shards_.size() == 1;
    for (size_t i = 0; i < n; ++i) {
      const uint64_t idx = one_shard ? 0 : cache.ShardOf(BlockOf(v[i]));
      keys_.push_back(idx << 32 | i);
    }
    if (!one_shard && n > 1) std::sort(keys_.begin(), keys_.end());
  }

  // Steps to the next shard's group; false past the last one.
  bool Next() {
    begin_ = end_;
    if (begin_ == keys_.size()) return false;
    while (end_ < keys_.size() && keys_[end_] >> 32 == keys_[begin_] >> 32) {
      ++end_;
    }
    return true;
  }
  size_t shard() { return keys_[begin_] >> 32; }
  size_t size() const { return end_ - begin_; }
  // Request position of the group's k-th block.
  size_t operator[](size_t k) { return keys_[begin_ + k] & UINT32_MAX; }

 private:
  static uint64_t BlockOf(uint64_t block) { return block; }
  template <typename Vec>
  static uint64_t BlockOf(const Vec& v) {
    return v.block;
  }

  Scratch<uint64_t> keys_;
  size_t begin_ = 0;
  size_t end_ = 0;
};

Status BufferCache::ReadBatch(const BlockIoVec* iov, size_t n) {
  const size_t bs = block_size_;

  // One shard at a time, holding only that shard's lock, so concurrent
  // sessions on other shards never stall behind this batch's device I/O.
  // On a one-shard cache the whole extent's misses leave as a single
  // coalescable vectored call (see the sharding-vs-coalescing note in the
  // header).
  ShardGroups group(*this, iov, n);
  struct Dup {
    size_t pos;
    size_t first;
  };
  while (group.Next()) {
    Shard* shard = &shards_[group.shard()];
    std::lock_guard<std::shared_mutex> lock(locks_.stripe(group.shard()));
    // Counted under the lock, not on entry: a locked add there would wait
    // for the previous call's stores to drain without the shard hash to
    // overlap with.
    metrics_.batched_reads.Add(group.size());

    // Pass 1. The hits before the group's first miss are served in full
    // here: no insert can precede them, so touching them now is the
    // one-block order, and an all-hit group is done.
    size_t k = 0;
    for (; k < group.size(); ++k) {
      const BlockIoVec& v = iov[group[k]];
      auto found = shard->map.find(v.block);
      if (found == shard->map.end()) break;
      CountHit(Touch(shard, found->second));
      std::memcpy(v.buf, found->second->data.data(), bs);
    }
    if (k == group.size()) continue;
    // From the first miss on, hits are copied out now and their LRU
    // updates wait for pass 2. The distinct misses are read from the
    // device straight into their buffers with one vectored call, under the
    // shard
    // lock (that is what makes a concurrent miss on the same block read
    // the device exactly once).
    const size_t replay_from = k;
    const size_t rest = group.size() - k;
    Scratch<size_t> miss_pos(rest);
    Scratch<Dup> dups(rest);
    Scratch<BlockIoVec> fill(rest);
    Scratch<bool> was_hit(rest);  // indexed k - replay_from
    for (; k < group.size(); ++k) {
      const size_t pos = group[k];
      auto found = shard->map.find(iov[pos].block);
      was_hit.push_back(found != shard->map.end());
      if (found != shard->map.end()) {
        std::memcpy(iov[pos].buf, found->second->data.data(), bs);
        continue;
      }
      size_t first = SIZE_MAX;
      for (size_t prev : miss_pos) {
        if (iov[prev].block == iov[pos].block) {
          first = prev;
          break;
        }
      }
      if (first == SIZE_MAX) {
        miss_pos.push_back(pos);
        fill.push_back(iov[pos]);
      } else {
        dups.push_back({pos, first});  // filled after the device read
      }
    }
    {
      obs::LatencyTimer fill_timer(&metrics_.fill_ns);
      STEGFS_RETURN_IF_ERROR(device_->ReadBlocks(fill.data(), fill.size()));
    }
    for (const Dup& d : dups) {
      std::memcpy(iov[d.pos].buf, iov[d.first].buf, bs);
    }

    // Pass 2: replay the per-block algorithm in request order from the
    // first miss on — identical hit/miss counts, LRU updates and eviction
    // sequence to a one-block loop. Every byte is already in place. (A
    // pass-1 hit evicted by an earlier insert in this same pass is
    // re-inserted from its copy and still counts as a hit; this can only
    // happen when one batch touches more distinct blocks than the shard
    // holds.)
    for (k = replay_from; k < group.size(); ++k) {
      const BlockIoVec& v = iov[group[k]];
      auto found = shard->map.find(v.block);
      if (found != shard->map.end()) {
        CountHit(Touch(shard, found->second));
        continue;
      }
      if (was_hit[k - replay_from]) {
        metrics_.hits.Increment();  // evicted pass-1 hit
      } else {
        metrics_.misses.Increment();
      }
      STEGFS_RETURN_IF_ERROR(Insert(shard, v.block, v.buf));
    }
  }
  return Status::OK();
}

Status BufferCache::Peek(const BlockIoVec* iov, size_t n, bool demand,
                         size_t* cache_hits) {
  const size_t bs = block_size_;
  ShardGroups group(*this, iov, n);
  Scratch<BlockIoVec> misses(n);
  size_t claimed = 0;  // prefetched entries this read claimed
  while (group.Next()) {
    const Shard& shard = shards_[group.shard()];
    std::shared_lock<std::shared_mutex> lock(locks_.stripe(group.shard()));
    for (size_t k = 0; k < group.size(); ++k) {
      const BlockIoVec& v = iov[group[k]];
      auto found = shard.map.find(v.block);
      if (found == shard.map.end()) {
        misses.push_back(v);
        continue;
      }
      std::memcpy(v.buf, found->second->data.data(), bs);
      // Shared lock: concurrent readers race for the claim, so it is an
      // exchange (skipped, as a plain load, on the common unflagged entry).
      std::atomic<bool>& flag = found->second->prefetched;
      if (demand && flag.load(std::memory_order_relaxed) &&
          flag.exchange(false, std::memory_order_relaxed)) {
        ++claimed;
      }
    }
  }
  if (cache_hits != nullptr) *cache_hits = n - misses.size();
  if (demand) {
    metrics_.batched_reads.Add(n);
    metrics_.hits.Add(n - misses.size());
    metrics_.misses.Add(misses.size());
    if (claimed != 0) metrics_.prefetch_hits.Add(claimed);
  }
  if (misses.size() == 0) return Status::OK();
  obs::LatencyTimer fill_timer(demand ? &metrics_.fill_ns : nullptr);
  return device_->ReadBlocks(misses.data(), misses.size());
}

Status BufferCache::StreamWrite(const ConstBlockIoVec* iov, size_t n) {
#ifndef NDEBUG
  std::vector<uint64_t> sorted(n);
  for (size_t i = 0; i < n; ++i) sorted[i] = iov[i].block;
  std::sort(sorted.begin(), sorted.end());
  assert(std::adjacent_find(sorted.begin(), sorted.end()) == sorted.end());
#endif
  if (auto parked = ParkedSnapshot()) {
    for (size_t i = 0; i < n; ++i) {
      if (parked->count(iov[i].block) != 0) return WriteBatch(iov, n);
    }
  }
  return WriteGroups(iov, n, /*stream=*/true);
}

Status BufferCache::WriteGroups(const ConstBlockIoVec* iov, size_t n,
                                bool stream) {
  const size_t bs = block_size_;
  ShardGroups group(*this, iov, n);
  while (group.Next()) {
    Shard* shard = &shards_[group.shard()];
    std::lock_guard<std::shared_mutex> lock(locks_.stripe(group.shard()));
    metrics_.batched_writes.Add(group.size());  // under the lock: see ReadBatch
    shard->gen++;  // invalidates in-flight prefetches' snapshots

    if (stream || policy_ == WritePolicy::kWriteThrough) {
      // One vectored device call per shard group, in request order (a
      // duplicate block writes twice, last value winning — same as the
      // per-block loop).
      Scratch<ConstBlockIoVec> through(group.size());
      for (size_t k = 0; k < group.size(); ++k) {
        through.push_back(iov[group[k]]);
      }
      Status ws = device_->WriteBlocks(through.data(), through.size());
      if (!ws.ok()) {
        // The device may hold any prefix of the group, and a torn block
        // holds neither image: drop the group's cached entries so the
        // cache cannot serve bytes other than the device's.
        for (size_t k = 0; k < group.size(); ++k) {
          auto found = shard->map.find(iov[group[k]].block);
          if (found != shard->map.end()) {
            MarkClean(shard, &*found->second);
            shard->lru.erase(found->second);
            shard->map.erase(found);
          }
        }
        return ws;
      }
    }

    for (size_t k = 0; k < group.size(); ++k) {
      const ConstBlockIoVec& v = iov[group[k]];
      auto found = shard->map.find(v.block);
      if (found != shard->map.end()) {
        // A stream write leaves the LRU order alone; the device now holds
        // the entry's new bytes.
        Entry& e = stream ? *found->second : Touch(shard, found->second);
        CountHit(e);
        std::memcpy(e.data.data(), v.buf, bs);
        if (stream) {
          MarkClean(shard, &e);
        } else {
          MarkWritten(shard, &e);
        }
        continue;
      }
      metrics_.misses.Increment();
      if (stream) continue;
      STEGFS_RETURN_IF_ERROR(Insert(shard, v.block, v.buf));
      MarkWritten(shard, &shard->lru.front());
    }
  }
  return Status::OK();
}

void BufferCache::SetAsyncEngine(AsyncBlockDevice* engine) {
  async_engine_.store(engine, std::memory_order_release);
}

void BufferCache::CompleteAsyncRead(size_t idx,
                                    const std::vector<BlockIoVec>& misses,
                                    uint64_t gen) {
  Shard* shard = &shards_[idx];
  std::lock_guard<std::shared_mutex> lock(locks_.stripe(idx));
  if (shard->gen != gen) {
    // A write or invalidation touched this shard while the read was in
    // flight: the fetched bytes may be older than the device, so they
    // never go into the cache.
    return;
  }
  for (const BlockIoVec& v : misses) {
    if (shard->map.find(v.block) != shard->map.end()) {
      continue;  // a racing demand read inserted it first
    }
    if (!Insert(shard, v.block, v.buf, /*prefetched=*/true).ok()) {
      return;  // victim write-back failed
    }
    metrics_.prefetched.Increment();
  }
}

Status BufferCache::CheckpointBlock(uint64_t block, const uint8_t* data) {
  const size_t bs = block_size_;
  size_t idx = ShardOf(block);
  Shard* shard = &shards_[idx];
  std::lock_guard<std::shared_mutex> lock(locks_.stripe(idx));
  // The device bytes change under the lock: invalidate in-flight
  // prefetch snapshots so they cannot insert the pre-checkpoint bytes.
  shard->gen++;
  STEGFS_RETURN_IF_ERROR(device_->WriteBlock(block, data));
  metrics_.writebacks.Increment();
  auto found = shard->map.find(block);
  if (found != shard->map.end() && found->second->dirty &&
      std::memcmp(found->second->data.data(), data, bs) == 0) {
    MarkClean(shard, &*found->second);
  }
  return Status::OK();
}

void BufferCache::Prefetch(const uint64_t* blocks, size_t n) {
  AsyncBlockDevice* engine = async_engine();
  if (engine == nullptr || n == 0) return;
  std::vector<uint64_t> wanted;
  wanted.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (blocks[i] < device_->num_blocks()) wanted.push_back(blocks[i]);
  }
  if (wanted.empty()) return;

  // Pure submitter: the engine carries the I/O and its completion
  // handler does the insert, so no thread ever blocks on a background
  // read. Fire-and-forget: the dropped ticket is covered by the engine's
  // Drain/destructor, and a failed read just leaves the blocks uncached.
  const size_t bs = block_size_;
  ShardGroups group(*this, wanted.data(), wanted.size());
  while (group.Next()) {
    const size_t idx = group.shard();
    std::vector<uint64_t> need;
    uint64_t gen;
    {
      std::lock_guard<std::shared_mutex> lock(locks_.stripe(idx));
      gen = shards_[idx].gen;
      for (size_t k = 0; k < group.size(); ++k) {
        const uint64_t block = wanted[group[k]];
        if (shards_[idx].map.find(block) == shards_[idx].map.end()) {
          need.push_back(block);
        }
      }
    }
    if (need.empty()) continue;
    auto buf = std::make_shared<std::vector<uint8_t>>(need.size() * bs);
    std::vector<BlockIoVec> iov(need.size());
    for (size_t i = 0; i < need.size(); ++i) {
      iov[i] = {need[i], buf->data() + i * bs};
    }
    std::vector<BlockIoVec> engine_iov = iov;
    engine->SubmitRead(std::move(engine_iov),
                       [this, idx, iov = std::move(iov), buf,
                        gen](const Status& s) {
                         if (!s.ok()) return;  // best-effort
                         CompleteAsyncRead(idx, iov, gen);
                       });
  }
}

Status BufferCache::FlushShard(Shard* shard,
                               const std::unordered_set<uint64_t>* hold_back) {
  // One vectored write-back per shard, ascending by LBA so contiguous
  // dirty extents coalesce on the device. Walks the shard's dirty list,
  // never its LRU list. On error every entry stays dirty and listed
  // (re-written by the next flush — idempotent). Held-back and parked
  // blocks (the journal's metadata images) are skipped and stay listed.
  if (shard->dirty_head == nullptr) return Status::OK();
  auto parked = ParkedSnapshot();
  std::vector<Entry*> dirty;
  dirty.reserve(shard->dirty_count);
  for (Entry* e = shard->dirty_head; e != nullptr; e = e->dirty_next) {
    if ((hold_back != nullptr && hold_back->count(e->block) != 0) ||
        (parked != nullptr && parked->count(e->block) != 0)) {
      continue;
    }
    dirty.push_back(e);
  }
  if (dirty.empty()) return Status::OK();
  std::sort(dirty.begin(), dirty.end(),
            [](const Entry* a, const Entry* b) { return a->block < b->block; });
  std::vector<ConstBlockIoVec> iov;
  iov.reserve(dirty.size());
  for (const Entry* e : dirty) iov.push_back({e->block, e->data.data()});
  STEGFS_RETURN_IF_ERROR(device_->WriteBlocks(iov.data(), iov.size()));
  for (Entry* e : dirty) MarkClean(shard, e);
  metrics_.writebacks.Add(dirty.size());
  return Status::OK();
}

void BufferCache::ParkBlocks(
    std::shared_ptr<const std::unordered_set<uint64_t>> blocks) {
  std::lock_guard<std::mutex> lock(parked_mu_);
  parked_ = std::move(blocks);
}

Status BufferCache::WriteBackDirty(
    const std::unordered_set<uint64_t>* hold_back) {
  for (size_t i = 0; i < shards_.size(); ++i) {
    std::lock_guard<std::shared_mutex> lock(locks_.stripe(i));
    STEGFS_RETURN_IF_ERROR(FlushShard(&shards_[i], hold_back));
  }
  return Status::OK();
}

Status BufferCache::Flush() {
  STEGFS_RETURN_IF_ERROR(WriteBackDirty());
  return device_->Flush();
}

size_t BufferCache::dirty_count() const {
  size_t n = 0;
  for (size_t i = 0; i < shards_.size(); ++i) {
    std::shared_lock<std::shared_mutex> lock(locks_.stripe(i));
    n += shards_[i].dirty_count;
  }
  return n;
}

void BufferCache::DropAll() {
  concurrency::StripedSharedMutex::ExclusiveAllGuard all(&locks_);
  for (Shard& shard : shards_) {
    shard.lru.clear();
    shard.map.clear();
    shard.dirty_head = nullptr;
    shard.dirty_count = 0;
    // Callers drop the cache because the device was rewritten underneath
    // it; nothing an in-flight prefetch fetched before the rewrite may
    // come back.
    shard.gen++;
  }
}

size_t BufferCache::size() const {
  size_t total = 0;
  for (size_t i = 0; i < shards_.size(); ++i) {
    std::shared_lock<std::shared_mutex> lock(locks_.stripe(i));
    total += shards_[i].map.size();
  }
  return total;
}

}  // namespace stegfs
