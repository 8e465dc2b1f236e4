#include "cache/buffer_cache.h"

#include "obs/trace.h"

#include <algorithm>
#include <cstdint>
#include <cassert>
#include <cstring>
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
  if (e.prefetched) {
    e.prefetched = false;
    metrics_.prefetch_hits.Increment();
  }
}

Status BufferCache::Read(uint64_t block, uint8_t* out) {
  size_t idx = ShardOf(block);
  Shard* shard = &shards_[idx];
  std::lock_guard<std::shared_mutex> lock(locks_.stripe(idx));
  auto found = shard->map.find(block);
  if (found != shard->map.end()) {
    Entry& e = Touch(shard, found->second);
    CountHit(e);
    std::memcpy(out, e.data.data(), e.data.size());
    return Status::OK();
  }
  metrics_.misses.Increment();
  STEGFS_RETURN_IF_ERROR(EnsureRoom(shard));
  Entry e;
  e.block = block;
  e.data.resize(device_->block_size());
  {
    obs::LatencyTimer fill_timer(&metrics_.fill_ns);
    STEGFS_RETURN_IF_ERROR(device_->ReadBlock(block, e.data.data()));
  }
  std::memcpy(out, e.data.data(), e.data.size());
  shard->lru.push_front(std::move(e));
  shard->map[block] = shard->lru.begin();
  return Status::OK();
}

Status BufferCache::Write(uint64_t block, const uint8_t* data) {
  size_t idx = ShardOf(block);
  Shard* shard = &shards_[idx];
  std::lock_guard<std::shared_mutex> lock(locks_.stripe(idx));
  shard->gen++;  // invalidates in-flight async reads' snapshots
  if (policy_ == WritePolicy::kWriteThrough) {
    STEGFS_RETURN_IF_ERROR(device_->WriteBlock(block, data));
  }
  auto found = shard->map.find(block);
  if (found != shard->map.end()) {
    Entry& e = Touch(shard, found->second);
    CountHit(e);
    std::memcpy(e.data.data(), data, e.data.size());
    MarkWritten(shard, &e);
    return Status::OK();
  }
  metrics_.misses.Increment();
  STEGFS_RETURN_IF_ERROR(EnsureRoom(shard));
  Entry e;
  e.block = block;
  e.data.assign(data, data + device_->block_size());
  shard->lru.push_front(std::move(e));
  shard->map[block] = shard->lru.begin();
  MarkWritten(shard, &shard->lru.front());
  return Status::OK();
}

std::vector<std::vector<size_t>> BufferCache::GroupByShard(
    const uint64_t* blocks, size_t n) const {
  std::vector<std::vector<size_t>> groups(shards_.size());
  if (shards_.size() == 1) {
    groups[0].resize(n);
    for (size_t i = 0; i < n; ++i) groups[0][i] = i;
    return groups;
  }
  for (size_t i = 0; i < n; ++i) {
    groups[ShardOf(blocks[i])].push_back(i);
  }
  return groups;
}

Status BufferCache::ReadBatch(const uint64_t* blocks, size_t n,
                              uint8_t* out) {
  const size_t bs = device_->block_size();
  metrics_.batched_reads.Add(n);

  // One shard at a time, holding only that shard's lock — exactly the
  // demand path's locking granularity, so concurrent sessions on other
  // shards never stall behind this batch's device I/O. On a one-shard
  // cache the whole extent's misses leave as a single coalescable
  // vectored call (see the sharding-vs-coalescing note in the header).
  auto groups = GroupByShard(blocks, n);
  std::vector<size_t> miss_pos;
  std::vector<std::pair<size_t, size_t>> dup_of;
  std::vector<BlockIoVec> iov;
  for (size_t idx = 0; idx < groups.size(); ++idx) {
    const std::vector<size_t>& group = groups[idx];
    if (group.empty()) continue;
    Shard* shard = &shards_[idx];
    std::lock_guard<std::shared_mutex> lock(locks_.stripe(idx));

    // Pass 1: copy hits out; collect the distinct misses (request order)
    // and read them from the device straight into `out` with one vectored
    // call, under the shard lock (that is what makes a concurrent miss on
    // the same block read the device exactly once).
    miss_pos.clear();
    dup_of.clear();
    iov.clear();
    for (size_t pos : group) {
      auto found = shard->map.find(blocks[pos]);
      if (found != shard->map.end()) {
        std::memcpy(out + pos * bs, found->second->data.data(), bs);
        continue;
      }
      size_t first = SIZE_MAX;
      for (size_t prev : miss_pos) {
        if (blocks[prev] == blocks[pos]) {
          first = prev;
          break;
        }
      }
      if (first == SIZE_MAX) {
        miss_pos.push_back(pos);
        iov.push_back({blocks[pos], out + pos * bs});
      } else {
        dup_of.push_back({pos, first});  // filled after the device read
      }
    }
    if (!iov.empty()) {
      obs::LatencyTimer fill_timer(&metrics_.fill_ns);
      STEGFS_RETURN_IF_ERROR(device_->ReadBlocks(iov.data(), iov.size()));
    }
    for (const auto& [pos, first] : dup_of) {
      std::memcpy(out + pos * bs, out + first * bs, bs);
    }

    // Pass 2: replay the per-block algorithm in request order — identical
    // hit/miss counts, LRU updates and eviction sequence to a Read loop.
    // (A pass-1 hit evicted by an earlier insert in this same pass is
    // re-inserted from the bytes copied in pass 1 and still counts as a
    // hit; this can only happen when one batch touches more distinct
    // blocks than the shard holds.)
    for (size_t pos : group) {
      auto found = shard->map.find(blocks[pos]);
      if (found != shard->map.end()) {
        Entry& e = Touch(shard, found->second);
        CountHit(e);
        std::memcpy(out + pos * bs, e.data.data(), bs);
        continue;
      }
      bool fetched = false;
      for (size_t mp : miss_pos) {
        if (blocks[mp] == blocks[pos]) {
          fetched = true;
          break;
        }
      }
      if (fetched) {
        metrics_.misses.Increment();
      } else {
        metrics_.hits.Increment();  // evicted pass-1 hit
      }
      STEGFS_RETURN_IF_ERROR(EnsureRoom(shard));
      Entry e;
      e.block = blocks[pos];
      e.data.assign(out + pos * bs, out + pos * bs + bs);
      shard->lru.push_front(std::move(e));
      shard->map[blocks[pos]] = shard->lru.begin();
    }
  }
  return Status::OK();
}

Status BufferCache::ProbeBatch(const uint64_t* blocks, size_t n,
                               uint8_t* out, size_t* cache_hits) {
  const size_t bs = device_->block_size();
  auto groups = GroupByShard(blocks, n);
  std::vector<BlockIoVec> misses;
  for (size_t idx = 0; idx < groups.size(); ++idx) {
    if (groups[idx].empty()) continue;
    const Shard& shard = shards_[idx];
    std::shared_lock<std::shared_mutex> lock(locks_.stripe(idx));
    for (size_t pos : groups[idx]) {
      auto found = shard.map.find(blocks[pos]);
      if (found != shard.map.end()) {
        std::memcpy(out + pos * bs, found->second->data.data(), bs);
      } else {
        misses.push_back({blocks[pos], out + pos * bs});
      }
    }
  }
  if (cache_hits != nullptr) *cache_hits = n - misses.size();
  if (misses.empty()) return Status::OK();
  return device_->ReadBlocks(misses.data(), misses.size());
}

Status BufferCache::WriteBatch(const uint64_t* blocks, size_t n,
                               const uint8_t* data) {
  const size_t bs = device_->block_size();
  metrics_.batched_writes.Add(n);
  auto groups = GroupByShard(blocks, n);
  std::vector<ConstBlockIoVec> iov;
  for (size_t idx = 0; idx < groups.size(); ++idx) {
    const std::vector<size_t>& group = groups[idx];
    if (group.empty()) continue;
    Shard* shard = &shards_[idx];
    std::lock_guard<std::shared_mutex> lock(locks_.stripe(idx));
    shard->gen++;  // invalidates in-flight async reads' snapshots

    if (policy_ == WritePolicy::kWriteThrough) {
      // One vectored device call per shard group, in request order (a
      // duplicate block writes twice, last value winning — same as the
      // per-block loop).
      iov.clear();
      iov.reserve(group.size());
      for (size_t pos : group) iov.push_back({blocks[pos], data + pos * bs});
      Status ws = device_->WriteBlocks(iov.data(), iov.size());
      if (!ws.ok()) {
        // The device may have persisted a prefix of the group; drop the
        // group's cached entries (never dirty under write-through) so the
        // cache cannot serve bytes older than what reached the device.
        for (size_t pos : group) {
          auto found = shard->map.find(blocks[pos]);
          if (found != shard->map.end()) {
            MarkClean(shard, &*found->second);
            shard->lru.erase(found->second);
            shard->map.erase(found);
          }
        }
        return ws;
      }
    }

    for (size_t pos : group) {
      auto found = shard->map.find(blocks[pos]);
      if (found != shard->map.end()) {
        Entry& e = Touch(shard, found->second);
        CountHit(e);
        std::memcpy(e.data.data(), data + pos * bs, bs);
        MarkWritten(shard, &e);
        continue;
      }
      metrics_.misses.Increment();
      STEGFS_RETURN_IF_ERROR(EnsureRoom(shard));
      Entry e;
      e.block = blocks[pos];
      e.data.assign(data + pos * bs, data + pos * bs + bs);
      shard->lru.push_front(std::move(e));
      shard->map[blocks[pos]] = shard->lru.begin();
      MarkWritten(shard, &shard->lru.front());
    }
  }
  return Status::OK();
}

void BufferCache::SetAsyncEngine(AsyncBlockDevice* engine) {
  async_engine_.store(engine, std::memory_order_release);
}

CacheIoTicket BufferCache::ReadBatchAsync(const uint64_t* blocks, size_t n,
                                          uint8_t* out, FillFn on_fill,
                                          std::vector<size_t>* ready) {
  CacheIoTicket result;
  AsyncBlockDevice* engine = async_engine();
  if (engine == nullptr || n == 0) {
    result.base_ = ReadBatch(blocks, n, out);
    if (ready != nullptr && result.base_.ok()) {
      for (size_t i = 0; i < n; ++i) ready->push_back(i);
    }
    return result;
  }
  const size_t bs = device_->block_size();
  metrics_.batched_reads.Add(n);
  metrics_.async_batched_reads.Add(n);

  auto groups = GroupByShard(blocks, n);
  std::unordered_map<uint64_t, size_t> first_pos;  // block -> first miss pos
  for (size_t idx = 0; idx < groups.size(); ++idx) {
    const std::vector<size_t>& group = groups[idx];
    if (group.empty()) continue;
    Shard* shard = &shards_[idx];
    std::vector<BlockIoVec> iov;
    std::vector<std::pair<size_t, size_t>> dups;
    std::vector<size_t> filled;  // miss and duplicate positions, for on_fill
    uint64_t gen;
    first_pos.clear();
    {
      // Pass 1 only: hits copy out, misses are collected. Unlike the sync
      // path the lock does NOT cover the device read — that is the whole
      // point — so the insert is deferred to the completion handler and
      // generation-guarded there.
      std::lock_guard<std::shared_mutex> lock(locks_.stripe(idx));
      gen = shard->gen;
      for (size_t pos : group) {
        auto found = shard->map.find(blocks[pos]);
        if (found != shard->map.end()) {
          Entry& e = Touch(shard, found->second);
          CountHit(e);
          std::memcpy(out + pos * bs, e.data.data(), bs);
          if (ready != nullptr) ready->push_back(pos);
          continue;
        }
        auto [it, fresh] = first_pos.try_emplace(blocks[pos], pos);
        if (fresh) {
          metrics_.misses.Increment();
          iov.push_back({blocks[pos], out + pos * bs});
        } else {
          // Sync-replay parity: the first occurrence is the miss, later
          // duplicates find the freshly inserted entry and count as hits.
          metrics_.hits.Increment();
          dups.push_back({pos, it->second});
        }
        if (on_fill) filled.push_back(pos);
      }
    }
    if (iov.empty()) continue;
    // Submission-time capture: fill latency spans submit→completion, and
    // the caller's trace context rides along so the completion (an engine
    // thread) lands in the submitting operation's span tree.
    const uint64_t fill_t0 = obs::MetricsEnabled() ? obs::NowNanos() : 0;
    const obs::SpanContext span_ctx = obs::CurrentSpanContext();
    // The engine owns its copy of the miss list; the callback keeps `iov`
    // to insert the fetched blocks.
    std::vector<BlockIoVec> engine_iov = iov;
    result.tickets_.push_back(engine->SubmitRead(
        std::move(engine_iov),
        [this, idx, iov = std::move(iov), dups = std::move(dups), gen, out,
         bs, fill_t0, span_ctx, on_fill,
         filled = std::move(filled)](const Status& s) {
          {
            obs::Span span(span_ctx, "cache.fill", "cache");
            if (fill_t0 != 0) {
              metrics_.fill_ns.Record(obs::NowNanos() - fill_t0);
            }
            if (!s.ok()) return;  // nothing inserted; Wait() reports it
            for (const auto& [pos, first] : dups) {
              std::memcpy(out + pos * bs, out + first * bs, bs);
            }
            CompleteAsyncRead(idx, iov, gen, /*prefetch=*/false);
          }
          if (on_fill) on_fill(filled);
        }));
  }
  return result;
}

void BufferCache::CompleteAsyncRead(size_t idx,
                                    const std::vector<BlockIoVec>& misses,
                                    uint64_t gen, bool prefetch) {
  const size_t bs = device_->block_size();
  Shard* shard = &shards_[idx];
  std::lock_guard<std::shared_mutex> lock(locks_.stripe(idx));
  if (shard->gen != gen) {
    // A write or invalidation touched this shard while the read was in
    // flight: the fetched bytes may be older than the device, so they go
    // to the caller (a legal linearization — the read began first) but
    // never into the cache.
    return;
  }
  for (const BlockIoVec& v : misses) {
    if (shard->map.find(v.block) != shard->map.end()) {
      continue;  // a racing demand read inserted it first
    }
    if (!EnsureRoom(shard).ok()) return;  // victim write-back failed
    Entry e;
    e.block = v.block;
    e.data.assign(v.buf, v.buf + bs);
    e.prefetched = prefetch;
    shard->lru.push_front(std::move(e));
    shard->map[v.block] = shard->lru.begin();
    if (prefetch) metrics_.prefetched.Increment();
  }
}

Status BufferCache::CheckpointBlock(uint64_t block, const uint8_t* data) {
  const size_t bs = device_->block_size();
  size_t idx = ShardOf(block);
  Shard* shard = &shards_[idx];
  std::lock_guard<std::shared_mutex> lock(locks_.stripe(idx));
  // The device bytes change under the lock: invalidate in-flight async
  // read snapshots so they cannot insert the pre-checkpoint bytes.
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
  const size_t bs = device_->block_size();
  auto groups = GroupByShard(wanted.data(), wanted.size());
  for (size_t idx = 0; idx < groups.size(); ++idx) {
    if (groups[idx].empty()) continue;
    std::vector<uint64_t> need;
    uint64_t gen;
    {
      std::lock_guard<std::shared_mutex> lock(locks_.stripe(idx));
      gen = shards_[idx].gen;
      for (size_t pos : groups[idx]) {
        if (shards_[idx].map.find(wanted[pos]) == shards_[idx].map.end()) {
          need.push_back(wanted[pos]);
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
                         CompleteAsyncRead(idx, iov, gen, /*prefetch=*/true);
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
    // it; nothing an in-flight async read fetched before the rewrite may
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
