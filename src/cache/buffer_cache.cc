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
      writebacks_.Increment();
    }
    shard->map.erase(victim.block);
    shard->lru.erase(victim_it);
    evictions_.Increment();
  }
  return Status::OK();
}

void BufferCache::CountHit(Entry& e) {
  hits_.Increment();
  if (e.prefetched) {
    e.prefetched = false;
    prefetch_hits_.Increment();
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
  misses_.Increment();
  STEGFS_RETURN_IF_ERROR(EnsureRoom(shard));
  Entry e;
  e.block = block;
  e.data.resize(device_->block_size());
  {
    obs::LatencyTimer fill_timer(&fill_ns_);
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
  const uint64_t seq = ++shard->write_seq;
  if (policy_ == WritePolicy::kWriteThrough) {
    STEGFS_RETURN_IF_ERROR(device_->WriteBlock(block, data));
  }
  auto found = shard->map.find(block);
  if (found != shard->map.end()) {
    Entry& e = Touch(shard, found->second);
    CountHit(e);
    std::memcpy(e.data.data(), data, e.data.size());
    MarkWritten(shard, &e);
    e.wseq = seq;
    return Status::OK();
  }
  misses_.Increment();
  STEGFS_RETURN_IF_ERROR(EnsureRoom(shard));
  Entry e;
  e.block = block;
  e.data.assign(data, data + device_->block_size());
  MarkWritten(shard, &e);
  e.wseq = seq;
  shard->lru.push_front(std::move(e));
  shard->map[block] = shard->lru.begin();
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
  batched_reads_.Add(n);

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
      obs::LatencyTimer fill_timer(&fill_ns_);
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
        misses_.Increment();
      } else {
        hits_.Increment();  // evicted pass-1 hit
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
  batched_writes_.Add(n);
  auto groups = GroupByShard(blocks, n);
  std::vector<ConstBlockIoVec> iov;
  for (size_t idx = 0; idx < groups.size(); ++idx) {
    const std::vector<size_t>& group = groups[idx];
    if (group.empty()) continue;
    Shard* shard = &shards_[idx];
    std::lock_guard<std::shared_mutex> lock(locks_.stripe(idx));
    shard->gen++;  // invalidates in-flight async reads' snapshots
    const uint64_t seq = ++shard->write_seq;

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
        e.wseq = seq;
        continue;
      }
      misses_.Increment();
      STEGFS_RETURN_IF_ERROR(EnsureRoom(shard));
      Entry e;
      e.block = blocks[pos];
      e.data.assign(data + pos * bs, data + pos * bs + bs);
      MarkWritten(shard, &e);
      e.wseq = seq;
      shard->lru.push_front(std::move(e));
      shard->map[blocks[pos]] = shard->lru.begin();
    }
  }
  return Status::OK();
}

void BufferCache::SetAsyncEngine(AsyncBlockDevice* engine) {
  async_engine_.store(engine, std::memory_order_release);
}

CacheIoTicket BufferCache::ReadBatchAsync(const uint64_t* blocks, size_t n,
                                          uint8_t* out) {
  CacheIoTicket result;
  AsyncBlockDevice* engine = async_engine();
  if (engine == nullptr || n == 0) {
    result.base_ = ReadBatch(blocks, n, out);
    return result;
  }
  const size_t bs = device_->block_size();
  batched_reads_.Add(n);
  async_batched_reads_.Add(n);

  auto groups = GroupByShard(blocks, n);
  std::unordered_map<uint64_t, size_t> first_pos;  // block -> first miss pos
  for (size_t idx = 0; idx < groups.size(); ++idx) {
    const std::vector<size_t>& group = groups[idx];
    if (group.empty()) continue;
    Shard* shard = &shards_[idx];
    std::vector<BlockIoVec> iov;
    std::vector<std::pair<size_t, size_t>> dups;
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
          continue;
        }
        auto [it, fresh] = first_pos.try_emplace(blocks[pos], pos);
        if (fresh) {
          misses_.Increment();
          iov.push_back({blocks[pos], out + pos * bs});
        } else {
          // Sync-replay parity: the first occurrence is the miss, later
          // duplicates find the freshly inserted entry and count as hits.
          hits_.Increment();
          dups.push_back({pos, it->second});
        }
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
        [this, idx, iov = std::move(iov),
         dups = std::move(dups), gen, out, bs, fill_t0,
         span_ctx](const Status& s) {
          obs::Span span(span_ctx, "cache.fill", "cache");
          if (fill_t0 != 0) fill_ns_.Record(obs::NowNanos() - fill_t0);
          if (!s.ok()) return;  // nothing inserted; Wait() reports the error
          for (const auto& [pos, first] : dups) {
            std::memcpy(out + pos * bs, out + first * bs, bs);
          }
          CompleteAsyncRead(idx, iov, gen, /*prefetch=*/false);
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
    if (prefetch) prefetched_.Increment();
  }
}

CacheIoTicket BufferCache::WriteBatchAsync(const uint64_t* blocks, size_t n,
                                           const uint8_t* data) {
  CacheIoTicket result;
  AsyncBlockDevice* engine = async_engine();
  // Write-back never touches the device here, and duplicate blocks need
  // the sync path's ordering (async batches are unordered).
  bool sync_fallback =
      engine == nullptr || n == 0 || policy_ != WritePolicy::kWriteThrough;
  if (!sync_fallback) {
    std::unordered_set<uint64_t> seen;
    for (size_t i = 0; i < n && !sync_fallback; ++i) {
      sync_fallback = !seen.insert(blocks[i]).second;
    }
  }
  if (sync_fallback) {
    result.base_ = WriteBatch(blocks, n, data);
    return result;
  }
  const size_t bs = device_->block_size();
  batched_writes_.Add(n);
  async_batched_writes_.Add(n);

  auto groups = GroupByShard(blocks, n);
  for (size_t idx = 0; idx < groups.size(); ++idx) {
    const std::vector<size_t>& group = groups[idx];
    if (group.empty()) continue;
    uint64_t seq;
    {
      // The device mutation begins now: claim the shard's next write
      // sequence (per block, so later writers supersede us per block, not
      // per shard) and invalidate in-flight read snapshots.
      std::lock_guard<std::shared_mutex> lock(locks_.stripe(idx));
      Shard* shard = &shards_[idx];
      shard->gen++;
      seq = ++shard->write_seq;
      for (size_t pos : group) shard->pending_writes[blocks[pos]] = seq;
    }
    std::vector<ConstBlockIoVec> iov;
    iov.reserve(group.size());
    for (size_t pos : group) iov.push_back({blocks[pos], data + pos * bs});
    std::vector<size_t> positions = group;
    const obs::SpanContext span_ctx = obs::CurrentSpanContext();
    result.tickets_.push_back(engine->SubmitWrite(
        std::move(iov),
        [this, idx, positions = std::move(positions), blocks, data, seq,
         span_ctx](const Status& s) {
          obs::Span span(span_ctx, "cache.write_complete", "cache");
          CompleteAsyncWrite(idx, positions, blocks, data, seq, s);
        }));
  }
  return result;
}

void BufferCache::CompleteAsyncWrite(size_t idx,
                                     const std::vector<size_t>& positions,
                                     const uint64_t* blocks,
                                     const uint8_t* data, uint64_t seq,
                                     const Status& status) {
  const size_t bs = device_->block_size();
  Shard* shard = &shards_[idx];
  std::lock_guard<std::shared_mutex> lock(locks_.stripe(idx));
  if (!status.ok()) {
    // Mid-batch device error: an unknown prefix landed, so drop exactly
    // this group's entries — the cache then re-reads the device's
    // authoritative bytes. Never dirty under write-through, so dropping
    // loses nothing.
    for (size_t pos : positions) {
      auto claim = shard->pending_writes.find(blocks[pos]);
      if (claim != shard->pending_writes.end() && claim->second == seq) {
        shard->pending_writes.erase(claim);
      }
      auto found = shard->map.find(blocks[pos]);
      if (found != shard->map.end()) {
        shard->lru.erase(found->second);
        shard->map.erase(found);
      }
    }
    return;
  }
  // Replay the entry updates per block: keep anything a NEWER write set
  // (its bytes supersede ours in the device too, for serialized
  // writers), take ours otherwise. This per-block ordering is what lets
  // a pipeline's sibling sub-batches — disjoint blocks, same shard —
  // each cache their own group.
  for (size_t pos : positions) {
    auto claim = shard->pending_writes.find(blocks[pos]);
    const bool latest_claim =
        claim != shard->pending_writes.end() && claim->second == seq;
    if (latest_claim) shard->pending_writes.erase(claim);
    auto found = shard->map.find(blocks[pos]);
    if (found != shard->map.end()) {
      if (found->second->wseq > seq) continue;  // superseded: keep newer
      Entry& e = Touch(shard, found->second);
      CountHit(e);
      std::memcpy(e.data.data(), data + pos * bs, bs);
      e.dirty = false;
      e.wseq = seq;
      continue;
    }
    // No entry: safe to insert only while our claim is still the
    // block's latest (a later in-flight async write, or a DropAll that
    // cleared the claims, means our bytes may not be what the device
    // will hold).
    if (!latest_claim) continue;
    misses_.Increment();
    if (!EnsureRoom(shard).ok()) return;
    Entry e;
    e.block = blocks[pos];
    e.data.assign(data + pos * bs, data + pos * bs + bs);
    e.wseq = seq;
    shard->lru.push_front(std::move(e));
    shard->map[e.block] = shard->lru.begin();
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
  writebacks_.Increment();
  auto found = shard->map.find(block);
  if (found != shard->map.end() && found->second->dirty &&
      std::memcmp(found->second->data.data(), data, bs) == 0) {
    found->second->dirty = false;
  }
  return Status::OK();
}

void BufferCache::SetPrefetchPool(concurrency::ThreadPool* pool) {
  prefetch_pool_.store(pool, std::memory_order_release);
}

void BufferCache::PopulateShard(size_t idx,
                                const std::vector<uint64_t>& blocks) {
  // Sub-batches of a few blocks, each fully under the shard lock (the
  // device read must stay inside the lock for the same reason the demand
  // path's does — an unlocked read could insert bytes staler than a
  // racing write), but releasing between sub-batches bounds how long a
  // demand access can stall behind background I/O.
  constexpr size_t kSubBatch = 8;
  const size_t bs = device_->block_size();
  Shard* shard = &shards_[idx];
  std::vector<uint8_t> buf(kSubBatch * bs);
  std::vector<BlockIoVec> iov;
  for (size_t start = 0; start < blocks.size(); start += kSubBatch) {
    const size_t end = std::min(blocks.size(), start + kSubBatch);
    std::lock_guard<std::shared_mutex> lock(locks_.stripe(idx));
    iov.clear();
    for (size_t i = start; i < end; ++i) {
      if (shard->map.find(blocks[i]) == shard->map.end()) {
        iov.push_back({blocks[i], buf.data() + iov.size() * bs});
      }
    }
    if (iov.empty()) continue;
    // Best-effort: a failed prefetch read just leaves the blocks uncached.
    if (!device_->ReadBlocks(iov.data(), iov.size()).ok()) return;
    for (size_t i = 0; i < iov.size(); ++i) {
      if (!EnsureRoom(shard).ok()) return;
      Entry e;
      e.block = iov[i].block;
      e.data.assign(buf.data() + i * bs, buf.data() + (i + 1) * bs);
      e.prefetched = true;
      shard->lru.push_front(std::move(e));
      shard->map[e.block] = shard->lru.begin();
      prefetched_.Increment();
    }
  }
}

void BufferCache::Prefetch(const uint64_t* blocks, size_t n) {
  if (n == 0) return;
  std::vector<uint64_t> wanted;
  wanted.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (blocks[i] < device_->num_blocks()) wanted.push_back(blocks[i]);
  }
  if (wanted.empty()) return;

  AsyncBlockDevice* engine = async_engine();
  if (engine != nullptr) {
    // Pure submitter: the engine carries the I/O and its completion
    // handler does the insert, so no pool thread ever blocks on a
    // background read. Fire-and-forget: the dropped ticket is covered by
    // the engine's Drain/destructor, and a failed read just leaves the
    // blocks uncached.
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
                           CompleteAsyncRead(idx, iov, gen,
                                             /*prefetch=*/true);
                         });
    }
    return;
  }

  concurrency::ThreadPool* pool =
      prefetch_pool_.load(std::memory_order_acquire);
  if (pool == nullptr) return;
  pool->Submit([this, wanted = std::move(wanted)] {
    auto groups = GroupByShard(wanted.data(), wanted.size());
    for (size_t idx = 0; idx < groups.size(); ++idx) {
      if (groups[idx].empty()) continue;
      std::vector<uint64_t> shard_blocks;
      shard_blocks.reserve(groups[idx].size());
      for (size_t pos : groups[idx]) shard_blocks.push_back(wanted[pos]);
      PopulateShard(idx, shard_blocks);
    }
  });
}

Status BufferCache::FlushShard(Shard* shard,
                               const std::unordered_set<uint64_t>* hold_back) {
  // One vectored write-back per shard, ascending by LBA so contiguous
  // dirty extents coalesce on the device. On error every entry stays
  // dirty (re-written by the next flush — idempotent). Held-back blocks
  // (the journal's parked metadata images) are skipped entirely.
  if (!shard->has_dirty) return Status::OK();
  auto parked = ParkedSnapshot();
  std::vector<Entry*> dirty;
  bool skipped = false;
  for (Entry& e : shard->lru) {
    if (!e.dirty) continue;
    if ((hold_back != nullptr && hold_back->count(e.block) != 0) ||
        (parked != nullptr && parked->count(e.block) != 0)) {
      skipped = true;
      continue;
    }
    dirty.push_back(&e);
  }
  shard->has_dirty = skipped;
  if (dirty.empty()) return Status::OK();
  std::sort(dirty.begin(), dirty.end(),
            [](const Entry* a, const Entry* b) { return a->block < b->block; });
  std::vector<ConstBlockIoVec> iov;
  iov.reserve(dirty.size());
  for (const Entry* e : dirty) iov.push_back({e->block, e->data.data()});
  Status written = device_->WriteBlocks(iov.data(), iov.size());
  if (!written.ok()) {
    shard->has_dirty = true;
    return written;
  }
  for (Entry* e : dirty) e->dirty = false;
  writebacks_.Add(dirty.size());
  return Status::OK();
}

void BufferCache::ParkBlocks(
    std::shared_ptr<const std::unordered_set<uint64_t>> blocks) {
  std::lock_guard<std::mutex> lock(parked_mu_);
  parked_ = std::move(blocks);
}

Status BufferCache::WriteBackDirty(
    const std::unordered_set<uint64_t>* hold_back) {
  dirty_epoch_.fetch_add(1, std::memory_order_relaxed);
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
  auto* self = const_cast<BufferCache*>(this);
  for (size_t i = 0; i < shards_.size(); ++i) {
    std::lock_guard<std::shared_mutex> lock(self->locks_.stripe(i));
    for (const Entry& e : shards_[i].lru) {
      if (e.dirty) ++n;
    }
  }
  return n;
}

void BufferCache::DropAll() {
  concurrency::StripedSharedMutex::ExclusiveAllGuard all(&locks_);
  for (Shard& shard : shards_) {
    shard.lru.clear();
    shard.map.clear();
    // Callers drop the cache because the device was rewritten underneath
    // it; anything read OR written before the rewrite must not come back
    // (cleared claims make in-flight async write completions skip their
    // re-inserts too).
    shard.gen++;
    shard.pending_writes.clear();
  }
}

CacheStats BufferCache::stats() const {
  CacheStats s;
  s.hits = hits_.value();
  s.misses = misses_.value();
  s.evictions = evictions_.value();
  s.writebacks = writebacks_.value();
  s.batched_reads = batched_reads_.value();
  s.batched_writes = batched_writes_.value();
  s.prefetched = prefetched_.value();
  s.prefetch_hits = prefetch_hits_.value();
  s.async_batched_reads =
      async_batched_reads_.value();
  s.async_batched_writes =
      async_batched_writes_.value();
  return s;
}

void BufferCache::RegisterMetrics(obs::MetricsRegistry* reg) const {
  reg->RegisterCounter("stegfs_cache_hits_total", "Cache demand hits",
                       &hits_);
  reg->RegisterCounter("stegfs_cache_misses_total", "Cache demand misses",
                       &misses_);
  reg->RegisterCounter("stegfs_cache_evictions_total", "LRU evictions",
                       &evictions_);
  reg->RegisterCounter("stegfs_cache_writebacks_total",
                       "Dirty block write-backs", &writebacks_);
  reg->RegisterCounter("stegfs_cache_batched_reads_total",
                       "Blocks read through batch calls", &batched_reads_);
  reg->RegisterCounter("stegfs_cache_batched_writes_total",
                       "Blocks written through batch calls",
                       &batched_writes_);
  reg->RegisterCounter("stegfs_cache_prefetched_total",
                       "Blocks inserted by the prefetcher", &prefetched_);
  reg->RegisterCounter("stegfs_cache_prefetch_hits_total",
                       "Prefetched blocks claimed by demand reads",
                       &prefetch_hits_);
  reg->RegisterCounter("stegfs_cache_async_batched_reads_total",
                       "Blocks read through the async batch path",
                       &async_batched_reads_);
  reg->RegisterCounter("stegfs_cache_async_batched_writes_total",
                       "Blocks written through the async batch path",
                       &async_batched_writes_);
  reg->RegisterHistogram("stegfs_cache_fill_seconds",
                         "Demand miss fill latency (device read)",
                         &fill_ns_);
}

size_t BufferCache::size() const {
  size_t total = 0;
  auto* self = const_cast<BufferCache*>(this);
  for (size_t i = 0; i < shards_.size(); ++i) {
    std::lock_guard<std::shared_mutex> lock(self->locks_.stripe(i));
    total += shards_[i].map.size();
  }
  return total;
}

}  // namespace stegfs
