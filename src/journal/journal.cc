#include "journal/journal.h"

#include "obs/trace.h"

#include <cassert>
#include <cstring>
#include <map>

#include "crypto/sha256.h"
#include "journal/recovery.h"
#include "util/coding.h"

namespace stegfs {
namespace journal {

// One transaction parked in the stage queue. `entries` / `parked` are
// immutable after Stage; `done` / `result` are written by the resolving
// batch leader and read by the owner, both under stage_mu_.
struct StagedTxn {
  std::vector<JournalEntry> entries;
  std::unordered_set<uint64_t> parked;
  bool done = false;
  Status result;
};

uint64_t ScrubSeed(const uint8_t* dummy_seed, size_t len) {
  crypto::Sha256 h;
  h.Update("stegfs-journal-scrub:", 21);
  h.Update(dummy_seed, len);
  crypto::Sha256Digest d = h.Finish();
  uint64_t seed = 0;
  for (int i = 0; i < 8; ++i) seed = (seed << 8) | d[i];
  return seed;
}

void ScrubNoise(uint64_t seed, uint64_t pos, uint8_t* buf, size_t len) {
  // Position-keyed so scrubbing any subset of the ring, in any order, at
  // any time produces the same resting bytes.
  Xoshiro rng(seed ^ (pos * 0x9e3779b97f4a7c15ULL) ^ 0x6a6f75726e616cULL);
  rng.FillBytes(buf, len);
}

WriteAheadJournal::WriteAheadJournal(BlockDevice* device, BufferCache* cache,
                                     uint64_t journal_start,
                                     uint32_t journal_blocks,
                                     uint64_t scrub_seed,
                                     concurrency::GroupBarrier* barrier)
    : device_(device),
      cache_(cache),
      barrier_(barrier),
      journal_start_(journal_start),
      journal_blocks_(journal_blocks),
      scrub_seed_(scrub_seed) {
  assert(journal_blocks_ >= 2);
}

size_t WriteAheadJournal::MaxPayloadBlocks() const {
  const size_t by_ring = journal_blocks_ - 1;  // descriptor takes one
  const size_t by_targets =
      (device_->block_size() - kDescriptorHeaderBytes) / 8;
  return by_ring < by_targets ? by_ring : by_targets;
}

Status WriteAheadJournal::Barrier() {
  obs::Span span("journal.barrier", "journal");
  obs::LatencyTimer timer(&metrics_.barrier_ns);
  metrics_.barrier_syncs.Increment();
  if (barrier_ != nullptr) return barrier_->Arrive();
  return device_->Sync();
}

Status WriteAheadJournal::WriteRing(uint64_t pos, const uint8_t* buf) {
  return device_->WriteBlock(journal_start_ + (pos % journal_blocks_), buf);
}

void WriteAheadJournal::AddParked(uint64_t block) {
  std::lock_guard<std::mutex> lock(parked_mu_);
  parked_counts_[block]++;
  RepublishParkedLocked();
}

void WriteAheadJournal::ReleaseParked(
    const std::unordered_set<uint64_t>& blocks) {
  if (blocks.empty()) return;
  std::lock_guard<std::mutex> lock(parked_mu_);
  for (uint64_t b : blocks) {
    auto it = parked_counts_.find(b);
    if (it == parked_counts_.end()) continue;
    if (--it->second == 0) parked_counts_.erase(it);
  }
  RepublishParkedLocked();
}

void WriteAheadJournal::RepublishParkedLocked() {
  if (parked_counts_.empty()) {
    cache_->ParkBlocks(nullptr);
    return;
  }
  auto snap = std::make_shared<std::unordered_set<uint64_t>>();
  snap->reserve(parked_counts_.size());
  for (const auto& kv : parked_counts_) snap->insert(kv.first);
  cache_->ParkBlocks(std::move(snap));
}

WriteAheadJournal::CommitTicket WriteAheadJournal::Stage(
    std::vector<JournalEntry> entries, std::unordered_set<uint64_t> parked) {
  if (entries.empty()) {
    // Nothing to commit; hand back the park refcounts we were given.
    ReleaseParked(parked);
    return CommitTicket();
  }
  auto txn = std::make_shared<StagedTxn>();
  txn->entries = std::move(entries);
  txn->parked = std::move(parked);
  {
    std::lock_guard<std::mutex> lock(stage_mu_);
    queue_.push_back(txn);
  }
  CommitTicket ticket;
  ticket.journal_ = this;
  ticket.txn_ = txn;
  return ticket;
}

Status WriteAheadJournal::CommitTicket::Wait() {
  if (journal_ == nullptr) return Status::OK();
  WriteAheadJournal* j = journal_;
  std::shared_ptr<StagedTxn> txn = std::move(txn_);
  journal_ = nullptr;
  return j->Await(txn);
}

Status WriteAheadJournal::Commit(
    const std::vector<JournalEntry>& entries,
    const std::unordered_set<uint64_t>& hold_back) {
  if (entries.empty()) return Status::OK();
  for (uint64_t b : hold_back) AddParked(b);
  CommitTicket ticket = Stage(entries, hold_back);
  return ticket.Wait();
}

Status WriteAheadJournal::Await(const std::shared_ptr<StagedTxn>& txn) {
  obs::Span commit_span("journal.commit", "journal");
  obs::LatencyTimer commit_timer(&metrics_.commit_ns);
  std::unique_lock<std::mutex> lock(stage_mu_);
  for (;;) {
    if (txn->done) return txn->result;
    if (!executing_) {
      executing_ = true;
      std::vector<std::shared_ptr<StagedTxn>> batch = PopBatchLocked();
      lock.unlock();
      Status s = RunBatch(batch);
      lock.lock();
      executing_ = false;
      for (const std::shared_ptr<StagedTxn>& member : batch) {
        member->done = true;
        member->result = s;
      }
      stage_cv_.notify_all();
      // Our transaction need not have been in the batch we just led (it
      // can sit behind an oversized one); loop until it resolves.
      continue;
    }
    stage_cv_.wait(lock);
  }
}

std::vector<std::shared_ptr<StagedTxn>> WriteAheadJournal::PopBatchLocked() {
  std::vector<std::shared_ptr<StagedTxn>> batch;
  const size_t cap = MaxPayloadBlocks();
  std::unordered_set<uint64_t> blocks;
  while (!queue_.empty()) {
    const std::shared_ptr<StagedTxn>& head = queue_.front();
    if (head->entries.size() > cap) {
      // Oversized transactions take the overflow path and run alone.
      if (batch.empty()) {
        batch.push_back(head);
        queue_.pop_front();
      }
      break;
    }
    // Admit while the batch's DISTINCT blocks still fit one record.
    // Transactions share bitmap / inode-table / directory blocks heavily,
    // so the merged count grows far slower than the transaction count.
    size_t added = 0;
    for (const JournalEntry& e : head->entries) {
      if (blocks.count(e.block) == 0) ++added;
    }
    if (!batch.empty() && blocks.size() + added > cap) break;
    for (const JournalEntry& e : head->entries) blocks.insert(e.block);
    batch.push_back(head);
    queue_.pop_front();
  }
  return batch;
}

Status WriteAheadJournal::RunOverflow(const StagedTxn& txn) {
  // Transaction larger than the ring: waive atomicity (per-block writes
  // stay atomic at the device level) but keep durability ordering — data
  // first, then metadata, each behind a barrier. CheckpointBlock keeps
  // each home write atomic against concurrent flushers.
  metrics_.overflow_fallbacks.Increment();
  std::unordered_set<uint64_t> hold_back;
  hold_back.reserve(txn.entries.size());
  for (const JournalEntry& e : txn.entries) hold_back.insert(e.block);
  Status s = cache_->WriteBackDirty(&hold_back);
  if (s.ok()) s = Barrier();
  STEGFS_RETURN_IF_ERROR(s);
  std::map<uint64_t, const std::vector<uint8_t>*> merged;
  for (const JournalEntry& e : txn.entries) merged[e.block] = &e.image;
  for (const auto& kv : merged) {
    STEGFS_RETURN_IF_ERROR(cache_->CheckpointBlock(kv.first, kv.second->data()));
  }
  return Barrier();
}

Status WriteAheadJournal::RunBatch(
    const std::vector<std::shared_ptr<StagedTxn>>& batch) {
  const uint32_t bs = device_->block_size();
  bool parks_released = false;
  auto release_parks = [&] {
    if (parks_released) return;
    parks_released = true;
    for (const std::shared_ptr<StagedTxn>& t : batch) {
      ReleaseParked(t->parked);
    }
  };

  if (failed_) {
    release_parks();
    return Status::FailedPrecondition(
        "journal poisoned by an unscrubbable record; remount to recover");
  }

  metrics_.group_batches.Increment();
  metrics_.group_txns.Add(batch.size());

  // Merge the batch into one record image set: the NEWEST image per block
  // wins. Stage order is capture order (transactions capture under the FS
  // metadata lock), and every capture snapshots monotone in-memory state,
  // so a later image of a shared block already contains every earlier
  // transaction's effect on it.
  std::map<uint64_t, const std::vector<uint8_t>*> merged;
  size_t images = 0;
  for (const std::shared_ptr<StagedTxn>& t : batch) {
    for (const JournalEntry& e : t->entries) {
      assert(e.image.size() == bs);
      ++images;
      merged[e.block] = &e.image;
    }
  }
  metrics_.group_merged_blocks.Add(images - merged.size());

  if (merged.size() > MaxPayloadBlocks()) {
    assert(batch.size() == 1);
    Status s = RunOverflow(*batch.front());
    release_parks();
    return s;
  }

  // 1. Ordered data: everything dirty EXCEPT the batch's metadata images
  //    must be durable before the record can commit — otherwise a
  //    committed operation could reference garbage data. The members'
  //    dir/pointer/inode images are additionally PARKED (since stage), so
  //    no concurrent flusher can push them home before the record exists;
  //    the hold_back list covers the rest (bitmap images) for this flush.
  std::unordered_set<uint64_t> hold_back;
  hold_back.reserve(merged.size());
  for (const auto& kv : merged) hold_back.insert(kv.first);
  Status ordered = cache_->WriteBackDirty(&hold_back);
  if (ordered.ok()) ordered = Barrier();
  if (!ordered.ok()) {
    release_parks();
    return ordered;
  }

  // 2. The record. Checksum over (seq, targets, payload) makes the record
  //    self-authenticating: valid-after-crash iff every byte landed, so
  //    the barrier below is the commit point — for the WHOLE batch at
  //    once, which is the atomicity argument for merging instead of
  //    writing one record per transaction.
  obs::Span record_span("journal.record", "journal");
  obs::LatencyTimer record_timer(&metrics_.record_ns);
  const uint64_t seq = next_seq_++;
  crypto::Sha256 h;
  uint8_t tmp[8];
  EncodeFixed64(tmp, seq);
  h.Update(tmp, 8);
  EncodeFixed32(tmp, static_cast<uint32_t>(merged.size()));
  h.Update(tmp, 4);
  for (const auto& kv : merged) {
    EncodeFixed64(tmp, kv.first);
    h.Update(tmp, 8);
  }
  for (const auto& kv : merged) h.Update(kv.second->data(), bs);
  crypto::Sha256Digest digest = h.Finish();

  std::vector<uint8_t> descriptor(bs, 0);
  uint8_t* p = descriptor.data();
  EncodeFixed32(p, kRecordMagic);
  EncodeFixed32(p + 4, kRecordVersion);
  EncodeFixed64(p + 8, seq);
  EncodeFixed32(p + 16, static_cast<uint32_t>(merged.size()));
  std::memcpy(p + 24, digest.data(), digest.size());
  {
    size_t i = 0;
    for (const auto& kv : merged) {
      EncodeFixed64(p + kDescriptorHeaderBytes + i * 8, kv.first);
      ++i;
    }
  }
  // Unused descriptor tail: noise, so a live descriptor's entropy profile
  // stays close to the resting ring (only the structured header differs).
  if (kDescriptorHeaderBytes + merged.size() * 8 < bs) {
    const size_t used = kDescriptorHeaderBytes + merged.size() * 8;
    Xoshiro filler(scrub_seed_ ^ seq);
    filler.FillBytes(descriptor.data() + used, bs - used);
  }

  const uint64_t base = head_;
  const size_t used_blocks = merged.size() + 1;
  std::vector<ConstBlockIoVec> iov;
  iov.reserve(used_blocks);
  iov.push_back(
      {journal_start_ + (base % journal_blocks_), descriptor.data()});
  {
    size_t i = 0;
    for (const auto& kv : merged) {
      iov.push_back({journal_start_ + ((base + 1 + i) % journal_blocks_),
                     kv.second->data()});
      ++i;
    }
  }
  // The record goes straight to the device; the barrier below is what
  // commits.
  Status wrote = device_->WriteBlocks(iov.data(), iov.size());
  if (wrote.ok()) wrote = Barrier();  // <- commit point
  record_timer.Stop();
  record_span.Close();
  if (!wrote.ok()) {
    // The record may sit half-written (or fully, un-synced) in the ring;
    // leaving it could replay stale images over whatever later
    // transactions do. Scrub it away — or poison the journal.
    ScrubRecordOrPoison(base, used_blocks);
    release_parks();
    return wrote;
  }
  metrics_.records_committed.Increment();
  metrics_.blocks_journaled.Add(merged.size());
  // Committed: concurrent flushers may now write the images home.
  release_parks();

  // 3. Checkpoint the images to their home locations and make them
  //    durable. CheckpointBlock writes under the block's cache-shard lock
  //    and can never regress a strictly newer cached image, so it is safe
  //    against whatever concurrent sessions stage next.
  obs::Span checkpoint_span("journal.checkpoint", "journal");
  obs::LatencyTimer checkpoint_timer(&metrics_.checkpoint_ns);
  Status checkpoint;
  for (const auto& kv : merged) {
    checkpoint = cache_->CheckpointBlock(kv.first, kv.second->data());
    if (!checkpoint.ok()) break;
  }
  if (checkpoint.ok()) checkpoint = Barrier();
  if (!checkpoint.ok()) {
    // Committed but not checkpointed. The record MUST NOT outlive this
    // batch's status as the newest state, so scrub it here too; a remount
    // would otherwise need revoke-style tracking to replay it safely
    // after later commits. The images are re-marked dirty by the members'
    // failure handling (PlainFs::FinishCommit) and reach the device
    // through ordinary write-back.
    ScrubRecordOrPoison(base, used_blocks);
    return checkpoint;
  }

  // 4. Scrub: with the checkpoint durable the record is dead weight — and
  //    a deniability liability. Re-noise its blocks (no barrier needed:
  //    the next batch's first barrier orders the scrub before any newer
  //    record exists, and until then the record replays idempotently).
  //    A scrub WRITE failure, though, must poison the journal and
  //    surface: a record we cannot kill would replay stale images over
  //    whatever non-journaled metadata writes (the hidden path's
  //    PersistMeta) land afterwards.
  std::vector<uint8_t> noise(bs);
  for (size_t i = 0; i < used_blocks; ++i) {
    const uint64_t pos = (base + i) % journal_blocks_;
    ScrubNoise(scrub_seed_, pos, noise.data(), bs);
    Status s = WriteRing(pos, noise.data());
    if (!s.ok()) {
      failed_ = true;
      return s;
    }
  }
  metrics_.scrubbed_blocks.Add(used_blocks);
  head_ = (base + used_blocks) % journal_blocks_;
  return Status::OK();
}

void WriteAheadJournal::ScrubRecordOrPoison(uint64_t base,
                                            size_t used_blocks) {
  std::vector<uint8_t> noise(device_->block_size());
  for (size_t i = 0; i < used_blocks; ++i) {
    const uint64_t pos = (base + i) % journal_blocks_;
    ScrubNoise(scrub_seed_, pos, noise.data(), noise.size());
    if (!WriteRing(pos, noise.data()).ok()) {
      failed_ = true;
      return;
    }
  }
  if (!device_->Sync().ok()) {
    failed_ = true;
    return;
  }
  metrics_.scrubbed_blocks.Add(used_blocks);
}

Status WriteAheadJournal::ScrubStaleRecords(uint64_t* live_records,
                                            uint64_t* scrubbed_blocks) {
  *live_records = 0;
  *scrubbed_blocks = 0;
  // Take the executing claim: no batch is mid-record while we scan, and
  // none can start until we release. Queued transactions simply commit
  // after us — their records are not in the ring yet.
  {
    std::unique_lock<std::mutex> lock(stage_mu_);
    stage_cv_.wait(lock, [&] { return !executing_; });
    executing_ = true;
  }
  Status result = [&]() -> Status {
    uint64_t torn = 0;
    STEGFS_ASSIGN_OR_RETURN(
        std::vector<JournalRecord> live,
        JournalRecovery::ScanRing(device_, journal_start_, journal_blocks_,
                                  &torn));
    *live_records = live.size();
    if (live.empty()) return Status::OK();
    // A live record can only exist mid-session because a commit's own
    // scrub failed and poisoned the journal. In every path that gets
    // there, the record's content is REDUNDANT with the live in-memory
    // state (the checkpoint either completed, or the failure re-marked
    // the metadata dirty so it flows through ordinary write-back — the
    // caller flushes current state durably before invoking this, see
    // PlainFs::Fsck). Replaying here would write STALE images beneath the
    // live cache; scrubbing is the correct and sufficient move.
    std::vector<uint8_t> noise(device_->block_size());
    for (const JournalRecord& rec : live) {
      const size_t used = rec.entries.size() + 1;
      for (size_t i = 0; i < used; ++i) {
        const uint64_t pos = (rec.ring_pos + i) % journal_blocks_;
        ScrubNoise(scrub_seed_, pos, noise.data(), noise.size());
        STEGFS_RETURN_IF_ERROR(WriteRing(pos, noise.data()));
        ++*scrubbed_blocks;
      }
    }
    metrics_.scrubbed_blocks.Add(*scrubbed_blocks);
    STEGFS_RETURN_IF_ERROR(device_->Sync());
    // The ring is at rest again; lift the poison so commits can resume.
    failed_ = false;
    return Status::OK();
  }();
  {
    std::lock_guard<std::mutex> lock(stage_mu_);
    executing_ = false;
  }
  stage_cv_.notify_all();
  return result;
}

}  // namespace journal
}  // namespace stegfs
