// WriteAheadJournal: the crash-consistency engine for plain-FS metadata.
//
// StegFS keeps hidden files alive through bookkeeping alone (bitmap
// claims, unlisted random-placed blocks); a crash that tears a multi-step
// metadata update can silently destroy both plain and hidden data. The
// journal makes every plain metadata mutation atomic with physical redo
// logging. Commits are GROUP-COMMITTED: concurrent sessions
// stage their transactions into a shared queue, and the first waiter to
// find the journal idle becomes the batch leader — it drains the queue
// (bounded by the ring), merges the transactions' after-images into ONE
// record, and runs the ordered protocol once for everyone:
//
//   1. ORDERED DATA  - file data (everything except the batch's held-back
//                      metadata images) is flushed and a write barrier
//                      (device Sync) makes it durable, so
//                      a committed record never references garbage data.
//   2. RECORD        - the merged after-images of every metadata block
//                      the batch touched (bitmap blocks, inode-table
//                      blocks, directory data blocks, indirect pointer
//                      blocks; a block multiple transactions touched
//                      contributes only its NEWEST image — later images
//                      contain the earlier transactions' effects, because
//                      every metadata writer snapshots monotone in-memory
//                      state under the FS lock) are written into the
//                      journal ring as ONE self-authenticating record
//                      (descriptor + payload, SHA-256 over the whole
//                      thing), then a barrier. A record is committed iff
//                      it checksums — a torn record is indistinguishable
//                      from noise and simply never replays, so the WHOLE
//                      BATCH commits atomically (no cross-record torn
//                      subsets, which is why the batch is one record and
//                      not one record per transaction) and the barrier is
//                      the commit point with no separate commit block.
//   3. CHECKPOINT    - each image is written to its home location with
//                      BufferCache::CheckpointBlock — atomic against
//                      concurrent flushers under the block's shard lock,
//                      and unable to regress a strictly newer cached
//                      image — then a barrier.
//   4. SCRUB         - the record's journal blocks are overwritten with
//                      keyed noise. This bounds replay (at most the
//                      newest record is ever live, so redo can never
//                      clobber a since-reallocated block — the jbd2
//                      "revoke" problem solved by construction) AND is
//                      the deniability argument: the journal region at
//                      rest is pure noise, bit-indistinguishable whether
//                      or not hidden levels exist. Hidden-level commit
//                      state NEVER enters this region — it rides the
//                      dual-header protocol in core/hidden_object.h,
//                      encrypted under the level key and chained from the
//                      object's header, so an unopened level's journal
//                      entries look like any other random block.
//
// The payoff: N concurrent transactions pay ~3 barriers TOTAL instead of
// 3 each — fdatasync, the dominant durable-write cost, is amortized
// across the batch. A single-threaded mount stages and immediately leads
// a one-transaction batch: the ordered protocol above, once per call.
//
// Parked blocks: a staged transaction's uncommitted metadata images
// (directory data, indirect pointer and inode-table blocks) sit dirty in
// the cache until its batch commits; the park refcounts here keep every
// write-back path (including other batches' ordered flushes and the
// hidden commit barrier) off them for exactly that window. Bitmap blocks
// are deliberately NOT parked: flushing an uncommitted allocation early
// is harmless (a crash turns it into an abandoned block, absorbed by the
// paper's own abandoned-block concept), frees are deferred until AFTER
// the commit resolves (PlainFs::FinishCommit), and the hidden commit
// protocol ("bitmap durable before the anchor references it") must be
// able to flush bitmap bytes at any moment.
//
// Lock hierarchy: the stage lock sits BELOW the PlainFs metadata lock
// (Stage is called under it) and is never held across I/O; the executing
// flag is the commit serialization point, claimed by batch leaders and
// the fsck scrubber. The leader runs WITHOUT the PlainFs metadata lock —
// waiters park on the stage lock only, so fsck (which holds the metadata
// lock) can always wait out a running batch without deadlock.
#ifndef STEGFS_JOURNAL_JOURNAL_H_
#define STEGFS_JOURNAL_JOURNAL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "blockdev/block_device.h"
#include "cache/buffer_cache.h"
#include "concurrency/group_barrier.h"
#include "obs/metrics.h"
#include "util/random.h"
#include "util/status.h"
#include "util/statusor.h"

namespace stegfs {
namespace journal {

// Descriptor-block magic. Present only while a record is live (between
// write and post-checkpoint scrub); at rest the region holds noise.
inline constexpr uint32_t kRecordMagic = 0x534a524e;  // "SJRN"
inline constexpr uint32_t kRecordVersion = 1;
// Descriptor layout: magic(4) version(4) seq(8) count(4) pad(4) sha(32),
// then count u64 target block numbers.
inline constexpr size_t kDescriptorHeaderBytes = 56;

// One metadata block after-image.
struct JournalEntry {
  uint64_t block = 0;
  std::vector<uint8_t> image;
};

// A decoded committed record (recovery's unit of replay).
struct JournalRecord {
  uint64_t seq = 0;
  uint64_t ring_pos = 0;  // descriptor offset within the ring
  std::vector<JournalEntry> entries;
};

// The journal's instruments; a mount registers them under
// stegfs_journal_* names.
struct JournalMetrics {
  obs::Counter records_committed;
  obs::Counter blocks_journaled;    // payload blocks written to the ring
  obs::Counter barrier_syncs;       // write barriers issued by commits
  obs::Counter overflow_fallbacks;  // txns too big for the ring (direct
                                    // checkpoint, atomicity waived)
  obs::Counter scrubbed_blocks;     // ring blocks re-noised after checkpoint
  // Group commit: transactions committed through batches, batch rounds
  // executed (txns / batches = measured batching factor), and duplicate
  // after-images merged away across a batch.
  obs::Counter group_txns;
  obs::Counter group_batches;
  obs::Counter group_merged_blocks;
  // Commit-phase latency: the full per-transaction commit (stage to
  // resolution), the record write up to its commit-point barrier, each
  // barrier, and the checkpoint phase.
  obs::Histogram commit_ns;
  obs::Histogram record_ns;
  obs::Histogram barrier_ns;
  obs::Histogram checkpoint_ns;

  void RegisterWith(obs::MetricsRegistry* reg) const {
    reg->RegisterCounter("stegfs_journal_records_committed_total",
                         "Committed journal records", &records_committed);
    reg->RegisterCounter("stegfs_journal_blocks_journaled_total",
                         "Payload blocks written to the ring",
                         &blocks_journaled);
    reg->RegisterCounter("stegfs_journal_barrier_syncs_total",
                         "Device barriers issued by commits", &barrier_syncs);
    reg->RegisterCounter("stegfs_journal_overflow_fallbacks_total",
                         "Transactions too large for the ring",
                         &overflow_fallbacks);
    reg->RegisterCounter("stegfs_journal_scrubbed_blocks_total",
                         "Ring blocks re-noised after checkpoint",
                         &scrubbed_blocks);
    reg->RegisterCounter(
        "stegfs_journal_group_txns_total",
        "Transactions committed through group-commit batches", &group_txns);
    reg->RegisterCounter("stegfs_journal_group_batches_total",
                         "Group-commit batch rounds executed", &group_batches);
    reg->RegisterCounter("stegfs_journal_group_merged_blocks_total",
                         "Duplicate after-images merged away across batches",
                         &group_merged_blocks);
    reg->RegisterHistogram("stegfs_journal_commit_seconds",
                           "Full commit latency (stage to batch resolution)",
                           &commit_ns);
    reg->RegisterHistogram("stegfs_journal_record_seconds",
                           "Record write latency up to the commit barrier",
                           &record_ns);
    reg->RegisterHistogram("stegfs_journal_barrier_seconds",
                           "Write barrier (write-back + device sync) latency",
                           &barrier_ns);
    reg->RegisterHistogram("stegfs_journal_checkpoint_seconds",
                           "Checkpoint phase latency", &checkpoint_ns);
  }
};

// One staged-but-unresolved transaction (defined in journal.cc).
struct StagedTxn;

// Derives the deterministic scrub-noise seed for a volume. Keyed by the
// superblock's dummy seed so two volumes formatted with the same entropy
// scrub to IDENTICAL bytes — the deniability suite compares them
// bit-for-bit.
uint64_t ScrubSeed(const uint8_t* dummy_seed, size_t len);

// Fills `buf` with the ring's scrub noise for ring offset `pos`. The
// noise is a pure function of (seed, pos), so scrubbing is idempotent and
// independent of scrub order.
void ScrubNoise(uint64_t seed, uint64_t pos, uint8_t* buf, size_t len);

class WriteAheadJournal {
 public:
  // `device`, `cache` outlive the journal; `barrier` may be null
  // (barriers then run inline as one device Sync — the
  // direct-construction test path).
  // `scrub_seed` comes from ScrubSeed over the superblock's dummy seed.
  // Recovery must have already run (the ring is assumed scrubbed; head
  // starts at 0).
  WriteAheadJournal(BlockDevice* device, BufferCache* cache,
                    uint64_t journal_start, uint32_t journal_blocks,
                    uint64_t scrub_seed,
                    concurrency::GroupBarrier* barrier = nullptr);

  // Waitable handle for one staged transaction. Wait() participates in
  // the leader/follower protocol: the first waiter to find the journal
  // idle executes the batch at the head of the queue (possibly including
  // other transactions) on its own thread; everyone else sleeps until a
  // leader resolves their transaction. Must be called WITHOUT the PlainFs
  // metadata lock (the leader's barrier work must never wait on it).
  class CommitTicket {
   public:
    CommitTicket() = default;
    bool valid() const { return journal_ != nullptr; }
    Status Wait();

   private:
    friend class WriteAheadJournal;
    WriteAheadJournal* journal_ = nullptr;
    std::shared_ptr<StagedTxn> txn_;
  };

  // Stages one atomic metadata transaction for group commit and returns
  // immediately. The caller must already hold park refcounts (AddParked)
  // on `parked` — the transaction's uncommitted dir/pointer/inode images
  // — and ownership transfers here: the batch releases them when the
  // transaction resolves, success or failure. Call under the lock that
  // serializes metadata capture (PlainFs's): stage order is seq order.
  CommitTicket Stage(std::vector<JournalEntry> entries,
                     std::unordered_set<uint64_t> parked);

  // Commits one transaction synchronously: parks `hold_back`, stages and
  // waits. A single-threaded caller leads its own one-transaction batch;
  // concurrent callers batch.
  Status Commit(const std::vector<JournalEntry>& entries,
                const std::unordered_set<uint64_t>& hold_back);

  // Park refcounting over the cache's parked set. A block stays parked —
  // skipped by EVERY write-back path — while any staged transaction holds
  // a count on it; the journal republishes the merged set to the cache on
  // every change. AddParked is the incremental hook PlainFs fires when a
  // transaction first touches a dir/pointer block (record-before-write,
  // so the uncommitted bytes are parked before any flusher can see them).
  void AddParked(uint64_t block);
  void ReleaseParked(const std::unordered_set<uint64_t>& blocks);

  // Capacity of one record's payload given the ring and block size (the
  // descriptor consumes one ring block; its target list must also fit).
  // Also the batch merge bound: a batch's DISTINCT blocks fit one record.
  size_t MaxPayloadBlocks() const;

  // Fsck hook: waits out any running batch, then — with the executing
  // claim held, so no record is in flight — scans the ring for live
  // records and scrubs any found (they can only be left behind by a
  // scrub that failed mid-commit, which poisoned the journal). The caller
  // must have flushed current metadata durably first (the record's
  // content is redundant with live state by then — see PlainFs::Fsck);
  // on success the poison is lifted. Reports how many records were live
  // and how many ring blocks were re-noised.
  Status ScrubStaleRecords(uint64_t* live_records, uint64_t* scrubbed_blocks);

  uint32_t ring_blocks() const { return journal_blocks_; }
  uint64_t ring_start() const { return journal_start_; }

  // The journal's instruments (the journal keeps ownership; PlainFs
  // registers them at mount).
  const JournalMetrics& metrics() const { return metrics_; }

 private:
  friend class CommitTicket;

  // Leader/follower rendezvous; returns txn's resolution.
  Status Await(const std::shared_ptr<StagedTxn>& txn);
  // Pops the next batch: either one oversized transaction alone, or a
  // FIFO run of transactions whose merged distinct blocks fit one record.
  // Requires stage_mu_.
  std::vector<std::shared_ptr<StagedTxn>> PopBatchLocked();
  // Executes one batch end to end (ordered -> record -> checkpoint ->
  // scrub). Runs with the executing claim held and NO locks; the shared
  // Status resolves every member. Releases the batch's park refcounts.
  Status RunBatch(const std::vector<std::shared_ptr<StagedTxn>>& batch);
  // The oversized fallback: per-block-atomic direct checkpoint.
  Status RunOverflow(const StagedTxn& txn);

  // Full write barrier. Coalesced through the volume's GroupBarrier when
  // one is attached (concurrent hidden commits and batches then share
  // device syncs); an inline device Sync otherwise. Every write has
  // completed before its caller returns (the async engine carries reads
  // only), so the sync alone orders them.
  Status Barrier();
  // Writes one block directly to the device at ring offset pos (mod ring).
  Status WriteRing(uint64_t pos, const uint8_t* buf);
  // Failure path after a record reached the ring: scrub it so it can
  // never replay over state that later transactions move past. If even
  // the scrub fails, poison the journal — every further batch refuses,
  // which keeps the invariant "a live record is always the newest state"
  // that both mount recovery and the fsck scrubber rely on.
  void ScrubRecordOrPoison(uint64_t base, size_t used_blocks);
  // Rebuilds the cache's parked-set snapshot from parked_counts_.
  // Requires parked_mu_.
  void RepublishParkedLocked();

  BlockDevice* device_;
  BufferCache* cache_;
  concurrency::GroupBarrier* barrier_;
  uint64_t journal_start_;
  uint32_t journal_blocks_;
  uint64_t scrub_seed_;

  // Stage state: the queue and the leader handoff. Never held across I/O.
  std::mutex stage_mu_;
  std::condition_variable stage_cv_;
  std::deque<std::shared_ptr<StagedTxn>> queue_;
  bool executing_ = false;  // a batch (or the fsck scrubber) owns the ring

  // Ring state: touched only with the executing claim held.
  uint64_t next_seq_ = 1;
  uint64_t head_ = 0;    // next ring offset to write
  bool failed_ = false;  // poisoned: a record could not be scrubbed

  // Park refcounts (see AddParked); republished to the cache on change.
  mutable std::mutex parked_mu_;
  std::unordered_map<uint64_t, uint32_t> parked_counts_;

  JournalMetrics metrics_;
};

}  // namespace journal
}  // namespace stegfs

#endif  // STEGFS_JOURNAL_JOURNAL_H_
