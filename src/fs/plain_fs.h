// PlainFs: the ext2-like file system substrate — superblock, block bitmap,
// central directory (inode table), hierarchical directories and regular
// files. On its own it is the "native Linux file system" baseline of the
// paper (CleanDisk when mounted with contiguous allocation, FragDisk with
// 8-block-fragment allocation). StegFS (src/core) composes with it: hidden
// objects share this bitmap and buffer cache but never appear in this inode
// table.
//
// Thread-safety: every public path/metadata operation runs under one
// internal mutex, so a mounted PlainFs may be driven from many threads.
// This coarse lock is deliberate — plain-namespace traffic is not the
// concurrency-critical path (hidden-object I/O is, and it only meets this
// lock in PersistMeta/Flush). The component accessors (cache(), bitmap())
// return objects with their own internal locking; inode_table() and
// file_io() are for maintenance flows (backup, escrow) that require a
// quiescent volume.
#ifndef STEGFS_FS_PLAIN_FS_H_
#define STEGFS_FS_PLAIN_FS_H_

#include <array>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_set>
#include <vector>

#include "blockdev/block_device.h"
#include "blockdev/thread_pool_async_device.h"
#include "cache/buffer_cache.h"
#include "fault/health.h"
#include "fault/retry_policy.h"
#include "fault/retrying_device.h"
#include "concurrency/group_barrier.h"
#include "fs/bitmap.h"
#include "fs/directory.h"
#include "fs/file_io.h"
#include "fs/inode.h"
#include "fs/layout.h"
#include "journal/journal.h"
#include "journal/recovery.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/random.h"
#include "util/status.h"
#include "util/statusor.h"

namespace stegfs {

struct FormatOptions {
  // 0 = auto-size (one inode per 64 data blocks, clamped to [256, 262144]).
  uint32_t num_inodes = 0;
  // StegFS parameters recorded in the superblock (Table 1 defaults).
  StegParams steg;
  // Set by StegFS::Format after random-filling the volume.
  bool steg_formatted = false;
  std::array<uint8_t, 32> dummy_seed = {};
  // Write-ahead journal ring size in blocks (0 = no journal region — the
  // historical format, and what every pre-journal volume decodes as).
  // The region is carved from the front of the data region and bitmap-
  // marked like metadata. Mounting with Durability::kJournal requires it.
  uint32_t journal_blocks = 0;
};

// Which async I/O engine a mount attaches to its buffer cache (see
// docs/ARCHITECTURE.md "I/O engine").
enum class IoEngine {
  // No engine: the call-and-wait batch path. The default — every
  // seeded test relies on its exact locking and accounting.
  kSync,
  // ThreadPoolAsyncDevice over the mount's data_device(). What the C API
  // mounts use.
  kAuto,
};

// Crash-consistency level of a mount.
enum class Durability {
  // Historical behavior: metadata lives in memory until Flush, nothing is
  // transactional. The default — every seeded test pins this path.
  kNone,
  // Every metadata-mutating operation commits through the write-ahead
  // journal (ordered data flush -> record -> checkpoint -> scrub; see
  // src/journal/journal.h) and hidden objects use the dual-header commit
  // protocol. Requires a volume formatted with a journal region and the
  // kWriteBack cache policy (write-through defeats the ordered hold-back).
  kJournal,
};

struct MountOptions {
  AllocPolicy policy = AllocPolicy::kContiguous;
  size_t cache_blocks = 4096;
  // 0 = auto (one shard per 64 cache blocks, clamped to [1, 16]). The
  // multithreaded benches force 16 on small caches to keep miss I/O
  // overlappable.
  size_t cache_shards = 0;
  WritePolicy write_policy = WritePolicy::kWriteBack;
  uint64_t rng_seed = 0x5742;  // placement randomness (deterministic)
  // Readahead window in blocks after every extent read (plain AND hidden
  // files). 0 = off (the default, preserving seeded cache behavior).
  // When > 0 the prefetcher arms only where it can pay: the async engine
  // carries it, so kSync mounts leave it off, and on one core the
  // prefetch work steals the demand path's cycles (bench-measured 0.6x
  // at window 16), so single-core hosts leave it off too. The effective
  // state is observable: readahead_blocks() and steg_stats'
  // readahead_window report the degradation.
  uint32_t readahead_blocks = 0;
  // Async engine for the data path (hidden extents pipeline decrypt with
  // in-flight device I/O through it; see block_store.h).
  IoEngine io_engine = IoEngine::kSync;
  // Crash-consistency level (see Durability).
  Durability durability = Durability::kNone;
  // When false, downgrades the device's Flush() from fdatasync to
  // page-cache-only (FileBlockDevice only; in-memory devices ignore it).
  // The throughput benches opt out so data-path numbers don't pay an
  // fdatasync per flush; journal BARRIERS (Sync) are never affected.
  bool durable_flush = true;
  // Fault tolerance (see src/fault/ and docs/ARCHITECTURE.md §11). When
  // enabled — the default; the wrapper is byte-transparent and its
  // fault-free fast path adds no clock reads or allocations — one
  // RetryingBlockDevice sits between the device and everything that
  // transfers blocks (cache, journal, async engine), re-issuing
  // transient/timeout-classed I/O under `retry` before any fault
  // surfaces. Persistent/corruption faults and retry exhaustion feed the
  // mount's HealthMonitor (kHealthy -> kDegraded -> kReadOnly).
  struct FaultToleranceOptions {
    bool enabled = true;
    fault::RetryPolicy retry;
  } fault;
};

struct FileInfo {
  InodeType type = InodeType::kFree;
  uint64_t size = 0;
  uint64_t mtime = 0;
  uint32_t inode = 0;
};

// Per-operation latency histograms of the plain namespace (one instance
// per mount, registered under stegfs_fs_*_seconds). Hidden-namespace ops
// get their own pair in StegFs; everything below them — cache, device,
// journal, crypto — is shared and registered once.
struct FsOpMetrics {
  obs::Histogram create_ns;
  obs::Histogram write_ns;  // WriteFile (truncate-and-rewrite)
  obs::Histogram write_at_ns;
  obs::Histogram read_ns;  // ReadFile and ReadAt
  obs::Histogram truncate_ns;
  obs::Histogram unlink_ns;
  obs::Histogram mkdir_ns;
  obs::Histogram rmdir_ns;
  obs::Histogram flush_ns;

  void RegisterWith(obs::MetricsRegistry* reg) const {
    reg->RegisterHistogram("stegfs_fs_create_seconds",
                           "Plain CreateFile latency", &create_ns);
    reg->RegisterHistogram("stegfs_fs_write_seconds",
                           "Plain WriteFile latency", &write_ns);
    reg->RegisterHistogram("stegfs_fs_write_at_seconds",
                           "Plain WriteAt latency", &write_at_ns);
    reg->RegisterHistogram("stegfs_fs_read_seconds",
                           "Plain ReadFile/ReadAt latency", &read_ns);
    reg->RegisterHistogram("stegfs_fs_truncate_seconds",
                           "Plain TruncateFile latency", &truncate_ns);
    reg->RegisterHistogram("stegfs_fs_unlink_seconds",
                           "Plain Unlink latency", &unlink_ns);
    reg->RegisterHistogram("stegfs_fs_mkdir_seconds", "Plain MkDir latency",
                           &mkdir_ns);
    reg->RegisterHistogram("stegfs_fs_rmdir_seconds", "Plain RmDir latency",
                           &rmdir_ns);
    reg->RegisterHistogram("stegfs_fs_flush_seconds", "Plain Flush latency",
                           &flush_ns);
  }
};

class PlainFs {
 public:
  // Writes a fresh file system onto `device` (superblock + bitmap + empty
  // central directory with a root directory). Does not touch data blocks.
  static Status Format(BlockDevice* device, const FormatOptions& options);

  // Mounts a formatted device.
  static StatusOr<std::unique_ptr<PlainFs>> Mount(BlockDevice* device,
                                                  const MountOptions& options);

  ~PlainFs();
  PlainFs(const PlainFs&) = delete;
  PlainFs& operator=(const PlainFs&) = delete;

  // --- Path API (absolute, '/'-separated) ------------------------------
  // Creates an empty regular file; AlreadyExists if the name is taken.
  Status CreateFile(const std::string& path);
  // Creates (or replaces the contents of) the file at `path`.
  Status WriteFile(const std::string& path, const std::string& data);
  StatusOr<std::string> ReadFile(const std::string& path);
  // Appends up to `n` bytes from `offset` to *out, stopping at end of
  // file; holes read as zeros.
  Status ReadAt(const std::string& path, uint64_t offset, uint64_t n,
                std::string* out);
  // Writes at `offset`, allocating blocks and growing the file as needed.
  Status WriteAt(const std::string& path, uint64_t offset,
                 const std::string& data);
  // Shrinks the file, freeing blocks past the new end; growing sets the
  // size without allocating (the gap reads as zeros).
  Status TruncateFile(const std::string& path, uint64_t new_size);
  Status Unlink(const std::string& path);
  Status MkDir(const std::string& path);
  Status RmDir(const std::string& path);
  StatusOr<std::vector<DirEntry>> List(const std::string& path);
  StatusOr<FileInfo> Stat(const std::string& path);
  bool Exists(const std::string& path);

  // Writes back all metadata and flushes the cache to the device.
  Status Flush();

  // --- Introspection & StegFS integration ------------------------------
  BlockDevice* device() { return device_; }
  // The device the cache, journal and async engine actually transfer
  // through: the retry decorator when fault tolerance is on, else the raw
  // device.
  BlockDevice* data_device() {
    return retry_device_ ? static_cast<BlockDevice*>(retry_device_.get())
                         : device_;
  }
  // The mount's degraded-mode state machine and fault/retry counters.
  fault::HealthMonitor* health() { return &health_; }
  fault::FaultStats* fault_stats() { return &fault_stats_; }
  const Superblock& superblock() const { return super_; }
  const Layout& layout() const { return layout_; }
  BlockBitmap* bitmap() { return &bitmap_; }
  BufferCache* cache() { return cache_.get(); }
  InodeTable* inode_table() { return &inodes_; }
  FileIo* file_io() { return &file_io_; }
  Xoshiro* rng() { return &rng_; }
  AllocPolicy policy() const { return options_.policy; }
  // Effective readahead window: 0 when off, including when the option was
  // requested but the mount has no async engine or the host no spare core
  // (steg_stats surfaces this as readahead_window so the degradation is
  // observable).
  uint32_t readahead_blocks() const { return options_.readahead_blocks; }
  // The attached async engine (nullptr on kSync mounts) and its name
  // ("sync" when none).
  ThreadPoolAsyncDevice* io_engine() const { return io_engine_.get(); }
  const char* io_engine_name() const {
    return io_engine_ ? io_engine_->engine_name() : "sync";
  }

  // The mount's observability surface: every component instrument of this
  // volume (cache, device, engine, journal, crypto, per-op histograms)
  // registers here at Mount, and per-op trace spans land in the recorder.
  // Both live ONLY in process memory — no block on the volume ever
  // carries metrics or trace bytes (the deniability rule).
  obs::MetricsRegistry* metrics_registry() { return &registry_; }
  obs::TraceRecorder* trace_recorder() { return &trace_; }
  FsOpMetrics* op_metrics() { return &op_metrics_; }

  // The mount's journal (nullptr on Durability::kNone mounts) and what
  // mount-time recovery found/replayed.
  journal::WriteAheadJournal* journal() { return journal_.get(); }
  // The volume-wide write-barrier coalescer (nullptr on kNone mounts):
  // journal batch barriers and hidden commit barriers share device syncs
  // through it.
  concurrency::GroupBarrier* commit_barrier() { return commit_barrier_.get(); }
  bool durable() const { return journal_ != nullptr; }
  const journal::RecoveryReport& recovery_report() const {
    return recovery_report_;
  }

  // Online scrubber: cross-checks the bitmap against plain reachability
  // (repairing the dangerous direction: referenced-but-unmarked blocks),
  // counts unaccounted allocations (abandoned + dummy + hidden + crash
  // leaks — indistinguishable by design, so reported, never reclaimed),
  // and verifies the journal ring holds no live records (scrubbing any
  // stragglers). Safe on a live volume; takes the metadata lock.
  Status Fsck(journal::FsckReport* out);

  // Marks every block reachable from the central directory (data + indirect
  // blocks of every inode) in `referenced` (sized num_blocks). Metadata
  // region blocks are also marked, as is the journal region. Backup uses
  // the complement of this set.
  Status CollectReferencedBlocks(std::vector<uint8_t>* referenced);

  // Persists bitmap + inode table through the cache (no device flush).
  Status PersistMeta();

  // Effective bytes stored in plain files (for space experiments).
  uint64_t TotalPlainBytes() const;

 private:
  class PolicyAllocator : public BlockAllocator {
   public:
    PolicyAllocator(PlainFs* fs) : fs_(fs) {}
    StatusOr<uint64_t> AllocateBlock() override {
      return fs_->bitmap_.AllocateByPolicy(fs_->options_.policy, &fs_->rng_);
    }
    Status FreeBlock(uint64_t block) override {
      // Inside a journal transaction the free is DEFERRED to commit:
      // clearing the bit early would let this same operation reallocate
      // and overwrite a block the committed on-disk state still
      // references — the exact in-place tear the journal exists to stop.
      if (fs_->txn_active_) {
        fs_->txn_pending_frees_.push_back(block);
        return Status::OK();
      }
      return fs_->bitmap_.Free(block);
    }

   private:
    PlainFs* fs_;
  };

  // Builds the mount's I/O stack over `device`, bottom up: the retry
  // decorator (fault-tolerant mounts), the cache over data_device() and,
  // on kAuto mounts, the thread-pool engine over data_device() too. Mount
  // has already validated the superblock and replayed the journal.
  PlainFs(BlockDevice* device, const Superblock& super,
          const MountOptions& options);

  // Everything an operation hands to FinishCommit after dropping the
  // metadata lock: the staged transaction's ticket (invalid on kNone
  // mounts and metadata-free operations) and the operation's deferred
  // block frees. Frees apply only after the commit RESOLVES — the record
  // must carry the pre-free bitmap, or a crash in the commit window could
  // let a replay hand a still-referenced block to the next allocation.
  struct PendingCommit {
    journal::WriteAheadJournal::CommitTicket ticket;
    std::vector<uint64_t> frees;
  };

  // RAII journal transaction for one metadata-mutating operation (no-op
  // on kNone mounts). Construction arms the mapper's meta recorder and
  // the deferred-free list; Commit() captures the after-images (bitmap +
  // inode-table dirty blocks, recorded directory/pointer blocks) and
  // STAGES them for group commit, filling *pc — the operation then calls
  // FinishCommit(pc) after releasing the metadata lock to wait out the
  // batch. Destruction without Commit aborts, applying deferred frees
  // directly (legacy semantics for failed ops).
  class TxnGuard {
   public:
    explicit TxnGuard(PlainFs* fs);
    ~TxnGuard();
    Status Commit(PendingCommit* pc);
    // Directory mutations route their store through this so directory
    // data blocks land in the record (plain store when not journaling).
    BlockStore* dir_store();

   private:
    PlainFs* fs_;
    RecordingStore recorder_;
    bool committed_ = false;
  };
  friend class TxnGuard;

  void BeginTxnLocked();
  Status CommitTxnLocked(PendingCommit* pc);
  void AbortTxnLocked();
  // Second half of every mutating operation, called WITHOUT mu_: waits
  // for the staged transaction's batch to resolve (possibly leading it),
  // then applies the deferred frees under mu_. On a failed commit the
  // captured images are re-marked dirty so the in-memory state still
  // reaches the device through ordinary write-back.
  Status FinishCommit(PendingCommit pc);

  // Splits "/a/b/c" into components; rejects empty/relative paths.
  static StatusOr<std::vector<std::string>> SplitPath(const std::string& path);
  // *Locked variants assume mu_ is already held (public methods compose
  // from these instead of re-locking).
  Status CreateFileLocked(const std::string& path, BlockStore* dir_store);
  Status PersistMetaLocked();
  Status CollectReferencedBlocksLocked(std::vector<uint8_t>* referenced);
  bool ExistsLocked(const std::string& path);
  // Inode of the directory containing `path` plus the leaf name.
  StatusOr<std::pair<uint32_t, std::string>> ResolveParent(
      const std::string& path);
  StatusOr<uint32_t> ResolvePath(const std::string& path);

  // Publishes every component instrument of this mount into registry_
  // (constructor-built components; Mount adds the journal's after it
  // exists).
  void RegisterInstruments();

  // Declared first (destroyed last): registry_ holds raw pointers into
  // the components below, trace_ is written by their spans.
  obs::MetricsRegistry registry_;
  obs::TraceRecorder trace_;
  FsOpMetrics op_metrics_;
  // Fault-tolerance state, declared before the retry decorator that holds
  // pointers into it (and destroyed after it).
  fault::FaultStats fault_stats_;
  fault::HealthMonitor health_;

  // Guards the path/metadata machinery below (inodes_, dir_ops_, file_io_
  // state, rng_). The cache and bitmap carry their own locks.
  mutable std::mutex mu_;
  BlockDevice* device_;
  Superblock super_;
  Layout layout_;
  MountOptions options_;
  // Declared before cache_, the journal and the engine: all three
  // transfer through this decorator, so it must outlive them. nullptr when
  // options_.fault.enabled is false.
  std::unique_ptr<fault::RetryingBlockDevice> retry_device_;
  std::unique_ptr<BufferCache> cache_;
  BlockBitmap bitmap_;
  InodeTable inodes_;
  FileIo file_io_;
  CacheBlockStore store_;
  Directory dir_ops_;
  PolicyAllocator allocator_;
  Xoshiro rng_;
  // Journal state (kJournal mounts only). Txn fields are guarded by mu_
  // (every transaction runs under the metadata lock). The commit barrier
  // is declared before the journal (which holds a raw pointer to it) so
  // it is destroyed after; it coalesces the volume's write barriers —
  // journal batch barriers and hidden-object commit barriers share
  // device syncs through it.
  std::unique_ptr<concurrency::GroupBarrier> commit_barrier_;
  std::unique_ptr<journal::WriteAheadJournal> journal_;
  journal::RecoveryReport recovery_report_;
  bool txn_active_ = false;
  MetaWriteLog txn_meta_blocks_;  // dir data + pointer blocks; its
                                  // on_record hook parks each block in the
                                  // journal before the write lands
  std::unordered_set<uint64_t> txn_parked_;  // blocks THIS txn parked
  std::vector<uint64_t> txn_pending_frees_;  // deferred until commit
  // Declared last (destroyed first): engine destructors drain, and
  // in-flight completion handlers touch cache_, which outlives the engine.
  std::unique_ptr<ThreadPoolAsyncDevice> io_engine_;
};

}  // namespace stegfs

#endif  // STEGFS_FS_PLAIN_FS_H_
