#include "fs/plain_fs.h"

#include <algorithm>
#include <cassert>
#include <thread>
#include <utility>

#include "blockdev/thread_pool_async_device.h"

namespace stegfs {

namespace {

uint32_t AutoInodeCount(uint64_t num_blocks) {
  uint64_t n = num_blocks / 64;
  n = std::max<uint64_t>(n, 256);
  n = std::min<uint64_t>(n, 262144);
  return static_cast<uint32_t>(n);
}

}  // namespace

Status PlainFs::Format(BlockDevice* device, const FormatOptions& options) {
  Superblock sb;
  sb.block_size = device->block_size();
  sb.num_blocks = device->num_blocks();
  sb.num_inodes = options.num_inodes != 0 ? options.num_inodes
                                          : AutoInodeCount(sb.num_blocks);
  sb.steg_formatted = options.steg_formatted ? 1 : 0;
  sb.steg = options.steg;
  sb.dummy_seed = options.dummy_seed;

  Layout layout = sb.ComputeLayout();
  if (layout.data_start + options.journal_blocks + 16 > sb.num_blocks) {
    return Status::InvalidArgument("volume too small for metadata regions");
  }
  if (options.journal_blocks != 0) {
    if (options.journal_blocks < 8) {
      return Status::InvalidArgument("journal region must be >= 8 blocks");
    }
    // The ring sits at the front of the data region, bitmap-marked like
    // metadata so no allocator ever hands its blocks out.
    sb.journal_start = layout.data_start;
    sb.journal_blocks = options.journal_blocks;
  }

  std::vector<uint8_t> buf(sb.block_size, 0);
  STEGFS_RETURN_IF_ERROR(sb.EncodeTo(buf.data(), buf.size()));
  STEGFS_RETURN_IF_ERROR(device->WriteBlock(0, buf.data()));

  // Bitmap + inode table through a throwaway cache.
  BufferCache cache(device, 256, WritePolicy::kWriteBack);
  BlockBitmap bitmap(layout);
  for (uint32_t j = 0; j < sb.journal_blocks; ++j) {
    STEGFS_RETURN_IF_ERROR(bitmap.Allocate(sb.journal_start + j));
  }
  InodeTable inodes(&cache, layout);
  inodes.InitEmpty();
  // Root directory at inode 0.
  auto root = inodes.Allocate(InodeType::kDirectory);
  if (!root.ok()) return root.status();
  assert(root.value() == kRootInode);
  STEGFS_RETURN_IF_ERROR(bitmap.Store(&cache));
  STEGFS_RETURN_IF_ERROR(inodes.PersistAll());
  // Put the journal ring at its resting state (keyed scrub noise) so a
  // fresh volume is bit-identical to a recovered one — the deniability
  // baseline the crash suite compares against.
  if (sb.journal_blocks != 0) {
    const uint64_t seed =
        journal::ScrubSeed(sb.dummy_seed.data(), sb.dummy_seed.size());
    std::vector<uint8_t> noise(sb.block_size);
    for (uint32_t j = 0; j < sb.journal_blocks; ++j) {
      journal::ScrubNoise(seed, j, noise.data(), noise.size());
      STEGFS_RETURN_IF_ERROR(
          device->WriteBlock(sb.journal_start + j, noise.data()));
    }
  }
  return cache.Flush();
}

PlainFs::PlainFs(BlockDevice* device, const Superblock& super,
                 const MountOptions& options)
    : device_(device),
      super_(super),
      layout_(super.ComputeLayout()),
      options_(options),
      retry_device_(options.fault.enabled
                        ? std::make_unique<fault::RetryingBlockDevice>(
                              device, options.fault.retry, &fault_stats_,
                              &health_)
                        : nullptr),
      cache_(std::make_unique<BufferCache>(
          data_device(), options.cache_blocks, options.write_policy,
          options.cache_shards)),
      bitmap_(layout_),
      inodes_(cache_.get(), layout_),
      file_io_(layout_.block_size),
      store_(cache_.get()),
      dir_ops_(&file_io_, layout_.num_inodes),
      allocator_(this),
      rng_(options.rng_seed),
      // The engine transfers through the same retry decorator as the
      // cache and journal: each slice's ReadBlocks/WriteBlocks runs on a
      // pool thread, so a transient fault is retried (and backed off)
      // right there, inside the slice.
      io_engine_(options.io_engine == IoEngine::kAuto
                     ? std::make_unique<ThreadPoolAsyncDevice>(data_device())
                     : nullptr) {
  if (io_engine_ != nullptr) cache_->SetAsyncEngine(io_engine_.get());
  // Readahead needs a second core: even with an async engine (a pure
  // submitter — no thread ever blocks on the background read) the
  // completion inserts and hit copies still run on the demand path's only
  // core, and the bench measures that as a 0.6x LOSS at window 16 on one
  // core (sweep in BENCH_io.json). So the option degrades to off on
  // single-core hosts — observably: readahead_blocks() returns the
  // effective window and steg_stats surfaces readahead_active/window.
  // With two or more cores the engine carries the prefetch I/O; only
  // engineless mounts need the one-thread pool.
  if (options.readahead_blocks > 0 &&
      std::thread::hardware_concurrency() >= 2) {
    if (io_engine_ == nullptr) {
      prefetch_pool_ = std::make_unique<concurrency::ThreadPool>(1);
      cache_->SetPrefetchPool(prefetch_pool_.get());
    }
    file_io_.set_readahead(options.readahead_blocks);
  } else {
    options_.readahead_blocks = 0;
  }
  // Park-at-record: the moment a transaction writes a directory data or
  // indirect pointer block (the recorder fires BEFORE the bytes reach the
  // cache), the block joins the journal's parked set — no concurrent
  // flusher (another batch's ordered flush, a hidden commit barrier) can
  // push the uncommitted image to the device before this transaction's
  // record commits. The batch releases the refs when the txn resolves.
  txn_meta_blocks_.on_record = [this](uint64_t block) {
    if (!txn_active_ || journal_ == nullptr) return;
    if (txn_parked_.insert(block).second) journal_->AddParked(block);
  };
}

StatusOr<std::unique_ptr<PlainFs>> PlainFs::Mount(BlockDevice* device,
                                                  const MountOptions& options) {
  // Mount-time I/O (superblock probe, journal replay/scrub) runs before
  // the fs's own retry decorator exists, but it deserves the same
  // transient-fault absorption — a faulty-carrier mount shouldn't die on
  // one EIO blip during recovery. Stats/health aren't constructed yet, so
  // this throwaway wrapper retries silently.
  fault::RetryingBlockDevice mount_retry(device, options.fault.retry,
                                         /*stats=*/nullptr,
                                         /*health=*/nullptr);
  BlockDevice* mount_dev =
      options.fault.enabled ? static_cast<BlockDevice*>(&mount_retry) : device;
  std::vector<uint8_t> buf(device->block_size());
  STEGFS_RETURN_IF_ERROR(mount_dev->ReadBlock(0, buf.data()));
  STEGFS_ASSIGN_OR_RETURN(Superblock sb,
                          Superblock::DecodeFrom(buf.data(), buf.size()));
  if (sb.block_size != device->block_size() ||
      sb.num_blocks != device->num_blocks()) {
    return Status::Corruption("superblock geometry does not match device");
  }
  if (options.durability == Durability::kJournal) {
    if (sb.journal_blocks == 0) {
      return Status::FailedPrecondition(
          "durable mount requires a journal region (format with "
          "journal_blocks > 0)");
    }
    if (options.write_policy != WritePolicy::kWriteBack) {
      return Status::InvalidArgument(
          "incompatible write policy: Durability::kJournal requires "
          "WritePolicy::kWriteBack — write-through pushes every metadata "
          "write to the device immediately, defeating the ordered "
          "hold-back that keeps uncommitted images off disk until their "
          "journal record commits");
    }
  }
  // Set, not set-if-false: a device is shared across sequential mounts
  // (benches re-mount the same volume), so each mount must establish its
  // own flush durability explicitly.
  device->set_flush_durability(options.durable_flush
                                   ? FlushDurability::kDurable
                                   : FlushDurability::kCacheOnly);
  // Replay + scrub the journal ring on the RAW device before any cache
  // or bitmap state is built on top of it. Runs whenever the volume has a
  // ring, whatever this mount's durability: committed-but-uncheckpointed
  // state from a crashed durable mount must never be silently dropped.
  journal::RecoveryReport recovery_report;
  if (sb.journal_blocks != 0) {
    STEGFS_ASSIGN_OR_RETURN(recovery_report,
                            journal::JournalRecovery::Run(mount_dev, sb));
  }
  std::unique_ptr<PlainFs> fs(new PlainFs(device, sb, options));
  fs->recovery_report_ = recovery_report;
  if (options.durability == Durability::kJournal) {
    // One volume-wide write barrier, shared by journal batch commits and
    // hidden-object commit barriers: concurrent arrivals coalesce into a
    // single drain + write-back + sync round.
    PlainFs* raw = fs.get();
    fs->commit_barrier_ =
        std::make_unique<concurrency::GroupBarrier>([raw]() -> Status {
          if (raw->io_engine_ != nullptr) raw->io_engine_->Drain();
          STEGFS_RETURN_IF_ERROR(raw->cache_->WriteBackDirty());
          return raw->data_device()->Sync();
        });
    fs->journal_ = std::make_unique<journal::WriteAheadJournal>(
        fs->data_device(), fs->cache_.get(), fs->io_engine_.get(),
        sb.journal_start,
        sb.journal_blocks,
        journal::ScrubSeed(sb.dummy_seed.data(), sb.dummy_seed.size()),
        fs->commit_barrier_.get());
    fs->journal_->set_group_window(
        std::chrono::microseconds(options.group_commit_window_us));
  }
  STEGFS_ASSIGN_OR_RETURN(fs->bitmap_,
                          BlockBitmap::Load(fs->cache_.get(), fs->layout_));
  STEGFS_RETURN_IF_ERROR(fs->inodes_.Load());
  if (!fs->inodes_.Get(kRootInode)->InUse()) {
    return Status::Corruption("root directory inode missing");
  }
  fs->RegisterInstruments();
  return fs;
}

void PlainFs::RegisterInstruments() {
  op_metrics_.RegisterWith(&registry_);
  fault_stats_.RegisterWith(&registry_);
  health_.RegisterWith(&registry_);
  cache_->RegisterMetrics(&registry_);
  obs::GlobalCryptoMetrics().RegisterWith(&registry_);
  if (const DeviceMetrics* dm = device_->device_metrics()) {
    dm->RegisterWith(&registry_);
  }
  if (io_engine_ != nullptr) io_engine_->RegisterMetrics(&registry_);
  if (journal_ != nullptr) journal_->RegisterMetrics(&registry_);
  if (commit_barrier_ != nullptr) commit_barrier_->RegisterMetrics(&registry_);
}

PlainFs::~PlainFs() { (void)Flush(); }

PlainFs::TxnGuard::TxnGuard(PlainFs* fs)
    : fs_(fs), recorder_(&fs->store_, &fs->txn_meta_blocks_) {
  fs_->BeginTxnLocked();
}

PlainFs::TxnGuard::~TxnGuard() {
  if (!committed_) fs_->AbortTxnLocked();
}

Status PlainFs::TxnGuard::Commit(PendingCommit* pc) {
  // A persistent write fault can trip read-only BETWEEN the operation's
  // CheckWritable gate and here (the faulting write happened inside this
  // very transaction). Committing on top of a device that just proved it
  // cannot persist writes is how silent corruption happens — so don't:
  // leave committed_ unset and let the destructor abort, which applies
  // the deferred frees directly (the PR 5 machinery).
  if (fs_->txn_active_ &&
      fs_->health_.state() == fault::MountHealth::kReadOnly) {
    return fs_->health_.CheckWritable();
  }
  committed_ = true;
  return fs_->CommitTxnLocked(pc);
}

BlockStore* PlainFs::TxnGuard::dir_store() {
  return fs_->txn_active_ ? static_cast<BlockStore*>(&recorder_)
                          : static_cast<BlockStore*>(&fs_->store_);
}

void PlainFs::BeginTxnLocked() {
  if (journal_ == nullptr) return;
  txn_active_ = true;
  txn_meta_blocks_.clear();
  txn_parked_.clear();
  txn_pending_frees_.clear();
  file_io_.mapper()->set_meta_recorder(&txn_meta_blocks_);
}

void PlainFs::AbortTxnLocked() {
  if (!txn_active_) return;
  file_io_.mapper()->set_meta_recorder(nullptr);
  txn_active_ = false;
  // The operation failed mid-flight: apply its deferred frees directly
  // (legacy semantics — in-memory state is already best-effort here) and
  // hand back the park refs the record hook took.
  for (uint64_t b : txn_pending_frees_) (void)bitmap_.Free(b);
  txn_pending_frees_.clear();
  if (journal_ != nullptr) journal_->ReleaseParked(txn_parked_);
  txn_parked_.clear();
  txn_meta_blocks_.clear();
}

Status PlainFs::CommitTxnLocked(PendingCommit* pc) {
  if (!txn_active_) return Status::OK();
  file_io_.mapper()->set_meta_recorder(nullptr);
  txn_active_ = false;
  // Deferred frees move to the PendingCommit — they apply only after the
  // batch resolves (FinishCommit), so the record carries the PRE-free
  // bitmap. A crash inside the commit window then leaks the blocks as
  // permanently-abandoned (fsck counts them; the paper's abandoned-block
  // concept absorbs them) instead of risking a replayed record freeing a
  // block a later transaction already reallocated and wrote.
  pc->frees = std::move(txn_pending_frees_);
  txn_pending_frees_.clear();

  std::vector<std::pair<uint64_t, std::vector<uint8_t>>> bitmap_images;
  std::vector<std::pair<uint64_t, std::vector<uint8_t>>> inode_images;
  bitmap_.CollectDirty(&bitmap_images);
  inodes_.CollectDirty(&inode_images);

  // The parked set this transaction hands to the batch: the dir/pointer
  // blocks the record hook parked plus the inode-table images captured
  // below. Inode images must be parked from stage until the batch's
  // record commits — a concurrent flusher pushing them home early would
  // make an UNCOMMITTED operation partially visible after a crash. Bitmap
  // images are deliberately NOT parked: the hidden commit protocol needs
  // bitmap bytes flushable at any moment (data + bitmap durable before
  // the anchor references them), and flushing an uncommitted allocation
  // early is harmless — frees are deferred, so a crash turns it into an
  // abandoned block at worst.
  std::unordered_set<uint64_t> parked = std::move(txn_parked_);
  txn_parked_.clear();

  auto fail = [&](const Status& s) {
    journal_->ReleaseParked(parked);
    // CollectDirty consumed the dirty flags; nothing was staged, so the
    // in-memory state must still reach disk through the ordinary
    // Store/PersistAll path. Coarse re-marking is fine on an error path.
    bitmap_.MarkAllDirty();
    inodes_.MarkAllDirty();
    return s;
  };

  std::vector<journal::JournalEntry> entries;
  entries.reserve(bitmap_images.size() + inode_images.size() +
                  txn_meta_blocks_.blocks.size());
  for (auto& [block, image] : bitmap_images) {
    journal::JournalEntry e;
    e.block = block;
    e.image = std::move(image);
    entries.push_back(std::move(e));
  }
  for (auto& [block, image] : inode_images) {
    if (parked.insert(block).second) journal_->AddParked(block);
    journal::JournalEntry e;
    e.block = block;
    e.image = std::move(image);
    entries.push_back(std::move(e));
  }
  // Directory data + pointer blocks: their post-op bytes are sitting in
  // the cache (every dir/pointer write goes through it); read them back
  // as the after-images.
  std::unordered_set<uint64_t> seen;
  for (uint64_t b : txn_meta_blocks_.blocks) {
    if (!seen.insert(b).second) continue;  // dedup
    journal::JournalEntry e;
    e.block = b;
    e.image.resize(layout_.block_size);
    Status s = cache_->Read(b, e.image.data());
    if (!s.ok()) return fail(s);
    entries.push_back(std::move(e));
  }
  txn_meta_blocks_.clear();
  // Stage and return; the operation waits the batch out via FinishCommit
  // AFTER dropping mu_ — the batch leader must never need the metadata
  // lock (Fsck holds it while waiting for batch quiescence). Park refs
  // transfer to the journal with the stage.
  pc->ticket = journal_->Stage(std::move(entries), std::move(parked));
  return Status::OK();
}

Status PlainFs::FinishCommit(PendingCommit pc) {
  if (!pc.ticket.valid() && pc.frees.empty()) return Status::OK();
  Status s = pc.ticket.Wait();
  std::lock_guard<std::mutex> lock(mu_);
  // Frees apply on success AND failure: the in-memory inode state already
  // dropped these blocks (operations do not roll back in-memory effects
  // on a failed commit), so keeping the bits set would leak them from the
  // live allocator too.
  Status free_status;
  for (uint64_t b : pc.frees) {
    Status freed = bitmap_.Free(b);
    if (!freed.ok() && free_status.ok()) free_status = freed;
  }
  if (!s.ok()) {
    // The batch failed after the images' dirty flags were consumed at
    // capture; re-mark so the state still reaches the device through
    // ordinary write-back / the next clean unmount.
    bitmap_.MarkAllDirty();
    inodes_.MarkAllDirty();
    return s;
  }
  return free_status;
}

StatusOr<std::vector<std::string>> PlainFs::SplitPath(
    const std::string& path) {
  if (path.empty() || path[0] != '/') {
    return Status::InvalidArgument("path must be absolute: " + path);
  }
  std::vector<std::string> parts;
  size_t i = 1;
  while (i < path.size()) {
    size_t j = path.find('/', i);
    if (j == std::string::npos) j = path.size();
    if (j > i) {
      std::string part = path.substr(i, j - i);
      if (part == "." || part == "..") {
        return Status::InvalidArgument("relative components not supported");
      }
      parts.push_back(std::move(part));
    }
    i = j + 1;
  }
  return parts;
}

StatusOr<uint32_t> PlainFs::ResolvePath(const std::string& path) {
  STEGFS_ASSIGN_OR_RETURN(std::vector<std::string> parts, SplitPath(path));
  uint32_t ino = kRootInode;
  for (const std::string& part : parts) {
    Inode* node = inodes_.Get(ino);
    if (node->type != InodeType::kDirectory) {
      return Status::NotFound("not a directory on path: " + path);
    }
    STEGFS_ASSIGN_OR_RETURN(ino, dir_ops_.Lookup(*node, part, &store_));
  }
  return ino;
}

StatusOr<std::pair<uint32_t, std::string>> PlainFs::ResolveParent(
    const std::string& path) {
  STEGFS_ASSIGN_OR_RETURN(std::vector<std::string> parts, SplitPath(path));
  if (parts.empty()) {
    return Status::InvalidArgument("path has no leaf component: " + path);
  }
  uint32_t ino = kRootInode;
  for (size_t i = 0; i + 1 < parts.size(); ++i) {
    Inode* node = inodes_.Get(ino);
    if (node->type != InodeType::kDirectory) {
      return Status::NotFound("not a directory on path: " + path);
    }
    STEGFS_ASSIGN_OR_RETURN(ino, dir_ops_.Lookup(*node, parts[i], &store_));
  }
  if (inodes_.Get(ino)->type != InodeType::kDirectory) {
    return Status::NotFound("parent is not a directory: " + path);
  }
  return std::make_pair(ino, parts.back());
}

Status PlainFs::CreateFile(const std::string& path) {
  obs::Span span(&trace_, "fs.create", "fs");
  obs::LatencyTimer timer(&op_metrics_.create_ns);
  PendingCommit pc;
  {
    std::lock_guard<std::mutex> lock(mu_);
    STEGFS_RETURN_IF_ERROR(health_.CheckWritable());
    TxnGuard txn(this);
    STEGFS_RETURN_IF_ERROR(CreateFileLocked(path, txn.dir_store()));
    STEGFS_RETURN_IF_ERROR(txn.Commit(&pc));
  }
  return FinishCommit(std::move(pc));
}

Status PlainFs::CreateFileLocked(const std::string& path,
                                 BlockStore* dir_store) {
  STEGFS_ASSIGN_OR_RETURN(auto parent, ResolveParent(path));
  Inode* dir = inodes_.Get(parent.first);
  if (dir_ops_.Lookup(*dir, parent.second, &store_).ok()) {
    return Status::AlreadyExists("file exists: " + path);
  }
  STEGFS_ASSIGN_OR_RETURN(uint32_t ino, inodes_.Allocate(InodeType::kFile));
  bool dirty = false;
  Status s = dir_ops_.Add(dir, parent.second, ino, dir_store, &allocator_,
                          &dirty);
  if (!s.ok()) {
    (void)inodes_.FreeInode(ino);
    return s;
  }
  inodes_.MarkDirty(parent.first);
  return Status::OK();
}

Status PlainFs::WriteFile(const std::string& path, const std::string& data) {
  obs::Span span(&trace_, "fs.write_file", "fs");
  obs::LatencyTimer timer(&op_metrics_.write_ns);
  PendingCommit pc;
  {
    std::lock_guard<std::mutex> lock(mu_);
    STEGFS_RETURN_IF_ERROR(health_.CheckWritable());
    TxnGuard txn(this);
    if (!ExistsLocked(path)) {
      STEGFS_RETURN_IF_ERROR(CreateFileLocked(path, txn.dir_store()));
    }
    STEGFS_ASSIGN_OR_RETURN(uint32_t ino, ResolvePath(path));
    Inode* node = inodes_.Get(ino);
    if (node->type != InodeType::kFile) {
      return Status::InvalidArgument("not a regular file: " + path);
    }
    bool dirty = false;
    STEGFS_RETURN_IF_ERROR(
        file_io_.Truncate(node, 0, &store_, &allocator_, &dirty));
    STEGFS_RETURN_IF_ERROR(
        file_io_.Write(node, 0, data, &store_, &allocator_, &dirty));
    inodes_.MarkDirty(ino);
    STEGFS_RETURN_IF_ERROR(txn.Commit(&pc));
  }
  return FinishCommit(std::move(pc));
}

StatusOr<std::string> PlainFs::ReadFile(const std::string& path) {
  obs::Span span(&trace_, "fs.read_file", "fs");
  obs::LatencyTimer timer(&op_metrics_.read_ns);
  std::lock_guard<std::mutex> lock(mu_);
  STEGFS_ASSIGN_OR_RETURN(uint32_t ino, ResolvePath(path));
  const Inode* node = inodes_.Get(ino);
  if (node->type != InodeType::kFile) {
    return Status::InvalidArgument("not a regular file: " + path);
  }
  std::string out;
  STEGFS_RETURN_IF_ERROR(file_io_.Read(*node, 0, node->size, &store_, &out));
  return out;
}

Status PlainFs::ReadAt(const std::string& path, uint64_t offset, uint64_t n,
                       std::string* out) {
  obs::Span span(&trace_, "fs.read_at", "fs");
  obs::LatencyTimer timer(&op_metrics_.read_ns);
  std::lock_guard<std::mutex> lock(mu_);
  STEGFS_ASSIGN_OR_RETURN(uint32_t ino, ResolvePath(path));
  const Inode* node = inodes_.Get(ino);
  if (node->type != InodeType::kFile) {
    return Status::InvalidArgument("not a regular file: " + path);
  }
  return file_io_.Read(*node, offset, n, &store_, out);
}

Status PlainFs::WriteAt(const std::string& path, uint64_t offset,
                        const std::string& data) {
  obs::Span span(&trace_, "fs.write_at", "fs");
  obs::LatencyTimer timer(&op_metrics_.write_at_ns);
  PendingCommit pc;
  {
    std::lock_guard<std::mutex> lock(mu_);
    STEGFS_RETURN_IF_ERROR(health_.CheckWritable());
    TxnGuard txn(this);
    STEGFS_ASSIGN_OR_RETURN(uint32_t ino, ResolvePath(path));
    Inode* node = inodes_.Get(ino);
    if (node->type != InodeType::kFile) {
      return Status::InvalidArgument("not a regular file: " + path);
    }
    bool dirty = false;
    STEGFS_RETURN_IF_ERROR(
        file_io_.Write(node, offset, data, &store_, &allocator_, &dirty));
    inodes_.MarkDirty(ino);
    STEGFS_RETURN_IF_ERROR(txn.Commit(&pc));
  }
  return FinishCommit(std::move(pc));
}

Status PlainFs::TruncateFile(const std::string& path, uint64_t new_size) {
  obs::Span span(&trace_, "fs.truncate", "fs");
  obs::LatencyTimer timer(&op_metrics_.truncate_ns);
  PendingCommit pc;
  {
    std::lock_guard<std::mutex> lock(mu_);
    STEGFS_RETURN_IF_ERROR(health_.CheckWritable());
    TxnGuard txn(this);
    STEGFS_ASSIGN_OR_RETURN(uint32_t ino, ResolvePath(path));
    Inode* node = inodes_.Get(ino);
    if (node->type != InodeType::kFile) {
      return Status::InvalidArgument("not a regular file: " + path);
    }
    bool dirty = false;
    STEGFS_RETURN_IF_ERROR(
        file_io_.Truncate(node, new_size, &store_, &allocator_, &dirty));
    inodes_.MarkDirty(ino);
    STEGFS_RETURN_IF_ERROR(txn.Commit(&pc));
  }
  return FinishCommit(std::move(pc));
}

Status PlainFs::Unlink(const std::string& path) {
  obs::Span span(&trace_, "fs.unlink", "fs");
  obs::LatencyTimer timer(&op_metrics_.unlink_ns);
  PendingCommit pc;
  {
    std::lock_guard<std::mutex> lock(mu_);
    STEGFS_RETURN_IF_ERROR(health_.CheckWritable());
    TxnGuard txn(this);
    STEGFS_ASSIGN_OR_RETURN(auto parent, ResolveParent(path));
    Inode* dir = inodes_.Get(parent.first);
    STEGFS_ASSIGN_OR_RETURN(uint32_t ino,
                            dir_ops_.Lookup(*dir, parent.second, &store_));
    Inode* node = inodes_.Get(ino);
    if (node->type != InodeType::kFile) {
      return Status::InvalidArgument("not a regular file: " + path);
    }
    bool dirty = false;
    STEGFS_RETURN_IF_ERROR(
        file_io_.Truncate(node, 0, &store_, &allocator_, &dirty));
    STEGFS_RETURN_IF_ERROR(dir_ops_.Remove(dir, parent.second,
                                           txn.dir_store(), &allocator_,
                                           &dirty));
    inodes_.MarkDirty(parent.first);
    STEGFS_RETURN_IF_ERROR(inodes_.FreeInode(ino));
    STEGFS_RETURN_IF_ERROR(txn.Commit(&pc));
  }
  return FinishCommit(std::move(pc));
}

Status PlainFs::MkDir(const std::string& path) {
  obs::Span span(&trace_, "fs.mkdir", "fs");
  obs::LatencyTimer timer(&op_metrics_.mkdir_ns);
  PendingCommit pc;
  {
    std::lock_guard<std::mutex> lock(mu_);
    STEGFS_RETURN_IF_ERROR(health_.CheckWritable());
    TxnGuard txn(this);
    STEGFS_ASSIGN_OR_RETURN(auto parent, ResolveParent(path));
    Inode* dir = inodes_.Get(parent.first);
    if (dir_ops_.Lookup(*dir, parent.second, &store_).ok()) {
      return Status::AlreadyExists("entry exists: " + path);
    }
    STEGFS_ASSIGN_OR_RETURN(uint32_t ino,
                            inodes_.Allocate(InodeType::kDirectory));
    bool dirty = false;
    Status s = dir_ops_.Add(dir, parent.second, ino, txn.dir_store(),
                            &allocator_, &dirty);
    if (!s.ok()) {
      (void)inodes_.FreeInode(ino);
      return s;
    }
    inodes_.MarkDirty(parent.first);
    STEGFS_RETURN_IF_ERROR(txn.Commit(&pc));
  }
  return FinishCommit(std::move(pc));
}

Status PlainFs::RmDir(const std::string& path) {
  obs::Span span(&trace_, "fs.rmdir", "fs");
  obs::LatencyTimer timer(&op_metrics_.rmdir_ns);
  PendingCommit pc;
  {
    std::lock_guard<std::mutex> lock(mu_);
    STEGFS_RETURN_IF_ERROR(health_.CheckWritable());
    TxnGuard txn(this);
    STEGFS_ASSIGN_OR_RETURN(auto parent, ResolveParent(path));
    Inode* dir = inodes_.Get(parent.first);
    STEGFS_ASSIGN_OR_RETURN(uint32_t ino,
                            dir_ops_.Lookup(*dir, parent.second, &store_));
    Inode* node = inodes_.Get(ino);
    if (node->type != InodeType::kDirectory) {
      return Status::InvalidArgument("not a directory: " + path);
    }
    STEGFS_ASSIGN_OR_RETURN(bool empty, dir_ops_.Empty(*node, &store_));
    if (!empty) {
      return Status::FailedPrecondition("directory not empty: " + path);
    }
    bool dirty = false;
    STEGFS_RETURN_IF_ERROR(
        file_io_.Truncate(node, 0, &store_, &allocator_, &dirty));
    STEGFS_RETURN_IF_ERROR(dir_ops_.Remove(dir, parent.second,
                                           txn.dir_store(), &allocator_,
                                           &dirty));
    inodes_.MarkDirty(parent.first);
    STEGFS_RETURN_IF_ERROR(inodes_.FreeInode(ino));
    STEGFS_RETURN_IF_ERROR(txn.Commit(&pc));
  }
  return FinishCommit(std::move(pc));
}

StatusOr<std::vector<DirEntry>> PlainFs::List(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  STEGFS_ASSIGN_OR_RETURN(uint32_t ino, ResolvePath(path));
  const Inode* node = inodes_.Get(ino);
  if (node->type != InodeType::kDirectory) {
    return Status::InvalidArgument("not a directory: " + path);
  }
  return dir_ops_.List(*node, &store_);
}

StatusOr<FileInfo> PlainFs::Stat(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  STEGFS_ASSIGN_OR_RETURN(uint32_t ino, ResolvePath(path));
  const Inode* node = inodes_.Get(ino);
  FileInfo info;
  info.type = node->type;
  info.size = node->size;
  info.mtime = node->mtime;
  info.inode = ino;
  return info;
}

bool PlainFs::Exists(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  return ExistsLocked(path);
}

bool PlainFs::ExistsLocked(const std::string& path) {
  return ResolvePath(path).ok();
}

Status PlainFs::PersistMeta() {
  std::lock_guard<std::mutex> lock(mu_);
  return PersistMetaLocked();
}

Status PlainFs::PersistMetaLocked() {
  STEGFS_RETURN_IF_ERROR(bitmap_.Store(cache_.get()));
  return inodes_.PersistAll();
}

Status PlainFs::Flush() {
  obs::Span span(&trace_, "fs.flush", "fs");
  obs::LatencyTimer timer(&op_metrics_.flush_ns);
  {
    std::lock_guard<std::mutex> lock(mu_);
    STEGFS_RETURN_IF_ERROR(PersistMetaLocked());
  }
  return cache_->Flush();
}

Status PlainFs::CollectReferencedBlocks(std::vector<uint8_t>* referenced) {
  std::lock_guard<std::mutex> lock(mu_);
  return CollectReferencedBlocksLocked(referenced);
}

Status PlainFs::CollectReferencedBlocksLocked(
    std::vector<uint8_t>* referenced) {
  referenced->assign(layout_.num_blocks, 0);
  for (uint64_t b = 0; b < layout_.data_start; ++b) {
    (*referenced)[b] = 1;  // metadata region
  }
  for (uint32_t j = 0; j < super_.journal_blocks; ++j) {
    (*referenced)[super_.journal_start + j] = 1;  // journal ring
  }
  std::vector<uint64_t> blocks;
  for (uint32_t ino = 0; ino < inodes_.count(); ++ino) {
    const Inode* node = inodes_.Get(ino);
    if (!node->InUse()) continue;
    blocks.clear();
    STEGFS_RETURN_IF_ERROR(
        file_io_.mapper()->CollectBlocks(*node, &store_, &blocks));
    for (uint64_t b : blocks) {
      if (b < layout_.num_blocks) (*referenced)[b] = 1;
    }
  }
  return Status::OK();
}

Status PlainFs::Fsck(journal::FsckReport* out) {
  *out = journal::FsckReport();
  // Snapshot and repair under ONE continuous hold of the metadata lock:
  // dropping it in between would let a concurrent unlink free a block
  // the stale snapshot still shows referenced, and the "repair" would
  // permanently leak it while reporting false corruption.
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<uint8_t> referenced;
  STEGFS_RETURN_IF_ERROR(CollectReferencedBlocksLocked(&referenced));
  // One bitmap snapshot instead of a per-block lock acquisition — this
  // loop runs over every block while holding the metadata lock.
  const std::vector<uint8_t> bits = bitmap_.SnapshotBits();
  for (uint64_t b = 0; b < layout_.num_blocks; ++b) {
    const bool ref = referenced[b] != 0;
    const bool alloc = (bits[b / 8] >> (b % 8)) & 1;
    if (ref) {
      ++out->referenced_blocks;
      if (!alloc) {
        // The dangerous tear: live plain data on a block the allocators
        // consider free. Re-mark it before anything overwrites it.
        STEGFS_RETURN_IF_ERROR(bitmap_.Allocate(b));
        ++out->repaired_refs;
        out->clean = false;
      }
    } else if (alloc) {
      // Abandoned, dummy, hidden, or crash-leaked: indistinguishable by
      // design. Counted, never reclaimed.
      ++out->unaccounted_blocks;
    }
  }
  if (out->repaired_refs > 0) {
    STEGFS_RETURN_IF_ERROR(PersistMetaLocked());
    STEGFS_RETURN_IF_ERROR(cache_->Flush());
  }
  if (super_.journal_blocks != 0) {
    if (journal_ != nullptr) {
      // Push the CURRENT metadata state durably before touching the
      // ring: any live record found there (a poisoned journal) is then
      // provably redundant and safe to scrub without replay.
      STEGFS_RETURN_IF_ERROR(PersistMetaLocked());
      STEGFS_RETURN_IF_ERROR(cache_->WriteBackDirty());
      STEGFS_RETURN_IF_ERROR(data_device()->Sync());
      STEGFS_RETURN_IF_ERROR(journal_->ScrubStaleRecords(
          &out->journal_live_records, &out->journal_scrubbed_blocks));
    } else {
      uint64_t torn = 0;
      STEGFS_ASSIGN_OR_RETURN(
          std::vector<journal::JournalRecord> live,
          journal::JournalRecovery::Scan(device_, super_, &torn));
      out->journal_live_records = live.size();
      if (!live.empty()) {
        // Should be impossible after a mount (recovery replays + scrubs);
        // re-running recovery here would double-apply stale images over
        // newer in-memory state, so just report.
        out->clean = false;
      }
    }
    if (out->journal_live_records > 0) out->clean = false;
  }
  return Status::OK();
}

uint64_t PlainFs::TotalPlainBytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t total = 0;
  for (uint32_t ino = 0; ino < inodes_.count(); ++ino) {
    const Inode* node = inodes_.Get(ino);
    if (node->InUse() && node->type == InodeType::kFile) total += node->size;
  }
  return total;
}

}  // namespace stegfs
