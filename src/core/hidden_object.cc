#include "core/hidden_object.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "crypto/keys.h"
#include "util/coding.h"

namespace stegfs {

namespace {

// Locks the volume's allocation mutex when one is configured; a no-op
// (empty) lock otherwise, so direct single-threaded users pay nothing.
std::unique_lock<std::mutex> LockAlloc(std::mutex* mu) {
  return mu != nullptr ? std::unique_lock<std::mutex>(*mu)
                       : std::unique_lock<std::mutex>();
}

HeaderLocator MakeLocator(const HiddenVolume& vol) {
  return HeaderLocator(vol.cache, vol.bitmap, vol.layout, vol.probe_limit,
                       vol.locator_stats, vol.trace);
}

}  // namespace

HiddenObject::HiddenObject(const HiddenVolume& vol,
                           const std::string& physical_name,
                           const std::string& access_key)
    : vol_(vol),
      physical_name_(physical_name),
      access_key_(access_key),
      crypter_(access_key),
      store_(vol.cache, &crypter_),
      io_(vol.layout.block_size),
      allocator_(this) {
  io_.set_readahead(vol.readahead);
}

uint32_t HiddenObject::EffectivePoolMax() const {
  return std::min(vol_.params.free_pool_max, kMaxFreePool);
}

std::string HiddenObject::AnchorName(const std::string& physical_name) {
  return physical_name + '\x01' + "hdr-anchor";
}

Status HiddenObject::CommitBarrier() {
  // The write-barrier contract: Sync() only orders completed writes, and
  // every write completes before its caller returns (the async engine
  // carries reads only), so nothing needs draining first. WriteBackDirty
  // (not Flush) so the barrier costs exactly ONE device sync. When the
  // volume has a barrier coalescer, arrive there instead: it runs the
  // same write-back/sync sequence, shared with every concurrent barrier
  // (other hidden commits, journal batch commits).
  if (vol_.barrier != nullptr) return vol_.barrier->Arrive();
  STEGFS_RETURN_IF_ERROR(vol_.cache->WriteBackDirty());
  return vol_.device->Sync();
}

Status HiddenObject::WriteHeaderImage(uint64_t at_block,
                                      const std::array<uint8_t, 32>& sig,
                                      uint32_t partner) {
  HiddenHeader image = header_;
  image.signature = sig;
  image.partner = partner;
  std::vector<uint8_t> buf(vol_.layout.block_size);
  STEGFS_RETURN_IF_ERROR(image.EncodeTo(buf.data(), buf.size()));
  return store_.WriteBlock(at_block, buf.data());
}

std::optional<HiddenHeader> HiddenObject::NewerAnchorImage() const {
  // The commit sequence must sit inside one 16-byte cell; it starts 4
  // bytes into one for every block size that is a multiple of 16.
  constexpr size_t kSeqInCell = (16 - kHeaderTrailerBytes % 16) % 16;
  static_assert(kSeqInCell + 8 <= 16, "seq straddles two cells");
  const size_t bs = vol_.layout.block_size;
  std::vector<uint8_t> buf(bs);
  if (!vol_.cache->Read(anchor_block_, buf.data()).ok()) return std::nullopt;
  const crypto::CryptSpan span{anchor_block_, buf.data()};
  const crypto::Sha256Digest expect =
      crypto::FileSignature(AnchorName(physical_name_), access_key_);
  uint8_t sig[sizeof(expect)];
  crypter_.DecryptPrefix(&span, 1, sizeof(sig) / 16, sig);
  if (std::memcmp(sig, expect.data(), sizeof(sig)) != 0) return std::nullopt;
  uint8_t cell[16];
  crypter_.DecryptCells(&span, 1, (bs - kHeaderTrailerBytes) / 16, 1, cell);
  if (DecodeFixed64(cell + kSeqInCell) <= header_.seq) return std::nullopt;
  crypter_.DecryptBlock(anchor_block_, buf.data(), bs);
  auto image = HiddenHeader::DecodeFrom(buf.data(), bs);
  if (!image.ok()) return std::nullopt;  // torn: the primary stands
  return std::move(image).value();
}

void HiddenObject::AttachRedundancy() {
  redundancy_ = std::make_unique<RedundancyManager>(
      header_.redundancy, vol_.layout.block_size, vol_.bitmap, vol_.red_stats);
  io_.set_redundancy(redundancy_.get());
}

StatusOr<std::unique_ptr<HiddenObject>> HiddenObject::Create(
    const HiddenVolume& vol, const std::string& physical_name,
    const std::string& access_key, HiddenType type,
    RedundancyPolicy redundancy) {
  return CreateImpl(vol, physical_name, access_key, type, redundancy,
                    /*claim_only=*/false);
}

StatusOr<std::unique_ptr<HiddenObject>> HiddenObject::CreateClaimOnly(
    const HiddenVolume& vol, const std::string& physical_name,
    const std::string& access_key, HiddenType type,
    RedundancyPolicy redundancy) {
  return CreateImpl(vol, physical_name, access_key, type, redundancy,
                    /*claim_only=*/true);
}

StatusOr<std::unique_ptr<HiddenObject>> HiddenObject::CreateImpl(
    const HiddenVolume& vol, const std::string& physical_name,
    const std::string& access_key, HiddenType type,
    RedundancyPolicy redundancy, bool claim_only) {
  if (redundancy.enabled() && !redundancy.Valid()) {
    return Status::InvalidArgument("invalid redundancy policy");
  }
  std::unique_ptr<HiddenObject> obj(
      new HiddenObject(vol, physical_name, access_key));

  // Refuse to create a second object under the same (name, key): its header
  // would shadow or be shadowed by the existing one. A claim-only create
  // leaves that to the claims' step-over checks.
  HeaderLocator locator = MakeLocator(vol);
  if (!claim_only) {
    auto existing = locator.FindHeader(physical_name, access_key,
                                       obj->crypter_);
    if (existing.ok()) {
      return Status::AlreadyExists("hidden object already exists: " +
                                   physical_name);
    }
    if (!existing.status().IsNotFound()) return existing.status();
    if (vol.durable) {
      // A crash can tear the primary while the anchor chain survives; a
      // create that only probed the primary would then shadow it.
      auto anchored = locator.FindHeader(AnchorName(physical_name),
                                         access_key, obj->crypter_);
      if (anchored.ok()) {
        return Status::AlreadyExists("hidden object already exists: " +
                                     physical_name);
      }
      if (!anchored.status().IsNotFound()) return anchored.status();
    }
  }

  const crypto::BlockCrypter* check = claim_only ? &obj->crypter_ : nullptr;
  STEGFS_ASSIGN_OR_RETURN(
      LocateResult claim,
      locator.ClaimHeaderBlock(physical_name, access_key, check));
  obj->header_block_ = claim.header_block;
  obj->last_probes_ = claim.probes;
  if (vol.durable) {
    auto anchor = locator.ClaimHeaderBlock(AnchorName(physical_name),
                                           access_key, check);
    if (!anchor.ok()) {
      (void)vol.bitmap->Free(claim.header_block);
      return anchor.status();
    }
    obj->anchor_block_ = anchor->header_block;
    obj->header_.partner = static_cast<uint32_t>(anchor->header_block);
  }

  obj->header_.signature = crypto::FileSignature(physical_name, access_key);
  obj->header_.type = type;
  obj->header_.inode.type =
      type == HiddenType::kDirectory ? InodeType::kDirectory
                                     : InodeType::kFile;
  obj->header_dirty_ = true;
  if (redundancy.enabled()) {
    obj->header_.redundancy = redundancy;
    obj->AttachRedundancy();
  }

  // Allocate the initial pool "straightaway" (paper 3.1).
  STEGFS_RETURN_IF_ERROR(obj->TopUpPool());
  STEGFS_RETURN_IF_ERROR(obj->Sync());
  return obj;
}

StatusOr<std::unique_ptr<HiddenObject>> HiddenObject::Open(
    const HiddenVolume& vol, const std::string& physical_name,
    const std::string& access_key) {
  std::unique_ptr<HiddenObject> obj(
      new HiddenObject(vol, physical_name, access_key));
  HeaderLocator locator = MakeLocator(vol);
  auto found = locator.FindHeader(physical_name, access_key, obj->crypter_);
  Status primary_status = found.status();
  bool have_primary = false;
  if (found.ok()) {
    obj->header_block_ = found->header_block;
    obj->last_probes_ = found->probes;
    // The walk's read is the header read: decrypt its ciphertext in place.
    std::vector<uint8_t>& buf = found->ciphertext;
    obj->crypter_.DecryptBlock(found->header_block, buf.data(), buf.size());
    auto decoded = HiddenHeader::DecodeFrom(buf.data(), buf.size());
    if (decoded.ok()) {
      obj->header_ = std::move(decoded).value();
      have_primary = true;
    } else if (!vol.durable) {
      return decoded.status();
    } else {
      primary_status = decoded.status();  // torn: try the anchor below
    }
  } else if (!found.status().IsNotFound()) {
    return found.status();
  }

  if (vol.durable) {
    if (have_primary && obj->header_.partner != 0) {
      // Fast path: the primary names its anchor. If the anchor carries a
      // NEWER committed image, the crash hit between the anchor barrier
      // (the commit point) and the primary rewrite — adopt it and heal
      // the primary in place.
      obj->anchor_block_ = obj->header_.partner;
      std::optional<HiddenHeader> newer = obj->NewerAnchorImage();
      if (newer.has_value()) {
        obj->header_ = std::move(*newer);
        obj->header_.signature =
            crypto::FileSignature(physical_name, access_key);
        obj->header_.partner = static_cast<uint32_t>(obj->anchor_block_);
        STEGFS_RETURN_IF_ERROR(obj->WriteHeaderImage(
            obj->header_block_, obj->header_.signature, obj->header_.partner));
      }
    } else if (!have_primary) {
      // Primary torn or unlocatable: walk the salted anchor sequence.
      auto afound = locator.FindHeader(AnchorName(physical_name), access_key,
                                       obj->crypter_);
      if (!afound.ok()) {
        // No anchor either: the object genuinely does not exist (or
        // predates durability and is really corrupt).
        return afound.status().IsNotFound() ? primary_status
                                            : afound.status();
      }
      obj->anchor_block_ = afound->header_block;
      obj->last_probes_ = afound->probes;
      std::vector<uint8_t>& abuf = afound->ciphertext;
      obj->crypter_.DecryptBlock(obj->anchor_block_, abuf.data(), abuf.size());
      STEGFS_ASSIGN_OR_RETURN(
          HiddenHeader aimg, HiddenHeader::DecodeFrom(abuf.data(),
                                                      abuf.size()));
      if (aimg.partner == 0) {
        return Status::Corruption("anchor image names no primary block");
      }
      obj->header_ = std::move(aimg);
      obj->header_block_ = obj->header_.partner;
      obj->header_.signature =
          crypto::FileSignature(physical_name, access_key);
      obj->header_.partner = static_cast<uint32_t>(obj->anchor_block_);
      STEGFS_RETURN_IF_ERROR(obj->WriteHeaderImage(
          obj->header_block_, obj->header_.signature, obj->header_.partner));
      have_primary = true;
    } else {
      obj->anchor_block_ = obj->header_.partner;  // may be 0 (pre-durable)
    }
  } else if (!have_primary) {
    return primary_status;
  }

  obj->header_.inode.size = obj->header_.size;
  if (obj->header_.redundancy.enabled()) {
    obj->AttachRedundancy();
    // A corrupt/torn map chain degrades to "no coverage" inside Load (the
    // code is systematic, data is intact); the next Sync persists a fresh
    // chain and the next scrub rebuilds the checksums.
    STEGFS_RETURN_IF_ERROR(
        obj->redundancy_->Load(obj->header_.red_map_block, &obj->store_));
  }
  return obj;
}

HiddenObject::~HiddenObject() {
  if (!removed_) (void)Sync();
}

Status HiddenObject::TopUpPool() {
  auto alloc = LockAlloc(vol_.alloc_mu);
  return TopUpPoolLocked();
}

Status HiddenObject::TopUpPoolLocked() {
  const uint32_t target = EffectivePoolMax();
  while (header_.free_pool.size() < target) {
    STEGFS_ASSIGN_OR_RETURN(
        uint64_t b,
        vol_.bitmap->AllocateByPolicy(AllocPolicy::kRandom, vol_.rng));
    header_.free_pool.push_back(static_cast<uint32_t>(b));
    unscrubbed_.insert(static_cast<uint32_t>(b));
    header_dirty_ = true;
  }
  return Status::OK();
}

Status HiddenObject::ReleaseExcess() {
  auto alloc = LockAlloc(vol_.alloc_mu);
  return ReleaseExcessLocked();
}

Status HiddenObject::ReleaseExcessLocked() {
  const uint32_t target = EffectivePoolMax();
  while (header_.free_pool.size() > target) {
    size_t idx = vol_.rng->Uniform(header_.free_pool.size());
    uint64_t b = header_.free_pool[idx];
    header_.free_pool[idx] = header_.free_pool.back();
    header_.free_pool.pop_back();
    // The block leaves our custody: it must NOT be scrubbed later — by the
    // time Sync runs it may belong to someone else (e.g. a plain file).
    unscrubbed_.erase(static_cast<uint32_t>(b));
    if (vol_.durable) {
      // The committed on-disk pool must stay a subset of the bitmap's
      // allocated set: stage the release, clear the bit only after the
      // pool-shrinking header image has committed (Sync does it).
      pending_bitmap_frees_.push_back(static_cast<uint32_t>(b));
    } else {
      STEGFS_RETURN_IF_ERROR(vol_.bitmap->Free(b));
    }
    header_dirty_ = true;
  }
  return Status::OK();
}

StatusOr<uint64_t> HiddenObject::PoolAllocator::AllocateBlock() {
  HiddenObject* obj = obj_;
  auto alloc = LockAlloc(obj->vol_.alloc_mu);
  if (obj->EffectivePoolMax() == 0) {
    // Pool disabled: degrade to direct random allocation.
    return obj->vol_.bitmap->AllocateByPolicy(AllocPolicy::kRandom,
                                              obj->vol_.rng);
  }
  if (obj->header_.free_pool.empty()) {
    STEGFS_RETURN_IF_ERROR(obj->TopUpPoolLocked());
    if (obj->header_.free_pool.empty()) {
      return Status::NoSpace("volume full (hidden pool refill failed)");
    }
  }
  // "Blocks are taken off the linked list randomly" (paper 3.1).
  size_t idx = obj->vol_.rng->Uniform(obj->header_.free_pool.size());
  uint64_t b = obj->header_.free_pool[idx];
  obj->header_.free_pool[idx] = obj->header_.free_pool.back();
  obj->header_.free_pool.pop_back();
  // The caller is about to write the block: no scrub needed.
  obj->unscrubbed_.erase(static_cast<uint32_t>(b));
  obj->header_dirty_ = true;
  // Top up when the pool drains below the lower bound.
  if (obj->header_.free_pool.size() < obj->vol_.params.free_pool_min) {
    STEGFS_RETURN_IF_ERROR(obj->TopUpPoolLocked());
  }
  return b;
}

Status HiddenObject::PoolAllocator::FreeBlock(uint64_t block) {
  HiddenObject* obj = obj_;
  auto alloc = LockAlloc(obj->vol_.alloc_mu);
  if (obj->vol_.durable) {
    // A freed data block may still be referenced by the committed on-disk
    // header; letting it back into the pool now would allow this same
    // uncommitted operation to reallocate and overwrite it in place. It
    // re-enters the pool at the next Sync (the commit point).
    obj->deferred_returns_.push_back(static_cast<uint32_t>(block));
    obj->header_dirty_ = true;
    return Status::OK();
  }
  obj->header_.free_pool.push_back(static_cast<uint32_t>(block));
  obj->header_dirty_ = true;
  return obj->ReleaseExcessLocked();
}

Status HiddenObject::Read(uint64_t offset, uint64_t n, std::string* out) {
  if (removed_) return Status::FailedPrecondition("object was removed");
  if (redundancy_ == nullptr) {
    return io_.Read(header_.inode, offset, n, &store_, out);
  }
  // Redundant object: verify shares against the stripe map and heal lost
  // ones inline (a heal remaps inode pointers, hence the dirty plumbing).
  bool dirty = false;
  Status s = io_.ReadVerified(&header_.inode, offset, n, &store_, &allocator_,
                              &dirty, out);
  if (dirty || redundancy_->dirty()) header_dirty_ = true;
  return s;
}

StatusOr<std::string> HiddenObject::ReadAll() {
  std::string out;
  STEGFS_RETURN_IF_ERROR(Read(0, size(), &out));
  return out;
}

Status HiddenObject::Write(uint64_t offset, std::string_view data) {
  if (removed_) return Status::FailedPrecondition("object was removed");
  bool dirty = false;
  STEGFS_RETURN_IF_ERROR(
      io_.Write(&header_.inode, offset, data, &store_, &allocator_, &dirty));
  if (dirty) header_dirty_ = true;
  return Status::OK();
}

Status HiddenObject::WriteAll(std::string_view data) {
  STEGFS_RETURN_IF_ERROR(Truncate(0));
  return Write(0, data);
}

Status HiddenObject::Truncate(uint64_t new_size) {
  if (removed_) return Status::FailedPrecondition("object was removed");
  bool dirty = false;
  STEGFS_RETURN_IF_ERROR(io_.Truncate(&header_.inode, new_size, &store_,
                                      &allocator_, &dirty));
  if (dirty) header_dirty_ = true;
  return Status::OK();
}

Status HiddenObject::Sync() {
  if (removed_) return Status::FailedPrecondition("object was removed");
  if (vol_.durable) {
    // Step 0: blocks freed since the last commit re-enter the pool (the
    // image about to commit carries them), and any resulting excess is
    // staged toward the bitmap.
    if (!deferred_returns_.empty()) {
      auto alloc = LockAlloc(vol_.alloc_mu);
      for (uint32_t b : deferred_returns_) header_.free_pool.push_back(b);
      deferred_returns_.clear();
      header_dirty_ = true;
      STEGFS_RETURN_IF_ERROR(ReleaseExcessLocked());
    }
  }
  // Scrub pool blocks that still hold pre-acquisition content, so nothing
  // inside this object's footprint is distinguishable from noise. The
  // shared rng draw needs the allocation lock; the cache writes nest below
  // it in the lock order.
  if (!unscrubbed_.empty()) {
    auto alloc = LockAlloc(vol_.alloc_mu);
    // One batched write for all scrub blocks (ascending set order keeps
    // the rng draw sequence identical to the historical per-block loop).
    const size_t bs = vol_.layout.block_size;
    std::vector<uint64_t> blocks(unscrubbed_.begin(), unscrubbed_.end());
    std::vector<uint8_t> noise(blocks.size() * bs);
    for (size_t i = 0; i < blocks.size(); ++i) {
      vol_.rng->FillBytes(noise.data() + i * bs, bs);
    }
    STEGFS_RETURN_IF_ERROR(
        vol_.cache->WriteBatch(blocks.data(), blocks.size(), noise.data()));
    unscrubbed_.clear();
  }
  // The stripe map persists as a fresh FAK-encrypted chain BEFORE the
  // header that references it (on durable volumes the step-1 barrier then
  // covers both; the old chain's blocks re-enter the pool through the
  // allocator, deferred past the commit like any freed data block).
  if (redundancy_ != nullptr && redundancy_->dirty()) {
    STEGFS_ASSIGN_OR_RETURN(uint32_t map_head,
                            redundancy_->Persist(&store_, &allocator_));
    header_.red_map_block = map_head;
    header_dirty_ = true;
  }
  if (!header_dirty_ && pending_bitmap_frees_.empty()) return Status::OK();
  header_.size = header_.inode.size;
  header_.mtime = header_.inode.mtime;

  if (!vol_.durable) {
    std::vector<uint8_t> buf(vol_.layout.block_size);
    STEGFS_RETURN_IF_ERROR(header_.EncodeTo(buf.data(), buf.size()));
    STEGFS_RETURN_IF_ERROR(store_.WriteBlock(header_block_, buf.data()));
    header_dirty_ = false;
    return Status::OK();
  }

  // Dual-header commit (see the declaration comment for the protocol).
  if (anchor_block_ == 0) {
    // Object predates durability on this volume: claim its anchor now.
    HeaderLocator locator = MakeLocator(vol_);
    STEGFS_ASSIGN_OR_RETURN(
        LocateResult anchor,
        locator.ClaimHeaderBlock(AnchorName(physical_name_), access_key_));
    anchor_block_ = anchor.header_block;
  }
  header_.partner = static_cast<uint32_t>(anchor_block_);
  header_.seq += 1;

  // 1. Everything the new header references — data, scrub noise, the
  //    bitmap bits backing pool/data claims — becomes durable first.
  STEGFS_RETURN_IF_ERROR(vol_.bitmap->Store(vol_.cache));
  STEGFS_RETURN_IF_ERROR(CommitBarrier());

  // 2. The anchor image, then a barrier: the commit point.
  STEGFS_RETURN_IF_ERROR(WriteHeaderImage(
      anchor_block_,
      crypto::FileSignature(AnchorName(physical_name_), access_key_),
      static_cast<uint32_t>(header_block_)));
  STEGFS_RETURN_IF_ERROR(CommitBarrier());

  // 3. The primary, in place. No barrier needed: if it tears, Open takes
  //    the committed anchor image and heals it.
  STEGFS_RETURN_IF_ERROR(WriteHeaderImage(
      header_block_, header_.signature,
      static_cast<uint32_t>(anchor_block_)));
  header_dirty_ = false;

  // 4. With the shrunken pool committed, staged releases may finally
  //    clear their bitmap bits (lost on crash = leaked-as-abandoned,
  //    never corruption).
  if (!pending_bitmap_frees_.empty()) {
    auto alloc = LockAlloc(vol_.alloc_mu);
    for (uint32_t b : pending_bitmap_frees_) {
      STEGFS_RETURN_IF_ERROR(vol_.bitmap->Free(b));
    }
    pending_bitmap_frees_.clear();
  }
  return Status::OK();
}

Status HiddenObject::ScrubShares(RedundancyScrubReport* report) {
  if (removed_) return Status::FailedPrecondition("object was removed");
  if (redundancy_ == nullptr) return Status::OK();
  bool dirty = false;
  RedundancyIoCtx ctx{&header_.inode, &store_, &allocator_, io_.mapper(),
                      &dirty};
  STEGFS_RETURN_IF_ERROR(redundancy_->Scrub(ctx, report));
  if (dirty || redundancy_->dirty()) header_dirty_ = true;
  return Status::OK();
}

StatusOr<std::vector<uint64_t>> HiddenObject::ShareBlocksForTesting(
    uint64_t stripe) {
  if (redundancy_ == nullptr) {
    return Status::FailedPrecondition("object has no redundancy policy");
  }
  bool dirty = false;
  RedundancyIoCtx ctx{&header_.inode, &store_, &allocator_, io_.mapper(),
                      &dirty};
  std::vector<uint64_t> out;
  STEGFS_RETURN_IF_ERROR(
      redundancy_->ShareBlocksForTesting(ctx, stripe, &out));
  return out;
}

Status HiddenObject::Remove() {
  if (removed_) return Status::FailedPrecondition("object already removed");
  if (vol_.durable) {
    // Commit the removal FIRST: obliterate both header images and make
    // that durable, so no crash state can resurrect a half-freed object
    // whose blocks are being handed back to the allocator below.
    {
      auto alloc = LockAlloc(vol_.alloc_mu);
      std::vector<uint8_t> noise(vol_.layout.block_size);
      vol_.rng->FillBytes(noise.data(), noise.size());
      STEGFS_RETURN_IF_ERROR(vol_.cache->Write(header_block_, noise.data()));
      if (anchor_block_ != 0) {
        vol_.rng->FillBytes(noise.data(), noise.size());
        STEGFS_RETURN_IF_ERROR(
            vol_.cache->Write(anchor_block_, noise.data()));
      }
    }
    STEGFS_RETURN_IF_ERROR(CommitBarrier());
    // Reclaim everything. Frees lost to a crash from here on are leaked
    // allocated-but-unreferenced blocks — absorbed as abandoned, never
    // corruption.
    if (redundancy_ != nullptr) {
      STEGFS_RETURN_IF_ERROR(redundancy_->ReleaseAll(&allocator_));
    }
    STEGFS_RETURN_IF_ERROR(
        io_.mapper()->FreeFrom(&header_.inode, 0, &store_, &allocator_));
    auto alloc = LockAlloc(vol_.alloc_mu);
    for (uint32_t b : deferred_returns_) {
      STEGFS_RETURN_IF_ERROR(vol_.bitmap->Free(b));
    }
    deferred_returns_.clear();
    for (uint32_t b : header_.free_pool) {
      STEGFS_RETURN_IF_ERROR(vol_.bitmap->Free(b));
    }
    header_.free_pool.clear();
    for (uint32_t b : pending_bitmap_frees_) {
      STEGFS_RETURN_IF_ERROR(vol_.bitmap->Free(b));
    }
    pending_bitmap_frees_.clear();
    unscrubbed_.clear();
    STEGFS_RETURN_IF_ERROR(vol_.bitmap->Free(header_block_));
    if (anchor_block_ != 0) {
      STEGFS_RETURN_IF_ERROR(vol_.bitmap->Free(anchor_block_));
    }
    removed_ = true;
    return Status::OK();
  }
  // Free data + indirect blocks into the pool, then drain the entire pool
  // back to the file system. FreeFrom drives the allocator, which takes the
  // allocation lock per call — so it must not be held here yet.
  if (redundancy_ != nullptr) {
    STEGFS_RETURN_IF_ERROR(redundancy_->ReleaseAll(&allocator_));
  }
  STEGFS_RETURN_IF_ERROR(
      io_.mapper()->FreeFrom(&header_.inode, 0, &store_, &allocator_));
  auto alloc = LockAlloc(vol_.alloc_mu);
  for (uint32_t b : header_.free_pool) {
    STEGFS_RETURN_IF_ERROR(vol_.bitmap->Free(b));
  }
  header_.free_pool.clear();
  unscrubbed_.clear();  // released blocks are no longer ours to scrub
  // Obliterate the header so the signature can never be located again, then
  // release its block.
  std::vector<uint8_t> noise(vol_.layout.block_size);
  vol_.rng->FillBytes(noise.data(), noise.size());
  STEGFS_RETURN_IF_ERROR(vol_.cache->Write(header_block_, noise.data()));
  STEGFS_RETURN_IF_ERROR(vol_.bitmap->Free(header_block_));
  removed_ = true;
  return Status::OK();
}

}  // namespace stegfs
