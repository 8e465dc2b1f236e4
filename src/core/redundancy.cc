#include "core/redundancy.h"

#include "obs/trace.h"

#include <algorithm>
#include <cstring>
#include <unordered_set>

#include "crypto/gf256.h"
#include "util/coding.h"

namespace stegfs {

namespace {
// Map chain block layout: [next u32][sum u32][payload block_size-8].
// `sum` covers the whole payload area (slack is zero), so a torn chain
// block is detected and coverage degrades instead of producing garbage
// checksums that would fail good shares.
constexpr size_t kChainHeaderBytes = 8;
// Sanity ceiling on the stripe count decoded from a chain (a 32-bit
// mapper cannot address more file blocks than this anyway).
constexpr uint32_t kMaxStripeCount = 1u << 24;
}  // namespace

RedundancyManager::RedundancyManager(RedundancyPolicy policy,
                                     uint32_t block_size, BlockBitmap* bitmap,
                                     RedundancyStats* stats)
    : policy_(policy),
      block_size_(block_size),
      bitmap_(bitmap),
      stats_(stats) {}

uint64_t RedundancyManager::FileBlocks(const Inode& inode) const {
  return (inode.size + block_size_ - 1) / block_size_;
}

uint64_t RedundancyManager::StripesNeeded(uint64_t file_blocks) const {
  return (file_blocks + policy_.k - 1) / policy_.k;
}

void RedundancyManager::EnsureStripes(uint64_t count) {
  if (stripes_.size() >= count) return;
  const size_t old = stripes_.size();
  stripes_.resize(count);
  for (size_t s = old; s < count; ++s) {
    stripes_[s].parity.assign(policy_.parity(), 0);
    stripes_[s].sums.assign(policy_.n, 0);
  }
}

bool RedundancyManager::BlockLost(uint64_t device_block) const {
  // A cleared bitmap bit means the block is no longer marked ours — it
  // was reclaimed (e.g. a crash-leaked free) and any plain allocation may
  // take it at any moment. That is loss evidence even while the content
  // still checks out.
  return bitmap_ != nullptr && !bitmap_->IsAllocated(device_block);
}

Status RedundancyManager::Load(uint32_t first_block, BlockStore* store) {
  stripes_.clear();
  chain_.clear();
  dirty_ = false;
  if (first_block == 0) return Status::OK();

  // Any inconsistency below degrades to "no coverage": the systematic
  // layout means the data shares ARE the file blocks, so losing the map
  // loses parity protection, never data. The orphaned chain blocks are
  // abandoned (we cannot trust pointers out of a corrupt chain enough to
  // free them), and dirty_ makes the next Sync persist a fresh chain.
  auto degrade = [this]() {
    stripes_.clear();
    chain_.clear();
    dirty_ = true;
    return Status::OK();
  };

  // Chain and parity blocks are data-region blocks, and a chain visits
  // each block once. Anything else is hostile: a pointer past the volume
  // would index the bitmap out of range, one into the metadata region
  // would later be freed into the pool and overwritten, and a cycle would
  // re-read one block for as many chunks as the decoded stripe count asks.
  auto pointer_ok = [this](uint64_t b) {
    return bitmap_ == nullptr || (b >= bitmap_->layout().data_start &&
                                  b < bitmap_->total_count());
  };
  const size_t payload_per = block_size_ - kChainHeaderBytes;
  const size_t entry_bytes = 4u * (1 + policy_.parity() + policy_.n);
  std::vector<uint8_t> block(block_size_);
  std::vector<uint8_t> flat;
  std::unordered_set<uint64_t> visited;
  uint64_t cur = first_block;
  uint64_t chunks_expected = 1;  // revised after the first chunk
  for (uint64_t i = 0; i < chunks_expected; ++i) {
    if (cur == 0 || !pointer_ok(cur) || !visited.insert(cur).second) {
      return degrade();
    }
    STEGFS_RETURN_IF_ERROR(store->ReadBlock(cur, block.data()));
    if (DecodeFixed32(block.data() + 4) !=
        BlockSum32(block.data() + kChainHeaderBytes, payload_per)) {
      return degrade();
    }
    chain_.push_back(static_cast<uint32_t>(cur));
    flat.insert(flat.end(), block.begin() + kChainHeaderBytes, block.end());
    if (i == 0) {
      uint32_t total = DecodeFixed32(flat.data());
      if (total > kMaxStripeCount) return degrade();
      size_t total_bytes = 4 + static_cast<size_t>(total) * entry_bytes;
      chunks_expected = (total_bytes + payload_per - 1) / payload_per;
      if (chunks_expected == 0) chunks_expected = 1;
    }
    cur = DecodeFixed32(block.data());
  }

  const uint32_t total = DecodeFixed32(flat.data());
  const uint8_t* p = flat.data() + 4;
  EnsureStripes(total);
  for (uint32_t s = 0; s < total; ++s) {
    Stripe& st = stripes_[s];
    st.present = DecodeFixed32(p);
    p += 4;
    for (uint32_t i = 0; i < policy_.parity(); ++i) {
      st.parity[i] = DecodeFixed32(p);
      p += 4;
      if (st.parity[i] != 0 && !pointer_ok(st.parity[i])) return degrade();
    }
    for (uint32_t i = 0; i < policy_.n; ++i) {
      st.sums[i] = DecodeFixed32(p);
      p += 4;
    }
  }
  return Status::OK();
}

StatusOr<uint32_t> RedundancyManager::Persist(BlockStore* store,
                                              BlockAllocator* alloc) {
  std::vector<uint32_t> old_chain = std::move(chain_);
  chain_.clear();

  uint32_t head = 0;
  if (!stripes_.empty()) {
    const size_t payload_per = block_size_ - kChainHeaderBytes;
    std::vector<uint8_t> flat(4);
    EncodeFixed32(flat.data(), static_cast<uint32_t>(stripes_.size()));
    for (const Stripe& st : stripes_) {
      uint8_t tmp[4];
      EncodeFixed32(tmp, st.present);
      flat.insert(flat.end(), tmp, tmp + 4);
      for (uint32_t b : st.parity) {
        EncodeFixed32(tmp, b);
        flat.insert(flat.end(), tmp, tmp + 4);
      }
      for (uint32_t sum : st.sums) {
        EncodeFixed32(tmp, sum);
        flat.insert(flat.end(), tmp, tmp + 4);
      }
    }
    const size_t chunks = (flat.size() + payload_per - 1) / payload_per;
    flat.resize(chunks * payload_per, 0);

    // Fresh blocks every time: the chain the committed header references
    // is never rewritten in place, so a crash can only ever leave the OLD
    // header with its intact OLD chain (the no-overwrite rule data blocks
    // already follow on durable mounts).
    std::vector<uint32_t> blocks(chunks);
    for (size_t i = 0; i < chunks; ++i) {
      STEGFS_ASSIGN_OR_RETURN(uint64_t b, alloc->AllocateBlock());
      blocks[i] = static_cast<uint32_t>(b);
    }
    std::vector<uint8_t> block(block_size_);
    for (size_t i = 0; i < chunks; ++i) {
      EncodeFixed32(block.data(), i + 1 < chunks ? blocks[i + 1] : 0);
      std::memcpy(block.data() + kChainHeaderBytes,
                  flat.data() + i * payload_per, payload_per);
      EncodeFixed32(block.data() + 4,
                    BlockSum32(block.data() + kChainHeaderBytes, payload_per));
      STEGFS_RETURN_IF_ERROR(store->WriteBlock(blocks[i], block.data()));
    }
    chain_ = std::move(blocks);
    head = chain_.front();
  }

  for (uint32_t b : old_chain) {
    STEGFS_RETURN_IF_ERROR(alloc->FreeBlock(b));
  }
  dirty_ = false;
  return head;
}

Status RedundancyManager::GatherStripe(const RedundancyIoCtx& ctx, uint64_t s,
                                       std::vector<GatheredShare>* out) {
  const uint32_t k = policy_.k;
  const uint32_t n = policy_.n;
  const uint64_t file_blocks = FileBlocks(*ctx.inode);
  const Stripe& st = stripes_[s];
  out->clear();
  out->resize(n);
  BlockMapper::Memo memo;
  for (uint32_t j = 0; j < k; ++j) {
    GatheredShare& g = (*out)[j];
    g.index = static_cast<uint8_t>(j);
    const uint64_t idx = s * k + j;
    bool hole = idx >= file_blocks;
    uint64_t b = 0;
    if (!hole) {
      auto mapped = ctx.mapper->Map(*ctx.inode, idx, ctx.store, &memo);
      if (mapped.ok()) {
        b = mapped.value();
      } else if (mapped.status().IsNotFound()) {
        hole = true;
      } else {
        return mapped.status();
      }
    }
    if (hole) {
      // A hole is real data (zeros), not a lost share.
      g.content.assign(block_size_, 0);
      g.valid = true;
      continue;
    }
    g.device_backed = true;
    g.device_block = b;
    g.content.resize(block_size_);
    if (Status rs = ctx.store->ReadBlock(b, g.content.data()); !rs.ok()) {
      // A share the device cannot read (after the retry layer gave up) is
      // a lost share, not a failed gather: decode-and-heal from the k
      // survivors is exactly what this machinery is for.
      g.valid = false;
      if (stats_ != nullptr) stats_->verify_failures.Increment();
      continue;
    }
    if (BlockLost(b)) {
      g.valid = false;
    } else if ((st.present >> j) & 1) {
      g.valid = BlockSum32(g.content.data(), block_size_) == st.sums[j];
    } else {
      g.valid = true;  // no checksum recorded (coverage gap): trust it
    }
  }
  for (uint32_t i = 0; i < policy_.parity(); ++i) {
    GatheredShare& g = (*out)[k + i];
    g.index = static_cast<uint8_t>(k + i);
    const uint32_t pb = st.parity[i];
    if (pb == 0) {
      g.valid = false;  // parity never materialized — unusable, healable
      continue;
    }
    g.device_backed = true;
    g.device_block = pb;
    g.content.resize(block_size_);
    if (Status rs = ctx.store->ReadBlock(pb, g.content.data()); !rs.ok()) {
      g.valid = false;
      if (stats_ != nullptr) stats_->verify_failures.Increment();
      continue;
    }
    g.valid = !BlockLost(pb) &&
              BlockSum32(g.content.data(), block_size_) == st.sums[k + i];
  }
  return Status::OK();
}

Status RedundancyManager::EncodeStripe(const RedundancyIoCtx& ctx, uint64_t s,
                                       uint64_t touched_first,
                                       uint64_t touched_last) {
  const uint32_t k = policy_.k;
  const uint32_t n = policy_.n;
  const uint32_t p = policy_.parity();
  const uint64_t file_blocks = FileBlocks(*ctx.inode);
  EnsureStripes(s + 1);
  Stripe& st = stripes_[s];

  std::vector<std::vector<uint8_t>> data(k);
  std::vector<const uint8_t*> data_ptrs(k);
  std::vector<uint8_t> is_hole(k, 0);
  uint32_t present = 0;
  uint32_t stale = 0;  // untouched shares the old record disowns
  BlockMapper::Memo memo;  // the loop below only maps; Remaps come after
  for (uint32_t j = 0; j < k; ++j) {
    const uint64_t idx = s * k + j;
    bool hole = idx >= file_blocks;
    uint64_t b = 0;
    if (!hole) {
      auto mapped = ctx.mapper->Map(*ctx.inode, idx, ctx.store, &memo);
      if (mapped.ok()) {
        b = mapped.value();
      } else if (mapped.status().IsNotFound()) {
        hole = true;
      } else {
        return mapped.status();
      }
    }
    data[j].resize(block_size_);
    if (hole) {
      std::memset(data[j].data(), 0, block_size_);
      is_hole[j] = 1;
    } else {
      Status rs = ctx.store->ReadBlock(b, data[j].data());
      const bool untouched = idx < touched_first || idx > touched_last;
      if (!rs.ok()) {
        // An unreadable sibling on a boundary write: treat like a stale
        // one (recovered from the old codeword below) instead of failing
        // the whole write.
        if (!untouched) return rs;
        stale |= 1u << j;
      } else if (untouched && ((st.present >> j) & 1) &&
                 (BlockLost(b) ||
                  BlockSum32(data[j].data(), block_size_) != st.sums[j])) {
        // The write hole: this share was NOT part of the write, and the
        // old record says its content is gone (reclaimed or corrupted).
        // Re-encoding parity over it would bless the corruption.
        stale |= 1u << j;
      }
      present |= 1u << j;
    }
    data_ptrs[j] = data[j].data();
  }

  if (stale != 0) {
    if (stats_ != nullptr) {
      for (uint32_t j = 0; j < k; ++j) {
        if ((stale >> j) & 1) stats_->verify_failures.Increment();
      }
    }
    // Recover the stale shares from the OLD codeword: every untouched
    // share that still checks out, holes (zeros then and now — a middle
    // hole only stops being one when written, which makes it touched),
    // and parity validated against the OLD sums. Touched shares hold NEW
    // content and can say nothing about the old codeword.
    std::vector<std::pair<uint8_t, std::vector<uint8_t>>> intact;
    for (uint32_t j = 0; j < k && intact.size() < k; ++j) {
      const uint64_t idx = s * k + j;
      if (idx >= touched_first && idx <= touched_last) continue;
      if ((stale >> j) & 1) continue;
      intact.emplace_back(static_cast<uint8_t>(j), data[j]);
    }
    std::vector<uint8_t> pbuf(block_size_);
    for (uint32_t i = 0; i < p && intact.size() < k; ++i) {
      const uint32_t pb = st.parity[i];
      if (pb == 0 || BlockLost(pb)) continue;
      if (!ctx.store->ReadBlock(pb, pbuf.data()).ok()) continue;
      if (BlockSum32(pbuf.data(), block_size_) != st.sums[k + i]) continue;
      intact.emplace_back(static_cast<uint8_t>(k + i), pbuf);
    }
    if (intact.size() < k) {
      // Not enough of the old codeword survives. Keep the OLD record —
      // the next read of the stale share must still flunk verification —
      // and surface the loss instead of silently certifying it.
      return Status::DataLoss(
          "stale sibling share on partial-stripe write and too few old "
          "shares survive to recover it");
    }
    obs::LatencyTimer decode_timer(
        stats_ != nullptr ? &stats_->decode_ns : nullptr);
    STEGFS_ASSIGN_OR_RETURN(std::vector<std::vector<uint8_t>> decoded,
                            crypto::IdaDecodeStripe(intact, k));
    decode_timer.Stop();
    for (uint32_t j = 0; j < k; ++j) {
      if (!((stale >> j) & 1)) continue;
      const uint64_t idx = s * k + j;
      data[j] = std::move(decoded[j]);
      data_ptrs[j] = data[j].data();
      // Same re-disperse rule as HealStripe: fresh block, old one
      // abandoned (a plain file may own it now).
      STEGFS_ASSIGN_OR_RETURN(uint64_t nb, ctx.alloc->AllocateBlock());
      STEGFS_RETURN_IF_ERROR(ctx.store->WriteBlock(nb, data[j].data()));
      STEGFS_RETURN_IF_ERROR(
          ctx.mapper->Remap(ctx.inode, idx, nb, ctx.store, ctx.inode_dirty));
      if (stats_ != nullptr) stats_->shares_healed.Increment();
    }
  }

  std::vector<uint8_t> parity(static_cast<size_t>(p) * block_size_);
  std::vector<uint8_t*> parity_ptrs(p);
  for (uint32_t i = 0; i < p; ++i) {
    parity_ptrs[i] = parity.data() + static_cast<size_t>(i) * block_size_;
  }
  crypto::IdaEncodeParity(data_ptrs.data(), k, n, block_size_,
                          parity_ptrs.data());

  std::vector<uint64_t> parity_blocks(p);
  for (uint32_t i = 0; i < p; ++i) {
    if (st.parity[i] == 0) {
      STEGFS_ASSIGN_OR_RETURN(uint64_t b, ctx.alloc->AllocateBlock());
      st.parity[i] = static_cast<uint32_t>(b);
    }
    parity_blocks[i] = st.parity[i];
  }
  if (p > 0) {
    STEGFS_RETURN_IF_ERROR(
        ctx.store->WriteBlocks(parity_blocks.data(), p, parity.data()));
  }

  st.present = present;
  for (uint32_t j = 0; j < k; ++j) {
    st.sums[j] = (present >> j) & 1
                     ? BlockSum32(data[j].data(), block_size_)
                     : 0;
  }
  for (uint32_t i = 0; i < p; ++i) {
    st.sums[k + i] = BlockSum32(parity_ptrs[i], block_size_);
  }
  dirty_ = true;
  if (stats_ != nullptr) {
    stats_->stripes_encoded.Increment();
    stats_->shares_written.Add(p);
  }
  return Status::OK();
}

Status RedundancyManager::HealStripe(const RedundancyIoCtx& ctx, uint64_t s,
                                     uint64_t* healed) {
  const uint32_t k = policy_.k;
  const uint32_t n = policy_.n;
  Stripe& st = stripes_[s];

  obs::Span heal_span("red.heal_stripe", "redundancy");
  obs::LatencyTimer heal_timer(
      stats_ != nullptr ? &stats_->heal_ns : nullptr);
  std::vector<GatheredShare> shares;
  STEGFS_RETURN_IF_ERROR(GatherStripe(ctx, s, &shares));
  std::vector<std::pair<uint8_t, std::vector<uint8_t>>> intact;
  for (const GatheredShare& g : shares) {
    if (g.valid) intact.emplace_back(g.index, g.content);
    if (intact.size() == k) break;
  }
  if (intact.size() < k) {
    return Status::DataLoss("stripe lost more shares than the policy tolerates");
  }

  obs::LatencyTimer decode_timer(
      stats_ != nullptr ? &stats_->decode_ns : nullptr);
  STEGFS_ASSIGN_OR_RETURN(std::vector<std::vector<uint8_t>> decoded,
                          crypto::IdaDecodeStripe(intact, k));
  decode_timer.Stop();
  std::vector<const uint8_t*> data_ptrs(k);
  for (uint32_t j = 0; j < k; ++j) data_ptrs[j] = decoded[j].data();
  const uint32_t p = policy_.parity();
  std::vector<uint8_t> parity(static_cast<size_t>(p) * block_size_);
  std::vector<uint8_t*> parity_ptrs(p);
  for (uint32_t i = 0; i < p; ++i) {
    parity_ptrs[i] = parity.data() + static_cast<size_t>(i) * block_size_;
  }
  crypto::IdaEncodeParity(data_ptrs.data(), k, n, block_size_,
                          parity_ptrs.data());

  // Re-disperse every lost share onto a FRESH block. The lost block is
  // never freed: a plain allocation may own it now, and stolen vs
  // corrupted-in-place cannot be told apart — abandoning it is the only
  // deniability-preserving choice.
  uint64_t fixed = 0;
  for (uint32_t j = 0; j < k; ++j) {
    if (shares[j].valid) continue;
    const uint64_t idx = s * k + j;
    STEGFS_ASSIGN_OR_RETURN(uint64_t nb, ctx.alloc->AllocateBlock());
    STEGFS_RETURN_IF_ERROR(ctx.store->WriteBlock(nb, decoded[j].data()));
    STEGFS_RETURN_IF_ERROR(
        ctx.mapper->Remap(ctx.inode, idx, nb, ctx.store, ctx.inode_dirty));
    st.sums[j] = BlockSum32(decoded[j].data(), block_size_);
    st.present |= 1u << j;
    ++fixed;
  }
  for (uint32_t i = 0; i < p; ++i) {
    if (shares[k + i].valid) continue;
    STEGFS_ASSIGN_OR_RETURN(uint64_t nb, ctx.alloc->AllocateBlock());
    STEGFS_RETURN_IF_ERROR(ctx.store->WriteBlock(nb, parity_ptrs[i]));
    st.parity[i] = static_cast<uint32_t>(nb);
    st.sums[k + i] = BlockSum32(parity_ptrs[i], block_size_);
    ++fixed;
  }
  dirty_ = true;
  if (healed != nullptr) *healed += fixed;
  if (stats_ != nullptr) {
    stats_->shares_healed.Add(fixed);
  }
  return Status::OK();
}

Status RedundancyManager::OnExtentRead(const RedundancyIoCtx& ctx,
                                       ReadBlockRef* refs, size_t count) {
  const uint32_t k = policy_.k;
  std::vector<uint64_t> degraded;
  for (size_t r = 0; r < count; ++r) {
    const uint64_t s = refs[r].file_idx / k;
    const uint32_t j = static_cast<uint32_t>(refs[r].file_idx % k);
    if (s >= stripes_.size()) continue;  // uncovered (scrub will rebuild)
    const Stripe& st = stripes_[s];
    bool bad;
    if (BlockLost(refs[r].device_block)) {
      bad = true;
    } else if ((st.present >> j) & 1) {
      bad = BlockSum32(refs[r].data, block_size_) != st.sums[j];
    } else {
      bad = false;
    }
    if (bad) {
      if (stats_ != nullptr) {
        stats_->verify_failures.Increment();
      }
      if (std::find(degraded.begin(), degraded.end(), s) == degraded.end()) {
        degraded.push_back(s);
      }
    }
  }
  for (uint64_t s : degraded) {
    if (stats_ != nullptr) {
      stats_->degraded_reads.Increment();
    }
    STEGFS_RETURN_IF_ERROR(HealStripe(ctx, s, nullptr));
    // Patch the already-read buffers with the repaired content so this
    // read returns healed bytes without re-issuing the batch.
    std::vector<GatheredShare> shares;
    STEGFS_RETURN_IF_ERROR(GatherStripe(ctx, s, &shares));
    for (size_t r = 0; r < count; ++r) {
      if (refs[r].file_idx / k != s) continue;
      const uint32_t j = static_cast<uint32_t>(refs[r].file_idx % k);
      std::memcpy(refs[r].data, shares[j].content.data(), block_size_);
    }
  }
  return Status::OK();
}

Status RedundancyManager::OnExtentWrite(const RedundancyIoCtx& ctx,
                                        uint64_t first_idx,
                                        uint64_t last_idx) {
  const uint64_t first_s = first_idx / policy_.k;
  const uint64_t last_s = last_idx / policy_.k;
  for (uint64_t s = first_s; s <= last_s; ++s) {
    // Boundary stripes re-encode with sibling verification: only
    // [first_idx, last_idx] was actually written, anything else folded
    // into the new parity is verified against the old record first.
    STEGFS_RETURN_IF_ERROR(EncodeStripe(ctx, s, first_idx, last_idx));
  }
  return Status::OK();
}

Status RedundancyManager::OnTruncate(const RedundancyIoCtx& ctx,
                                     uint64_t new_file_blocks) {
  const uint64_t needed = StripesNeeded(new_file_blocks);
  if (stripes_.size() > needed) {
    for (uint64_t s = needed; s < stripes_.size(); ++s) {
      for (uint32_t pb : stripes_[s].parity) {
        // Parity blocks are exclusively ours and unreferenced by the
        // inode, so (unlike lost shares) freeing them is safe.
        if (pb != 0) STEGFS_RETURN_IF_ERROR(ctx.alloc->FreeBlock(pb));
      }
    }
    stripes_.resize(needed);
    dirty_ = true;
  }
  // Members of the boundary stripe became holes: its parity is stale.
  // The shares below the new end were NOT touched by the truncate, so
  // they get the same sibling verification as a partial-stripe write.
  if (needed > 0 && needed <= stripes_.size() &&
      new_file_blocks % policy_.k != 0) {
    STEGFS_RETURN_IF_ERROR(
        EncodeStripe(ctx, needed - 1, new_file_blocks, ~0ULL));
  }
  return Status::OK();
}

Status RedundancyManager::Scrub(const RedundancyIoCtx& ctx,
                                RedundancyScrubReport* report) {
  const uint64_t needed = StripesNeeded(FileBlocks(*ctx.inode));
  // Stale tail (shouldn't survive OnTruncate, but heal it anyway).
  if (stripes_.size() > needed) {
    STEGFS_RETURN_IF_ERROR(OnTruncate(ctx, FileBlocks(*ctx.inode)));
  }
  EnsureStripes(needed);
  for (uint64_t s = 0; s < needed; ++s) {
    report->stripes_checked++;
    Stripe& st = stripes_[s];
    const bool uncovered =
        st.present == 0 &&
        std::all_of(st.parity.begin(), st.parity.end(),
                    [](uint32_t b) { return b == 0; });
    if (uncovered) {
      // Coverage lost (e.g. torn map chain) — rebuild parity from the
      // data shares, which the systematic layout kept intact.
      report->degraded_stripes++;
      STEGFS_RETURN_IF_ERROR(EncodeStripe(ctx, s));
      report->healed_shares += policy_.parity();
      continue;
    }
    std::vector<GatheredShare> shares;
    STEGFS_RETURN_IF_ERROR(GatherStripe(ctx, s, &shares));
    const bool degraded =
        std::any_of(shares.begin(), shares.end(),
                    [](const GatheredShare& g) { return !g.valid; });
    if (!degraded) continue;
    report->degraded_stripes++;
    Status healed = HealStripe(ctx, s, &report->healed_shares);
    if (healed.IsDataLoss()) {
      report->unrecoverable_stripes++;
      continue;  // audit the rest of the object regardless
    }
    STEGFS_RETURN_IF_ERROR(healed);
  }
  return Status::OK();
}

Status RedundancyManager::ReleaseAll(BlockAllocator* alloc) {
  for (const Stripe& st : stripes_) {
    for (uint32_t pb : st.parity) {
      if (pb != 0) STEGFS_RETURN_IF_ERROR(alloc->FreeBlock(pb));
    }
  }
  for (uint32_t b : chain_) {
    STEGFS_RETURN_IF_ERROR(alloc->FreeBlock(b));
  }
  stripes_.clear();
  chain_.clear();
  dirty_ = false;
  return Status::OK();
}

Status RedundancyManager::ShareBlocksForTesting(const RedundancyIoCtx& ctx,
                                                uint64_t s,
                                                std::vector<uint64_t>* out) {
  const uint32_t k = policy_.k;
  const uint64_t file_blocks = FileBlocks(*ctx.inode);
  out->assign(policy_.n, 0);
  BlockMapper::Memo memo;
  for (uint32_t j = 0; j < k; ++j) {
    const uint64_t idx = s * k + j;
    if (idx >= file_blocks) continue;
    auto mapped = ctx.mapper->Map(*ctx.inode, idx, ctx.store, &memo);
    if (mapped.ok()) {
      (*out)[j] = mapped.value();
    } else if (!mapped.status().IsNotFound()) {
      return mapped.status();
    }
  }
  if (s < stripes_.size()) {
    for (uint32_t i = 0; i < policy_.parity(); ++i) {
      (*out)[k + i] = stripes_[s].parity[i];
    }
  }
  return Status::OK();
}

}  // namespace stegfs
