#include "core/locator.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "crypto/keys.h"

namespace stegfs {

CandidateSequence::CandidateSequence(const std::string& physical_name,
                                     const std::string& access_key,
                                     const Layout& layout)
    : prng_(crypto::LocatorSeed(physical_name, access_key),
            layout.data_blocks()),
      data_start_(layout.data_start) {}

uint64_t CandidateSequence::Next() { return data_start_ + prng_.Next(); }

StatusOr<LocateResult> HeaderLocator::ClaimHeaderBlock(
    const std::string& physical_name, const std::string& access_key) {
  CandidateSequence seq(physical_name, access_key, layout_);
  LocateResult result;
  for (uint32_t i = 0; i < probe_limit_; ++i) {
    uint64_t candidate = seq.Next();
    ++result.probes;
    if (!bitmap_->IsAllocated(candidate)) {
      Status claimed = bitmap_->Allocate(candidate);
      if (claimed.IsFailedPrecondition()) {
        // Lost an allocation race: another session claimed the candidate
        // between the probe and the test-and-set. The next candidate is as
        // good as this one was.
        continue;
      }
      STEGFS_RETURN_IF_ERROR(claimed);
      result.header_block = candidate;
      return result;
    }
  }
  return Status::NoSpace("no free candidate block for hidden header");
}

StatusOr<LocateResult> HeaderLocator::FindHeader(
    const std::string& physical_name, const std::string& access_key,
    const crypto::BlockCrypter& crypter) {
  constexpr uint32_t kFirstWindow = 16;
  constexpr uint32_t kMaxWindow = 256;
  constexpr size_t kSigCells = sizeof(crypto::Sha256Digest) / 16;
  obs::Span span(trace_, "locator.find", "locator");
  CandidateSequence seq(physical_name, access_key, layout_);
  const crypto::Sha256Digest expect =
      crypto::FileSignature(physical_name, access_key);
  const size_t bs = layout_.block_size;
  std::vector<uint64_t> blocks;
  std::vector<uint32_t> probe_of;  // 1-based sequence position per block
  std::vector<crypto::CryptSpan> spans;
  std::vector<uint8_t> buf;
  std::vector<uint8_t> sigs;
  uint32_t examined = 0;
  for (uint32_t window = kFirstWindow; examined < probe_limit_;
       window = std::min(window * 2, kMaxWindow)) {
    blocks.clear();
    probe_of.clear();
    const uint32_t end = examined + std::min(window, probe_limit_ - examined);
    while (examined < end) {
      const uint64_t candidate = seq.Next();
      ++examined;
      if (!bitmap_->IsAllocated(candidate)) continue;
      blocks.push_back(candidate);
      probe_of.push_back(examined);
    }
    if (blocks.empty()) continue;
    buf.resize(blocks.size() * bs);
    size_t hits = 0;
    STEGFS_RETURN_IF_ERROR(
        cache_->ProbeBatch(blocks.data(), blocks.size(), buf.data(), &hits));
    if (stats_ != nullptr) {
      stats_->candidate_reads.Add(blocks.size());
      stats_->candidate_cache_hits.Add(hits);
    }
    spans.clear();
    for (size_t k = 0; k < blocks.size(); ++k) {
      spans.push_back({blocks[k], buf.data() + k * bs});
    }
    sigs.resize(blocks.size() * expect.size());
    crypter.DecryptPrefix(spans.data(), spans.size(), kSigCells, sigs.data());
    for (size_t k = 0; k < blocks.size(); ++k) {
      if (std::memcmp(sigs.data() + k * expect.size(), expect.data(),
                      expect.size()) == 0) {
        if (stats_ != nullptr) stats_->probes_found.Record(probe_of[k]);
        LocateResult result;
        result.header_block = blocks[k];
        result.probes = probe_of[k];
        return result;
      }
    }
  }
  if (stats_ != nullptr) stats_->probes_not_found.Record(examined);
  return Status::NotFound("hidden object not found (name/key mismatch?)");
}

}  // namespace stegfs
