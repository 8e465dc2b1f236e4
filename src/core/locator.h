// The keyed header locator (paper sections 3.1 and 4).
//
// Creation: hash(name || key) seeds a recursive-SHA-256 generator of data-
// region block numbers; the first candidate that is FREE in the bitmap
// becomes the header block.
//
// Retrieval: the same candidate sequence is probed; for each candidate that
// is ALLOCATED in the bitmap, the block's signature cells are decrypted
// with the key and compared against SHA-256(name || key). Free candidates
// are skipped (they were occupied at creation time, or have been freed
// since — either way the header cannot be there now... unless it was
// freed, which means the object was deleted). A probe limit bounds the
// cost of looking up objects that do not exist; with the volume never 100%
// full, the real header is found long before the limit.
//
// The walk runs in windows: 16 candidates, doubling to 256. Each window is
// tested against the bitmap, its allocated blocks leave as ONE cache probe
// batch (BufferCache::ProbeBatch: no insert, no eviction), and only the
// first two 16-byte cells of each are decrypted (DecryptPrefix). The first
// match in sequence order wins, with `probes` = its 1-based position, so
// results and probe counts equal the one-candidate-at-a-time loop's. The
// small first window keeps a connect (~12 probes at 90% fill) cheap; the
// doubling keeps a create's 10 000-candidate NotFound walk at 43 batches.
#ifndef STEGFS_CORE_LOCATOR_H_
#define STEGFS_CORE_LOCATOR_H_

#include <cstdint>
#include <string>

#include "cache/buffer_cache.h"
#include "crypto/block_crypter.h"
#include "crypto/prng.h"
#include "fs/bitmap.h"
#include "fs/layout.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/status.h"
#include "util/statusor.h"

namespace stegfs {

// Deterministic candidate sequence for (physical_name, access_key).
class CandidateSequence {
 public:
  CandidateSequence(const std::string& physical_name,
                    const std::string& access_key, const Layout& layout);

  // Next candidate block number, always within the data region.
  uint64_t Next();

 private:
  crypto::HashChainPrng prng_;
  uint64_t data_start_;
};

struct LocateResult {
  uint64_t header_block = 0;
  uint32_t probes = 0;  // candidates examined (for the A3 ablation)
};

// Volume-wide FindHeader instruments. They live in process memory only;
// StegFs owns one set and registers it in the mount's registry.
struct LocatorStats {
  obs::Histogram probes_found;      // probes per walk that found a header
  obs::Histogram probes_not_found;  // probes per walk that ended NotFound
  obs::Counter candidate_reads;     // allocated candidates read by probes
  obs::Counter candidate_cache_hits;  // ... of those, served by the cache

  void RegisterWith(obs::MetricsRegistry* reg) const {
    reg->RegisterCountHistogram("stegfs_locator_probes_found",
                                "Probes per header walk that found it",
                                &probes_found);
    reg->RegisterCountHistogram("stegfs_locator_probes_not_found",
                                "Probes per header walk that ended NotFound",
                                &probes_not_found);
    reg->RegisterCounter("stegfs_locator_candidate_reads_total",
                         "Allocated candidate blocks read by probes",
                         &candidate_reads);
    reg->RegisterCounter("stegfs_locator_candidate_cache_hits_total",
                         "Probe candidate reads served by the cache",
                         &candidate_cache_hits);
  }
};

class HeaderLocator {
 public:
  // `stats` and `trace` may be null (nothing is then recorded).
  HeaderLocator(BufferCache* cache, BlockBitmap* bitmap, const Layout& layout,
                uint32_t probe_limit, LocatorStats* stats = nullptr,
                obs::TraceRecorder* trace = nullptr)
      : cache_(cache),
        bitmap_(bitmap),
        layout_(layout),
        probe_limit_(probe_limit),
        stats_(stats),
        trace_(trace) {}

  // Finds a free block for a new header (first free candidate) and marks it
  // allocated in the bitmap.
  StatusOr<LocateResult> ClaimHeaderBlock(const std::string& physical_name,
                                          const std::string& access_key);

  // Finds an existing header by signature match. `crypter` must be keyed by
  // the same access key. NotFound after probe_limit candidates. The walk
  // is a `locator.find` span.
  StatusOr<LocateResult> FindHeader(const std::string& physical_name,
                                    const std::string& access_key,
                                    const crypto::BlockCrypter& crypter);

 private:
  BufferCache* cache_;
  BlockBitmap* bitmap_;
  Layout layout_;
  uint32_t probe_limit_;
  LocatorStats* stats_;
  obs::TraceRecorder* trace_;
};

}  // namespace stegfs

#endif  // STEGFS_CORE_LOCATOR_H_
