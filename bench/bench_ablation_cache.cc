// Ablation A4: buffer-cache size vs StegFS access time.
//
// StegFS's random placement defeats read-ahead but not caching: repeated
// reads of a working set are served from the buffer cache. This bench reads
// a small working set repeatedly under varying cache sizes and reports the
// simulated time per pass plus the hit rate.
#include <cstdio>

#include "bench/bench_util.h"
#include "blockdev/mem_block_device.h"
#include "blockdev/sim_disk.h"
#include "cache/buffer_cache.h"
#include "core/hidden_object.h"
#include "fs/bitmap.h"
#include "util/random.h"

using namespace stegfs;

int main() {
  bench::PrintHeader(
      "Ablation A4: Buffer Cache Size vs StegFS Read Time",
      "8 hidden files x 256 KB working set, 3 read passes, 64 MB volume");

  const size_t kCacheSizes[] = {64, 256, 1024, 4096, 16384};
  std::printf("%-14s %14s %14s %12s\n", "cache blocks", "pass1 (s)",
              "pass3 (s)", "hit rate");

  for (size_t cache_blocks : kCacheSizes) {
    Layout layout = Layout::Compute(1024, 65536, 1024);
    auto sim = std::make_unique<SimDisk>(
        std::make_unique<MemBlockDevice>(layout.block_size,
                                         layout.num_blocks),
        DiskModelConfig{});
    BufferCache cache(sim.get(), cache_blocks, WritePolicy::kWriteThrough);
    BlockBitmap bitmap(layout);
    Xoshiro rng(9);

    HiddenVolume vol;
    vol.cache = &cache;
    vol.bitmap = &bitmap;
    vol.layout = layout;
    vol.rng = &rng;
    vol.probe_limit = 10000;

    // Build the working set.
    std::vector<std::unique_ptr<HiddenObject>> objs;
    for (int i = 0; i < 8; ++i) {
      auto obj = HiddenObject::Create(vol, "ws" + std::to_string(i),
                                      "k" + std::to_string(i),
                                      HiddenType::kFile);
      if (!obj.ok()) return 1;
      std::string content(256 << 10, '\0');
      rng.FillBytes(reinterpret_cast<uint8_t*>(content.data()),
                    content.size());
      if (!(*obj)->WriteAll(content).ok()) return 1;
      objs.push_back(std::move(*obj));
    }
    sim->ResetClock();

    double pass_times[3] = {0, 0, 0};
    for (int pass = 0; pass < 3; ++pass) {
      double before = sim->sim_time_seconds();
      for (auto& obj : objs) {
        auto data = obj->ReadAll();
        if (!data.ok()) return 1;
      }
      pass_times[pass] = sim->sim_time_seconds() - before;
    }

    const uint64_t hits = cache.metrics().hits.value();
    const uint64_t lookups = hits + cache.metrics().misses.value();
    std::printf("%-14zu %14.3f %14.3f %11.1f%%\n", cache_blocks,
                pass_times[0], pass_times[2],
                lookups == 0 ? 0.0 : 100.0 * hits / lookups);
  }

  std::printf("\nReading: once the cache covers the working set (2048 "
              "blocks here), repeat\npasses become free — StegFS pays its "
              "random-placement penalty only on cold reads.\n");
  bench::PrintFooter();
  return 0;
}
