// Aggregate ops/sec scaling of the concurrency engine: K OS threads, each a
// distinct user session, driving one mounted StegFs volume with a mixed
// read-heavy hidden-file workload (7 whole-file reads : 1 partial rewrite).
//
// The device is an in-memory volume throttled to a fixed per-block service
// latency, so — exactly as on a real disk — aggregate throughput grows with
// concurrency only if sessions can overlap their device waits. That is what
// the sharded cache + per-session locking buy: pre-engine, the stack
// serialized every block access behind one structure.
//
// Output: a table on stdout plus BENCH_concurrency.json (machine-readable,
// archived by CI). Acceptance floor for the engine: >2x aggregate ops/sec
// at 8 threads vs 1 thread.
//
// --durability=journal additionally runs the DURABLE-WRITE scaling leg
// (ISSUE 9): K sessions issuing journaled plain WriteFile commits against
// a device whose Sync() costs real wall-clock time (the fdatasync
// stand-in). Aggregate durable ops/sec grows with concurrency only if
// sessions share barrier sequences — which is exactly what journal group
// commit buys: concurrent transactions merge into one record under one
// barrier triple. The leg lands as a "durable" section in the same JSON;
// acceptance floor (multi-core runners): >= 2x at 8 sessions vs 1.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "blockdev/mem_block_device.h"
#include "blockdev/throttled_block_device.h"
#include "core/stegfs.h"
#include "obs/metrics.h"
#include "util/random.h"

using namespace stegfs;

namespace {

constexpr uint32_t kBlockSize = 1024;
constexpr uint64_t kNumBlocks = 64 << 10;  // 64 MB volume
constexpr int kMaxUsers = 16;
constexpr int kFilesPerUser = 4;
constexpr size_t kFileBytes = 64 << 10;  // 64 KB: working set >> cache
constexpr int kOpsPerThread = 96;
constexpr auto kLatency = std::chrono::microseconds(40);

std::string Uid(int t) { return "user" + std::to_string(t); }
std::string Uak(int t) { return "uak" + std::to_string(t); }
std::string Obj(int f) { return "file" + std::to_string(f); }

struct LevelResult {
  int threads = 0;
  int total_ops = 0;
  double seconds = 0;
  double ops_per_sec = 0;
  double speedup = 0;
  // Per-level hidden-op latency percentiles (us), from the mount's
  // histogram deltas across the level.
  double read_p50_us = 0;
  double read_p99_us = 0;
  double write_p50_us = 0;
  double write_p99_us = 0;
};

// The mount (and so its registry) lives across all levels; per-level
// percentiles come from bucket deltas. Bucket counts are monotonic, so
// the difference is exactly the level's samples. `max` is not
// delta-able — carry the running max, which only loosens Percentile()'s
// clamp, never the bucket math.
obs::HistogramSnapshot Delta(const obs::HistogramSnapshot& after,
                             const obs::HistogramSnapshot& before) {
  obs::HistogramSnapshot d;
  d.count = after.count - before.count;
  d.sum = after.sum - before.sum;
  d.max = after.max;
  for (size_t i = 0; i < d.buckets.size(); ++i) {
    d.buckets[i] = after.buckets[i] - before.buckets[i];
  }
  return d;
}

obs::HistogramSnapshot HistOrEmpty(const obs::RegistrySnapshot& snap,
                                   const char* name) {
  const obs::HistogramSnapshot* h = snap.histogram(name);
  return h != nullptr ? *h : obs::HistogramSnapshot{};
}

double Us(uint64_t ns) { return static_cast<double>(ns) / 1e3; }

// --- durable-write scaling leg (--durability=journal) -------------------

constexpr int kDurableOpsPerThread = 48;
constexpr size_t kDurableWriteBytes = 3 << 10;  // ~3 KB: a few-block txn
constexpr auto kSyncLatency = std::chrono::microseconds(400);

struct DurableResult {
  int threads = 0;
  int total_ops = 0;
  double seconds = 0;
  double ops_per_sec = 0;
  double speedup = 0;
  uint64_t txns = 0;     // group-commit txns this level
  uint64_t batches = 0;  // batch records this level
};

// Runs the durable leg on its own volume (a fresh mount per call keeps it
// independent of the hidden-mix leg's cache state). Returns false on any
// failed operation.
bool RunDurableLeg(std::vector<DurableResult>* results) {
  MemBlockDevice raw(kBlockSize, kNumBlocks);
  StegFormatOptions fo;
  fo.params.dummy_file_count = 2;
  fo.params.dummy_file_avg_bytes = 64 << 10;
  fo.entropy = "bench-concurrency-durable";
  fo.journal_blocks = 64;
  if (!StegFs::Format(&raw, fo).ok()) return false;

  // Reads/writes stay cheap; the barrier is what costs — group commit's
  // whole value is amortizing that cost across sessions.
  ThrottledBlockDevice dev(&raw, std::chrono::microseconds(2),
                           std::chrono::microseconds(2), kSyncLatency);
  StegFsOptions so;
  so.mount.durability = Durability::kJournal;
  auto mounted = StegFs::Mount(&dev, so);
  if (!mounted.ok()) {
    std::fprintf(stderr, "durable mount failed: %s\n",
                 mounted.status().ToString().c_str());
    return false;
  }
  StegFs* fs = mounted->get();

  std::printf("\ndurable-write scaling (journal group commit, %lld us "
              "sync barrier):\n",
              static_cast<long long>(kSyncLatency.count()));
  std::printf("%-10s%12s%10s%12s%10s%12s%12s\n", "threads", "ops", "seconds",
              "ops/sec", "speedup", "txns", "batches");
  const int kDurableLevels[] = {1, 2, 4, 8};
  for (int level : kDurableLevels) {
    const journal::JournalMetrics& jm = fs->plain()->journal()->metrics();
    const uint64_t txns0 = jm.group_txns.value();
    const uint64_t batches0 = jm.group_batches.value();
    std::vector<std::thread> threads;
    std::atomic<int> failed_ops{0};
    auto start = std::chrono::steady_clock::now();
    for (int t = 0; t < level; ++t) {
      threads.emplace_back([fs, level, t, &failed_ops] {
        Xoshiro rng(level * 7000 + t);
        std::string content(kDurableWriteBytes, '\0');
        for (int op = 0; op < kDurableOpsPerThread; ++op) {
          rng.FillBytes(reinterpret_cast<uint8_t*>(content.data()),
                        content.size());
          std::string path = "/dur_l" + std::to_string(level) + "_t" +
                             std::to_string(t) + "_f" + std::to_string(op % 4);
          if (!fs->plain()->WriteFile(path, content).ok()) {
            failed_ops.fetch_add(1);
            return;
          }
        }
      });
    }
    for (auto& th : threads) th.join();
    auto end = std::chrono::steady_clock::now();
    if (failed_ops.load() != 0) {
      std::fprintf(stderr, "%d durable op(s) failed at %d threads\n",
                   failed_ops.load(), level);
      return false;
    }

    DurableResult r;
    r.threads = level;
    r.total_ops = level * kDurableOpsPerThread;
    r.seconds = std::chrono::duration<double>(end - start).count();
    r.ops_per_sec = r.total_ops / r.seconds;
    r.speedup = results->empty()
                    ? 1.0
                    : r.ops_per_sec / results->front().ops_per_sec;
    r.txns = jm.group_txns.value() - txns0;
    r.batches = jm.group_batches.value() - batches0;
    results->push_back(r);
    std::printf("%-10d%12d%10.3f%12.1f%9.2fx%12llu%12llu\n", r.threads,
                r.total_ops, r.seconds, r.ops_per_sec, r.speedup,
                static_cast<unsigned long long>(r.txns),
                static_cast<unsigned long long>(r.batches));
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bool durable_mode = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--durability=journal") durable_mode = true;
  }
  bench::PrintHeader(
      "Concurrent throughput: real threads, one volume",
      "aggregate ops/sec vs threads; 64 MB volume, 40us/block device, "
      "7:1 read:write hidden-file mix");

  MemBlockDevice raw(kBlockSize, kNumBlocks);
  StegFormatOptions fo;
  fo.params.dummy_file_count = 2;
  fo.params.dummy_file_avg_bytes = 64 << 10;
  fo.entropy = "bench-concurrency";
  if (!StegFs::Format(&raw, fo).ok()) {
    std::fprintf(stderr, "format failed\n");
    return 1;
  }

  ThrottledBlockDevice dev(&raw, kLatency, kLatency);
  // Device traffic from mount on; Format's writes are not this bench's.
  const DeviceMetrics* raw_io = raw.device_metrics();
  const uint64_t reads_before = raw_io->blocks_read.value();
  const uint64_t writes_before = raw_io->blocks_written.value();
  StegFsOptions so;
  so.mount.cache_blocks = 128;  // << per-user working set: miss-heavy
  so.mount.cache_shards = 16;
  auto mounted = StegFs::Mount(&dev, so);
  if (!mounted.ok()) {
    std::fprintf(stderr, "mount failed: %s\n",
                 mounted.status().ToString().c_str());
    return 1;
  }
  StegFs* fs = mounted->get();

  std::fprintf(stderr, "[throughput] populating %d users x %d files...\n",
               kMaxUsers, kFilesPerUser);
  Xoshiro data_rng(20260730);
  for (int t = 0; t < kMaxUsers; ++t) {
    for (int f = 0; f < kFilesPerUser; ++f) {
      std::string content(kFileBytes, '\0');
      data_rng.FillBytes(reinterpret_cast<uint8_t*>(content.data()),
                         content.size());
      if (!fs->StegCreate(Uid(t), Obj(f), Uak(t), HiddenType::kFile).ok() ||
          !fs->StegConnect(Uid(t), Obj(f), Uak(t)).ok() ||
          !fs->HiddenWriteAll(Uid(t), Obj(f), content).ok()) {
        std::fprintf(stderr, "populate failed (user %d file %d)\n", t, f);
        return 1;
      }
    }
  }

  const int kLevels[] = {1, 2, 4, 8, 16};
  std::vector<LevelResult> results;
  std::printf("%-10s%12s%10s%12s%10s%18s%18s\n", "threads", "ops", "seconds",
              "ops/sec", "speedup", "rd p50/p99 us", "wr p50/p99 us");
  for (int level : kLevels) {
    // Cold cache per level so every level pays the same miss profile.
    if (!fs->Flush().ok()) return 1;
    fs->plain()->cache()->DropAll();

    obs::RegistrySnapshot before = fs->plain()->metrics_registry()->Snapshot();
    std::vector<std::thread> threads;
    std::atomic<int> failed_ops{0};
    auto start = std::chrono::steady_clock::now();
    for (int t = 0; t < level; ++t) {
      threads.emplace_back([fs, level, t, &failed_ops] {
        Xoshiro rng(level * 1000 + t);
        std::string scratch(4096, '\0');
        for (int op = 0; op < kOpsPerThread; ++op) {
          int f = static_cast<int>(rng.Uniform(kFilesPerUser));
          if (op % 8 == 7) {
            // Partial rewrite somewhere inside the file.
            rng.FillBytes(reinterpret_cast<uint8_t*>(scratch.data()),
                          scratch.size());
            uint64_t off = rng.Uniform(kFileBytes - scratch.size());
            if (!fs->HiddenWrite(Uid(t), Obj(f), off, scratch).ok()) {
              failed_ops.fetch_add(1);
              return;
            }
          } else {
            auto data = fs->HiddenReadAll(Uid(t), Obj(f));
            if (!data.ok() || data->size() != kFileBytes) {
              failed_ops.fetch_add(1);
              return;
            }
          }
        }
      });
    }
    for (auto& th : threads) th.join();
    auto end = std::chrono::steady_clock::now();
    if (failed_ops.load() != 0) {
      // A failed op also aborts its thread's remaining ops, so every
      // derived number would be fiction — refuse to report any.
      std::fprintf(stderr, "%d op(s) failed at %d threads; aborting\n",
                   failed_ops.load(), level);
      return 1;
    }

    LevelResult r;
    r.threads = level;
    r.total_ops = level * kOpsPerThread;
    r.seconds = std::chrono::duration<double>(end - start).count();
    r.ops_per_sec = r.total_ops / r.seconds;
    r.speedup = results.empty() ? 1.0
                                : r.ops_per_sec / results.front().ops_per_sec;
    obs::RegistrySnapshot after = fs->plain()->metrics_registry()->Snapshot();
    obs::HistogramSnapshot rd =
        Delta(HistOrEmpty(after, "stegfs_hidden_read_seconds"),
              HistOrEmpty(before, "stegfs_hidden_read_seconds"));
    obs::HistogramSnapshot wr =
        Delta(HistOrEmpty(after, "stegfs_hidden_write_seconds"),
              HistOrEmpty(before, "stegfs_hidden_write_seconds"));
    r.read_p50_us = Us(rd.Percentile(0.5));
    r.read_p99_us = Us(rd.Percentile(0.99));
    r.write_p50_us = Us(wr.Percentile(0.5));
    r.write_p99_us = Us(wr.Percentile(0.99));
    results.push_back(r);
    std::printf("%-10d%12d%10.3f%12.1f%9.2fx%8.0f /%7.0f%9.0f /%7.0f\n",
                r.threads, r.total_ops, r.seconds, r.ops_per_sec, r.speedup,
                r.read_p50_us, r.read_p99_us, r.write_p50_us, r.write_p99_us);
  }

  const CacheMetrics& cm = fs->plain()->cache()->metrics();
  const uint64_t hits = cm.hits.value();
  const uint64_t misses = cm.misses.value();
  std::printf("\ncache: %llu hits, %llu misses (%.1f%% hit rate), "
              "%llu writebacks; device: %llu reads, %llu writes\n",
              static_cast<unsigned long long>(hits),
              static_cast<unsigned long long>(misses),
              hits + misses == 0 ? 0.0 : 100.0 * hits / (hits + misses),
              static_cast<unsigned long long>(cm.writebacks.value()),
              static_cast<unsigned long long>(raw_io->blocks_read.value() -
                                              reads_before),
              static_cast<unsigned long long>(raw_io->blocks_written.value() -
                                              writes_before));

  double speedup8 = 0;
  for (const LevelResult& r : results) {
    if (r.threads == 8) speedup8 = r.speedup;
  }
  std::printf("scaling check: %.2fx aggregate ops/sec at 8 threads vs 1 "
              "(target > 2x): %s\n",
              speedup8, speedup8 > 2.0 ? "PASS" : "FAIL");

  // Durable-write leg: only meaningful where sessions can actually run
  // concurrently, so the >= 2x gate applies on multi-core runners only
  // (single-core numbers are still measured and reported).
  std::vector<DurableResult> durable;
  double durable_speedup8 = 0;
  bool durable_pass = true;
  const bool multi_core = std::thread::hardware_concurrency() >= 4;
  if (durable_mode) {
    if (!RunDurableLeg(&durable)) return 1;
    for (const DurableResult& r : durable) {
      if (r.threads == 8) durable_speedup8 = r.speedup;
    }
    durable_pass = !multi_core || durable_speedup8 >= 2.0;
    std::printf("durable scaling check: %.2fx aggregate durable writes at 8 "
                "sessions vs 1 (target >= 2x, %s): %s\n",
                durable_speedup8,
                multi_core ? "gated" : "single-core runner, ungated",
                durable_pass ? "PASS" : "FAIL");
  }

  std::FILE* json = std::fopen("BENCH_concurrency.json", "w");
  if (json != nullptr) {
    std::fprintf(json,
                 "{\n  \"bench\": \"concurrent_throughput\",\n"
                 "  \"volume_mb\": %llu,\n  \"block_size\": %u,\n"
                 "  \"device_latency_us\": %lld,\n"
                 "  \"workload\": \"7:1 read:write, %d ops/thread, "
                 "%d KB files\",\n  \"levels\": [\n",
                 static_cast<unsigned long long>(
                     kBlockSize * kNumBlocks >> 20),
                 kBlockSize, static_cast<long long>(kLatency.count()),
                 kOpsPerThread, static_cast<int>(kFileBytes >> 10));
    for (size_t i = 0; i < results.size(); ++i) {
      const LevelResult& r = results[i];
      std::fprintf(json,
                   "    {\"threads\": %d, \"ops\": %d, \"seconds\": %.4f, "
                   "\"ops_per_sec\": %.1f, \"speedup\": %.3f, "
                   "\"read_p50_us\": %.1f, \"read_p99_us\": %.1f, "
                   "\"write_p50_us\": %.1f, \"write_p99_us\": %.1f}%s\n",
                   r.threads, r.total_ops, r.seconds, r.ops_per_sec,
                   r.speedup, r.read_p50_us, r.read_p99_us, r.write_p50_us,
                   r.write_p99_us, i + 1 < results.size() ? "," : "");
    }
    std::fprintf(json,
                 "  ],\n  \"speedup_at_8_threads\": %.3f,\n"
                 "  \"target\": 2.0,\n  \"pass\": %s",
                 speedup8, speedup8 > 2.0 ? "true" : "false");
    if (durable_mode) {
      std::fprintf(json,
                   ",\n  \"durable\": {\n"
                   "    \"workload\": \"journaled plain WriteFile, %d "
                   "ops/session, %d KB writes\",\n"
                   "    \"sync_latency_us\": %lld,\n    \"levels\": [\n",
                   kDurableOpsPerThread,
                   static_cast<int>(kDurableWriteBytes >> 10),
                   static_cast<long long>(kSyncLatency.count()));
      for (size_t i = 0; i < durable.size(); ++i) {
        const DurableResult& r = durable[i];
        std::fprintf(json,
                     "      {\"threads\": %d, \"ops\": %d, \"seconds\": "
                     "%.4f, \"ops_per_sec\": %.1f, \"speedup\": %.3f, "
                     "\"group_txns\": %llu, \"group_batches\": %llu}%s\n",
                     r.threads, r.total_ops, r.seconds, r.ops_per_sec,
                     r.speedup, static_cast<unsigned long long>(r.txns),
                     static_cast<unsigned long long>(r.batches),
                     i + 1 < durable.size() ? "," : "");
      }
      std::fprintf(json,
                   "    ],\n    \"speedup_at_8_sessions\": %.3f,\n"
                   "    \"target\": 2.0,\n    \"gated\": %s,\n"
                   "    \"pass\": %s\n  }",
                   durable_speedup8, multi_core ? "true" : "false",
                   durable_pass ? "true" : "false");
    }
    std::fprintf(json, "\n}\n");
    std::fclose(json);
    std::printf("wrote BENCH_concurrency.json\n");
  }

  bench::PrintFooter();
  return speedup8 > 2.0 && durable_pass ? 0 : 1;
}
