// Batched data path: per-block vs batched vs ASYNC sequential throughput
// on a real host-file volume (FileBlockDevice), through the full
// hidden-object stack (cache -> ESSIV crypto -> device).
//
// Phase A ("per-block") replays the pre-batching data path: one
// block-sized call per I/O (no extent batching, no coalescing, no
// readahead) with the AES tier forced to the t-table software
// implementation. Phase B is the PR 3 synchronous batch path: whole
// extents at four sizes, best AES tier, call-and-wait vectored device
// I/O. Phase C attaches the thread-pool async I/O engine (--engine=auto,
// the default; --engine=sync skips it), whose workers help the caller
// with a large hidden extent's 16-block chunks (each chunk's device read
// and decrypt) — the case that matters for random-placed hidden blocks,
// where coalescing can never help. Extents of more than 64 blocks stream
// past the cache on both mounts; the engine only adds helpers.
// A readahead window sweep on the async mount closes with the numbers
// behind the default window choice.
//
// Output: a table on stdout plus BENCH_io.json and per-phase latency
// percentiles in BENCH_latency.json (both archived by CI).
// Acceptance floors: batched 1 MiB sequential reads >= 2x per-block, and
// async 1 MiB hidden reads >= 1.5x the synchronous batch path, i.e. the
// engine's helpers must pay for themselves over the caller alone — the
// latter enforced on >= 2 core hosts only (on one core the helpers have
// no core to run on; the number is still reported).
// Phase E covers the redundancy path: the SIMD GF(256) parity encoder
// must be >= 4x the scalar backend on AVX2 hosts (mirroring the AES tier
// check), and 1 MiB sequential hidden reads through a kIda(3,4) object
// must stay within 35% of an unprotected object.
// Three gates compare two mounts of one volume: async vs sync batch reads
// (>= 1.5x), the journal's write overhead (<= 15%, phase D) and the retry
// layer's read overhead (<= 3%, phase F). Each opens both mounts and
// times them ABAB, pass by pass (Interleaved below), so host load that
// drifts during the gate hits both sides alike, and gates on the median of
// the per-round ratios.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "blockdev/file_block_device.h"
#include "core/stegfs.h"
#include "crypto/aes.h"
#include "crypto/gf256.h"
#include "crypto/gf256_simd.h"
#include "obs/metrics.h"

using namespace stegfs;

namespace {

constexpr uint32_t kBlockSize = 4096;
constexpr uint64_t kNumBlocks = 16 << 10;  // 64 MB volume
constexpr size_t kFileBytes = 8 << 20;     // 8 MB hidden file
constexpr size_t kExtentsKb[] = {4, 64, 256, 1024};
constexpr int kPasses = 3;
constexpr int kGatePasses = 9;  // per side, for the interleaved gates
constexpr double kTarget = 2.0;
constexpr double kAsyncTarget = 1.5;
constexpr uint32_t kReadaheadWindows[] = {0, 8, 16, 32};
constexpr uint32_t kDefaultReadahead = 16;
constexpr double kGfTarget = 4.0;        // SIMD vs scalar GF(256) encode
constexpr double kIdaReadTarget = 0.65;  // kIda(3,4) vs kNone 1 MiB reads

const char* kUid = "bench";
const char* kObj = "seqfile";
const char* kUak = "bench-uak";

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Mbps(double seconds) {
  return static_cast<double>(kFileBytes) / seconds / 1e6;
}

// Reads the whole file in `chunk`-sized calls from a cold cache; returns
// MB/s, or -1 on an I/O error.
double ReadPass(StegFs* fs, const char* obj, size_t chunk) {
  fs->plain()->cache()->DropAll();
  std::string out;
  double t0 = Now();
  for (size_t off = 0; off < kFileBytes; off += chunk) {
    out.clear();
    if (!fs->HiddenRead(kUid, obj, off, chunk, &out).ok()) return -1;
  }
  return Mbps(Now() - t0);
}

// MB/s of the best of kPasses read passes.
double TimedReadObj(StegFs* fs, const char* obj, size_t chunk) {
  double best = 0;
  for (int p = 0; p < kPasses; ++p) {
    double r = ReadPass(fs, obj, chunk);
    if (r < 0) return -1;
    best = std::max(best, r);
  }
  return best;
}

double TimedRead(StegFs* fs, size_t chunk) {
  return TimedReadObj(fs, kObj, chunk);
}

// Overwrites the whole (already allocated) file in `chunk`-sized calls;
// the pass ends with a Flush so the write-back path to the device is
// inside the timed region. Returns MB/s, or -1 on an I/O error.
double WritePass(StegFs* fs, size_t chunk) {
  std::string data(chunk, '\x5a');
  double t0 = Now();
  for (size_t off = 0; off < kFileBytes; off += chunk) {
    if (!fs->HiddenWrite(kUid, kObj, off, data).ok()) return -1;
  }
  if (!fs->Flush().ok()) return -1;
  return Mbps(Now() - t0);
}

// MB/s of the best of kPasses write passes.
double TimedWrite(StegFs* fs, size_t chunk) {
  double best = 0;
  for (int p = 0; p < kPasses; ++p) {
    double w = WritePass(fs, chunk);
    if (w < 0) return -1;
    best = std::max(best, w);
  }
  return best;
}

double Median(std::vector<double> v) {
  std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
  return v[v.size() / 2];
}

// Times `pass` on two open mounts ABAB for kGatePasses rounds. Returns the
// median over rounds of b's MB/s divided by a's (one lucky pass on either
// side cannot move it), or -1 on an I/O error. *mbps_a and *mbps_b get
// each side's median MB/s.
double Interleaved(double (*pass)(StegFs*), StegFs* a, StegFs* b,
                   double* mbps_a, double* mbps_b) {
  std::vector<double> ra, rb, ratio;
  for (int p = 0; p < kGatePasses; ++p) {
    ra.push_back(pass(a));
    rb.push_back(pass(b));
    if (ra.back() < 0 || rb.back() < 0) return -1;
    ratio.push_back(rb.back() / ra.back());
  }
  *mbps_a = Median(ra);
  *mbps_b = Median(rb);
  return Median(ratio);
}

double GateRead(StegFs* fs) { return ReadPass(fs, kObj, 1024 << 10); }
double GateWrite(StegFs* fs) { return WritePass(fs, 1024 << 10); }

// Same two measurements on a PLAIN file (contiguous allocation — the
// paper's CleanDisk substrate). This is where device-level run coalescing
// shows up: hidden blocks are uniformly random by design, so their extents
// never form contiguous runs.
const char* kPlainPath = "/seq.dat";

double TimedPlainRead(StegFs* fs, size_t chunk) {
  double best = 0;
  for (int p = 0; p < kPasses; ++p) {
    fs->plain()->cache()->DropAll();
    std::string out;
    double t0 = Now();
    for (size_t off = 0; off < kFileBytes; off += chunk) {
      out.clear();
      if (!fs->plain()->ReadAt(kPlainPath, off, chunk, &out).ok()) return -1;
    }
    best = std::max(best, Mbps(Now() - t0));
  }
  return best;
}

double TimedPlainWrite(StegFs* fs, size_t chunk) {
  std::string data(chunk, '\x2f');
  double best = 0;
  for (int p = 0; p < kPasses; ++p) {
    double t0 = Now();
    for (size_t off = 0; off < kFileBytes; off += chunk) {
      if (!fs->plain()->WriteAt(kPlainPath, off, data).ok()) return -1;
    }
    if (!fs->Flush().ok()) return -1;
    best = std::max(best, Mbps(Now() - t0));
  }
  return best;
}

// --- Latency percentiles (BENCH_latency.json) --------------------------
// Each phase's mount carries its own MetricsRegistry, so one registry
// snapshot taken before teardown is that phase's latency profile. Device
// and crypto instruments outlive mounts (device-owned / process-global),
// so those families are collected once, at the end, as "cumulative".
struct LatRow {
  const char* phase;
  std::string metric;
  obs::HistogramSnapshot h;
};

double Us(uint64_t ns) { return static_cast<double>(ns) / 1e3; }

// Pulls the named histogram families out of one registry snapshot;
// families the phase never exercised (count == 0) are skipped.
void CollectLat(std::vector<LatRow>* out, const obs::RegistrySnapshot& snap,
                const char* phase,
                std::initializer_list<const char*> names) {
  for (const char* name : names) {
    const obs::HistogramSnapshot* h = snap.histogram(name);
    if (h != nullptr && h->count > 0) out->push_back({phase, name, *h});
  }
}

}  // namespace

int main(int argc, char** argv) {
  // --engine=auto|sync (default auto). "sync" skips phase C
  // (useful to regenerate PR 3 numbers only).
  IoEngine engine_choice = IoEngine::kAuto;
  const char* engine_arg = "auto";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--engine=", 9) == 0) {
      engine_arg = argv[i] + 9;
      if (std::strcmp(engine_arg, "sync") == 0) {
        engine_choice = IoEngine::kSync;
      } else if (std::strcmp(engine_arg, "auto") == 0) {
        engine_choice = IoEngine::kAuto;
      } else {
        std::fprintf(stderr, "unknown --engine=%s\n", engine_arg);
        return 2;
      }
    }
  }

  bench::PrintHeader(
      "Batched data path: sequential throughput",
      "per-block (t-table) vs batched (vectored I/O + pipelined AES) vs "
      "async engine (chunks shared with its workers) on FileBlockDevice");

  const std::string image = "bench_seq_vol.img";
  std::remove(image.c_str());
  auto device = FileBlockDevice::Create(image, kBlockSize, kNumBlocks);
  if (!device.ok()) {
    std::fprintf(stderr, "create volume: %s\n",
                 device.status().ToString().c_str());
    return 1;
  }
  StegFormatOptions fmt;
  fmt.entropy = "bench-seq-throughput";
  // Journal region for phase D (the durability-overhead phase); its 64
  // blocks and the per-mount recovery scrub are noise at this volume size.
  fmt.journal_blocks = 64;
  if (!StegFs::Format(device->get(), fmt).ok()) return 1;

  // --- Phase A: the pre-batching path ----------------------------------
  crypto::SetAesTier(crypto::AesTier::kTable);
  double per_block_read = -1, per_block_write = -1;
  double plain_pb_read = -1, plain_pb_write = -1;
  {
    StegFsOptions opts;  // readahead off
    opts.mount.cache_shards = 1;  // single session: no sharding needed
    opts.mount.durable_flush = false;  // PR 4-comparable data-path numbers
    auto fs = StegFs::Mount(device->get(), opts);
    if (!fs.ok()) return 1;
    if (!(*fs)->StegCreate(kUid, kObj, kUak, HiddenType::kFile).ok() ||
        !(*fs)->StegConnect(kUid, kObj, kUak).ok()) {
      return 1;
    }
    // Allocate the full extents once, untimed, so both phases measure
    // steady-state overwrites/reads rather than first-touch allocation.
    std::string data(kFileBytes, '\x11');
    if (!(*fs)->HiddenWrite(kUid, kObj, 0, data).ok()) return 1;
    if (!(*fs)->plain()->WriteFile(kPlainPath, data).ok()) return 1;
    per_block_write = TimedWrite(fs->get(), kBlockSize);
    plain_pb_write = TimedPlainWrite(fs->get(), kBlockSize);
    if (!(*fs)->Flush().ok()) return 1;
    per_block_read = TimedRead(fs->get(), kBlockSize);
    plain_pb_read = TimedPlainRead(fs->get(), kBlockSize);
    std::printf(
        "per-block baseline (%s): hidden read %.1f / write %.1f MB/s, "
        "plain read %.1f / write %.1f MB/s\n",
        crypto::AesTierName(), per_block_read, per_block_write, plain_pb_read,
        plain_pb_write);
  }

  // --- Phase B: the batched path ---------------------------------------
  crypto::SetAesTier(crypto::AesTier::kAesNi);  // no-op without hardware
  const char* batched_tier = crypto::AesTierName();
  struct Row {
    size_t extent_kb;
    double read_mbps;
    double write_mbps;
    double plain_read_mbps;
    double plain_write_mbps;
  };
  std::vector<Row> rows;
  std::vector<LatRow> lat_rows;
  // Device batch-path counters at the end of phase B.
  uint64_t dev_coalesced_runs = 0;
  uint64_t dev_vectored_blocks = 0;
  {
    // No readahead request: readahead arms only with an async engine, and
    // this phase measures the call-and-wait path.
    StegFsOptions opts;
    // One shard: a single sequential session wants whole-extent device
    // coalescing, not lock parallelism (see buffer_cache.h).
    opts.mount.cache_shards = 1;
    opts.mount.durable_flush = false;  // PR 4-comparable data-path numbers
    auto fs = StegFs::Mount(device->get(), opts);
    if (!fs.ok()) return 1;
    if (!(*fs)->StegConnect(kUid, kObj, kUak).ok()) return 1;
    for (size_t kb : kExtentsKb) {
      Row r;
      r.extent_kb = kb;
      r.read_mbps = TimedRead(fs->get(), kb << 10);
      r.write_mbps = TimedWrite(fs->get(), kb << 10);
      r.plain_read_mbps = TimedPlainRead(fs->get(), kb << 10);
      r.plain_write_mbps = TimedPlainWrite(fs->get(), kb << 10);
      if (r.read_mbps < 0 || r.write_mbps < 0 || r.plain_read_mbps < 0 ||
          r.plain_write_mbps < 0) {
        std::fprintf(stderr, "I/O failed at extent %zu KB\n", kb);
        return 1;
      }
      rows.push_back(r);
    }
    if (!(*fs)->Flush().ok()) return 1;
    const DeviceMetrics* dm = device->get()->device_metrics();
    dev_coalesced_runs = dm->coalesced_runs.value();
    dev_vectored_blocks = dm->vectored_blocks.value();
    CollectLat(&lat_rows, (*fs)->plain()->metrics_registry()->Snapshot(),
               "sync_batch",
               {"stegfs_hidden_read_seconds", "stegfs_hidden_write_seconds",
                "stegfs_fs_read_seconds", "stegfs_fs_write_at_seconds",
                "stegfs_fs_flush_seconds", "stegfs_cache_fill_seconds"});
  }

  // --- Phase C: the async engine ---------------------------------------
  // Same hidden workload, same AES tier, same one-shard cache — the only
  // change is the engine's workers claiming chunks of each large extent
  // beside the caller. Hidden blocks are random-placed by design, so this
  // phase (not coalescing) is what speeds the hidden path up.
  struct AsyncRow {
    size_t extent_kb;
    double read_mbps;
    double write_mbps;
  };
  std::vector<AsyncRow> async_rows;
  struct RaRow {
    uint32_t window;
    double read_mbps;
    uint64_t prefetch_hits;
  };
  std::vector<RaRow> ra_rows;
  const char* async_engine_name = "sync";
  // The async gate's interleaved 1 MiB reads: medians and their ratio.
  double gate_sync_mbps = 0, gate_async_mbps = 0, async_vs_sync_1mib = 0;
  // Engine counters at the end of phase C.
  uint64_t async_submitted_batches = 0;
  uint64_t async_completed_batches = 0;
  uint64_t async_submitted_blocks = 0;
  if (engine_choice != IoEngine::kSync) {
    StegFsOptions opts;
    opts.mount.io_engine = engine_choice;
    opts.mount.readahead_blocks = kDefaultReadahead;
    opts.mount.cache_shards = 1;  // single sequential session (see phase B)
    opts.mount.durable_flush = false;  // PR 4-comparable data-path numbers
    auto fs = StegFs::Mount(device->get(), opts);
    if (!fs.ok()) {
      std::fprintf(stderr, "async mount (--engine=%s): %s\n", engine_arg,
                   fs.status().ToString().c_str());
      return 1;
    }
    async_engine_name = (*fs)->plain()->io_engine_name();
    if (!(*fs)->StegConnect(kUid, kObj, kUak).ok()) return 1;
    for (size_t kb : kExtentsKb) {
      AsyncRow r;
      r.extent_kb = kb;
      r.read_mbps = TimedRead(fs->get(), kb << 10);
      r.write_mbps = TimedWrite(fs->get(), kb << 10);
      if (r.read_mbps < 0 || r.write_mbps < 0) {
        std::fprintf(stderr, "async I/O failed at extent %zu KB\n", kb);
        return 1;
      }
      async_rows.push_back(r);
    }
    if (!(*fs)->Flush().ok()) return 1;
    if (const ThreadPoolAsyncDevice* io = (*fs)->plain()->io_engine()) {
      async_submitted_batches = io->metrics().submitted_batches.value();
      async_completed_batches = io->metrics().completed_batches.value();
      async_submitted_blocks = io->metrics().submitted_blocks.value();
    }
    CollectLat(&lat_rows, (*fs)->plain()->metrics_registry()->Snapshot(),
               "async",
               {"stegfs_hidden_read_seconds", "stegfs_hidden_write_seconds",
                "stegfs_async_batch_seconds", "stegfs_cache_fill_seconds"});

    // The async floor's own measurement: this mount against a phase B
    // (sync batch) mount, interleaved at 1 MiB extents.
    StegFsOptions sync_opts;
    sync_opts.mount.cache_shards = 1;
    sync_opts.mount.durable_flush = false;
    auto sync_fs = StegFs::Mount(device->get(), sync_opts);
    if (!sync_fs.ok() || !(*sync_fs)->StegConnect(kUid, kObj, kUak).ok()) {
      return 1;
    }
    async_vs_sync_1mib = Interleaved(GateRead, sync_fs->get(), fs->get(),
                                     &gate_sync_mbps, &gate_async_mbps);
    if (async_vs_sync_1mib < 0) {
      std::fprintf(stderr, "async gate failed\n");
      return 1;
    }

    // Readahead window sweep at 64 KB extents (16 blocks — the size where
    // the prefetcher, not the pipeline, carries the overlap). One fresh
    // mount per window so the prefetch counters are per-window.
    for (uint32_t window : kReadaheadWindows) {
      StegFsOptions ra;
      ra.mount.io_engine = engine_choice;
      ra.mount.readahead_blocks = window;
      ra.mount.cache_shards = 1;
      ra.mount.durable_flush = false;
      auto rfs = StegFs::Mount(device->get(), ra);
      if (!rfs.ok()) return 1;
      if (!(*rfs)->StegConnect(kUid, kObj, kUak).ok()) return 1;
      RaRow row;
      row.window = window;
      row.read_mbps = TimedRead(rfs->get(), 64 << 10);
      if (row.read_mbps < 0) return 1;
      row.prefetch_hits =
          (*rfs)->plain()->cache()->metrics().prefetch_hits.value();
      ra_rows.push_back(row);
    }
  }

  // --- Phase D: durability on (journal + barriers) ---------------------
  // The journal subsystem's own cost, measured apples to apples: BOTH
  // legs run with durable Flush (fdatasync — the PR 4 data path plus the
  // restored durability), and the journal leg adds the crash-consistency
  // machinery on top: per-txn journal commits, the dual-header commit
  // protocol with its write barriers, ordered writeback. The acceptance
  // criterion is <= 15% overhead for that machinery. (Durable-vs-page-
  // cache is NOT the comparison: flushing 8 MB to stable storage costs
  // whatever the disk costs, journal or no journal.)
  double durable_flush_write_mbps = 0;  // PR 4 path + fdatasync flushes
  double durable_write_mbps = 0;        // + the journal subsystem
  double journal_ratio = 0;             // journal over base, per round
  uint64_t journal_syncs = 0, journal_records = 0;
  {
    StegFsOptions base;
    base.mount.io_engine = engine_choice;
    base.mount.cache_shards = 1;  // durable_flush default on
    StegFsOptions opts = base;
    opts.mount.durability = Durability::kJournal;
    // Only the journal mount issues barriers: the base mount's Flush is a
    // device Flush, not a Sync.
    const obs::Counter& syncs = device->get()->device_metrics()->syncs;
    const uint64_t syncs_before = syncs.value();
    auto flush_fs = StegFs::Mount(device->get(), base);
    auto fs = StegFs::Mount(device->get(), opts);
    if (!flush_fs.ok() || !fs.ok()) {
      std::fprintf(stderr, "durable mount: %s\n",
                   (flush_fs.ok() ? fs.status() : flush_fs.status())
                       .ToString()
                       .c_str());
      return 1;
    }
    if (!(*flush_fs)->StegConnect(kUid, kObj, kUak).ok() ||
        !(*fs)->StegConnect(kUid, kObj, kUak).ok()) {
      return 1;
    }
    journal_ratio = Interleaved(GateWrite, flush_fs->get(), fs->get(),
                                &durable_flush_write_mbps,
                                &durable_write_mbps);
    if (journal_ratio < 0) return 1;
    // Plain metadata transactions drive the journal ring proper.
    for (int i = 0; i < 16; ++i) {
      if (!(*fs)->plain()
               ->WriteFile("/jrnl" + std::to_string(i), std::string(900, 'j'))
               .ok()) {
        return 1;
      }
    }
    journal_syncs = syncs.value() - syncs_before;
    if ((*fs)->plain()->journal() != nullptr) {
      journal_records =
          (*fs)->plain()->journal()->metrics().records_committed.value();
    }
    CollectLat(&lat_rows, (*fs)->plain()->metrics_registry()->Snapshot(),
               "journal",
               {"stegfs_hidden_write_seconds", "stegfs_journal_commit_seconds",
                "stegfs_journal_record_seconds",
                "stegfs_journal_barrier_seconds"});
  }

  // --- Phase E: IDA redundancy -----------------------------------------
  // E1: the GF(256) parity encoder itself, scalar backend vs the runtime-
  // detected SIMD tier, on a kIda(3,4)-shaped stripe (3 data blocks in,
  // 1 Cauchy parity row out). The floor mirrors the AES tier check: on a
  // host with AVX2 the SIMD tier must carry >= 4x the scalar throughput.
  const crypto::GfTier best_gf_tier = crypto::ActiveGfTier();
  const char* gf_tier_name = crypto::GfTierName();
  const bool gf_enforced = __builtin_cpu_supports("avx2") != 0 &&
                           best_gf_tier != crypto::GfTier::kScalar;
  double gf_scalar_mbps = 0, gf_simd_mbps = 0;
  {
    constexpr int kM = 3, kN = 4;
    constexpr size_t kGfLen = 256 << 10;  // per data block
    constexpr int kGfReps = 24;
    std::vector<std::vector<uint8_t>> data(kM,
                                           std::vector<uint8_t>(kGfLen));
    for (int i = 0; i < kM; ++i) {
      for (size_t j = 0; j < kGfLen; ++j) {
        data[i][j] = static_cast<uint8_t>(i * 131 + j * 7 + 1);
      }
    }
    std::vector<uint8_t> parity(kGfLen);
    const uint8_t* blocks[kM] = {data[0].data(), data[1].data(),
                                 data[2].data()};
    uint8_t* parity_out[1] = {parity.data()};
    auto timed_encode = [&](crypto::GfTier tier) -> double {
      if (!crypto::SetGfTier(tier)) return 0;
      double best = 0;
      for (int p = 0; p < kPasses; ++p) {
        double t0 = Now();
        for (int r = 0; r < kGfReps; ++r) {
          crypto::IdaEncodeParity(blocks, kM, kN, kGfLen, parity_out);
        }
        double secs = Now() - t0;
        best = std::max(best,
                        static_cast<double>(kM) * kGfLen * kGfReps / secs /
                            1e6);
      }
      return best;
    };
    gf_scalar_mbps = timed_encode(crypto::GfTier::kScalar);
    gf_simd_mbps = timed_encode(best_gf_tier);
    crypto::SetGfTier(best_gf_tier);  // leave the process on the best tier
  }
  double gf_speedup = gf_scalar_mbps > 0 ? gf_simd_mbps / gf_scalar_mbps : 0;
  bool gf_pass = !gf_enforced || gf_speedup >= kGfTarget;

  // E2: the redundancy tax on the hot read path. Same mount config as the
  // sync batch phase; one object with kIda(3,4) (every stripe carries a
  // verified checksum + one parity share) against the unprotected object,
  // both read at 1 MiB extents on the same mount. Healthy reads never
  // decode — the data shares ARE the file blocks — so the gap is the
  // checksum verification plus the stripe-map bookkeeping.
  const char* kIdaObj = "seqfile_ida";
  double ida_read_mbps = -1, none_read_mbps = -1;
  uint64_t red_stripes_encoded = 0, red_shares_written = 0;
  {
    StegFsOptions opts;
    opts.mount.cache_shards = 1;
    opts.mount.durable_flush = false;
    auto fs = StegFs::Mount(device->get(), opts);
    if (!fs.ok()) return 1;
    if (!(*fs)->StegCreate(kUid, kIdaObj, kUak, HiddenType::kFile,
                           RedundancyPolicy::Ida(3, 4))
             .ok() ||
        !(*fs)->StegConnect(kUid, kIdaObj, kUak).ok() ||
        !(*fs)->StegConnect(kUid, kObj, kUak).ok()) {
      return 1;
    }
    std::string data(kFileBytes, '\x77');
    if (!(*fs)->HiddenWrite(kUid, kIdaObj, 0, data).ok()) return 1;
    if (!(*fs)->Flush().ok()) return 1;
    ida_read_mbps = TimedReadObj(fs->get(), kIdaObj, 1024 << 10);
    none_read_mbps = TimedReadObj(fs->get(), kObj, 1024 << 10);
    if (ida_read_mbps < 0 || none_read_mbps < 0) {
      std::fprintf(stderr, "redundant read phase failed\n");
      return 1;
    }
    red_stripes_encoded = (*fs)->redundancy_stats().stripes_encoded.value();
    red_shares_written = (*fs)->redundancy_stats().shares_written.value();
    obs::RegistrySnapshot esnap =
        (*fs)->plain()->metrics_registry()->Snapshot();
    CollectLat(&lat_rows, esnap, "ida",
               {"stegfs_hidden_read_seconds", "stegfs_hidden_write_seconds"});
    // Device- and process-lifetime instruments: everything since startup.
    CollectLat(&lat_rows, esnap, "cumulative",
               {"stegfs_device_read_seconds", "stegfs_device_write_seconds",
                "stegfs_device_sync_seconds", "stegfs_crypto_encrypt_seconds",
                "stegfs_crypto_decrypt_seconds"});
  }
  double ida_read_ratio =
      none_read_mbps > 0 ? ida_read_mbps / none_read_mbps : 0;
  bool ida_read_pass = ida_read_ratio >= kIdaReadTarget;

  // --- Phase F: fault-tolerance layer, fault-free ----------------------
  // The PR 8 retry decorator sits under the cache on every mount by
  // default. With no faults armed its fast path is a tag check on the
  // completion status — this phase bounds that tax at 1 MiB sequential
  // hidden reads: the retry-wrapped mount must stay within 3% of a mount
  // with the layer compiled out of the path (fault.enabled = false).
  const double kFaultOverheadTarget = 0.03;
  double fault_off_read_mbps = 0, fault_on_read_mbps = 0;
  double fault_on_write_mbps = 0;  // reported, not gated (flush noise)
  double fault_ratio = 0;          // with retry over without, per round
  {
    StegFsOptions off;
    off.mount.cache_shards = 1;
    off.mount.durable_flush = false;
    off.mount.fault.enabled = false;
    StegFsOptions on = off;
    on.mount.fault.enabled = true;
    auto off_fs = StegFs::Mount(device->get(), off);
    auto on_fs = StegFs::Mount(device->get(), on);
    if (!off_fs.ok() || !on_fs.ok() ||
        !(*off_fs)->StegConnect(kUid, kObj, kUak).ok() ||
        !(*on_fs)->StegConnect(kUid, kObj, kUak).ok()) {
      return 1;
    }
    fault_ratio = Interleaved(GateRead, off_fs->get(), on_fs->get(),
                              &fault_off_read_mbps, &fault_on_read_mbps);
    if (fault_ratio < 0) {
      std::fprintf(stderr, "fault overhead phase failed\n");
      return 1;
    }
    fault_on_write_mbps = TimedWrite(on_fs->get(), 1024 << 10);
    if (fault_on_write_mbps < 0) return 1;
  }
  double fault_overhead = 1.0 - fault_ratio;
  bool fault_pass = fault_overhead <= kFaultOverheadTarget;

  std::printf("\n%-10s | %14s %8s %14s %8s | %14s %8s %14s %8s\n", "extent",
              "hid rd MB/s", "speedup", "hid wr MB/s", "speedup",
              "pln rd MB/s", "speedup", "pln wr MB/s", "speedup");
  double read_speedup_1mib = 0;
  for (const Row& r : rows) {
    double rs = r.read_mbps / per_block_read;
    double ws = r.write_mbps / per_block_write;
    if (r.extent_kb == 1024) read_speedup_1mib = rs;
    std::printf("%-10zu | %14.1f %7.2fx %14.1f %7.2fx | %14.1f %7.2fx "
                "%14.1f %7.2fx\n",
                r.extent_kb, r.read_mbps, rs, r.write_mbps, ws,
                r.plain_read_mbps, r.plain_read_mbps / plain_pb_read,
                r.plain_write_mbps, r.plain_write_mbps / plain_pb_write);
  }
  bool pass = read_speedup_1mib >= kTarget;
  std::printf(
      "\nbatched tier %s; coalesced runs %llu; vectored blocks %llu\n"
      "1 MiB sequential-read speedup %.2fx (target >= %.1fx): %s\n",
      batched_tier, static_cast<unsigned long long>(dev_coalesced_runs),
      static_cast<unsigned long long>(dev_vectored_blocks),
      read_speedup_1mib, kTarget, pass ? "PASS" : "FAIL");

  // The async floor compares against the SYNC BATCH path (phase B), not
  // the per-block baseline: both stream 1 MiB extents past the cache in
  // 16-block chunks, so it isolates what the engine's helper workers buy
  // on random-placed hidden reads. Only enforced where the helpers have a
  // second core to run on. The verdict uses the interleaved gate passes;
  // the table above is the per-extent sweep.
  const bool multi_core = std::thread::hardware_concurrency() >= 2;
  bool async_pass = true;
  if (!async_rows.empty()) {
    std::printf("\nasync engine %s (vs sync batch path):\n",
                async_engine_name);
    std::printf("%-10s | %14s %12s %14s\n", "extent", "hid rd MB/s",
                "vs sync", "hid wr MB/s");
    for (const AsyncRow& r : async_rows) {
      double vs = 0;
      for (const Row& s : rows) {
        if (s.extent_kb == r.extent_kb) vs = r.read_mbps / s.read_mbps;
      }
      std::printf("%-10zu | %14.1f %11.2fx %14.1f\n", r.extent_kb,
                  r.read_mbps, vs, r.write_mbps);
    }
    async_pass = !multi_core || async_vs_sync_1mib >= kAsyncTarget;
    std::printf(
        "engine batches: %llu submitted, %llu completed, %llu blocks\n"
        "async 1 MiB hidden-read speedup vs sync batch (interleaved "
        "medians %.1f vs %.1f MB/s) %.2fx (target >= %.1fx, %s): %s\n",
        static_cast<unsigned long long>(async_submitted_batches),
        static_cast<unsigned long long>(async_completed_batches),
        static_cast<unsigned long long>(async_submitted_blocks),
        gate_async_mbps, gate_sync_mbps, async_vs_sync_1mib, kAsyncTarget,
        multi_core ? "enforced" : "advisory on 1 core",
        async_pass ? "PASS" : "FAIL");
    std::printf("readahead sweep (64 KB extents, async mount):\n");
    for (const RaRow& r : ra_rows) {
      std::printf("  window %2u: %8.1f MB/s, %llu prefetch hits\n", r.window,
                  r.read_mbps,
                  static_cast<unsigned long long>(r.prefetch_hits));
    }
  }

  // Journal-overhead verdict: both legs durable-flush; the delta is the
  // crash-consistency machinery itself.
  const double kJournalOverheadTarget = 0.15;
  double journal_overhead = 1.0 - journal_ratio;
  bool journal_pass = journal_overhead <= kJournalOverheadTarget;
  std::printf(
      "\ndurability on (journal + dual-header commits + write barriers):\n"
      "  1 MiB hidden writes %.1f MB/s vs %.1f MB/s durable-flush "
      "baseline (interleaved medians) -> %.1f%% overhead (target <= %.0f%%): "
      "%s\n"
      "  device syncs %llu, journal records %llu\n",
      durable_write_mbps, durable_flush_write_mbps, journal_overhead * 100,
      kJournalOverheadTarget * 100, journal_pass ? "PASS" : "FAIL",
      static_cast<unsigned long long>(journal_syncs),
      static_cast<unsigned long long>(journal_records));

  std::printf(
      "\nredundancy (GF(256) tier %s):\n"
      "  parity encode %.1f MB/s scalar -> %.1f MB/s SIMD = %.2fx "
      "(target >= %.1fx, %s): %s\n"
      "  1 MiB hidden reads: kIda(3,4) %.1f MB/s vs kNone %.1f MB/s = "
      "%.2fx (target >= %.2fx): %s\n"
      "  stripes encoded %llu, parity shares written %llu\n",
      gf_tier_name, gf_scalar_mbps, gf_simd_mbps, gf_speedup, kGfTarget,
      gf_enforced ? "enforced" : "advisory without AVX2",
      gf_pass ? "PASS" : "FAIL", ida_read_mbps, none_read_mbps,
      ida_read_ratio, kIdaReadTarget, ida_read_pass ? "PASS" : "FAIL",
      static_cast<unsigned long long>(red_stripes_encoded),
      static_cast<unsigned long long>(red_shares_written));

  std::printf(
      "\nfault-tolerance layer (retry decorator, no faults armed):\n"
      "  1 MiB hidden reads %.1f MB/s with retry layer vs %.1f MB/s "
      "without (interleaved medians) -> %.1f%% overhead (target <= %.0f%%): "
      "%s\n"
      "  1 MiB hidden writes with retry layer %.1f MB/s (advisory)\n",
      fault_on_read_mbps, fault_off_read_mbps, fault_overhead * 100,
      kFaultOverheadTarget * 100, fault_pass ? "PASS" : "FAIL",
      fault_on_write_mbps);

  if (!lat_rows.empty()) {
    std::printf("\nper-phase latency percentiles (us):\n%-11s %-32s %9s %9s "
                "%9s %9s %9s\n",
                "phase", "metric", "count", "p50", "p90", "p99", "max");
    for (const LatRow& r : lat_rows) {
      std::printf("%-11s %-32s %9llu %9.1f %9.1f %9.1f %9.1f\n", r.phase,
                  r.metric.c_str(),
                  static_cast<unsigned long long>(r.h.count),
                  Us(r.h.Percentile(0.5)), Us(r.h.Percentile(0.9)),
                  Us(r.h.Percentile(0.99)), Us(r.h.max));
    }
  } else {
    std::printf("\nlatency percentiles: none (observability disabled — "
                "STEGFS_OBS=0)\n");
  }

  std::FILE* json = std::fopen("BENCH_io.json", "w");
  if (json != nullptr) {
    std::fprintf(json,
                 "{\n  \"bench\": \"seq_throughput\",\n"
                 "  \"block_size\": %u,\n  \"file_mb\": %zu,\n"
                 "  \"baseline\": {\"tier\": \"t-table\", "
                 "\"read_mbps\": %.1f, \"write_mbps\": %.1f, "
                 "\"plain_read_mbps\": %.1f, \"plain_write_mbps\": %.1f},\n"
                 "  \"batched_tier\": \"%s\",\n  \"extents\": [\n",
                 kBlockSize, kFileBytes >> 20, per_block_read,
                 per_block_write, plain_pb_read, plain_pb_write,
                 batched_tier);
    for (size_t i = 0; i < rows.size(); ++i) {
      const Row& r = rows[i];
      std::fprintf(json,
                   "    {\"extent_kb\": %zu, \"read_mbps\": %.1f, "
                   "\"read_speedup\": %.3f, \"write_mbps\": %.1f, "
                   "\"write_speedup\": %.3f, \"plain_read_mbps\": %.1f, "
                   "\"plain_write_mbps\": %.1f}%s\n",
                   r.extent_kb, r.read_mbps, r.read_mbps / per_block_read,
                   r.write_mbps, r.write_mbps / per_block_write,
                   r.plain_read_mbps, r.plain_write_mbps,
                   i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(json,
                 "  ],\n  \"dev_coalesced_runs\": %llu,\n"
                 "  \"dev_vectored_blocks\": %llu,\n"
                 "  \"read_speedup_at_1mib\": %.3f,\n"
                 "  \"target\": %.1f,\n  \"pass\": %s,\n",
                 static_cast<unsigned long long>(dev_coalesced_runs),
                 static_cast<unsigned long long>(dev_vectored_blocks),
                 read_speedup_1mib, kTarget, pass ? "true" : "false");
    std::fprintf(json, "  \"async\": {\n    \"engine\": \"%s\",\n",
                 async_engine_name);
    std::fprintf(json, "    \"extents\": [\n");
    for (size_t i = 0; i < async_rows.size(); ++i) {
      const AsyncRow& r = async_rows[i];
      double vs = 0;
      for (const Row& s : rows) {
        if (s.extent_kb == r.extent_kb) vs = r.read_mbps / s.read_mbps;
      }
      std::fprintf(json,
                   "      {\"extent_kb\": %zu, \"read_mbps\": %.1f, "
                   "\"read_vs_sync\": %.3f, \"write_mbps\": %.1f}%s\n",
                   r.extent_kb, r.read_mbps, vs, r.write_mbps,
                   i + 1 < async_rows.size() ? "," : "");
    }
    std::fprintf(json,
                 "    ],\n    \"submitted_batches\": %llu,\n"
                 "    \"completed_batches\": %llu,\n"
                 "    \"read_vs_sync_at_1mib\": %.3f,\n"
                 "    \"target\": %.1f,\n    \"enforced\": %s,\n"
                 "    \"pass\": %s\n  },\n",
                 static_cast<unsigned long long>(async_submitted_batches),
                 static_cast<unsigned long long>(async_completed_batches),
                 async_vs_sync_1mib, kAsyncTarget,
                 multi_core ? "true" : "false",
                 async_pass ? "true" : "false");
    std::fprintf(json, "  \"readahead_tuning\": [\n");
    for (size_t i = 0; i < ra_rows.size(); ++i) {
      std::fprintf(json,
                   "    {\"window\": %u, \"read_mbps\": %.1f, "
                   "\"prefetch_hits\": %llu}%s\n",
                   ra_rows[i].window, ra_rows[i].read_mbps,
                   static_cast<unsigned long long>(ra_rows[i].prefetch_hits),
                   i + 1 < ra_rows.size() ? "," : "");
    }
    std::fprintf(json, "  ],\n  \"readahead_default\": %u,\n",
                 kDefaultReadahead);
    std::fprintf(json,
                 "  \"journal\": {\n"
                 "    \"durable_write_mbps\": %.1f,\n"
                 "    \"durable_flush_baseline_mbps\": %.1f,\n"
                 "    \"overhead\": %.3f,\n"
                 "    \"target\": %.2f,\n"
                 "    \"device_syncs\": %llu,\n"
                 "    \"records_committed\": %llu,\n"
                 "    \"pass\": %s\n  },\n",
                 durable_write_mbps, durable_flush_write_mbps,
                 journal_overhead, kJournalOverheadTarget,
                 static_cast<unsigned long long>(journal_syncs),
                 static_cast<unsigned long long>(journal_records),
                 journal_pass ? "true" : "false");
    std::fprintf(json,
                 "  \"fault\": {\n"
                 "    \"read_with_retry_mbps\": %.1f,\n"
                 "    \"read_without_retry_mbps\": %.1f,\n"
                 "    \"write_with_retry_mbps\": %.1f,\n"
                 "    \"overhead\": %.3f,\n"
                 "    \"target\": %.2f,\n"
                 "    \"pass\": %s\n  },\n",
                 fault_on_read_mbps, fault_off_read_mbps,
                 fault_on_write_mbps, fault_overhead, kFaultOverheadTarget,
                 fault_pass ? "true" : "false");
    std::fprintf(json,
                 "  \"ida\": {\n    \"gf_tier\": \"%s\",\n"
                 "    \"gf_scalar_mbps\": %.1f,\n"
                 "    \"gf_simd_mbps\": %.1f,\n"
                 "    \"gf_speedup\": %.3f,\n"
                 "    \"gf_target\": %.1f,\n    \"gf_enforced\": %s,\n"
                 "    \"gf_pass\": %s,\n"
                 "    \"read_ida_mbps\": %.1f,\n"
                 "    \"read_none_mbps\": %.1f,\n"
                 "    \"read_ratio\": %.3f,\n"
                 "    \"read_ratio_target\": %.2f,\n"
                 "    \"read_pass\": %s,\n"
                 "    \"stripes_encoded\": %llu,\n"
                 "    \"parity_shares_written\": %llu\n  }\n}\n",
                 gf_tier_name, gf_scalar_mbps, gf_simd_mbps, gf_speedup,
                 kGfTarget, gf_enforced ? "true" : "false",
                 gf_pass ? "true" : "false", ida_read_mbps, none_read_mbps,
                 ida_read_ratio, kIdaReadTarget,
                 ida_read_pass ? "true" : "false",
                 static_cast<unsigned long long>(red_stripes_encoded),
                 static_cast<unsigned long long>(red_shares_written));
    std::fclose(json);
    std::printf("wrote BENCH_io.json\n");
  }

  // Per-phase latency percentiles, one row per (phase, histogram family).
  // Empty `rows` means the bench ran with observability disabled
  // (STEGFS_OBS=0) — the CI overhead job uses that leg for throughput only.
  std::FILE* lat_json = std::fopen("BENCH_latency.json", "w");
  if (lat_json != nullptr) {
    std::fprintf(lat_json,
                 "{\n  \"bench\": \"seq_throughput\",\n"
                 "  \"unit\": \"microseconds\",\n"
                 "  \"engine\": \"%s\",\n"
                 "  \"obs_enabled\": %s,\n  \"rows\": [\n",
                 async_engine_name,
                 obs::MetricsEnabled() ? "true" : "false");
    for (size_t i = 0; i < lat_rows.size(); ++i) {
      const LatRow& r = lat_rows[i];
      std::fprintf(lat_json,
                   "    {\"phase\": \"%s\", \"metric\": \"%s\", "
                   "\"count\": %llu, \"p50_us\": %.1f, \"p90_us\": %.1f, "
                   "\"p99_us\": %.1f, \"max_us\": %.1f, "
                   "\"mean_us\": %.1f}%s\n",
                   r.phase, r.metric.c_str(),
                   static_cast<unsigned long long>(r.h.count),
                   Us(r.h.Percentile(0.5)), Us(r.h.Percentile(0.9)),
                   Us(r.h.Percentile(0.99)), Us(r.h.max),
                   r.h.MeanNanos() / 1e3,
                   i + 1 < lat_rows.size() ? "," : "");
    }
    std::fprintf(lat_json, "  ]\n}\n");
    std::fclose(lat_json);
    std::printf("wrote BENCH_latency.json\n");
  }
  std::remove(image.c_str());
  bench::PrintFooter();
  return (pass && async_pass && journal_pass && gf_pass && ida_read_pass &&
          fault_pass)
             ? 0
             : 1;
}
