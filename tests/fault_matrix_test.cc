// The chaos matrix (PR 8 acceptance): scripted fault schedules × async
// engine configurations against a full StegFs workload, asserting the
// two gates the CI job enforces:
//   - transient-only schedules lose NOTHING: every fault is absorbed by
//     the retry layer and the final volume image is bit-identical to the
//     fault-free run (and to a second run of the same seeded schedule —
//     retry sequences are deterministic);
//   - persistent schedules fail CLEAN: the mount latches kReadOnly,
//     rejects further mutation, never crashes, and a remount after the
//     substrate heals serves everything that was committed;
// plus the deniability satellite: a compiled-in but IDLE fault layer
// leaves volume bytes identical to a mount with the layer disabled.
//
// Every cell lands in FAULT_matrix.json (archived by the chaos-matrix CI
// job, mirroring IDA_matrix.json / CRASH_matrix.json).
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "blockdev/mem_block_device.h"
#include "capi/steg_api.h"
#include "capi_metric.h"
#include "core/stegfs.h"
#include "fault/fault_injection_device.h"
#include "fault/health.h"
#include "journal/recovery.h"
#include "obs/trace.h"

namespace stegfs {
namespace {

constexpr uint32_t kBs = 512;
constexpr uint64_t kBlocks = 8192;
const char* kUid = "alice";
const char* kUak = "uak-secret";

using fault::FaultInjectionBlockDevice;
using fault::MountHealth;
using test::Metric;

struct MatrixCell {
  std::string schedule;
  std::string engine;
  std::string outcome;  // "absorbed" | "clean-readonly"
  uint64_t injected = 0;
  uint64_t failures = 0;
};
std::vector<MatrixCell>& Summary() {
  static std::vector<MatrixCell> cells;
  return cells;
}

class FaultMatrixJson : public ::testing::Environment {
 public:
  void TearDown() override {
    std::FILE* f = std::fopen("FAULT_matrix.json", "w");
    if (f == nullptr) return;
    // Every engine runs above the injection layer, so the matrix covers
    // all of them.
    std::fprintf(f,
                 "{\n  \"bench\": \"fault_matrix\",\n"
                 "  \"engines_exercised\": [\"sync\", \"threads\"],\n"
                 "  \"cells\": [\n");
    const auto& cells = Summary();
    for (size_t i = 0; i < cells.size(); ++i) {
      const MatrixCell& c = cells[i];
      std::fprintf(f,
                   "    {\"schedule\": \"%s\", \"engine\": \"%s\", "
                   "\"outcome\": \"%s\", \"faults_injected\": %llu, "
                   "\"failures\": %llu}%s\n",
                   c.schedule.c_str(), c.engine.c_str(), c.outcome.c_str(),
                   (unsigned long long)c.injected,
                   (unsigned long long)c.failures,
                   i + 1 < cells.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
  }
};
const auto* const kJsonEnv =
    ::testing::AddGlobalTestEnvironment(new FaultMatrixJson);

StegFormatOptions SmallFormat() {
  StegFormatOptions fmt;
  fmt.params.dummy_file_count = 2;
  fmt.params.dummy_file_avg_bytes = 2048;
  fmt.entropy = "fault-matrix-entropy";
  return fmt;
}

StegFsOptions EngineOpts(IoEngine engine) {
  StegFsOptions opts;
  opts.mount.io_engine = engine;
  opts.mount.cache_blocks = 128;
  opts.mount.fault.retry.base_backoff_ns = 1000;  // keep the matrix fast
  opts.mount.fault.retry.max_backoff_ns = 8000;
  return opts;
}

std::string EngineName(IoEngine e) {
  return e == IoEngine::kSync ? "sync" : "threads";
}

std::string Pattern(size_t bytes, uint64_t tag) {
  std::string s;
  s.reserve(bytes);
  while (s.size() < bytes) {
    s += "fm" + std::to_string(tag) + ":";
    s.push_back(static_cast<char>('a' + (s.size() % 23)));
  }
  s.resize(bytes);
  return s;
}

// The deterministic workload every cell runs: plain files of mixed sizes
// with an overwrite and an unlink, plus a redundant hidden object with a
// partial rewrite. Returns the contents a verifier should find.
struct Expected {
  std::map<std::string, std::string> plain;
  std::string hidden;
};

Expected RunWorkload(StegFs* fs) {
  Expected exp;
  for (int i = 0; i < 6; ++i) {
    const std::string path = "/f" + std::to_string(i);
    const std::string data = Pattern(700 * (i + 1) + 37, i);
    EXPECT_TRUE(fs->plain()->WriteFile(path, data).ok()) << path;
    exp.plain[path] = data;
  }
  exp.plain["/f2"] = Pattern(1500, 42);
  EXPECT_TRUE(fs->plain()->WriteFile("/f2", exp.plain["/f2"]).ok());
  EXPECT_TRUE(fs->plain()->Unlink("/f5").ok());
  exp.plain.erase("/f5");

  const RedundancyPolicy policy = RedundancyPolicy::Ida(2, 3);
  EXPECT_TRUE(
      fs->StegCreate(kUid, "obj", kUak, HiddenType::kFile, policy).ok());
  EXPECT_TRUE(fs->StegConnect(kUid, "obj", kUak).ok());
  exp.hidden = Pattern(5 * policy.k * kBs - 99, 7);
  EXPECT_TRUE(fs->HiddenWriteAll(kUid, "obj", exp.hidden).ok());
  const std::string patch = "REWRITTEN-RANGE";
  exp.hidden.replace(kBs + 11, patch.size(), patch);
  EXPECT_TRUE(fs->HiddenWrite(kUid, "obj", kBs + 11, patch).ok());
  EXPECT_TRUE(fs->Flush().ok());
  return exp;
}

uint64_t VerifyAll(StegFs* fs, const Expected& exp) {
  uint64_t failures = 0;
  for (const auto& [path, data] : exp.plain) {
    auto back = fs->plain()->ReadFile(path);
    if (!back.ok() || back.value() != data) {
      ++failures;
      ADD_FAILURE() << path << ": "
                    << (back.ok() ? "content mismatch"
                                  : back.status().ToString());
    }
  }
  Status cs = fs->StegConnect(kUid, "obj", kUak);
  if (!cs.ok()) {
    ++failures;
    ADD_FAILURE() << "connect: " << cs.ToString();
    return failures;
  }
  auto hidden = fs->HiddenReadAll(kUid, "obj");
  if (!hidden.ok() || hidden.value() != exp.hidden) {
    ++failures;
    ADD_FAILURE() << "hidden: "
                  << (hidden.ok() ? "content mismatch"
                                  : hidden.status().ToString());
  }
  return failures;
}

std::vector<uint8_t> ImageOf(MemBlockDevice* mem) {
  std::vector<uint8_t> image(kBs * kBlocks);
  for (uint64_t b = 0; b < kBlocks; ++b) {
    EXPECT_TRUE(mem->ReadBlock(b, image.data() + b * kBs).ok());
  }
  return image;
}

// One faulted run: format, load the schedule, run the workload, verify,
// unmount. Returns the final raw image (beneath the injection layer).
std::vector<uint8_t> FaultedRun(const std::string& schedule, IoEngine engine,
                                uint64_t* injected, uint64_t* failures) {
  FaultInjectionBlockDevice dev(kBs, kBlocks);
  EXPECT_TRUE(StegFs::Format(&dev, SmallFormat()).ok());
  if (!schedule.empty()) {
    Status ls = dev.LoadSchedule(schedule);
    EXPECT_TRUE(ls.ok()) << ls.ToString();
  }
  {
    auto fs = StegFs::Mount(&dev, EngineOpts(engine));
    EXPECT_TRUE(fs.ok()) << fs.status().ToString();
    if (!fs.ok()) return {};
    Expected exp = RunWorkload(fs->get());
    *failures = VerifyAll(fs->get(), exp);
    // Transient-only schedules must leave the mount fully writable:
    // nothing escalated past the retry layer.
    EXPECT_NE((*fs)->plain()->health()->state(), MountHealth::kReadOnly);
    EXPECT_TRUE((*fs)->Flush().ok());
  }
  *injected = dev.faults_injected();
  return ImageOf(dev.mem());
}

// Transient-only schedules: every kind the injector can throw that the
// retry layer is expected to fully absorb.
const struct {
  const char* name;
  const char* spec;
} kTransientSchedules[] = {
    {"eio-burst", "seed=11;write:eio@5x3;read:eio@9x2;sync:eio@2"},
    {"torn-writes", "seed=12;write:torn@7x2;write:torn@40x1"},
    {"timeouts", "seed=13;read:timeout@4x2;write:timeout@11x2"},
    {"latency-spikes", "seed=14;any:delay@6x3:us=200"},
    {"mixed", "seed=15;write:eio@3x2;write:torn@25;read:timeout@8;"
              "read:eio@30x2;sync:eio@3"},
};

class FaultMatrixTest : public ::testing::TestWithParam<IoEngine> {};

TEST_P(FaultMatrixTest, TransientSchedulesAreFullyAbsorbed) {
  const IoEngine engine = GetParam();
  uint64_t base_injected = 0, base_failures = 0;
  const std::vector<uint8_t> baseline =
      FaultedRun("", engine, &base_injected, &base_failures);
  ASSERT_EQ(base_injected, 0u);
  ASSERT_EQ(base_failures, 0u);

  for (const auto& sched : kTransientSchedules) {
    SCOPED_TRACE(sched.name);
    MatrixCell cell;
    cell.schedule = sched.name;
    cell.engine = EngineName(engine);
    cell.outcome = "absorbed";

    uint64_t injected = 0;
    const std::vector<uint8_t> image =
        FaultedRun(sched.spec, engine, &injected, &cell.failures);
    EXPECT_GT(injected, 0u) << "schedule never fired";
    cell.injected = injected;
    // Zero data loss: the faulted volume ends bit-identical to fault-free.
    if (image != baseline) {
      ++cell.failures;
      ADD_FAILURE() << "faulted image diverged from fault-free baseline";
    }
    // Determinism: same seeded schedule, same workload => same faults
    // fired, same retry sequence, same final bytes.
    uint64_t injected2 = 0, failures2 = 0;
    const std::vector<uint8_t> image2 =
        FaultedRun(sched.spec, engine, &injected2, &failures2);
    EXPECT_EQ(injected, injected2);
    EXPECT_EQ(image, image2) << "second identical run diverged";
    cell.failures += failures2;
    Summary().push_back(cell);
  }
}

TEST_P(FaultMatrixTest, PersistentScheduleFailsCleanToReadOnly) {
  const IoEngine engine = GetParam();
  MatrixCell cell;
  cell.schedule = "persistent-write";
  cell.engine = EngineName(engine);
  cell.outcome = "clean-readonly";

  FaultInjectionBlockDevice dev(kBs, kBlocks);
  ASSERT_TRUE(StegFs::Format(&dev, SmallFormat()).ok());
  Expected committed;
  {
    // Write-through keeps device faults synchronous with the op, so the
    // read-only transition is deterministic to assert on (write-back
    // would defer the fault to writeback time).
    StegFsOptions opts = EngineOpts(engine);
    opts.mount.write_policy = WritePolicy::kWriteThrough;
    auto fs = StegFs::Mount(&dev, opts);
    ASSERT_TRUE(fs.ok()) << fs.status().ToString();
    // Commit a known-good prefix with no faults armed, fully flushed.
    for (int i = 0; i < 3; ++i) {
      const std::string path = "/pre" + std::to_string(i);
      const std::string data = Pattern(900 + i * 113, 50 + i);
      ASSERT_TRUE((*fs)->plain()->WriteFile(path, data).ok());
      committed.plain[path] = data;
    }
    ASSERT_TRUE((*fs)->Flush().ok());

    // The device dies for good. Ops fail, the mount latches read-only,
    // and nothing crashes — not even under continued abuse.
    ASSERT_TRUE(dev.LoadSchedule("write:fail").ok());
    Status w = (*fs)->plain()->WriteFile("/post", "doomed");
    EXPECT_FALSE(w.ok());
    EXPECT_EQ((*fs)->plain()->health()->state(), MountHealth::kReadOnly);
    for (int i = 0; i < 5; ++i) {
      Status s = (*fs)->plain()->WriteFile("/again" + std::to_string(i), "x");
      EXPECT_TRUE(s.IsFailedPrecondition()) << s.ToString();
    }
    // Reads still flow while read-only.
    for (const auto& [path, data] : committed.plain) {
      auto back = (*fs)->plain()->ReadFile(path);
      if (!back.ok() || back.value() != data) ++cell.failures;
    }
    cell.injected = dev.faults_injected();
    EXPECT_GT(cell.injected, 0u);
    // Unmount runs against the still-dead device; it must not crash.
    dev.ClearRules();
  }
  // Substrate healed: a fresh mount serves every committed byte.
  auto fs = StegFs::Mount(&dev, EngineOpts(engine));
  ASSERT_TRUE(fs.ok()) << fs.status().ToString();
  EXPECT_EQ((*fs)->plain()->health()->state(), MountHealth::kHealthy);
  for (const auto& [path, data] : committed.plain) {
    auto back = (*fs)->plain()->ReadFile(path);
    if (!back.ok() || back.value() != data) {
      ++cell.failures;
      ADD_FAILURE() << path << " lost across the fault";
    }
  }
  EXPECT_TRUE((*fs)->plain()->WriteFile("/alive", "again").ok());
  Summary().push_back(cell);
}

INSTANTIATE_TEST_SUITE_P(Engines, FaultMatrixTest,
                         ::testing::Values(IoEngine::kSync,
                                           IoEngine::kAuto),
                         [](const ::testing::TestParamInfo<IoEngine>& info) {
                           return EngineName(info.param);
                         });

// Deniability satellite: with the fault layer compiled in but IDLE (no
// schedule), enabling vs disabling it must not change a single volume
// byte — retries and health are host-side state, never on-disk state.
TEST(FaultMatrixTest, IdleFaultLayerLeavesImageBitIdentical) {
  auto run = [](bool enabled) {
    MemBlockDevice dev(kBs, kBlocks);
    EXPECT_TRUE(StegFs::Format(&dev, SmallFormat()).ok());
    {
      StegFsOptions opts = EngineOpts(IoEngine::kSync);
      opts.mount.fault.enabled = enabled;
      auto fs = StegFs::Mount(&dev, opts);
      EXPECT_TRUE(fs.ok()) << fs.status().ToString();
      Expected exp = RunWorkload(fs->get());
      EXPECT_EQ(VerifyAll(fs->get(), exp), 0u);
      EXPECT_TRUE((*fs)->Flush().ok());
    }
    return ImageOf(&dev);
  };
  EXPECT_EQ(run(true), run(false));
}

// Fails the first read issued off the thread that built it, once, with a
// transient error the retry layer absorbs. The engine's workers are the
// only other readers, so the retry lands on one of them.
class FailFirstWorkerRead : public BlockDevice {
 public:
  explicit FailFirstWorkerRead(BlockDevice* inner)
      : inner_(inner), owner_(std::this_thread::get_id()) {}

  void Arm() { armed_.store(true); }
  uint64_t faults_injected() const { return injected_.load(); }

  uint32_t block_size() const override { return inner_->block_size(); }
  uint64_t num_blocks() const override { return inner_->num_blocks(); }
  Status ReadBlock(uint64_t block, uint8_t* buf) override {
    if (std::this_thread::get_id() != owner_ && armed_.exchange(false)) {
      injected_++;
      return Status::TransientIOError("injected worker read fault");
    }
    return inner_->ReadBlock(block, buf);
  }
  Status WriteBlock(uint64_t block, const uint8_t* buf) override {
    return inner_->WriteBlock(block, buf);
  }
  Status Flush() override { return inner_->Flush(); }
  Status Sync() override { return inner_->Sync(); }
  const DeviceMetrics* device_metrics() const override {
    return inner_->device_metrics();
  }

 private:
  BlockDevice* inner_;
  const std::thread::id owner_;
  std::atomic<bool> armed_{false};
  std::atomic<uint64_t> injected_{0};
};

// The fan-out's engine workers transfer through the mount's one retry
// layer: a large hidden read (1 MiB, 4 KiB blocks, so 256 blocks in 16
// chunks) on a kAuto mount. Each case connects, writes and flushes the
// object, then drops the cache so the read's data blocks are cold. A
// one-byte read of the last block re-warms the single-indirect pointer
// block. Every device read then sleeps 100 us, so the caller cannot run
// out of chunks before the workers claim theirs.
class EngineRetryTest : public ::testing::Test {
 protected:
  static constexpr uint32_t kBlockSize = 4096;
  static constexpr uint64_t kVolumeBlocks = 4096;
  static constexpr size_t kObjectBytes = 1 << 20;

  void SetUp() override {
    dev_ = std::make_unique<FaultInjectionBlockDevice>(kBlockSize,
                                                       kVolumeBlocks);
    ASSERT_TRUE(StegFs::Format(dev_.get(), SmallFormat()).ok());
    worker_fault_ = std::make_unique<FailFirstWorkerRead>(dev_.get());
    StegFsOptions opts = EngineOpts(IoEngine::kAuto);
    opts.mount.cache_blocks = 1024;
    auto fs = StegFs::Mount(worker_fault_.get(), opts);
    ASSERT_TRUE(fs.ok()) << fs.status().ToString();
    fs_ = std::move(fs).value();
    ASSERT_TRUE(fs_->StegCreate(kUid, "big", kUak, HiddenType::kFile).ok());
    ASSERT_TRUE(fs_->StegConnect(kUid, "big", kUak).ok());
    data_ = Pattern(kObjectBytes, 99);
    ASSERT_TRUE(fs_->HiddenWriteAll(kUid, "big", data_).ok());
    ASSERT_TRUE(fs_->Flush().ok());
    fs_->plain()->cache()->DropAll();
    std::string last;
    ASSERT_TRUE(
        fs_->HiddenRead(kUid, "big", kObjectBytes - 1, 1, &last).ok());
    ASSERT_TRUE(dev_->LoadSchedule("read:delay@0x1000000:us=100").ok());
  }

  // Runs the traced 1 MiB read, checks its bytes, and returns the ring.
  std::vector<obs::TraceEvent> TracedRead() {
    obs::TraceRecorder* trace = fs_->plain()->trace_recorder();
    trace->Clear();
    trace->Start();
    std::string out;
    Status s = fs_->HiddenRead(kUid, "big", 0, kObjectBytes, &out);
    trace->Stop();
    EXPECT_TRUE(s.ok()) << s.ToString();
    EXPECT_TRUE(out == data_) << "fanned-out read returned wrong bytes";
    return trace->Events();
  }

  static const obs::TraceEvent* Find(const std::vector<obs::TraceEvent>& ev,
                                     const char* name) {
    for (const obs::TraceEvent& e : ev) {
      if (std::strcmp(e.name, name) == 0) return &e;
    }
    return nullptr;
  }

  std::unique_ptr<FaultInjectionBlockDevice> dev_;
  std::unique_ptr<FailFirstWorkerRead> worker_fault_;
  std::unique_ptr<StegFs> fs_;
  std::string data_;
};

TEST_F(EngineRetryTest, TransientFaultRetriedInsideTheEngineSlice) {
  if (!obs::MetricsEnabled()) GTEST_SKIP() << "observability disabled";
  worker_fault_->Arm();
  const std::vector<obs::TraceEvent> events = TracedRead();
  EXPECT_EQ(worker_fault_->faults_injected(), 1u);
  const fault::FaultStats* stats = fs_->plain()->fault_stats();
  EXPECT_EQ(stats->retries.value(), 1u);
  EXPECT_EQ(stats->retry_successes.value(), 1u);
  EXPECT_EQ(stats->retry_exhausted.value(), 0u);
  EXPECT_EQ(fs_->plain()->health()->state(), MountHealth::kHealthy);

  // The retry happened on a pool thread, inside a chunk of the fan-out,
  // and still belongs to the read's operation tree.
  const obs::TraceEvent* root = Find(events, "hidden.read");
  const obs::TraceEvent* retry = Find(events, "fault.retry");
  ASSERT_NE(root, nullptr);
  ASSERT_NE(retry, nullptr);
  EXPECT_EQ(retry->op_id, root->op_id);
  const obs::TraceEvent* parent = nullptr;
  for (const obs::TraceEvent& e : events) {
    if (e.span_id == retry->parent_span) parent = &e;
  }
  ASSERT_NE(parent, nullptr);
  EXPECT_STREQ(parent->name, "store.read");
  EXPECT_EQ(parent->op_id, root->op_id);
  EXPECT_NE(parent->tid, root->tid);
}

TEST_F(EngineRetryTest, FaultFreePipelinedReadRecordsNoFaultSpan) {
  if (!obs::MetricsEnabled()) GTEST_SKIP() << "observability disabled";
  const std::vector<obs::TraceEvent> events = TracedRead();
  EXPECT_EQ(fs_->plain()->fault_stats()->retries.value(), 0u);
  const obs::TraceEvent* root = Find(events, "hidden.read");
  ASSERT_NE(root, nullptr);
  bool on_worker = false;
  for (const obs::TraceEvent& e : events) {
    EXPECT_NE(std::strncmp(e.name, "fault.", 6), 0)
        << "fault span " << e.name << " on a fault-free read";
    on_worker |= std::strcmp(e.name, "store.read") == 0 && e.tid != root->tid;
  }
  EXPECT_TRUE(on_worker) << "no chunk of the read ran on an engine worker";
}

// The C API face of the subsystem: steg_mount_faulty scripts faults on a
// real image file, steg_stats and steg_metric expose the state machine and
// the taxonomy, steg_health_reset re-enables writes.
TEST(FaultMatrixTest, CApiFaultyMountAndHealth) {
  char path[] = "/tmp/stegfs_fault_XXXXXX";
  int fd = mkstemp(path);
  ASSERT_GE(fd, 0);
  close(fd);
  std::remove(path);  // mkfs wants to create the image itself
  // Default format parameters want a real-sized volume (same geometry as
  // the capi_test suite).
  constexpr uint32_t kCapiBs = 1024;
  ASSERT_EQ(steg_mkfs(path, kCapiBs, 32768), STEG_OK);

  stegfs_volume* vol = nullptr;
  // A mount-time spec is legal but gets consumed by mount/recovery I/O,
  // so use a harmless latency schedule to prove the plumbing fires...
  ASSERT_EQ(steg_mount_faulty(path, kCapiBs, "seed=3;any:delay@0x2:us=50",
                              &vol),
            STEG_OK);
  stegfs_stats stats;
  ASSERT_EQ(steg_stats(vol, &stats), STEG_OK);
  EXPECT_GT(stats.faults_injected, 0u);
  // ...and aim real error faults with steg_fault_inject once mounted.
  // Transient burst: absorbed invisibly, visible only in the counters.
  ASSERT_EQ(steg_fault_inject(vol, "write:eio@0x2"), STEG_OK);
  ASSERT_EQ(steg_plain_write(vol, "/hello", "payload", 7), STEG_OK);
  ASSERT_EQ(steg_stats(vol, &stats), STEG_OK);
  EXPECT_EQ(stats.health, STEG_HEALTH_HEALTHY);
  EXPECT_STREQ(stats.health_name, "healthy");
  EXPECT_GT(Metric(vol, "stegfs_fault_transient_errors_total"), 0u);
  EXPECT_GT(Metric(vol, "stegfs_fault_retries_total"), 0u);
  EXPECT_EQ(Metric(vol, "stegfs_fault_retry_exhausted_total"), 0u);

  // Persistent write faults through the C API: read-only + clean reject.
  ASSERT_EQ(steg_fault_inject(vol, "write:fail"), STEG_OK);
  EXPECT_NE(steg_plain_write(vol, "/doomed", "x", 1), STEG_OK);
  ASSERT_EQ(steg_stats(vol, &stats), STEG_OK);
  EXPECT_EQ(stats.health, STEG_HEALTH_READONLY);
  EXPECT_STREQ(stats.health_name, "read-only");
  EXPECT_GT(Metric(vol, "stegfs_fault_persistent_errors_total"), 0u);
  EXPECT_NE(steg_plain_write(vol, "/rejected", "x", 1), STEG_OK);
  EXPECT_GT(Metric(vol, "stegfs_health_rejected_writes_total"), 0u);
  // Unmount against the still-dead device: may report the flush error,
  // must not crash or corrupt.
  steg_unmount(vol);

  // Substrate healed (no schedule): journal recovery mounts clean.
  ASSERT_EQ(steg_mount_faulty(path, kCapiBs, NULL, &vol), STEG_OK);
  ASSERT_EQ(steg_stats(vol, &stats), STEG_OK);
  EXPECT_EQ(stats.health, STEG_HEALTH_HEALTHY);
  EXPECT_EQ(stats.faults_injected, 0u);
  ASSERT_EQ(steg_health_reset(vol), STEG_OK);
  ASSERT_EQ(steg_plain_write(vol, "/alive", "again", 5), STEG_OK);
  char buf[64];
  size_t out_len = 0;
  ASSERT_EQ(steg_plain_read(vol, "/hello", buf, sizeof(buf), &out_len),
            STEG_OK);
  EXPECT_EQ(std::string(buf, out_len), "payload");
  // Malformed schedules are rejected up front, both at mount and live.
  EXPECT_NE(steg_fault_inject(vol, "write:frobnicate"), STEG_OK);
  ASSERT_EQ(steg_unmount(vol), STEG_OK);
  stegfs_volume* bad = nullptr;
  EXPECT_NE(steg_mount_faulty(path, kCapiBs, "write:frobnicate", &bad), STEG_OK);
  // Injecting on a non-faulty mount is an error, not a crash.
  ASSERT_EQ(steg_mount(path, kCapiBs, &vol), STEG_OK);
  EXPECT_EQ(steg_fault_inject(vol, "write:eio"), STEG_ERR_INVALID);
  ASSERT_EQ(steg_unmount(vol), STEG_OK);
  std::remove(path);
}

}  // namespace
}  // namespace stegfs
