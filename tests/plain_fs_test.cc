#include "fs/plain_fs.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "blockdev/file_block_device.h"
#include "blockdev/mem_block_device.h"
#include "core/stegfs.h"
#include "util/random.h"

namespace stegfs {
namespace {

std::string RandomData(size_t n, uint64_t seed) {
  Xoshiro rng(seed);
  std::string s(n, '\0');
  rng.FillBytes(reinterpret_cast<uint8_t*>(s.data()), n);
  return s;
}

class PlainFsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dev_ = std::make_unique<MemBlockDevice>(1024, 16384);  // 16 MB
    ASSERT_TRUE(PlainFs::Format(dev_.get(), FormatOptions{}).ok());
    auto fs = PlainFs::Mount(dev_.get(), MountOptions{});
    ASSERT_TRUE(fs.ok()) << fs.status().ToString();
    fs_ = std::move(fs).value();
  }

  std::unique_ptr<MemBlockDevice> dev_;
  std::unique_ptr<PlainFs> fs_;
};

TEST_F(PlainFsTest, WriteReadSmallFile) {
  ASSERT_TRUE(fs_->WriteFile("/hello.txt", "hello world").ok());
  auto data = fs_->ReadFile("/hello.txt");
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(data.value(), "hello world");
}

TEST_F(PlainFsTest, WriteReadLargeFile) {
  std::string big = RandomData(3 << 20, 99);  // 3 MB spans double-indirect
  ASSERT_TRUE(fs_->WriteFile("/big.bin", big).ok());
  auto data = fs_->ReadFile("/big.bin");
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(data.value(), big);
}

TEST_F(PlainFsTest, EmptyFile) {
  ASSERT_TRUE(fs_->CreateFile("/empty").ok());
  auto data = fs_->ReadFile("/empty");
  ASSERT_TRUE(data.ok());
  EXPECT_TRUE(data.value().empty());
}

TEST_F(PlainFsTest, OverwriteReplacesContent) {
  ASSERT_TRUE(fs_->WriteFile("/f", std::string(5000, 'a')).ok());
  ASSERT_TRUE(fs_->WriteFile("/f", "short").ok());
  auto data = fs_->ReadFile("/f");
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(data.value(), "short");
}

TEST_F(PlainFsTest, CreateDuplicateRejected) {
  ASSERT_TRUE(fs_->CreateFile("/dup").ok());
  EXPECT_TRUE(fs_->CreateFile("/dup").IsAlreadyExists());
}

TEST_F(PlainFsTest, ReadMissingFileFails) {
  EXPECT_TRUE(fs_->ReadFile("/nope").status().IsNotFound());
}

TEST_F(PlainFsTest, UnlinkFreesSpace) {
  uint64_t before = fs_->bitmap()->free_count();
  ASSERT_TRUE(fs_->WriteFile("/f", RandomData(1 << 20, 5)).ok());
  EXPECT_LT(fs_->bitmap()->free_count(), before);
  ASSERT_TRUE(fs_->Unlink("/f").ok());
  // The root directory may have grown a block for the entry; allow <= 1
  // block difference.
  EXPECT_GE(fs_->bitmap()->free_count() + 1, before);
  EXPECT_FALSE(fs_->Exists("/f"));
}

TEST_F(PlainFsTest, DirectoriesNestAndList) {
  ASSERT_TRUE(fs_->MkDir("/a").ok());
  ASSERT_TRUE(fs_->MkDir("/a/b").ok());
  ASSERT_TRUE(fs_->WriteFile("/a/b/c.txt", "deep").ok());
  ASSERT_TRUE(fs_->WriteFile("/a/top.txt", "top").ok());

  auto root = fs_->List("/");
  ASSERT_TRUE(root.ok());
  ASSERT_EQ(root->size(), 1u);
  EXPECT_EQ((*root)[0].name, "a");

  auto a = fs_->List("/a");
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a->size(), 2u);

  auto c = fs_->ReadFile("/a/b/c.txt");
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c.value(), "deep");
}

TEST_F(PlainFsTest, RmDirOnlyWhenEmpty) {
  ASSERT_TRUE(fs_->MkDir("/d").ok());
  ASSERT_TRUE(fs_->WriteFile("/d/f", "x").ok());
  EXPECT_TRUE(fs_->RmDir("/d").IsFailedPrecondition());
  ASSERT_TRUE(fs_->Unlink("/d/f").ok());
  EXPECT_TRUE(fs_->RmDir("/d").ok());
  EXPECT_FALSE(fs_->Exists("/d"));
}

TEST_F(PlainFsTest, StatReportsMetadata) {
  ASSERT_TRUE(fs_->WriteFile("/s", std::string(2048, 'q')).ok());
  auto info = fs_->Stat("/s");
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->type, InodeType::kFile);
  EXPECT_EQ(info->size, 2048u);
  auto dir_info = fs_->Stat("/");
  ASSERT_TRUE(dir_info.ok());
  EXPECT_EQ(dir_info->type, InodeType::kDirectory);
}

TEST_F(PlainFsTest, ReadWriteAtOffsets) {
  ASSERT_TRUE(fs_->WriteFile("/f", std::string(4096, 'a')).ok());
  ASSERT_TRUE(fs_->WriteAt("/f", 1000, "XYZ").ok());
  std::string out;
  ASSERT_TRUE(fs_->ReadAt("/f", 999, 5, &out).ok());
  EXPECT_EQ(out, "aXYZa");
}

TEST_F(PlainFsTest, WriteAtExtendsFile) {
  ASSERT_TRUE(fs_->CreateFile("/f").ok());
  ASSERT_TRUE(fs_->WriteAt("/f", 5000, "tail").ok());
  auto info = fs_->Stat("/f");
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->size, 5004u);
  // The hole reads as zeros.
  std::string out;
  ASSERT_TRUE(fs_->ReadAt("/f", 4998, 6, &out).ok());
  EXPECT_EQ(out, std::string(2, '\0') + "tail");
}

TEST_F(PlainFsTest, TruncateShrinks) {
  ASSERT_TRUE(fs_->WriteFile("/f", RandomData(100000, 3)).ok());
  ASSERT_TRUE(fs_->TruncateFile("/f", 10).ok());
  auto data = fs_->ReadFile("/f");
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(data->size(), 10u);
}

TEST_F(PlainFsTest, PersistsAcrossRemount) {
  std::string content = RandomData(300000, 8);
  ASSERT_TRUE(fs_->MkDir("/docs").ok());
  ASSERT_TRUE(fs_->WriteFile("/docs/report.bin", content).ok());
  ASSERT_TRUE(fs_->Flush().ok());
  fs_.reset();

  auto fs = PlainFs::Mount(dev_.get(), MountOptions{});
  ASSERT_TRUE(fs.ok());
  auto data = (*fs)->ReadFile("/docs/report.bin");
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(data.value(), content);
}

TEST_F(PlainFsTest, ManyFilesNoCrosstalk) {
  std::vector<std::string> contents;
  for (int i = 0; i < 50; ++i) {
    std::string path = "/file" + std::to_string(i);
    contents.push_back(RandomData(1000 + i * 137, 1000 + i));
    ASSERT_TRUE(fs_->WriteFile(path, contents.back()).ok());
  }
  for (int i = 0; i < 50; ++i) {
    auto data = fs_->ReadFile("/file" + std::to_string(i));
    ASSERT_TRUE(data.ok());
    EXPECT_EQ(data.value(), contents[i]) << i;
  }
}

TEST_F(PlainFsTest, RejectsRelativePaths) {
  EXPECT_TRUE(fs_->CreateFile("relative").IsInvalidArgument());
  EXPECT_TRUE(fs_->CreateFile("/a/../b").IsInvalidArgument());
}

TEST_F(PlainFsTest, NoSpaceSurfaceCleanly) {
  // 16 MB volume: the third 8 MB write must fail with NoSpace.
  Status s;
  for (int i = 0; i < 3 && s.ok(); ++i) {
    s = fs_->WriteFile("/big" + std::to_string(i), RandomData(8 << 20, i));
  }
  EXPECT_TRUE(s.IsNoSpace()) << s.ToString();
}

TEST_F(PlainFsTest, CollectReferencedBlocksCoversEverything) {
  ASSERT_TRUE(fs_->WriteFile("/f1", RandomData(50000, 1)).ok());
  ASSERT_TRUE(fs_->MkDir("/d").ok());
  ASSERT_TRUE(fs_->WriteFile("/d/f2", RandomData(200000, 2)).ok());

  std::vector<uint8_t> referenced;
  ASSERT_TRUE(fs_->CollectReferencedBlocks(&referenced).ok());

  // Every allocated block must be referenced (plain FS has no hidden data).
  for (uint64_t b = 0; b < fs_->layout().num_blocks; ++b) {
    if (fs_->bitmap()->IsAllocated(b)) {
      EXPECT_TRUE(referenced[b]) << "allocated but unreferenced block " << b;
    } else {
      EXPECT_FALSE(referenced[b]) << "free but referenced block " << b;
    }
  }
}

TEST_F(PlainFsTest, ContiguousPolicyLaysFilesSequentially) {
  ASSERT_TRUE(fs_->WriteFile("/seq", RandomData(1 << 20, 4)).ok());
  std::vector<uint8_t> referenced;
  ASSERT_TRUE(fs_->CollectReferencedBlocks(&referenced).ok());
  // Find the file's block span: with contiguous allocation on a fresh
  // volume the data blocks of a 1 MB file form (nearly) one run. Count
  // alloc runs in the data region.
  int runs = 0;
  bool in_run = false;
  for (uint64_t b = fs_->layout().data_start; b < fs_->layout().num_blocks;
       ++b) {
    bool alloc = fs_->bitmap()->IsAllocated(b);
    if (alloc && !in_run) ++runs;
    in_run = alloc;
  }
  EXPECT_LE(runs, 2);  // root-dir block + the file's run (possibly merged)
}

TEST_F(PlainFsTest, TotalPlainBytes) {
  EXPECT_EQ(fs_->TotalPlainBytes(), 0u);
  ASSERT_TRUE(fs_->WriteFile("/a", std::string(1000, 'x')).ok());
  ASSERT_TRUE(fs_->WriteFile("/b", std::string(234, 'y')).ok());
  EXPECT_EQ(fs_->TotalPlainBytes(), 1234u);
}

// Readahead is the async engine's: a kSync mount that asks for a window
// arms no prefetcher and reports 0, and a read on it prefetches nothing.
TEST(PlainFsReadaheadTest, ArmsOnlyWithAnEngine) {
  MemBlockDevice dev(1024, 16384);
  ASSERT_TRUE(PlainFs::Format(&dev, FormatOptions{}).ok());
  MountOptions mo;
  mo.readahead_blocks = 16;
  {
    auto fs = PlainFs::Mount(&dev, mo);
    ASSERT_TRUE(fs.ok()) << fs.status().ToString();
    EXPECT_EQ((*fs)->readahead_blocks(), 0u);
    ASSERT_TRUE((*fs)->WriteFile("/f", RandomData(256 << 10, 5)).ok());
    ASSERT_TRUE((*fs)->Flush().ok());
    ASSERT_TRUE((*fs)->ReadFile("/f").ok());
    EXPECT_EQ((*fs)->cache()->metrics().prefetched.value(), 0u);
  }
  mo.io_engine = IoEngine::kAuto;
  auto fs = PlainFs::Mount(&dev, mo);
  ASSERT_TRUE(fs.ok()) << fs.status().ToString();
  const bool multi_core = std::thread::hardware_concurrency() >= 2;
  EXPECT_EQ((*fs)->readahead_blocks(), multi_core ? 16u : 0u);
}

// The series a durable kAuto StegFs mount exports are what stegbench and
// steg_metric() read by name, so the whole name set is pinned here. Each
// cache, journal, engine and device counter must also read the same
// through the registry as through the component that owns it, and each
// of their histograms must hold the same sample count: a registration
// dropped or crossed in a refactor fails one of the checks.
TEST(PlainFsExportTest, MountExportsThePinnedSeries) {
  const std::string path = ::testing::TempDir() + "/plain_fs_export.img";
  std::remove(path.c_str());
  auto dev = FileBlockDevice::Create(path, 4096, 4096);
  ASSERT_TRUE(dev.ok()) << dev.status().ToString();
  StegFormatOptions fmt;
  fmt.params.dummy_file_count = 2;
  fmt.params.dummy_file_avg_bytes = 4096;
  fmt.entropy = "export-series";
  fmt.journal_blocks = 64;
  ASSERT_TRUE(StegFs::Format(dev->get(), fmt).ok());
  StegFsOptions opts;
  opts.mount.io_engine = IoEngine::kAuto;
  opts.mount.durability = Durability::kJournal;
  opts.mount.readahead_blocks = 16;
  opts.mount.cache_blocks = 128;  // small enough to evict
  auto fs = StegFs::Mount(dev->get(), opts);
  ASSERT_TRUE(fs.ok()) << fs.status().ToString();

  const std::string plain_bytes = RandomData(512 << 10, 11);
  const std::string hidden_bytes = RandomData(512 << 10, 12);
  ASSERT_TRUE((*fs)->plain()->MkDir("/d").ok());
  ASSERT_TRUE((*fs)->plain()->WriteFile("/d/small", "x").ok());
  ASSERT_TRUE((*fs)->plain()->WriteFile("/p", plain_bytes).ok());
  ASSERT_TRUE((*fs)->StegCreate("alice", "vault", "uak", HiddenType::kFile)
                  .ok());
  ASSERT_TRUE((*fs)->StegConnect("alice", "vault", "uak").ok());
  ASSERT_TRUE((*fs)->HiddenWriteAll("alice", "vault", hidden_bytes).ok());
  ASSERT_TRUE((*fs)->Flush().ok());
  (*fs)->plain()->cache()->DropAll();
  auto plain_read = (*fs)->plain()->ReadFile("/p");
  ASSERT_TRUE(plain_read.ok());
  EXPECT_EQ(*plain_read, plain_bytes);
  auto hidden_read = (*fs)->HiddenReadAll("alice", "vault");
  ASSERT_TRUE(hidden_read.ok());
  EXPECT_EQ(*hidden_read, hidden_bytes);

  PlainFs* plain = (*fs)->plain();
  ASSERT_NE(plain->io_engine(), nullptr);
  plain->io_engine()->Drain();  // readahead completions settle
  obs::MetricsRegistry* reg = plain->metrics_registry();

  std::vector<std::string> names;
  const obs::RegistrySnapshot snap = reg->Snapshot();
  for (const auto& kv : snap.counters) names.push_back(kv.first);
  for (const auto& kv : snap.histograms) names.push_back(kv.first);
  std::sort(names.begin(), names.end());
  const std::vector<std::string> pinned = {
      "stegfs_async_batch_seconds",
      "stegfs_async_completed_batches_total",
      "stegfs_async_failed_batches_total",
      "stegfs_async_submitted_batches_total",
      "stegfs_async_submitted_blocks_total",
      "stegfs_barrier_arrivals_total",
      "stegfs_barrier_rounds_total",
      "stegfs_cache_batched_reads_total",
      "stegfs_cache_batched_writes_total",
      "stegfs_cache_evictions_total",
      "stegfs_cache_fill_seconds",
      "stegfs_cache_hits_total",
      "stegfs_cache_misses_total",
      "stegfs_cache_prefetch_hits_total",
      "stegfs_cache_prefetched_total",
      "stegfs_cache_writebacks_total",
      "stegfs_crypto_blocks_decrypted_total",
      "stegfs_crypto_blocks_encrypted_total",
      "stegfs_crypto_decrypt_seconds",
      "stegfs_crypto_encrypt_seconds",
      "stegfs_device_blocks_read_total",
      "stegfs_device_blocks_written_total",
      "stegfs_device_coalesced_runs_total",
      "stegfs_device_read_seconds",
      "stegfs_device_sync_seconds",
      "stegfs_device_syncs_total",
      "stegfs_device_vectored_blocks_total",
      "stegfs_device_write_seconds",
      "stegfs_fault_corruption_errors_total",
      "stegfs_fault_persistent_errors_total",
      "stegfs_fault_retries_total",
      "stegfs_fault_retry_backoff_seconds",
      "stegfs_fault_retry_exhausted_total",
      "stegfs_fault_retry_latency_seconds",
      "stegfs_fault_retry_success_total",
      "stegfs_fault_timeout_errors_total",
      "stegfs_fault_transient_errors_total",
      "stegfs_fs_create_seconds",
      "stegfs_fs_flush_seconds",
      "stegfs_fs_mkdir_seconds",
      "stegfs_fs_read_seconds",
      "stegfs_fs_rmdir_seconds",
      "stegfs_fs_truncate_seconds",
      "stegfs_fs_unlink_seconds",
      "stegfs_fs_write_at_seconds",
      "stegfs_fs_write_seconds",
      "stegfs_health_degraded_transitions_total",
      "stegfs_health_readonly_transitions_total",
      "stegfs_health_rejected_writes_total",
      "stegfs_hidden_read_seconds",
      "stegfs_hidden_truncate_seconds",
      "stegfs_hidden_write_seconds",
      "stegfs_journal_barrier_seconds",
      "stegfs_journal_barrier_syncs_total",
      "stegfs_journal_blocks_journaled_total",
      "stegfs_journal_checkpoint_seconds",
      "stegfs_journal_commit_seconds",
      "stegfs_journal_group_batches_total",
      "stegfs_journal_group_merged_blocks_total",
      "stegfs_journal_group_txns_total",
      "stegfs_journal_overflow_fallbacks_total",
      "stegfs_journal_record_seconds",
      "stegfs_journal_records_committed_total",
      "stegfs_journal_scrubbed_blocks_total",
      "stegfs_locator_candidate_cache_hits_total",
      "stegfs_locator_candidate_reads_total",
      "stegfs_locator_probes_found",
      "stegfs_locator_probes_not_found",
      "stegfs_red_decode_seconds",
      "stegfs_red_degraded_reads_total",
      "stegfs_red_heal_seconds",
      "stegfs_red_shares_healed_total",
      "stegfs_red_shares_written_total",
      "stegfs_red_stripes_encoded_total",
      "stegfs_red_verify_failures_total",
  };
  EXPECT_EQ(names, pinned);

  const CacheMetrics& cache = plain->cache()->metrics();
  const journal::JournalMetrics& journal = plain->journal()->metrics();
  const AsyncIoMetrics& engine = plain->io_engine()->metrics();
  const DeviceMetrics* device = (*dev)->device_metrics();
  ASSERT_NE(device, nullptr);
  const std::map<std::string, const obs::Counter*> fields = {
      {"stegfs_cache_hits_total", &cache.hits},
      {"stegfs_cache_misses_total", &cache.misses},
      {"stegfs_cache_evictions_total", &cache.evictions},
      {"stegfs_cache_writebacks_total", &cache.writebacks},
      {"stegfs_cache_batched_reads_total", &cache.batched_reads},
      {"stegfs_cache_batched_writes_total", &cache.batched_writes},
      {"stegfs_cache_prefetched_total", &cache.prefetched},
      {"stegfs_cache_prefetch_hits_total", &cache.prefetch_hits},
      {"stegfs_journal_records_committed_total", &journal.records_committed},
      {"stegfs_journal_blocks_journaled_total", &journal.blocks_journaled},
      {"stegfs_journal_barrier_syncs_total", &journal.barrier_syncs},
      {"stegfs_journal_overflow_fallbacks_total",
       &journal.overflow_fallbacks},
      {"stegfs_journal_scrubbed_blocks_total", &journal.scrubbed_blocks},
      {"stegfs_journal_group_txns_total", &journal.group_txns},
      {"stegfs_journal_group_batches_total", &journal.group_batches},
      {"stegfs_journal_group_merged_blocks_total",
       &journal.group_merged_blocks},
      {"stegfs_async_submitted_batches_total", &engine.submitted_batches},
      {"stegfs_async_submitted_blocks_total", &engine.submitted_blocks},
      {"stegfs_async_completed_batches_total", &engine.completed_batches},
      {"stegfs_async_failed_batches_total", &engine.failed_batches},
      {"stegfs_device_blocks_read_total", &device->blocks_read},
      {"stegfs_device_blocks_written_total", &device->blocks_written},
      {"stegfs_device_syncs_total", &device->syncs},
      {"stegfs_device_vectored_blocks_total", &device->vectored_blocks},
      {"stegfs_device_coalesced_runs_total", &device->coalesced_runs},
  };
  for (const auto& kv : fields) {
    uint64_t exported = 0;
    ASSERT_TRUE(reg->FindCounter(kv.first, &exported)) << kv.first;
    EXPECT_EQ(exported, kv.second->value()) << kv.first;
  }
  const std::map<std::string, const obs::Histogram*> histograms = {
      {"stegfs_cache_fill_seconds", &cache.fill_ns},
      {"stegfs_journal_commit_seconds", &journal.commit_ns},
      {"stegfs_journal_record_seconds", &journal.record_ns},
      {"stegfs_journal_barrier_seconds", &journal.barrier_ns},
      {"stegfs_journal_checkpoint_seconds", &journal.checkpoint_ns},
      {"stegfs_async_batch_seconds", &engine.batch_ns},
      {"stegfs_device_read_seconds", &device->read_ns},
      {"stegfs_device_write_seconds", &device->write_ns},
      {"stegfs_device_sync_seconds", &device->sync_ns},
  };
  for (const auto& kv : histograms) {
    const obs::HistogramSnapshot* exported = snap.histogram(kv.first);
    ASSERT_NE(exported, nullptr) << kv.first;
    EXPECT_EQ(exported->count, kv.second->count()) << kv.first;
  }
  fs->reset();
  std::remove(path.c_str());
}

// An in-memory volume counts its barriers like a file-backed one: a
// durable mount's first commit reaches MemBlockDevice::Sync, and the
// registry exports the count.
TEST(PlainFsExportTest, DurableMemMountCountsDeviceSyncs) {
  MemBlockDevice dev(4096, 1024);
  FormatOptions fo;
  fo.journal_blocks = 16;
  ASSERT_TRUE(PlainFs::Format(&dev, fo).ok());
  MountOptions mo;
  mo.durability = Durability::kJournal;
  auto fs = PlainFs::Mount(&dev, mo);
  ASSERT_TRUE(fs.ok()) << fs.status().ToString();
  ASSERT_TRUE((*fs)->WriteFile("/f", "committed").ok());
  EXPECT_GT(dev.device_metrics()->syncs.value(), 0u);
  uint64_t exported = 0;
  ASSERT_TRUE((*fs)->metrics_registry()->FindCounter(
      "stegfs_device_syncs_total", &exported));
  EXPECT_EQ(exported, dev.device_metrics()->syncs.value());
}

TEST(PlainFsFormatTest, MountRejectsUnformattedDevice) {
  MemBlockDevice dev(1024, 4096);
  EXPECT_FALSE(PlainFs::Mount(&dev, MountOptions{}).ok());
}

TEST(PlainFsFormatTest, MountRejectsGeometryMismatch) {
  MemBlockDevice dev(1024, 4096);
  ASSERT_TRUE(PlainFs::Format(&dev, FormatOptions{}).ok());
  MemBlockDevice dev2(1024, 8192);
  // Copy the formatted superblock into a larger device.
  std::vector<uint8_t> buf(1024);
  ASSERT_TRUE(dev.ReadBlock(0, buf.data()).ok());
  ASSERT_TRUE(dev2.WriteBlock(0, buf.data()).ok());
  EXPECT_TRUE(PlainFs::Mount(&dev2, MountOptions{}).status().IsCorruption());
}

TEST(PlainFsFormatTest, TinyVolumeRejected) {
  MemBlockDevice dev(512, 8);
  EXPECT_FALSE(PlainFs::Format(&dev, FormatOptions{}).ok());
}

TEST(PlainFsPolicyTest, FragmentedPolicyScattersFile) {
  MemBlockDevice dev(1024, 16384);
  ASSERT_TRUE(PlainFs::Format(&dev, FormatOptions{}).ok());
  MountOptions opts;
  opts.policy = AllocPolicy::kFragmented8;
  auto fs = PlainFs::Mount(&dev, opts);
  ASSERT_TRUE(fs.ok());
  ASSERT_TRUE((*fs)->WriteFile("/frag", RandomData(1 << 20, 6)).ok());
  // Count allocation runs: a 1 MB file (1024 blocks) in 8-block fragments
  // has ~128 separate runs.
  int runs = 0;
  bool in_run = false;
  for (uint64_t b = (*fs)->layout().data_start;
       b < (*fs)->layout().num_blocks; ++b) {
    bool alloc = (*fs)->bitmap()->IsAllocated(b);
    if (alloc && !in_run) ++runs;
    in_run = alloc;
  }
  EXPECT_GT(runs, 50);
}

}  // namespace
}  // namespace stegfs
