// The observability export surface through the C API — and the
// deniability rule behind all of it: steg_metrics_text() must cover every
// data-path subsystem, steg_trace_export() must produce a Perfetto-shaped
// trace for a mixed plain/hidden workload, and none of it may ever touch
// the volume image (bit-identical with observability on vs off).
#include "capi/steg_api.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "capi_metric.h"

namespace {

using stegfs::test::Metric;

std::string ReadWholeFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

class ObsCapiTest : public ::testing::Test {
 protected:
  void SetUp() override {
    std::string tag =
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    image_ = ::testing::TempDir() + "/obs_capi_" + tag + "_volume.img";
    std::remove(image_.c_str());
    ASSERT_EQ(steg_mkfs(image_.c_str(), 1024, 16384), STEG_OK);
    ASSERT_EQ(steg_mount(image_.c_str(), 1024, &vol_), STEG_OK);
  }

  void TearDown() override {
    steg_obs_set_enabled(1);  // never leak a disabled state to other tests
    if (vol_ != nullptr) {
      EXPECT_EQ(steg_unmount(vol_), STEG_OK);
    }
    std::remove(image_.c_str());
  }

  // A little of everything: plain ops, hidden ops, a durable flush.
  void MixedWorkload() {
    ASSERT_EQ(steg_plain_write(vol_, "/obs.txt", "0123456789", 10), STEG_OK);
    char buf[64];
    size_t n = 0;
    ASSERT_EQ(steg_plain_read(vol_, "/obs.txt", buf, sizeof(buf), &n),
              STEG_OK);
    ASSERT_EQ(steg_create(vol_, "alice", "vault", "uak", STEG_TYPE_FILE),
              STEG_OK);
    ASSERT_EQ(steg_connect(vol_, "alice", "vault", "uak"), STEG_OK);
    std::string secret(4096, 's');
    ASSERT_EQ(
        steg_hidden_write(vol_, "alice", "vault", secret.data(),
                          secret.size()),
        STEG_OK);
    std::vector<char> out(8192);
    ASSERT_EQ(steg_hidden_read(vol_, "alice", "vault", out.data(),
                               out.size(), &n),
              STEG_OK);
    EXPECT_EQ(n, secret.size());
  }

  std::string image_;
  stegfs_volume* vol_ = nullptr;
};

TEST_F(ObsCapiTest, MetricsTextCoversEveryDataPathSubsystem) {
  MixedWorkload();
  char* text = nullptr;
  size_t len = 0;
  ASSERT_EQ(steg_metrics_text(vol_, &text, &len), STEG_OK);
  ASSERT_NE(text, nullptr);
  std::string metrics(text, len);
  steg_buffer_free(text);

  // One counter and one histogram family per subsystem the issue names:
  // device, cache, crypto, journal, redundancy, plus the op-level views.
  const char* kExpected[] = {
      "stegfs_device_blocks_read_total",
      "stegfs_device_read_seconds",
      "stegfs_cache_hits_total",
      "stegfs_cache_misses_total",
      "stegfs_cache_fill_seconds",
      "stegfs_crypto_blocks_encrypted_total",
      "stegfs_crypto_encrypt_seconds",
      "stegfs_journal_records_committed_total",
      "stegfs_journal_commit_seconds",
      "stegfs_red_stripes_encoded_total",
      "stegfs_red_decode_seconds",
      "stegfs_fs_write_seconds",
      "stegfs_hidden_read_seconds",
      "stegfs_hidden_write_seconds",
  };
  for (const char* name : kExpected) {
    EXPECT_NE(metrics.find(name), std::string::npos) << "missing " << name;
  }
  // Prometheus exposition shape.
  EXPECT_NE(metrics.find("# TYPE stegfs_cache_hits_total counter"),
            std::string::npos);
  EXPECT_NE(metrics.find("# TYPE stegfs_hidden_read_seconds histogram"),
            std::string::npos);
  EXPECT_NE(metrics.find("_bucket{le=\"+Inf\"}"), std::string::npos);

  // The workload actually moved the instruments.
  EXPECT_EQ(metrics.find("stegfs_hidden_read_seconds_count 0\n"),
            std::string::npos)
      << "hidden read histogram never recorded";

  EXPECT_EQ(steg_metrics_text(nullptr, &text, &len), STEG_ERR_INVALID);
  EXPECT_EQ(steg_metrics_text(vol_, nullptr, &len), STEG_ERR_INVALID);
}

// Reads `<name> <value>` from an exposition; -1 when the line is absent.
double ExposedValue(const std::string& metrics, const std::string& name) {
  const size_t at = metrics.find("\n" + name + " ");
  if (at == std::string::npos) return -1;
  return std::stod(metrics.substr(at + name.size() + 2));
}

TEST_F(ObsCapiTest, LocatorSeriesCountProbesPerWalk) {
  MixedWorkload();
  char* text = nullptr;
  size_t len = 0;
  ASSERT_EQ(steg_metrics_text(vol_, &text, &len), STEG_OK);
  std::string metrics(text, len);
  steg_buffer_free(text);

  // The create's Open of alice's not-yet-existing UAK directory walked to
  // NotFound; the connect found the object.
  EXPECT_GE(ExposedValue(metrics, "stegfs_locator_probes_not_found_count"), 1);
  EXPECT_GE(ExposedValue(metrics, "stegfs_locator_probes_found_count"), 1);
  // Probe histograms are counts, exposed unscaled (not as seconds): one
  // NotFound walk alone is probe_limit = 10000 probes.
  EXPECT_GE(ExposedValue(metrics, "stegfs_locator_probes_not_found_sum"),
            10000);
  const double reads =
      ExposedValue(metrics, "stegfs_locator_candidate_reads_total");
  const double hits =
      ExposedValue(metrics, "stegfs_locator_candidate_cache_hits_total");
  EXPECT_GT(reads, 0);
  EXPECT_GE(hits, 0);
  EXPECT_LE(hits, reads);
}

TEST_F(ObsCapiTest, TraceExportProducesPerfettoShapedJson) {
  ASSERT_EQ(steg_trace_start(vol_), STEG_OK);
  MixedWorkload();
  ASSERT_EQ(steg_trace_stop(vol_), STEG_OK);

  char* json = nullptr;
  size_t len = 0;
  ASSERT_EQ(steg_trace_export(vol_, &json, &len), STEG_OK);
  ASSERT_NE(json, nullptr);
  std::string trace(json, len);
  steg_buffer_free(json);

  EXPECT_NE(trace.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(trace.find("\"ph\":\"X\""), std::string::npos);
  // Both halves of the mixed workload produced spans.
  EXPECT_NE(trace.find("\"cat\":\"fs\""), std::string::npos);
  EXPECT_NE(trace.find("\"cat\":\"hidden\""), std::string::npos);
  EXPECT_NE(trace.find("\"name\":\"locator.find\""), std::string::npos);
  EXPECT_EQ(trace.front(), '{');
  EXPECT_EQ(trace.back(), '}');

  // Spans recorded while tracing was stopped would be a leak of the
  // Start/Stop contract: a fresh export after more (untraced) work must
  // not grow.
  size_t before = trace.size();
  char tmp[32];
  size_t n = 0;
  ASSERT_EQ(steg_plain_read(vol_, "/obs.txt", tmp, sizeof(tmp), &n), STEG_OK);
  ASSERT_EQ(steg_trace_export(vol_, &json, &len), STEG_OK);
  EXPECT_EQ(len, before);
  steg_buffer_free(json);
}

TEST_F(ObsCapiTest, ObsToggleRoundTrips) {
  EXPECT_EQ(steg_obs_enabled(), 1);
  steg_obs_set_enabled(0);
  EXPECT_EQ(steg_obs_enabled(), 0);
  steg_obs_set_enabled(1);
  EXPECT_EQ(steg_obs_enabled(), 1);
}

TEST_F(ObsCapiTest, ConcurrentStatsAndScrapeReaders) {
  // Writers mutate the volume while readers pull steg_stats, steg_metric
  // and steg_metrics_text: every call succeeds and cumulative counters
  // never run backwards.
  ASSERT_EQ(steg_create(vol_, "bob", "obj", "uak", STEG_TYPE_FILE), STEG_OK);
  ASSERT_EQ(steg_connect(vol_, "bob", "obj", "uak"), STEG_OK);

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    std::string data(2048, 'w');
    int i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      std::string path = "/w" + std::to_string(i++ % 8);
      ASSERT_EQ(steg_plain_write(vol_, path.c_str(), data.data(),
                                 data.size()),
                STEG_OK);
      ASSERT_EQ(steg_hidden_write(vol_, "bob", "obj", data.data(),
                                  data.size()),
                STEG_OK);
    }
  });
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&] {
      uint64_t last_hits = 0;
      uint64_t last_misses = 0;
      for (int i = 0; i < 50; ++i) {
        stegfs_stats s;
        ASSERT_EQ(steg_stats(vol_, &s), STEG_OK);
        const uint64_t hits = Metric(vol_, "stegfs_cache_hits_total");
        const uint64_t misses = Metric(vol_, "stegfs_cache_misses_total");
        EXPECT_GE(hits, last_hits);
        EXPECT_GE(misses, last_misses);
        last_hits = hits;
        last_misses = misses;
        char* text = nullptr;
        size_t len = 0;
        ASSERT_EQ(steg_metrics_text(vol_, &text, &len), STEG_OK);
        EXPECT_GT(len, 0u);
        steg_buffer_free(text);
      }
    });
  }
  for (auto& th : readers) th.join();
  stop.store(true);
  writer.join();
}

// The deniability acceptance test: the same mkfs + workload + unmount
// sequence must leave byte-identical volume images whether observability
// (metrics + tracing + slow-op log) ran or not. Every on-volume byte is
// accounted for by the deterministic data path; obs state lives only in
// process memory.
TEST(ObsDeniabilityTest, VolumeImageBitIdenticalWithObsOnAndOff) {
  const std::string image =
      ::testing::TempDir() + "/obs_deniability_volume.img";

  auto run = [&image](bool obs_on) -> std::string {
    std::remove(image.c_str());
    steg_obs_set_enabled(obs_on ? 1 : 0);
    EXPECT_EQ(steg_mkfs(image.c_str(), 1024, 16384), STEG_OK);
    stegfs_volume* vol = nullptr;
    EXPECT_EQ(steg_mount(image.c_str(), 1024, &vol), STEG_OK);
    if (vol == nullptr) return "";
    if (obs_on) {
      EXPECT_EQ(steg_trace_start(vol), STEG_OK);
    }
    EXPECT_EQ(steg_plain_write(vol, "/deny.txt", "same either way", 15),
              STEG_OK);
    EXPECT_EQ(steg_create(vol, "carol", "hidden", "uak", STEG_TYPE_FILE),
              STEG_OK);
    EXPECT_EQ(steg_connect(vol, "carol", "hidden", "uak"), STEG_OK);
    std::string secret(3000, 'h');
    EXPECT_EQ(
        steg_hidden_write(vol, "carol", "hidden", secret.data(),
                          secret.size()),
        STEG_OK);
    char buf[64];
    size_t n = 0;
    EXPECT_EQ(steg_plain_read(vol, "/deny.txt", buf, sizeof(buf), &n),
              STEG_OK);
    if (obs_on) {
      char* out = nullptr;
      size_t len = 0;
      EXPECT_EQ(steg_metrics_text(vol, &out, &len), STEG_OK);
      steg_buffer_free(out);
      EXPECT_EQ(steg_trace_stop(vol), STEG_OK);
      EXPECT_EQ(steg_trace_export(vol, &out, &len), STEG_OK);
      steg_buffer_free(out);
    }
    EXPECT_EQ(steg_unmount(vol), STEG_OK);
    std::string bytes = ReadWholeFile(image);
    std::remove(image.c_str());
    return bytes;
  };

  std::string with_obs = run(true);
  std::string without_obs = run(false);
  steg_obs_set_enabled(1);

  ASSERT_FALSE(with_obs.empty());
  ASSERT_EQ(with_obs.size(), without_obs.size());
  EXPECT_TRUE(with_obs == without_obs)
      << "observability left a footprint on the volume image";
}

}  // namespace
