// The device request order of large extents. FileIo sorts each extent by
// LBA before the encrypted store's fan-out splits it into chunks, so a
// 256-block hidden read or write and a sequential plain extent reach the
// device as one ascending sweep, on a kSync mount and on a kAuto mount
// whose engine workers carry some of the chunks. The paper-figure benches
// replay exactly this order on the disk model.
#include <gtest/gtest.h>

#include <algorithm>
#include <mutex>
#include <string>
#include <vector>

#include "blockdev/mem_block_device.h"
#include "core/stegfs.h"
#include "util/random.h"

namespace stegfs {
namespace {

constexpr uint32_t kBs = 4096;
constexpr size_t kExtent = 256;  // blocks

// A MemBlockDevice that records the block numbers of each vectored call
// while recording is on.
class RecordingDevice : public BlockDevice {
 public:
  using Calls = std::vector<std::vector<uint64_t>>;

  explicit RecordingDevice(uint64_t blocks) : inner_(kBs, blocks) {}

  uint32_t block_size() const override { return inner_.block_size(); }
  uint64_t num_blocks() const override { return inner_.num_blocks(); }
  Status ReadBlock(uint64_t block, uint8_t* buf) override {
    return inner_.ReadBlock(block, buf);
  }
  Status WriteBlock(uint64_t block, const uint8_t* buf) override {
    return inner_.WriteBlock(block, buf);
  }
  Status ReadBlocks(const BlockIoVec* iov, size_t n) override {
    Record(&reads_, iov, n);
    return inner_.ReadBlocks(iov, n);
  }
  Status WriteBlocks(const ConstBlockIoVec* iov, size_t n) override {
    Record(&writes_, iov, n);
    return inner_.WriteBlocks(iov, n);
  }
  Status Flush() override { return inner_.Flush(); }
  Status Sync() override { return inner_.Sync(); }

  void Start() {
    std::lock_guard<std::mutex> lock(mu_);
    reads_.clear();
    writes_.clear();
    recording_ = true;
  }
  // Stops recording; returns the recorded read and write calls, each in
  // issue order.
  std::pair<Calls, Calls> Stop() {
    std::lock_guard<std::mutex> lock(mu_);
    recording_ = false;
    return {reads_, writes_};
  }

 private:
  template <typename Vec>
  void Record(Calls* calls, const Vec* iov, size_t n) {
    std::lock_guard<std::mutex> lock(mu_);
    if (!recording_) return;
    std::vector<uint64_t> blocks(n);
    for (size_t i = 0; i < n; ++i) blocks[i] = iov[i].block;
    calls->push_back(std::move(blocks));
  }

  MemBlockDevice inner_;
  std::mutex mu_;
  bool recording_ = false;
  Calls reads_;
  Calls writes_;
};

// The calls carry `want` blocks, and, ordered by their first block, form
// one strictly ascending sequence: every call is ascending and no two
// calls' ranges overlap, whichever thread issued which call. With
// `in_issue_order` the calls as issued form that sequence too.
void ExpectOneSweep(RecordingDevice::Calls calls, size_t want,
                    bool in_issue_order, const std::string& what) {
  SCOPED_TRACE(what);
  size_t blocks = 0;
  for (const auto& c : calls) {
    ASSERT_FALSE(c.empty());
    blocks += c.size();
  }
  EXPECT_EQ(blocks, want);
  if (!in_issue_order) {
    std::sort(calls.begin(), calls.end(),
              [](const auto& a, const auto& b) { return a[0] < b[0]; });
  }
  std::vector<uint64_t> sweep;
  for (const auto& c : calls) sweep.insert(sweep.end(), c.begin(), c.end());
  for (size_t i = 1; i < sweep.size(); ++i) {
    ASSERT_LT(sweep[i - 1], sweep[i])
        << "block " << i << " of " << sweep.size() << " across "
        << calls.size() << " calls";
  }
}

std::string Bytes(size_t n, uint64_t seed) {
  std::string s(n, '\0');
  Xoshiro rng(seed);
  for (char& c : s) c = static_cast<char>(rng.Next());
  return s;
}

class RequestOrderTest : public ::testing::TestWithParam<IoEngine> {};

TEST_P(RequestOrderTest, LargeExtentsReachTheDeviceAscending) {
  const IoEngine engine = GetParam();
  RecordingDevice dev(8192);
  StegFormatOptions fmt;
  fmt.params.dummy_file_count = 2;
  fmt.params.dummy_file_avg_bytes = 8 << 10;
  fmt.entropy = "request-order-test";
  ASSERT_TRUE(StegFs::Format(&dev, fmt).ok());
  StegFsOptions opts;
  opts.mount.io_engine = engine;
  // One shard, so a plain extent's misses leave as one call (see the
  // sharding-vs-coalescing note in buffer_cache.h). Readahead stays off:
  // background loads would interleave with the demand calls.
  opts.mount.cache_shards = 1;
  auto fs = StegFs::Mount(&dev, opts);
  ASSERT_TRUE(fs.ok()) << fs.status().ToString();
  const bool sync = engine == IoEngine::kSync;

  // Remounts on the same device: every cached block is gone.
  auto remount = [&] {
    ASSERT_TRUE((*fs)->DisconnectAll("u").ok());
    ASSERT_TRUE((*fs)->Flush().ok());
    fs->reset();
    fs = StegFs::Mount(&dev, opts);
    ASSERT_TRUE(fs.ok()) << fs.status().ToString();
  };

  // Hidden: after a remount, the first read caches the pointer blocks; the
  // second moves only the data, past the cache, so every data block
  // reaches the device.
  const std::string v1 = Bytes(kExtent * kBs, 1);
  const std::string v2 = Bytes(kExtent * kBs, 2);
  ASSERT_TRUE((*fs)->StegCreate("u", "big", "uak", HiddenType::kFile).ok());
  ASSERT_TRUE((*fs)->StegConnect("u", "big", "uak").ok());
  ASSERT_TRUE((*fs)->HiddenWrite("u", "big", 0, v1).ok());
  ASSERT_NO_FATAL_FAILURE(remount());
  ASSERT_TRUE((*fs)->StegConnect("u", "big", "uak").ok());
  std::string out;
  ASSERT_TRUE((*fs)->HiddenRead("u", "big", 0, v1.size(), &out).ok());
  ASSERT_EQ(out, v1);

  out.clear();
  dev.Start();
  ASSERT_TRUE((*fs)->HiddenRead("u", "big", 0, v1.size(), &out).ok());
  auto [reads, writes] = dev.Stop();
  ASSERT_EQ(out, v1);
  EXPECT_TRUE(writes.empty());
  EXPECT_GT(reads.size(), 1u);  // the fan-out's chunks
  ExpectOneSweep(reads, kExtent, sync, "hidden read");

  dev.Start();
  ASSERT_TRUE((*fs)->HiddenWrite("u", "big", 0, v2).ok());
  std::tie(reads, writes) = dev.Stop();
  EXPECT_TRUE(reads.empty());
  EXPECT_GT(writes.size(), 1u);
  ExpectOneSweep(writes, kExtent, sync, "hidden write");
  out.clear();
  ASSERT_TRUE((*fs)->HiddenRead("u", "big", 0, v2.size(), &out).ok());
  ASSERT_EQ(out, v2);

  // Plain: a sequential file read back after a remount. The mapper's
  // pointer and inode reads are single blocks; the data is the rest.
  const std::string p = Bytes(kExtent * kBs, 3);
  ASSERT_TRUE((*fs)->plain()->WriteFile("/seq", p).ok());
  ASSERT_NO_FATAL_FAILURE(remount());
  out.clear();
  dev.Start();
  ASSERT_TRUE((*fs)->plain()->ReadAt("/seq", 0, p.size(), &out).ok());
  std::tie(reads, writes) = dev.Stop();
  ASSERT_EQ(out, p);
  RecordingDevice::Calls data;
  for (auto& c : reads) {
    if (c.size() > 1) data.push_back(std::move(c));
  }
  ExpectOneSweep(data, kExtent, true, "plain read");
}

INSTANTIATE_TEST_SUITE_P(Engines, RequestOrderTest,
                         ::testing::Values(IoEngine::kSync, IoEngine::kAuto),
                         [](const auto& info) {
                           return info.param == IoEngine::kSync ? "Sync"
                                                                : "Auto";
                         });

}  // namespace
}  // namespace stegfs
