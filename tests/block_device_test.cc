#include "blockdev/block_device.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <vector>

#include "blockdev/file_block_device.h"
#include "blockdev/mem_block_device.h"
#include "blockdev/sim_disk.h"
#include "blockdev/throttled_block_device.h"
#include "tests/test_device.h"

namespace stegfs {
namespace {

std::vector<uint8_t> Pattern(uint32_t n, uint8_t seed) {
  std::vector<uint8_t> v(n);
  for (uint32_t i = 0; i < n; ++i) v[i] = static_cast<uint8_t>(seed + i);
  return v;
}

TEST(MemBlockDeviceTest, Geometry) {
  MemBlockDevice dev(1024, 100);
  EXPECT_EQ(dev.block_size(), 1024u);
  EXPECT_EQ(dev.num_blocks(), 100u);
  EXPECT_EQ(dev.capacity_bytes(), 102400u);
}

TEST(MemBlockDeviceTest, ReadWriteRoundTrip) {
  MemBlockDevice dev(512, 10);
  auto data = Pattern(512, 7);
  ASSERT_TRUE(dev.WriteBlock(3, data.data()).ok());
  std::vector<uint8_t> out(512);
  ASSERT_TRUE(dev.ReadBlock(3, out.data()).ok());
  EXPECT_EQ(out, data);
}

TEST(MemBlockDeviceTest, FreshDeviceReadsZero) {
  MemBlockDevice dev(512, 4);
  std::vector<uint8_t> out(512, 0xff);
  ASSERT_TRUE(dev.ReadBlock(0, out.data()).ok());
  EXPECT_EQ(out, std::vector<uint8_t>(512, 0));
}

TEST(MemBlockDeviceTest, OutOfRangeRejected) {
  MemBlockDevice dev(512, 4);
  std::vector<uint8_t> buf(512);
  EXPECT_TRUE(dev.ReadBlock(4, buf.data()).IsInvalidArgument());
  EXPECT_TRUE(dev.WriteBlock(100, buf.data()).IsInvalidArgument());
}

TEST(MemBlockDeviceTest, BlocksAreIndependent) {
  MemBlockDevice dev(512, 4);
  auto a = Pattern(512, 1);
  auto b = Pattern(512, 99);
  ASSERT_TRUE(dev.WriteBlock(0, a.data()).ok());
  ASSERT_TRUE(dev.WriteBlock(1, b.data()).ok());
  std::vector<uint8_t> out(512);
  ASSERT_TRUE(dev.ReadBlock(0, out.data()).ok());
  EXPECT_EQ(out, a);
}

class FileBlockDeviceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "/stegfs_fbd_test.img";
    std::remove(path_.c_str());
  }
  void TearDown() override { std::remove(path_.c_str()); }
  std::string path_;
};

TEST_F(FileBlockDeviceTest, CreateWriteReopenRead) {
  auto data = Pattern(1024, 42);
  {
    auto dev = FileBlockDevice::Create(path_, 1024, 16);
    ASSERT_TRUE(dev.ok()) << dev.status().ToString();
    ASSERT_TRUE((*dev)->WriteBlock(5, data.data()).ok());
    ASSERT_TRUE((*dev)->Flush().ok());
  }
  {
    auto dev = FileBlockDevice::Open(path_, 1024);
    ASSERT_TRUE(dev.ok());
    EXPECT_EQ((*dev)->num_blocks(), 16u);
    std::vector<uint8_t> out(1024);
    ASSERT_TRUE((*dev)->ReadBlock(5, out.data()).ok());
    EXPECT_EQ(out, data);
  }
}

TEST_F(FileBlockDeviceTest, OpenMissingFileFails) {
  auto dev = FileBlockDevice::Open(path_ + ".nope", 1024);
  EXPECT_FALSE(dev.ok());
}

TEST_F(FileBlockDeviceTest, RejectsBadBlockSize) {
  auto dev = FileBlockDevice::Create(path_, 1000, 4);  // not a power of two
  EXPECT_FALSE(dev.ok());
}

TEST_F(FileBlockDeviceTest, VectoredReadCoalescesContiguousRuns) {
  auto dev = FileBlockDevice::Create(path_, 512, 64);
  ASSERT_TRUE(dev.ok());
  std::vector<std::vector<uint8_t>> pats;
  for (uint64_t b = 0; b < 16; ++b) {
    pats.push_back(Pattern(512, static_cast<uint8_t>(b * 3 + 1)));
    ASSERT_TRUE((*dev)->WriteBlock(b, pats.back().data()).ok());
  }

  // 4+3 contiguous runs plus two singletons: 2 coalesced runs expected.
  uint64_t order[] = {2, 3, 4, 5, 9, 12, 13, 14, 40};
  std::vector<uint8_t> zero(512, 0);
  ASSERT_TRUE((*dev)->WriteBlock(40, zero.data()).ok());
  std::vector<std::vector<uint8_t>> bufs(9, std::vector<uint8_t>(512));
  std::vector<BlockIoVec> iov;
  for (size_t i = 0; i < 9; ++i) iov.push_back({order[i], bufs[i].data()});
  ASSERT_TRUE((*dev)->ReadBlocks(iov.data(), iov.size()).ok());
  for (size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(bufs[i], pats[order[i]]) << "block " << order[i];
  }
  const DeviceMetrics* m = (*dev)->device_metrics();
  EXPECT_EQ(m->vectored_blocks.value(), 9u);
  EXPECT_EQ(m->coalesced_runs.value(), 2u);
}

TEST_F(FileBlockDeviceTest, VectoredWriteCoalescesAndPersists) {
  auto dev = FileBlockDevice::Create(path_, 512, 64);
  ASSERT_TRUE(dev.ok());
  std::vector<std::vector<uint8_t>> pats;
  std::vector<ConstBlockIoVec> iov;
  uint64_t order[] = {10, 11, 12, 30, 7, 8};
  for (size_t i = 0; i < 6; ++i) {
    pats.push_back(Pattern(512, static_cast<uint8_t>(40 + i)));
  }
  for (size_t i = 0; i < 6; ++i) iov.push_back({order[i], pats[i].data()});
  ASSERT_TRUE((*dev)->WriteBlocks(iov.data(), iov.size()).ok());
  ASSERT_TRUE((*dev)->Flush().ok());
  const DeviceMetrics* m = (*dev)->device_metrics();
  EXPECT_EQ(m->vectored_blocks.value(), 6u);
  EXPECT_EQ(m->coalesced_runs.value(), 2u);  // {10,11,12} and {7,8}

  // Reopen and verify per-block.
  auto reopened = FileBlockDevice::Open(path_, 512);
  ASSERT_TRUE(reopened.ok());
  std::vector<uint8_t> out(512);
  for (size_t i = 0; i < 6; ++i) {
    ASSERT_TRUE((*reopened)->ReadBlock(order[i], out.data()).ok());
    EXPECT_EQ(out, pats[i]) << "block " << order[i];
  }
}

TEST_F(FileBlockDeviceTest, VectoredIoRejectsOutOfRangeUpFront) {
  auto dev = FileBlockDevice::Create(path_, 512, 8);
  ASSERT_TRUE(dev.ok());
  std::vector<uint8_t> a(512, 1), b(512, 2);
  ConstBlockIoVec iov[2] = {{3, a.data()}, {8, b.data()}};
  EXPECT_TRUE((*dev)->WriteBlocks(iov, 2).IsInvalidArgument());
  // Validation happens before any transfer: block 3 must be untouched.
  std::vector<uint8_t> out(512, 0xff);
  ASSERT_TRUE((*dev)->ReadBlock(3, out.data()).ok());
  EXPECT_EQ(out, std::vector<uint8_t>(512, 0));
}

// A fault in the middle of a vectored request (served by the base-class
// per-block fallback on FaultyDevice) stops at the failing block: earlier
// blocks have transferred, later ones are untouched, and the error
// surfaces to the caller.
TEST(FaultyDeviceBatchTest, FaultMidBatchStopsAtFailingBlock) {
  test::FaultyDevice dev(512, 32);
  auto a = Pattern(512, 1);
  auto b = Pattern(512, 2);
  auto c = Pattern(512, 3);
  dev.FailWrites(2);  // first two writes succeed, third faults
  ConstBlockIoVec wr[3] = {{0, a.data()}, {1, b.data()}, {2, c.data()}};
  EXPECT_TRUE(dev.WriteBlocks(wr, 3).IsIOError());
  dev.Heal();
  std::vector<uint8_t> out(512);
  ASSERT_TRUE(dev.ReadBlock(0, out.data()).ok());
  EXPECT_EQ(out, a);
  ASSERT_TRUE(dev.ReadBlock(1, out.data()).ok());
  EXPECT_EQ(out, b);
  ASSERT_TRUE(dev.ReadBlock(2, out.data()).ok());
  EXPECT_EQ(out, std::vector<uint8_t>(512, 0));  // never written

  dev.FailReads(1);
  BlockIoVec rd[3] = {{0, out.data()}, {1, out.data()}, {2, out.data()}};
  EXPECT_TRUE(dev.ReadBlocks(rd, 3).IsIOError());
}

TEST(MemBlockDeviceTest, DefaultVectoredFallbackTransfersAllBlocks) {
  MemBlockDevice dev(512, 16);
  auto a = Pattern(512, 1);
  auto b = Pattern(512, 2);
  ConstBlockIoVec wr[2] = {{5, a.data()}, {1, b.data()}};
  ASSERT_TRUE(dev.WriteBlocks(wr, 2).ok());
  std::vector<uint8_t> oa(512), ob(512);
  BlockIoVec rd[2] = {{1, ob.data()}, {5, oa.data()}};
  ASSERT_TRUE(dev.ReadBlocks(rd, 2).ok());
  EXPECT_EQ(oa, a);
  EXPECT_EQ(ob, b);
  // The fallback reports no batch-path counters.
  EXPECT_EQ(dev.device_metrics()->vectored_blocks.value(), 0u);
  EXPECT_EQ(dev.device_metrics()->coalesced_runs.value(), 0u);
}

// A throttled barrier is timed whole, its sleep included, in the exported
// device sync histogram: after k syncs at latency L the histogram holds k
// samples summing to at least k * L.
TEST(ThrottledBlockDeviceTest, SyncHistogramCoversTheBarrier) {
  MemBlockDevice mem(512, 16);
  constexpr std::chrono::microseconds kLat(300);
  constexpr uint64_t kSyncs = 5;
  ThrottledBlockDevice dev(&mem, std::chrono::microseconds(0),
                           std::chrono::microseconds(0), kLat);
  ASSERT_EQ(dev.device_metrics(), mem.device_metrics());
  for (uint64_t i = 0; i < kSyncs; ++i) ASSERT_TRUE(dev.Sync().ok());
  const obs::HistogramSnapshot snap = dev.device_metrics()->sync_ns.Snapshot();
  EXPECT_EQ(snap.count, kSyncs);
  EXPECT_GE(snap.sum, kSyncs * 300'000u);
  EXPECT_EQ(dev.device_metrics()->syncs.value(), kSyncs);
}

TEST(SimDiskTest, ForwardsDataAndAccumulatesTime) {
  auto inner = std::make_unique<MemBlockDevice>(1024, 1000);
  SimDisk disk(std::move(inner), DiskModelConfig{});
  auto data = Pattern(1024, 3);
  ASSERT_TRUE(disk.WriteBlock(10, data.data()).ok());
  std::vector<uint8_t> out(1024);
  ASSERT_TRUE(disk.ReadBlock(10, out.data()).ok());
  EXPECT_EQ(out, data);
  EXPECT_GT(disk.sim_time_seconds(), 0.0);
  EXPECT_EQ(disk.stats().reads, 1u);
  EXPECT_EQ(disk.stats().writes, 1u);
}

TEST(SimDiskTest, TraceRecordsRequests) {
  auto inner = std::make_unique<MemBlockDevice>(1024, 1000);
  SimDisk disk(std::move(inner), DiskModelConfig{});
  IoTrace trace;
  disk.set_trace(&trace);
  std::vector<uint8_t> buf(1024);
  ASSERT_TRUE(disk.WriteBlock(1, buf.data()).ok());
  ASSERT_TRUE(disk.ReadBlock(2, buf.data()).ok());
  disk.set_trace(nullptr);
  ASSERT_TRUE(disk.ReadBlock(3, buf.data()).ok());  // not recorded

  ASSERT_EQ(trace.size(), 2u);
  EXPECT_EQ(trace[0].lba, 1u);
  EXPECT_TRUE(trace[0].is_write);
  EXPECT_EQ(trace[1].lba, 2u);
  EXPECT_FALSE(trace[1].is_write);
}

TEST(SimDiskTest, FailedIoNotCharged) {
  auto inner = std::make_unique<MemBlockDevice>(1024, 10);
  SimDisk disk(std::move(inner), DiskModelConfig{});
  std::vector<uint8_t> buf(1024);
  EXPECT_FALSE(disk.ReadBlock(999, buf.data()).ok());
  EXPECT_EQ(disk.sim_time_seconds(), 0.0);
}

}  // namespace
}  // namespace stegfs
