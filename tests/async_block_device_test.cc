// The async I/O engine: ThreadPoolAsyncDevice against MemBlockDevice and
// FaultyDevice (fault semantics and the exactly-once completion contract),
// and against a FileBlockDevice in a temp file (agreement with the
// synchronous pread path and range rejection). The concurrency cases run
// under TSan in CI.
#include "blockdev/async_block_device.h"

#include <atomic>
#include <cstdio>
#include <cstring>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "blockdev/file_block_device.h"
#include "blockdev/mem_block_device.h"
#include "blockdev/thread_pool_async_device.h"
#include "gtest/gtest.h"
#include "tests/test_device.h"

namespace stegfs {
namespace {

constexpr uint32_t kBlockSize = 512;
constexpr uint64_t kNumBlocks = 256;

// Deterministic per-block pattern.
void FillBlock(uint64_t block, uint8_t* buf, uint32_t bs) {
  for (uint32_t i = 0; i < bs; ++i) {
    buf[i] = static_cast<uint8_t>((block * 131 + i * 7) & 0xff);
  }
}

void SeedDevice(BlockDevice* dev) {
  std::vector<uint8_t> buf(dev->block_size());
  for (uint64_t b = 0; b < dev->num_blocks(); ++b) {
    FillBlock(b, buf.data(), dev->block_size());
    ASSERT_TRUE(dev->WriteBlock(b, buf.data()).ok());
  }
}

TEST(ThreadPoolAsyncDeviceTest, ReadBatchMatchesSync) {
  MemBlockDevice dev(kBlockSize, kNumBlocks);
  SeedDevice(&dev);
  ThreadPoolAsyncDevice engine(&dev, 3);

  std::mt19937 rng(42);
  std::vector<uint8_t> out(64 * kBlockSize);
  std::vector<BlockIoVec> iov;
  std::vector<uint64_t> blocks;
  for (size_t i = 0; i < 64; ++i) {
    uint64_t b = rng() % kNumBlocks;
    blocks.push_back(b);
    iov.push_back({b, out.data() + i * kBlockSize});
  }
  IoTicket t = engine.SubmitRead(std::move(iov));
  ASSERT_TRUE(t.Wait().ok());
  std::vector<uint8_t> want(kBlockSize);
  for (size_t i = 0; i < 64; ++i) {
    FillBlock(blocks[i], want.data(), kBlockSize);
    EXPECT_EQ(0, std::memcmp(out.data() + i * kBlockSize, want.data(),
                             kBlockSize))
        << "block " << blocks[i] << " at position " << i;
  }
  const AsyncIoMetrics& m = engine.metrics();
  EXPECT_EQ(m.submitted_batches.value(), 1u);
  EXPECT_EQ(m.submitted_blocks.value(), 64u);
  EXPECT_EQ(m.completed_batches.value(), 1u);
  EXPECT_EQ(m.failed_batches.value(), 0u);
  EXPECT_EQ(engine.inflight_blocks(), 0u);
}

TEST(ThreadPoolAsyncDeviceTest, CallbackRunsExactlyOncePerBatch) {
  MemBlockDevice dev(kBlockSize, kNumBlocks);
  SeedDevice(&dev);
  ThreadPoolAsyncDevice engine(&dev, 4);

  std::atomic<int> calls{0};
  // One buffer per batch: 20 batches are in flight at once, and the
  // engine contract says each batch's target buffers are private to it.
  std::vector<std::vector<uint8_t>> outs(
      20, std::vector<uint8_t>((kNumBlocks / 4) * kBlockSize));
  std::vector<IoTicket> tickets;
  for (int batch = 0; batch < 20; ++batch) {
    std::vector<BlockIoVec> iov;
    for (uint64_t b = 0; b < kNumBlocks; b += 4) {
      iov.push_back({b, outs[batch].data() + (b / 4) * kBlockSize});
    }
    tickets.push_back(engine.SubmitRead(
        std::move(iov), [&calls](const Status&) { calls.fetch_add(1); }));
  }
  for (IoTicket& t : tickets) EXPECT_TRUE(t.Wait().ok());
  EXPECT_EQ(calls.load(), 20);
  // Wait() again: idempotent, and the counter must not move.
  for (IoTicket& t : tickets) EXPECT_TRUE(t.Wait().ok());
  EXPECT_EQ(calls.load(), 20);
}

TEST(ThreadPoolAsyncDeviceTest, MidBatchReadFaultFailsBatchOnce) {
  test::FaultyDevice dev(kBlockSize, kNumBlocks);
  SeedDevice(dev.inner());
  ThreadPoolAsyncDevice engine(&dev, 2);

  dev.FailReads(/*after=*/10);  // the 11th read of the batch fails
  std::atomic<int> calls{0};
  Status seen;
  std::vector<uint8_t> out(64 * kBlockSize);
  std::vector<BlockIoVec> iov;
  for (uint64_t b = 0; b < 64; ++b) {
    iov.push_back({b, out.data() + b * kBlockSize});
  }
  IoTicket t = engine.SubmitRead(std::move(iov),
                                 [&](const Status& s) {
                                   calls.fetch_add(1);
                                   seen = s;
                                 });
  Status waited = t.Wait();
  EXPECT_FALSE(waited.ok());
  EXPECT_EQ(calls.load(), 1);
  EXPECT_EQ(seen.ToString(), waited.ToString());
  EXPECT_EQ(engine.metrics().failed_batches.value(), 1u);
  dev.Heal();
}

TEST(ThreadPoolAsyncDeviceTest, ConcurrentSubmittersAndFaults) {
  test::FaultyDevice dev(kBlockSize, kNumBlocks);
  SeedDevice(dev.inner());
  ThreadPoolAsyncDevice engine(&dev, 3);

  std::atomic<int> completions{0};
  std::vector<std::thread> threads;
  for (int tid = 0; tid < 4; ++tid) {
    threads.emplace_back([&engine, &completions, tid] {
      std::mt19937 rng(1000 + tid);
      std::vector<uint8_t> out(16 * kBlockSize);
      for (int round = 0; round < 30; ++round) {
        std::vector<BlockIoVec> iov;
        for (size_t i = 0; i < 16; ++i) {
          iov.push_back({rng() % kNumBlocks, out.data() + i * kBlockSize});
        }
        // Errors are fine (the fault thread is firing); the contract under
        // test is exactly-one completion per batch and no races.
        engine
            .SubmitRead(std::move(iov),
                        [&completions](const Status&) {
                          completions.fetch_add(1);
                        })
            .Wait();
      }
    });
  }
  std::thread faulter([&dev] {
    for (int i = 0; i < 20; ++i) {
      dev.FailReads(/*after=*/5);
      std::this_thread::yield();
      dev.Heal();
    }
  });
  for (std::thread& t : threads) t.join();
  faulter.join();
  engine.Drain();
  EXPECT_EQ(completions.load(), 4 * 30);
  EXPECT_EQ(engine.metrics().submitted_batches.value(),
            engine.metrics().completed_batches.value());
  EXPECT_EQ(engine.inflight_blocks(), 0u);
}

TEST(ThreadPoolAsyncDeviceTest, EmptyBatchCompletesInline) {
  MemBlockDevice dev(kBlockSize, kNumBlocks);
  ThreadPoolAsyncDevice engine(&dev, 2);
  bool called = false;
  IoTicket t = engine.SubmitRead({}, [&called](const Status& s) {
    called = s.ok();
  });
  EXPECT_TRUE(t.done());
  EXPECT_TRUE(t.Wait().ok());
  EXPECT_TRUE(called);
}

// --- File-backed volume ------------------------------------------------

class FileBackedEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "/async_engine_vol.img";
    std::remove(path_.c_str());
    auto dev = FileBlockDevice::Create(path_, kBlockSize, kNumBlocks);
    ASSERT_TRUE(dev.ok());
    dev_ = std::move(dev).value();
    SeedDevice(dev_.get());
    engine_ = std::make_unique<ThreadPoolAsyncDevice>(dev_.get());
  }

  void TearDown() override {
    engine_.reset();  // drain before the file closes
    dev_.reset();
    std::remove(path_.c_str());
  }

  std::string path_;
  std::unique_ptr<FileBlockDevice> dev_;
  std::unique_ptr<ThreadPoolAsyncDevice> engine_;
};

TEST_F(FileBackedEngineTest, RandomReadBatchMatchesSync) {
  std::mt19937 rng(7);
  std::vector<uint8_t> out(128 * kBlockSize);
  std::vector<uint64_t> blocks;
  std::vector<BlockIoVec> iov;
  for (size_t i = 0; i < 128; ++i) {
    uint64_t b = rng() % kNumBlocks;
    blocks.push_back(b);
    iov.push_back({b, out.data() + i * kBlockSize});
  }
  ASSERT_TRUE(engine_->SubmitRead(std::move(iov)).Wait().ok());
  std::vector<uint8_t> want(kBlockSize);
  for (size_t i = 0; i < 128; ++i) {
    ASSERT_TRUE(dev_->ReadBlock(blocks[i], want.data()).ok());
    EXPECT_EQ(0, std::memcmp(out.data() + i * kBlockSize, want.data(),
                             kBlockSize));
  }
}

TEST_F(FileBackedEngineTest, OutOfRangeRejectedWithoutSubmission) {
  // Enough blocks for several slices, every one past the end: each slice
  // fails, yet the batch fails (and calls back) exactly once.
  constexpr size_t kOps = 32;
  std::vector<uint8_t> out(kOps * kBlockSize, 0xEE);
  std::vector<BlockIoVec> iov;
  for (size_t i = 0; i < kOps; ++i) {
    iov.push_back({kNumBlocks + i, out.data() + i * kBlockSize});
  }
  std::atomic<int> calls{0};
  Status s = engine_
                 ->SubmitRead(std::move(iov),
                              [&calls](const Status&) { calls.fetch_add(1); })
                 .Wait();
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
  EXPECT_EQ(calls.load(), 1);
  const AsyncIoMetrics& m = engine_->metrics();
  EXPECT_EQ(m.submitted_batches.value(), 1u);
  EXPECT_EQ(m.completed_batches.value(), 1u);
  EXPECT_EQ(m.failed_batches.value(), 1u);
  EXPECT_EQ(engine_->inflight_blocks(), 0u);
  // Nothing was transferred: the target buffer is untouched, and the
  // volume neither grew nor changed.
  EXPECT_EQ(out, std::vector<uint8_t>(kOps * kBlockSize, 0xEE));
  EXPECT_EQ(dev_->num_blocks(), kNumBlocks);
  std::FILE* f = std::fopen(path_.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  EXPECT_EQ(std::ftell(f), static_cast<long>(kNumBlocks * kBlockSize));
  std::fclose(f);
  std::vector<uint8_t> got(kBlockSize), want(kBlockSize);
  for (uint64_t b = 0; b < kNumBlocks; ++b) {
    ASSERT_TRUE(dev_->ReadBlock(b, got.data()).ok());
    FillBlock(b, want.data(), kBlockSize);
    EXPECT_EQ(0, std::memcmp(got.data(), want.data(), kBlockSize)) << b;
  }
}

}  // namespace
}  // namespace stegfs
