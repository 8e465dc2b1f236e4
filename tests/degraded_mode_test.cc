// Degraded-mode state machine at the mount level (PR 8): persistent
// write faults trip the volume read-only with clean txn abort, transient
// exhaustion degrades without stopping writes, hidden reads lean on the
// IDA heal path under injected corruption, and the transitions hold under
// concurrent sessions (this test runs in the TSan matrix).
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "core/stegfs.h"
#include "fault/fault_injection_device.h"
#include "fault/health.h"
#include "journal/recovery.h"

namespace stegfs {
namespace {

constexpr uint32_t kBs = 512;
constexpr uint64_t kBlocks = 4096;
const char* kUid = "alice";
const char* kUak = "uak-secret";
const char* kObj = "payload";

using fault::FaultInjectionBlockDevice;
using fault::FaultRule;
using fault::MountHealth;

StegFormatOptions SmallFormat(uint32_t journal_blocks = 0) {
  StegFormatOptions fmt;
  fmt.params.dummy_file_count = 2;
  fmt.params.dummy_file_avg_bytes = 2048;
  fmt.entropy = "degraded-mode-entropy";
  fmt.journal_blocks = journal_blocks;
  return fmt;
}

// Write-through keeps device faults synchronous with the op that caused
// them, so transitions are deterministic to assert on.
StegFsOptions WriteThroughOpts() {
  StegFsOptions opts;
  opts.mount.write_policy = WritePolicy::kWriteThrough;
  opts.mount.cache_blocks = 64;
  // Microscopic backoff: exhaustion tests shouldn't sleep for real.
  opts.mount.fault.retry.base_backoff_ns = 1000;
  opts.mount.fault.retry.max_backoff_ns = 8000;
  return opts;
}

FaultRule Rule(FaultRule::Op op, FaultRule::Kind kind,
               uint64_t count = FaultRule::kForever, uint64_t after = 0) {
  FaultRule r;
  r.op = op;
  r.kind = kind;
  r.after = after;
  r.count = count;
  return r;
}

TEST(DegradedModeTest, PersistentWriteFaultTripsReadOnly) {
  FaultInjectionBlockDevice dev(kBs, kBlocks);
  ASSERT_TRUE(StegFs::Format(&dev, SmallFormat()).ok());
  auto fs = StegFs::Mount(&dev, WriteThroughOpts());
  ASSERT_TRUE(fs.ok()) << fs.status().ToString();
  ASSERT_TRUE((*fs)->plain()->WriteFile("/before", "fine").ok());
  ASSERT_EQ((*fs)->plain()->health()->state(), MountHealth::kHealthy);

  dev.AddRule(Rule(FaultRule::Op::kWrite, FaultRule::Kind::kPersistentError));
  Status w = (*fs)->plain()->WriteFile("/doomed", "never lands");
  ASSERT_FALSE(w.ok());
  EXPECT_EQ((*fs)->plain()->health()->state(), MountHealth::kReadOnly);

  // Every subsequent mutating op is rejected up front — the device never
  // sees it (the schedule would fire if it did, but the op must fail with
  // FailedPrecondition, not an I/O error).
  const uint64_t injected_before = dev.faults_injected();
  Status rejected = (*fs)->plain()->WriteFile("/rejected", "x");
  EXPECT_TRUE(rejected.IsFailedPrecondition()) << rejected.ToString();
  EXPECT_EQ(dev.faults_injected(), injected_before);
  EXPECT_GE((*fs)->plain()->health()->rejected_writes(), 1u);
  // Hidden-path mutations are gated identically.
  Status hc = (*fs)->StegCreate(kUid, kObj, kUak, HiddenType::kFile,
                                RedundancyPolicy::None());
  EXPECT_TRUE(hc.IsFailedPrecondition()) << hc.ToString();

  // Reads keep being served.
  auto back = (*fs)->plain()->ReadFile("/before");
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), "fine");

  // Operator fixes the substrate, resets: writes flow again.
  dev.ClearRules();
  (*fs)->plain()->health()->Reset();
  EXPECT_TRUE((*fs)->plain()->WriteFile("/after", "recovered").ok());
  EXPECT_EQ((*fs)->plain()->health()->state(), MountHealth::kHealthy);
}

TEST(DegradedModeTest, TransientExhaustionDegradesButKeepsWriting) {
  FaultInjectionBlockDevice dev(kBs, kBlocks);
  ASSERT_TRUE(StegFs::Format(&dev, SmallFormat()).ok());
  auto fs = StegFs::Mount(&dev, WriteThroughOpts());
  ASSERT_TRUE(fs.ok()) << fs.status().ToString();

  // More consecutive transient faults than the retry budget: the op
  // surfaces its error and the mount degrades — but does NOT go
  // read-only, transient exhaustion is a warning, not a verdict.
  dev.AddRule(Rule(FaultRule::Op::kWrite, FaultRule::Kind::kTransientError,
                   /*count=*/64));
  Status w = (*fs)->plain()->WriteFile("/bumpy", "data");
  ASSERT_FALSE(w.ok());
  EXPECT_EQ((*fs)->plain()->health()->state(), MountHealth::kDegraded);

  dev.ClearRules();
  EXPECT_TRUE((*fs)->plain()->WriteFile("/bumpy", "data").ok());
  // Still degraded — the state is a latched warning until reset.
  EXPECT_EQ((*fs)->plain()->health()->state(), MountHealth::kDegraded);
  auto back = (*fs)->plain()->ReadFile("/bumpy");
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), "data");
}

TEST(DegradedModeTest, RetryAbsorbsShortTransientBursts) {
  FaultInjectionBlockDevice dev(kBs, kBlocks);
  ASSERT_TRUE(StegFs::Format(&dev, SmallFormat()).ok());
  auto fs = StegFs::Mount(&dev, WriteThroughOpts());
  ASSERT_TRUE(fs.ok()) << fs.status().ToString();

  // Two-deep fault bursts stay within the default 4-attempt budget:
  // callers never see them, health never changes.
  for (int i = 0; i < 4; ++i) {
    dev.AddRule(Rule(FaultRule::Op::kWrite, FaultRule::Kind::kTransientError,
                     /*count=*/2));
    ASSERT_TRUE(
        (*fs)->plain()->WriteFile("/f" + std::to_string(i), "payload").ok());
  }
  EXPECT_EQ((*fs)->plain()->health()->state(), MountHealth::kHealthy);
  EXPECT_GE((*fs)->plain()->fault_stats()->retry_successes.value(), 4u);
  EXPECT_GT(dev.faults_injected(), 0u);
}

// A persistent fault arriving mid-transaction on a DURABLE mount: the
// open txn aborts through the deferred-free machinery, leaving a ring a
// later recovery mount replays cleanly.
TEST(DegradedModeTest, MidTxnReadOnlyAbortsCleanlyOnDurableMount) {
  FaultInjectionBlockDevice dev(kBs, kBlocks);
  ASSERT_TRUE(StegFs::Format(&dev, SmallFormat(/*journal_blocks=*/16)).ok());
  const std::string doomed_bytes(4096, 'x');
  {
    // Journaling requires write-back (the ordered hold-back), so this
    // test uses the default policy, unlike the rest of the suite.
    StegFsOptions opts;
    opts.mount.durability = Durability::kJournal;
    opts.mount.fault.retry.base_backoff_ns = 1000;
    opts.mount.fault.retry.max_backoff_ns = 8000;
    auto fs = StegFs::Mount(&dev, opts);
    ASSERT_TRUE(fs.ok()) << fs.status().ToString();
    ASSERT_TRUE((*fs)->plain()->WriteFile("/committed", "safe").ok());

    // Now the device dies for good: the next op's journal commit fails
    // mid-txn and must abort or surface cleanly, not tear.
    dev.AddRule(Rule(FaultRule::Op::kWrite,
                     FaultRule::Kind::kPersistentError));
    Status w = (*fs)->plain()->WriteFile("/doomed", doomed_bytes);
    ASSERT_FALSE(w.ok());
    EXPECT_EQ((*fs)->plain()->health()->state(), MountHealth::kReadOnly);
    EXPECT_TRUE(
        (*fs)->plain()->WriteFile("/also", "x").IsFailedPrecondition());

    // Substrate fixed + reset: the mount is usable again in place.
    dev.ClearRules();
    (*fs)->plain()->health()->Reset();
    ASSERT_TRUE((*fs)->plain()->WriteFile("/recovered", "yes").ok());
    ASSERT_TRUE((*fs)->Flush().ok());
  }
  // Recovery mount: committed state intact, fsck clean, and nothing torn.
  // "/doomed" reported failure; if its re-marked dirty blocks flushed
  // after the reset it may exist, but then it must be byte-exact — a
  // failed op may surface as fully-applied or not-applied, never half.
  StegFsOptions opts;
  opts.mount.durability = Durability::kJournal;
  auto fs = StegFs::Mount(&dev, opts);
  ASSERT_TRUE(fs.ok()) << fs.status().ToString();
  auto committed = (*fs)->plain()->ReadFile("/committed");
  ASSERT_TRUE(committed.ok());
  EXPECT_EQ(committed.value(), "safe");
  auto recovered = (*fs)->plain()->ReadFile("/recovered");
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(recovered.value(), "yes");
  EXPECT_FALSE((*fs)->plain()->ReadFile("/also").ok());
  auto doomed = (*fs)->plain()->ReadFile("/doomed");
  if (doomed.ok()) EXPECT_EQ(doomed.value(), doomed_bytes);
  journal::FsckReport report;
  ASSERT_TRUE((*fs)->Fsck(&report).ok());
  EXPECT_TRUE(report.clean);
}

// Hidden reads under injected silent corruption: the redundancy layer
// detects the flip against its checksums, decodes from the surviving
// shares, and heals — the caller sees correct bytes, the health state
// notes nothing (corruption ownership is the heal path's).
TEST(DegradedModeTest, HiddenReadsHealAroundInjectedBitFlips) {
  FaultInjectionBlockDevice dev(kBs, kBlocks);
  ASSERT_TRUE(StegFs::Format(&dev, SmallFormat()).ok());
  const RedundancyPolicy policy = RedundancyPolicy::Ida(2, 3);
  std::string content;
  while (content.size() < 6 * kBs) content += "hidden-payload.";
  content.resize(6 * kBs);

  std::vector<uint64_t> stripe0;
  {
    auto fs = StegFs::Mount(&dev, WriteThroughOpts());
    ASSERT_TRUE(fs.ok()) << fs.status().ToString();
    ASSERT_TRUE(
        (*fs)->StegCreate(kUid, kObj, kUak, HiddenType::kFile, policy).ok());
    ASSERT_TRUE((*fs)->StegConnect(kUid, kObj, kUak).ok());
    ASSERT_TRUE((*fs)->HiddenWriteAll(kUid, kObj, content).ok());
    auto obj = (*fs)->ConnectedForTesting(kUid, kObj);
    ASSERT_TRUE(obj.ok());
    auto blocks = obj.value()->ShareBlocksForTesting(0);
    ASSERT_TRUE(blocks.ok());
    stripe0 = std::move(blocks).value();
    ASSERT_TRUE((*fs)->Flush().ok());
  }

  // Cold mount; every read of data share 0's device block comes back with
  // one (deterministically seeded) bit flipped.
  auto fs = StegFs::Mount(&dev, WriteThroughOpts());
  ASSERT_TRUE(fs.ok()) << fs.status().ToString();
  ASSERT_TRUE((*fs)->StegConnect(kUid, kObj, kUak).ok());
  ASSERT_NE(stripe0[0], 0u);
  FaultRule flip = Rule(FaultRule::Op::kRead, FaultRule::Kind::kBitFlip,
                        /*count=*/1);
  flip.block_lo = flip.block_hi = stripe0[0];
  dev.AddRule(flip);

  auto back = (*fs)->HiddenReadAll(kUid, kObj);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back.value(), content);
  EXPECT_GE((*fs)->redundancy_stats().degraded_reads.value(), 1u);
  EXPECT_GE((*fs)->redundancy_stats().shares_healed.value(), 1u);
}

// Concurrent sessions racing a persistent fault: some ops fail with the
// I/O error that tripped the state, the rest are rejected cleanly — no
// crash, no torn state, and after heal + reset the volume works.
TEST(DegradedModeTest, ConcurrentSessionsSeeCleanReadOnlyTransition) {
  FaultInjectionBlockDevice dev(kBs, kBlocks);
  ASSERT_TRUE(StegFs::Format(&dev, SmallFormat()).ok());
  auto fs = StegFs::Mount(&dev, WriteThroughOpts());
  ASSERT_TRUE(fs.ok()) << fs.status().ToString();

  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 24;
  std::atomic<int> successes{0}, rejections{0}, io_failures{0};
  std::atomic<bool> armed{false};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      for (int i = 0; i < kOpsPerThread; ++i) {
        if (t == 0 && i == kOpsPerThread / 2 && !armed.exchange(true)) {
          dev.AddRule(Rule(FaultRule::Op::kWrite,
                           FaultRule::Kind::kPersistentError));
        }
        const std::string path =
            "/t" + std::to_string(t) + "_" + std::to_string(i);
        Status s = fs->get()->plain()->WriteFile(path, "concurrent");
        if (s.ok()) {
          ++successes;
        } else if (s.IsFailedPrecondition()) {
          ++rejections;
        } else {
          ++io_failures;
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(successes + rejections + io_failures,
            kThreads * kOpsPerThread);
  EXPECT_GT(successes.load(), 0);
  EXPECT_GT(rejections.load(), 0);
  EXPECT_EQ(fs->get()->plain()->health()->state(), MountHealth::kReadOnly);
  EXPECT_EQ(fs->get()->plain()->health()->readonly_transitions(), 1u);

  // Every file that reported success must read back intact.
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kOpsPerThread; ++i) {
      const std::string path =
          "/t" + std::to_string(t) + "_" + std::to_string(i);
      auto back = fs->get()->plain()->ReadFile(path);
      if (back.ok()) EXPECT_EQ(back.value(), "concurrent");
    }
  }

  dev.ClearRules();
  fs->get()->plain()->health()->Reset();
  EXPECT_TRUE(fs->get()->plain()->WriteFile("/post", "healed").ok());
}

}  // namespace
}  // namespace stegfs
