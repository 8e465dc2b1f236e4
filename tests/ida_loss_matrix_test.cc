// The overwrite-loss matrix (ISSUE 6 acceptance): for every redundancy
// policy × loss count, destroy hidden shares two ways — direct device
// overwrites (the "plain side scribbled on us" case) and plain-side
// reclamation (bitmap bit freed, block handed to plain files) — and
// prove that
//   - up to n-k lost shares per stripe heal transparently on the read
//     path, and the healed object survives a remount,
//   - steg_fsck detects degraded objects and re-disperses their shares
//     online (a second fsck finds nothing),
//   - n-k+1 losses fail CLEANLY with DataLoss — never garbage bytes,
//   - the whole matrix holds on the sync and thread-pool engines (the
//     latter also over a FileBlockDevice in a temp file), and across crash
//     states materialized with tests/crash_harness.h (prefix ×
//     dropped-subset × torn) on a durable mount.
//
// A summary of every cell is written to IDA_matrix.json (archived by the
// ida-matrix CI job, mirroring CRASH_matrix.json).
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "blockdev/file_block_device.h"
#include "blockdev/mem_block_device.h"
#include "core/stegfs.h"
#include "journal/recovery.h"
#include "tests/crash_harness.h"
#include "util/random.h"

namespace stegfs {
namespace {

constexpr uint32_t kBs = 512;
constexpr uint64_t kBlocks = 8192;
const char* kUid = "alice";
const char* kUak = "uak-secret";
const char* kObj = "payload";

struct MatrixCell {
  std::string policy;
  std::string mode;    // "device" | "plain-claim" | "crash"
  std::string engine;  // verify engine
  int losses = 0;
  int tolerance = 0;
  std::string outcome;  // "healed" | "clean-dataloss"
  uint64_t states = 0;  // verified states (1, or crash-state count)
  uint64_t failures = 0;
};
std::vector<MatrixCell>& Summary() {
  static std::vector<MatrixCell> cells;
  return cells;
}

class IdaMatrixJson : public ::testing::Environment {
 public:
  void TearDown() override {
    std::FILE* f = std::fopen("IDA_matrix.json", "w");
    if (f == nullptr) return;
    std::fprintf(f, "{\n  \"bench\": \"ida_loss_matrix\",\n  \"cells\": [\n");
    const auto& cells = Summary();
    for (size_t i = 0; i < cells.size(); ++i) {
      const MatrixCell& c = cells[i];
      std::fprintf(
          f,
          "    {\"policy\": \"%s\", \"mode\": \"%s\", \"engine\": \"%s\", "
          "\"losses\": %d, \"tolerance\": %d, \"outcome\": \"%s\", "
          "\"states\": %llu, \"failures\": %llu}%s\n",
          c.policy.c_str(), c.mode.c_str(), c.engine.c_str(), c.losses,
          c.tolerance, c.outcome.c_str(), (unsigned long long)c.states,
          (unsigned long long)c.failures, i + 1 < cells.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
  }
};
const auto* const kJsonEnv =
    ::testing::AddGlobalTestEnvironment(new IdaMatrixJson);

struct PolicyCase {
  const char* name;
  RedundancyPolicy policy;
};
const PolicyCase kPolicies[] = {
    {"replicate-3", RedundancyPolicy::Replicate(3)},
    {"ida-2of3", RedundancyPolicy::Ida(2, 3)},
    {"ida-3of4", RedundancyPolicy::Ida(3, 4)},
};

StegFormatOptions SmallFormat() {
  StegFormatOptions fmt;
  fmt.params.dummy_file_count = 2;
  fmt.params.dummy_file_avg_bytes = 2048;
  fmt.entropy = "ida-matrix-entropy";
  return fmt;
}

StegFsOptions EngineOpts(IoEngine engine) {
  StegFsOptions opts;
  opts.mount.io_engine = engine;
  opts.mount.cache_blocks = 128;
  return opts;
}

// Where a matrix run mounts: a Mem device with either engine, or a
// FileBlockDevice in a temp file with the async engine — the only IDA
// coverage of the host-file device.
enum class Leg { kSync, kThreads, kThreadsFile };

IoEngine LegEngine(Leg leg) {
  return leg == Leg::kSync ? IoEngine::kSync : IoEngine::kAuto;
}

std::string LegName(Leg leg) {
  switch (leg) {
    case Leg::kSync:
      return "sync";
    case Leg::kThreads:
      return "threads";
    case Leg::kThreadsFile:
      return "threads_file";
  }
  return "";
}

std::string Content(size_t bytes, uint64_t tag) {
  std::string s;
  s.reserve(bytes);
  while (s.size() < bytes) {
    s += "ida" + std::to_string(tag) + ":";
    s.push_back(static_cast<char>('A' + (s.size() % 29)));
  }
  s.resize(bytes);
  return s;
}

// Device blocks of every share of every stripe, in share order.
StatusOr<std::vector<std::vector<uint64_t>>> CollectShares(StegFs* fs) {
  auto obj = fs->ConnectedForTesting(kUid, kObj);
  if (!obj.ok()) return obj.status();
  std::vector<std::vector<uint64_t>> shares;
  for (uint64_t s = 0; s < obj.value()->StripeCountForTesting(); ++s) {
    STEGFS_ASSIGN_OR_RETURN(std::vector<uint64_t> blocks,
                            obj.value()->ShareBlocksForTesting(s));
    shares.push_back(std::move(blocks));
  }
  return shares;
}

// For stripe s, the `losses` share slots to destroy: rotated by stripe so
// the matrix hits data shares, parity shares, and every mix of the two.
std::vector<uint64_t> VictimsOf(const std::vector<uint64_t>& stripe_shares,
                                uint64_t s, int losses) {
  std::vector<uint64_t> victims;
  const size_t n = stripe_shares.size();
  for (int i = 0; i < losses; ++i) {
    uint64_t b = stripe_shares[(s + i) % n];
    if (b != 0) victims.push_back(b);  // 0 = hole, nothing to destroy
  }
  return victims;
}

void OverwriteWithNoise(BlockDevice* dev, uint64_t block, uint64_t seed) {
  Xoshiro rng(0xda7a1055 ^ seed);
  std::vector<uint8_t> noise(kBs);
  rng.FillBytes(noise.data(), noise.size());
  ASSERT_TRUE(dev->WriteBlock(block, noise.data()).ok());
}

// One matrix cell: create the object under `pc.policy`, lose `losses`
// shares per stripe via `mode`, and verify heal-or-clean-failure on
// `leg`'s engine. Appends the cell to the JSON summary.
void RunCell(const PolicyCase& pc, int losses, const std::string& mode,
             Leg leg, BlockDevice* dev) {
  SCOPED_TRACE(pc.name + std::string(" losses=") + std::to_string(losses) +
               " mode=" + mode + " engine=" + LegName(leg));
  const int tol = pc.policy.tolerance();
  MatrixCell cell;
  cell.policy = pc.name;
  cell.mode = mode;
  cell.engine = LegName(leg);
  cell.losses = losses;
  cell.tolerance = tol;
  cell.outcome = losses <= tol ? "healed" : "clean-dataloss";
  cell.states = 1;

  ASSERT_TRUE(StegFs::Format(dev, SmallFormat()).ok());
  // ~7 stripes of payload so victim rotation covers every share mix.
  const std::string content = Content(7 * pc.policy.k * kBs - 123, 1);
  std::vector<std::vector<uint64_t>> shares;
  {
    auto fs = StegFs::Mount(dev, EngineOpts(LegEngine(leg)));
    ASSERT_TRUE(fs.ok()) << fs.status().ToString();
    ASSERT_TRUE(
        (*fs)->StegCreate(kUid, kObj, kUak, HiddenType::kFile, pc.policy)
            .ok());
    ASSERT_TRUE((*fs)->StegConnect(kUid, kObj, kUak).ok());
    ASSERT_TRUE((*fs)->HiddenWriteAll(kUid, kObj, content).ok());
    auto collected = CollectShares(fs->get());
    ASSERT_TRUE(collected.ok()) << collected.status().ToString();
    shares = std::move(collected).value();
    ASSERT_GE(shares.size(), 7u);
    ASSERT_TRUE((*fs)->Flush().ok());
  }

  // Destroy shares between mounts.
  if (mode == "device") {
    for (uint64_t s = 0; s < shares.size(); ++s) {
      for (uint64_t b : VictimsOf(shares[s], s, losses)) {
        OverwriteWithNoise(dev, b, s * 97 + b);
      }
    }
  } else {  // plain-claim: free the bits, let plain files take the blocks
    auto fs = StegFs::Mount(dev, EngineOpts(LegEngine(leg)));
    ASSERT_TRUE(fs.ok()) << fs.status().ToString();
    for (uint64_t s = 0; s < shares.size(); ++s) {
      for (uint64_t b : VictimsOf(shares[s], s, losses)) {
        ASSERT_TRUE((*fs)->plain()->bitmap()->Free(b).ok());
      }
    }
    // Fill the volume with plain files so the freed blocks are claimed
    // and overwritten by someone else's data, then unlink them — the
    // blocks stay overwritten (exactly the paper's overwrite hazard) and
    // the heal path has free space to re-disperse into.
    const std::string filler = Content(200 * 1024, 0xf111);
    int files = 0;
    while (files <= 64) {
      Status st = (*fs)->plain()->WriteFile(
          "/fill" + std::to_string(files), filler);
      if (!st.ok()) break;
      ++files;
    }
    for (int i = 0; i < files; ++i) {
      ASSERT_TRUE((*fs)->plain()->Unlink("/fill" + std::to_string(i)).ok());
    }
    ASSERT_TRUE((*fs)->Flush().ok());
  }

  // Verify: reads heal (and the heal survives a remount), or fail clean.
  auto verify = [&](bool expect_prior_heal) {
    auto fs = StegFs::Mount(dev, EngineOpts(LegEngine(leg)));
    ASSERT_TRUE(fs.ok()) << fs.status().ToString();
    ASSERT_TRUE((*fs)->StegConnect(kUid, kObj, kUak).ok());
    auto back = (*fs)->HiddenReadAll(kUid, kObj);
    if (losses <= tol) {
      if (!back.ok() || back.value() != content) {
        ++cell.failures;
        ADD_FAILURE() << "expected healed read, got "
                      << (back.ok() ? "wrong bytes" : back.status().ToString());
      }
      if (!expect_prior_heal && losses > 0 && mode == "device") {
        EXPECT_GT((*fs)->redundancy_stats().degraded_reads.value(), 0u);
      }
    } else {
      if (back.ok()) {
        ++cell.failures;
        ADD_FAILURE() << "expected DataLoss, read returned "
                      << back.value().size() << " bytes";
      } else {
        EXPECT_TRUE(back.status().IsDataLoss())
            << back.status().ToString();
      }
    }
    ASSERT_TRUE((*fs)->Flush().ok());
  };
  verify(/*expect_prior_heal=*/false);
  // Second mount: healed state must have persisted (no losses injected).
  verify(/*expect_prior_heal=*/true);
  Summary().push_back(cell);
}

class LossMatrixTest : public ::testing::TestWithParam<Leg> {};

TEST_P(LossMatrixTest, HealOrFailCleanAcrossPoliciesAndLossCounts) {
  const Leg leg = GetParam();
  std::unique_ptr<BlockDevice> dev;
  char path[] = "/tmp/stegfs_ida_XXXXXX";
  if (leg == Leg::kThreadsFile) {
    int fd = mkstemp(path);
    ASSERT_GE(fd, 0);
    close(fd);
    auto file = FileBlockDevice::Create(path, kBs, kBlocks);
    ASSERT_TRUE(file.ok()) << file.status().ToString();
    dev = std::move(file).value();
  } else {
    dev = std::make_unique<MemBlockDevice>(kBs, kBlocks);
  }
  for (const PolicyCase& pc : kPolicies) {
    const int tol = pc.policy.tolerance();
    for (int losses = 0; losses <= tol + 1; ++losses) {
      RunCell(pc, losses, "device", leg, dev.get());
    }
    // Plain-claim reclamation at the tolerance bound and just past it.
    RunCell(pc, tol, "plain-claim", leg, dev.get());
    RunCell(pc, tol + 1, "plain-claim", leg, dev.get());
  }
  if (leg == Leg::kThreadsFile) {
    dev.reset();
    std::remove(path);
  }
}

INSTANTIATE_TEST_SUITE_P(Engines, LossMatrixTest,
                         ::testing::Values(Leg::kSync, Leg::kThreads,
                                           Leg::kThreadsFile),
                         [](const ::testing::TestParamInfo<Leg>& info) {
                           return LegName(info.param);
                         });

// steg_fsck as the healer: corrupt shares, then let the online scrubber
// find and re-disperse them WITHOUT any read touching the object first.
TEST(LossMatrixTest, FsckDetectsAndRedispersesDegradedObjects) {
  MemBlockDevice dev(kBs, kBlocks);
  ASSERT_TRUE(StegFs::Format(&dev, SmallFormat()).ok());
  const PolicyCase& pc = kPolicies[2];  // ida-3of4
  const std::string content = Content(7 * pc.policy.k * kBs - 7, 2);
  std::vector<std::vector<uint64_t>> shares;
  {
    auto fs = StegFs::Mount(&dev, StegFsOptions());
    ASSERT_TRUE(fs.ok());
    ASSERT_TRUE(
        (*fs)->StegCreate(kUid, kObj, kUak, HiddenType::kFile, pc.policy)
            .ok());
    ASSERT_TRUE((*fs)->StegConnect(kUid, kObj, kUak).ok());
    ASSERT_TRUE((*fs)->HiddenWriteAll(kUid, kObj, content).ok());
    auto collected = CollectShares(fs->get());
    ASSERT_TRUE(collected.ok());
    shares = std::move(collected).value();
    ASSERT_TRUE((*fs)->Flush().ok());
  }
  for (uint64_t s = 0; s < shares.size(); ++s) {
    for (uint64_t b : VictimsOf(shares[s], s, 1)) {
      OverwriteWithNoise(&dev, b, s);
    }
  }
  auto fs = StegFs::Mount(&dev, StegFsOptions());
  ASSERT_TRUE(fs.ok());
  ASSERT_TRUE((*fs)->StegConnect(kUid, kObj, kUak).ok());

  journal::FsckReport report;
  ASSERT_TRUE((*fs)->Fsck(&report).ok());
  EXPECT_EQ(report.hidden_objects_scanned, 1u);
  EXPECT_GE(report.hidden_stripes_checked, shares.size());
  EXPECT_GT(report.hidden_degraded_stripes, 0u);
  EXPECT_GT(report.hidden_healed_shares, 0u);
  EXPECT_EQ(report.hidden_unrecoverable_stripes, 0u);
  EXPECT_FALSE(report.clean);

  // The scrub already re-dispersed everything: a second pass is clean and
  // the content reads back without further healing.
  journal::FsckReport again;
  ASSERT_TRUE((*fs)->Fsck(&again).ok());
  EXPECT_EQ(again.hidden_degraded_stripes, 0u);
  EXPECT_EQ(again.hidden_healed_shares, 0u);
  auto back = (*fs)->HiddenReadAll(kUid, kObj);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back.value(), content);

  MatrixCell cell;
  cell.policy = pc.name;
  cell.mode = "fsck";
  cell.engine = "sync";
  cell.losses = 1;
  cell.tolerance = pc.policy.tolerance();
  cell.outcome = "healed";
  cell.states = 1;
  cell.failures = ::testing::Test::HasFailure() ? 1 : 0;
  Summary().push_back(cell);
}

// Beyond-tolerance losses must be visible to fsck as unrecoverable, not
// silently "repaired".
TEST(LossMatrixTest, FsckReportsUnrecoverableStripes) {
  MemBlockDevice dev(kBs, kBlocks);
  ASSERT_TRUE(StegFs::Format(&dev, SmallFormat()).ok());
  const PolicyCase& pc = kPolicies[1];  // ida-2of3, tolerance 1
  const std::string content = Content(5 * pc.policy.k * kBs, 3);
  std::vector<std::vector<uint64_t>> shares;
  {
    auto fs = StegFs::Mount(&dev, StegFsOptions());
    ASSERT_TRUE(fs.ok());
    ASSERT_TRUE(
        (*fs)->StegCreate(kUid, kObj, kUak, HiddenType::kFile, pc.policy)
            .ok());
    ASSERT_TRUE((*fs)->StegConnect(kUid, kObj, kUak).ok());
    ASSERT_TRUE((*fs)->HiddenWriteAll(kUid, kObj, content).ok());
    auto collected = CollectShares(fs->get());
    ASSERT_TRUE(collected.ok());
    shares = std::move(collected).value();
    ASSERT_TRUE((*fs)->Flush().ok());
  }
  for (uint64_t s = 0; s < shares.size(); ++s) {
    for (uint64_t b : VictimsOf(shares[s], s, 2)) {  // tolerance + 1
      OverwriteWithNoise(&dev, b, s);
    }
  }
  auto fs = StegFs::Mount(&dev, StegFsOptions());
  ASSERT_TRUE(fs.ok());
  ASSERT_TRUE((*fs)->StegConnect(kUid, kObj, kUak).ok());
  journal::FsckReport report;
  ASSERT_TRUE((*fs)->Fsck(&report).ok());
  EXPECT_GT(report.hidden_unrecoverable_stripes, 0u);
  EXPECT_FALSE(report.clean);
  auto back = (*fs)->HiddenReadAll(kUid, kObj);
  ASSERT_FALSE(back.ok());
  EXPECT_TRUE(back.status().IsDataLoss()) << back.status().ToString();
}

// The crash leg: a durable mount's write stream is recorded, crash
// states are materialized (prefix × dropped-subset × torn), shares are
// destroyed IN the crash image, and recovery + read-path healing must
// still produce a committed version of the object.
TEST(LossMatrixTest, CrashRecoveryHealsLostShares) {
  constexpr uint32_t kRing = 16;
  const PolicyCase& pc = kPolicies[2];  // ida-3of4, tolerance 1
  test::RecordingDevice dev(kBs, kBlocks);
  StegFormatOptions fmt = SmallFormat();
  fmt.journal_blocks = kRing;
  ASSERT_TRUE(StegFs::Format(&dev, fmt).ok());
  dev.StartRecording();

  StegFsOptions durable;
  durable.mount.durability = Durability::kJournal;
  durable.mount.cache_blocks = 128;

  const std::string v1 = Content(6 * pc.policy.k * kBs - 11, 10);
  const std::string v2 = Content(6 * pc.policy.k * kBs - 11, 20);
  std::vector<std::vector<uint64_t>> shares_v1, shares_v2;
  size_t commit1 = 0, commit2 = 0;
  {
    auto fs = StegFs::Mount(&dev, durable);
    ASSERT_TRUE(fs.ok()) << fs.status().ToString();
    ASSERT_TRUE(
        (*fs)->StegCreate(kUid, kObj, kUak, HiddenType::kFile, pc.policy)
            .ok());
    ASSERT_TRUE((*fs)->StegConnect(kUid, kObj, kUak).ok());
    ASSERT_TRUE((*fs)->HiddenWriteAll(kUid, kObj, v1).ok());
    ASSERT_TRUE((*fs)->Flush().ok());
    auto c1 = CollectShares(fs->get());
    ASSERT_TRUE(c1.ok());
    shares_v1 = std::move(c1).value();
    commit1 = dev.event_count();
    // v2 is a whole-object rewrite: on a durable mount WriteAll never
    // overwrites committed blocks in place (truncate defers the returns),
    // so v1's shares stay intact until v2's commit barrier.
    ASSERT_TRUE((*fs)->HiddenWriteAll(kUid, kObj, v2).ok());
    ASSERT_TRUE((*fs)->Flush().ok());
    auto c2 = CollectShares(fs->get());
    ASSERT_TRUE(c2.ok());
    shares_v2 = std::move(c2).value();
    commit2 = dev.event_count();
  }
  const size_t total = dev.event_count();
  ASSERT_GT(commit1, 0u);
  ASSERT_GT(commit2, commit1);

  MatrixCell cell;
  cell.policy = pc.name;
  cell.mode = "crash";
  cell.engine = "sync";
  cell.losses = 1;
  cell.tolerance = pc.policy.tolerance();
  cell.outcome = "healed";

  // Crash points: at each commit boundary, between them, and the final
  // state; rotate dropped-subset tails and torn final writes like the
  // crash-consistency matrix.
  const size_t points[] = {commit1, (commit1 + commit2) / 2, commit2, total};
  int point = 0;
  for (size_t k : points) {
    for (int variant = 0; variant < 3; ++variant, ++point) {
      const uint64_t subset_seed = variant == 1 ? 0x1da0 + point : 0;
      const bool torn = variant == 2;
      auto image = dev.Materialize(k, subset_seed, torn);
      // Destroy one share per stripe of BOTH versions in the image: the
      // committed state sees exactly `tolerance` losses either way (the
      // other version's blocks are pool noise / abandoned in that state).
      for (const auto* shares : {&shares_v1, &shares_v2}) {
        for (uint64_t s = 0; s < shares->size(); ++s) {
          for (uint64_t b : VictimsOf((*shares)[s], s, 1)) {
            Xoshiro rng(0xc4a54 ^ (s * 131) ^ b);
            rng.FillBytes(image.data() + b * kBs, kBs);
          }
        }
      }
      auto mem = test::DeviceFromImage(image, kBs);
      auto fs = StegFs::Mount(mem.get(), durable);
      ++cell.states;
      if (!fs.ok()) {
        ++cell.failures;
        ADD_FAILURE() << "mount failed at k=" << k << ": "
                      << fs.status().ToString();
        continue;
      }
      Status cs = (*fs)->StegConnect(kUid, kObj, kUak);
      if (!cs.ok()) {
        ++cell.failures;
        ADD_FAILURE() << "connect failed at k=" << k << ": " << cs.ToString();
        continue;
      }
      auto back = (*fs)->HiddenReadAll(kUid, kObj);
      if (!back.ok() || (back.value() != v1 && back.value() != v2)) {
        ++cell.failures;
        ADD_FAILURE() << "crash state k=" << k << " seed=" << subset_seed
                      << " torn=" << torn << ": "
                      << (back.ok() ? "content matches neither committed "
                                      "version"
                                    : back.status().ToString());
        continue;
      }
      // Recovery + heal must leave a volume fsck calls healthy (the heal
      // itself may have been the repair).
      journal::FsckReport report;
      Status fs_st = (*fs)->Fsck(&report);
      if (!fs_st.ok() || report.hidden_unrecoverable_stripes != 0) {
        ++cell.failures;
        ADD_FAILURE() << "fsck at k=" << k << ": " << fs_st.ToString()
                      << " unrecoverable="
                      << report.hidden_unrecoverable_stripes;
      }
    }
  }
  Summary().push_back(cell);
}

// A heal must never be undone by a mapping the read already decoded.
// FileIo reads a 600-block object in 256-block chunks; stripe 170 (file
// blocks 510..512 under IDA 3-of-5) straddles the second chunk boundary,
// and both straddling shares sit under the same double-indirect L2 block.
// Lose one share on each side: the first chunk's heal re-disperses both
// and remaps their pointers, so the last chunk must map the healed block
// fresh — a decoded pointer block carried over from before the heal
// would send it back to the lost one and report a second degraded
// stripe.
TEST(LossMatrixTest, HealAcrossReadChunksRemapsOnce) {
  MemBlockDevice dev(kBs, kBlocks);
  ASSERT_TRUE(StegFs::Format(&dev, SmallFormat()).ok());
  const RedundancyPolicy policy = RedundancyPolicy::Ida(3, 5);
  const std::string content = Content(600 * kBs, 3);
  std::vector<std::vector<uint64_t>> shares;
  {
    auto fs = StegFs::Mount(&dev, StegFsOptions());
    ASSERT_TRUE(fs.ok()) << fs.status().ToString();
    ASSERT_TRUE(
        (*fs)->StegCreate(kUid, kObj, kUak, HiddenType::kFile, policy).ok());
    ASSERT_TRUE((*fs)->StegConnect(kUid, kObj, kUak).ok());
    ASSERT_TRUE((*fs)->HiddenWriteAll(kUid, kObj, content).ok());
    auto collected = CollectShares(fs->get());
    ASSERT_TRUE(collected.ok()) << collected.status().ToString();
    shares = std::move(collected).value();
    ASSERT_TRUE((*fs)->Flush().ok());
  }
  ASSERT_EQ(shares.size(), 200u);
  OverwriteWithNoise(&dev, shares[170][1], 511);  // file block 511
  OverwriteWithNoise(&dev, shares[170][2], 512);  // file block 512

  auto fs = StegFs::Mount(&dev, StegFsOptions());
  ASSERT_TRUE(fs.ok()) << fs.status().ToString();
  ASSERT_TRUE((*fs)->StegConnect(kUid, kObj, kUak).ok());
  auto back = (*fs)->HiddenReadAll(kUid, kObj);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back.value(), content);
  EXPECT_EQ((*fs)->redundancy_stats().shares_healed.value(), 2u);
  EXPECT_EQ((*fs)->redundancy_stats().degraded_reads.value(), 1u);

  // The heal stuck: a second read finds nothing left to repair.
  back = (*fs)->HiddenReadAll(kUid, kObj);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back.value(), content);
  EXPECT_EQ((*fs)->redundancy_stats().shares_healed.value(), 2u);
  EXPECT_EQ((*fs)->redundancy_stats().degraded_reads.value(), 1u);
}

}  // namespace
}  // namespace stegfs
