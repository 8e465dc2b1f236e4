// The crash-injection matrix (ISSUE 5 acceptance): record a durable
// StegFS workload's device write stream, materialize crash states
// (prefix replay × dropped-subset tails × torn final write), remount,
// and verify that
//   - every committed operation is fully visible,
//   - every uncommitted operation is fully absent (at worst, the single
//     in-flight operation is visible — complete — or not),
//   - no hidden file readable before the crash is lost,
//   - fsck finds nothing to repair and the journal ring is at rest,
// across recording engines {sync, thread-pool} × verify legs {sync,
// thread-pool, thread-pool over a FileBlockDevice in a temp file}. A
// hidden create and overwrite of 120 blocks fan out and write through to
// the device mid-op, and crash points are placed inside those writes.
//
// The deniability leg: after a crash during hidden activity and a
// recovery with NO level opened, the journal region must be bit-
// identical to that of a plain-only volume with the same format entropy
// — and to a freshly formatted one. Nothing in the ring may parse.
//
// A summary of every materialized crash state is written to
// CRASH_matrix.json (archived by the crash-consistency CI job).
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "blockdev/file_block_device.h"
#include "blockdev/mem_block_device.h"
#include "blockdev/throttled_block_device.h"
#include "core/stegfs.h"
#include "fs/plain_fs.h"
#include "journal/recovery.h"
#include "tests/crash_harness.h"

namespace stegfs {
namespace {

constexpr uint32_t kBs = 512;
constexpr uint64_t kBlocks = 8192;
constexpr uint32_t kRing = 16;
const char* kUid = "alice";
const char* kUak = "uak-secret";

struct MatrixCell {
  std::string record_engine;
  std::string verify_engine;
  uint64_t crash_states = 0;
  uint64_t torn_states = 0;
  uint64_t subset_states = 0;
  uint64_t fanout_states = 0;  // crash points inside a fanned-out write
  uint64_t failures = 0;
};
std::vector<MatrixCell>& Summary() {
  static std::vector<MatrixCell> cells;
  return cells;
}

class CrashMatrixJson : public ::testing::Environment {
 public:
  void TearDown() override {
    std::FILE* f = std::fopen("CRASH_matrix.json", "w");
    if (f == nullptr) return;
    std::fprintf(f, "{\n  \"bench\": \"crash_consistency\",\n  \"cells\": [\n");
    const auto& cells = Summary();
    for (size_t i = 0; i < cells.size(); ++i) {
      const MatrixCell& c = cells[i];
      std::fprintf(f,
                   "    {\"record_engine\": \"%s\", \"verify_engine\": "
                   "\"%s\", \"crash_states\": %llu, \"torn\": %llu, "
                   "\"subset\": %llu, \"fanout\": %llu, "
                   "\"failures\": %llu}%s\n",
                   c.record_engine.c_str(), c.verify_engine.c_str(),
                   (unsigned long long)c.crash_states,
                   (unsigned long long)c.torn_states,
                   (unsigned long long)c.subset_states,
                   (unsigned long long)c.fanout_states,
                   (unsigned long long)c.failures,
                   i + 1 < cells.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
  }
};
const auto* const kJsonEnv =
    ::testing::AddGlobalTestEnvironment(new CrashMatrixJson);

std::string Content(int op, size_t bytes) {
  std::string s;
  s.reserve(bytes);
  while (s.size() < bytes) {
    s += "op" + std::to_string(op) + ":";
    s.push_back(static_cast<char>('a' + (s.size() % 23)));
  }
  s.resize(bytes);
  return s;
}

// One tracked object and its committed version chain (empty string =
// the object exists with no content yet; absent = not in the chain).
struct Tracked {
  bool hidden = false;
  std::string name;                   // path or hidden object name
  std::vector<std::string> versions;  // committed contents, oldest first
  std::vector<int> version_ops;       // op index that committed each
  int unlink_op = -1;                 // op that removed it (-1 = never)
};

StegFsOptions DurableOpts(IoEngine engine) {
  StegFsOptions opts;
  opts.mount.durability = Durability::kJournal;
  opts.mount.io_engine = engine;
  opts.mount.cache_blocks = 128;
  return opts;
}

StegFormatOptions SmallFormat() {
  StegFormatOptions fmt;
  fmt.journal_blocks = kRing;
  fmt.params.dummy_file_count = 2;
  fmt.params.dummy_file_avg_bytes = 2048;
  fmt.entropy = "crash-matrix-entropy";
  return fmt;
}

// Hidden writes of more than this many blocks fan out and stream past the
// cache (EncryptedBlockStore), writing through to the device mid-op.
constexpr size_t kFanOutBlocks = 120;

// Device-event ranges [begin, end) of `dev`'s log that fanned-out hidden
// writes produced.
using EventRanges = std::vector<std::pair<size_t, size_t>>;

// Runs the workload on `fs`, appending to the tracked-object table. Each
// op ends with a Flush (a real barrier on a durable mount), so op i is
// fully durable before op i+1 touches the device. With `fanout` set, the
// event range of each large hidden write on `dev` is appended to it.
void RunWorkload(StegFs* fs, std::vector<Tracked>* tracked,
                 const test::RecordingDevice* dev = nullptr,
                 EventRanges* fanout = nullptr) {
  auto plain_op = [&](int op, const std::string& path, size_t bytes) {
    ASSERT_TRUE(fs->plain()->WriteFile(path, Content(op, bytes)).ok());
    ASSERT_TRUE(fs->Flush().ok());
    for (Tracked& t : *tracked) {
      if (!t.hidden && t.name == path) {
        t.versions.push_back(Content(op, bytes));
        t.version_ops.push_back(op);
        return;
      }
    }
    Tracked t;
    t.name = path;
    t.versions = {Content(op, bytes)};
    t.version_ops = {op};
    tracked->push_back(t);
  };
  // Writes the object's content, noting the event range of a large write.
  auto write_all = [&](int op, const std::string& name, size_t bytes) {
    const size_t begin = dev != nullptr ? dev->event_count() : 0;
    ASSERT_TRUE(fs->HiddenWriteAll(kUid, name, Content(op, bytes)).ok());
    if (fanout != nullptr && bytes >= kFanOutBlocks * kBs) {
      fanout->push_back({begin, dev->event_count()});
    }
  };
  auto hidden_op = [&](int op, const std::string& name, size_t bytes) {
    for (Tracked& t : *tracked) {
      if (t.hidden && t.name == name) {
        write_all(op, name, bytes);
        ASSERT_TRUE(fs->Flush().ok());
        t.versions.push_back(Content(op, bytes));
        t.version_ops.push_back(op);
        return;
      }
    }
    ASSERT_TRUE(fs->StegCreate(kUid, name, kUak, HiddenType::kFile).ok());
    ASSERT_TRUE(fs->StegConnect(kUid, name, kUak).ok());
    write_all(op, name, bytes);
    ASSERT_TRUE(fs->Flush().ok());
    Tracked t;
    t.hidden = true;
    t.name = name;
    t.versions = {Content(op, bytes)};
    t.version_ops = {op};
    tracked->push_back(t);
  };

  plain_op(0, "/f0", 700);
  hidden_op(1, "h1", 1800);
  plain_op(2, "/f2", 8 * kBs);    // spans the single-indirect boundary
  hidden_op(3, "h3", 7 * kBs);    // ditto, through the pool allocator
  plain_op(4, "/f0", 900);        // plain overwrite (version check)
  hidden_op(5, "h1", 2600);       // hidden overwrite (version check)
  {                               // op 6: directory create + file
    ASSERT_TRUE(fs->plain()->MkDir("/d6").ok());
    plain_op(6, "/d6/g", 1200);
  }
  {                               // op 7: unlink
    ASSERT_TRUE(fs->plain()->Unlink("/f2").ok());
    ASSERT_TRUE(fs->Flush().ok());
    for (Tracked& t : *tracked) {
      if (!t.hidden && t.name == "/f2") t.unlink_op = 7;
    }
  }
  hidden_op(8, "h8", 1500);
  hidden_op(9, "h9", kFanOutBlocks * kBs);   // fanned-out create
  hidden_op(10, "h9", kFanOutBlocks * kBs);  // fanned-out overwrite
  ASSERT_TRUE(fs->DisconnectAll(kUid).ok());
  ASSERT_TRUE(fs->Flush().ok());
}

// Observed state of one tracked object after a crash+remount:
// which committed version (index into `versions`), kAbsent, or kEmpty.
constexpr int kAbsent = -1;
constexpr int kEmpty = -2;
constexpr int kGarbage = -3;

int Observe(StegFs* fs, const Tracked& t) {
  if (!t.hidden) {
    auto content = fs->plain()->ReadFile(t.name);
    if (!content.ok()) return kAbsent;
    for (size_t v = 0; v < t.versions.size(); ++v) {
      if (*content == t.versions[v]) return static_cast<int>(v);
    }
    return content->empty() ? kEmpty : kGarbage;
  }
  Status c = fs->StegConnect(kUid, t.name, kUak);
  if (!c.ok()) return kAbsent;
  auto content = fs->HiddenReadAll(kUid, t.name);
  (void)fs->StegDisconnect(kUid, t.name);
  if (!content.ok()) return kGarbage;  // readable name, unreadable bytes
  for (size_t v = 0; v < t.versions.size(); ++v) {
    if (*content == t.versions[v]) return static_cast<int>(v);
  }
  return content->empty() ? kEmpty : kGarbage;
}

// Verifies one crash state on an already-mounted volume. Returns a
// failure description or "".
//
// Oracle: because every workload op ends with a barrier before the next
// one starts, at most ONE op (the in-flight one) can be partially
// applied. Pass 1 establishes the commit frontier M from unambiguous
// evidence (an observed version commits the op that wrote it; absence
// proves nothing — it may mean never-created). Pass 2 then requires each
// object to sit exactly at its newest version committed by ops <= M,
// except that the single in-flight op M+1 may or may not have landed.
std::string VerifyState(StegFs* fs, const std::vector<Tracked>& tracked) {
  int M = -1;
  std::vector<int> observed(tracked.size());
  for (size_t i = 0; i < tracked.size(); ++i) {
    observed[i] = Observe(fs, tracked[i]);
    if (observed[i] == kGarbage) {
      return "garbage content in " + tracked[i].name;
    }
    if (observed[i] >= 0) {
      M = std::max(M, tracked[i].version_ops[observed[i]]);
    } else if (observed[i] == kEmpty && tracked[i].hidden) {
      // An empty hidden object proves its creating op started, which
      // proves every earlier op fully committed (per-op barriers).
      M = std::max(M, tracked[i].version_ops[0] - 1);
    }
  }
  for (size_t i = 0; i < tracked.size(); ++i) {
    const Tracked& t = tracked[i];
    const int ob = observed[i];
    // Newest version committed at or before the frontier.
    int r = -1;
    for (size_t v = 0; v < t.version_ops.size(); ++v) {
      if (t.version_ops[v] <= M) r = static_cast<int>(v);
    }
    if (t.unlink_op >= 0 && t.unlink_op <= M) {
      if (ob != kAbsent) {
        return t.name + " unlinked by committed op " +
               std::to_string(t.unlink_op) + " but still visible";
      }
      continue;
    }
    bool ok = false;
    if (r >= 0) {
      ok = ob == r;  // committed content fully visible
    } else {
      ok = ob == kAbsent;  // never committed: fully absent
    }
    // The single in-flight op may have landed completely...
    if (!ok && r + 1 < static_cast<int>(t.version_ops.size()) &&
        t.version_ops[r + 1] == M + 1) {
      ok = ob == r + 1;
    }
    // ...or, for an in-flight unlink, the file may already be gone...
    if (!ok && t.unlink_op == M + 1) ok = ob == kAbsent;
    // ...or, for an in-flight hidden create, the object may exist with
    // its content write still pending (create and write are separate
    // commits inside one workload op).
    if (!ok && t.hidden && r == -1 && !t.version_ops.empty() &&
        t.version_ops[0] == M + 1) {
      ok = ob == kEmpty;
    }
    if (!ok) {
      return t.name + " observed state " + std::to_string(ob) +
             " inconsistent with commit frontier op " + std::to_string(M);
    }
  }
  // Pass 3: the volume itself must be sound.
  journal::FsckReport report;
  Status s = fs->Fsck(&report);
  if (!s.ok()) return "fsck failed: " + s.ToString();
  if (report.repaired_refs != 0) {
    return "fsck repaired " + std::to_string(report.repaired_refs) +
           " referenced-but-unmarked blocks";
  }
  if (report.journal_live_records != 0) {
    return "journal ring not at rest after recovery";
  }
  return "";
}

std::string EngineName(IoEngine e) {
  return e == IoEngine::kSync ? "sync" : "threads";
}

// How a crash image is remounted for verification: on a Mem device with
// either engine, or from a FileBlockDevice in a temp file with the async
// engine — the only crash coverage of the host-file device.
enum class VerifyLeg { kSync, kThreads, kThreadsFile };

std::string LegName(VerifyLeg leg) {
  switch (leg) {
    case VerifyLeg::kSync:
      return "sync";
    case VerifyLeg::kThreads:
      return "threads";
    case VerifyLeg::kThreadsFile:
      return "threads_file";
  }
  return "";
}

// Mounts the image per `leg` and verifies it. Returns "" on pass, else
// the failure.
std::string VerifyImage(const std::vector<uint8_t>& image,
                        const std::vector<Tracked>& tracked, VerifyLeg leg) {
  if (leg == VerifyLeg::kThreadsFile) {
    char path[] = "/tmp/stegfs_crash_XXXXXX";
    int fd = mkstemp(path);
    if (fd < 0) return "cannot create a temp image file";
    close(fd);
    std::string failure;
    {
      auto file = FileBlockDevice::Create(path, kBs, kBlocks);
      if (file.ok()) {
        for (uint64_t b = 0; b < kBlocks; ++b) {
          (void)(*file)->WriteBlock(b, image.data() + b * kBs);
        }
        auto fs = StegFs::Mount(file->get(), DurableOpts(IoEngine::kAuto));
        failure = fs.ok() ? VerifyState(fs->get(), tracked)
                          : "mount failed: " + fs.status().ToString();
      } else {
        failure = "file device: " + file.status().ToString();
      }
    }
    std::remove(path);
    return failure;
  }
  auto dev = test::DeviceFromImage(image, kBs);
  auto fs = StegFs::Mount(dev.get(), DurableOpts(leg == VerifyLeg::kSync
                                                     ? IoEngine::kSync
                                                     : IoEngine::kAuto));
  if (!fs.ok()) return "mount failed: " + fs.status().ToString();
  return VerifyState(fs->get(), tracked);
}

class CrashMatrixTest : public ::testing::TestWithParam<IoEngine> {};

TEST_P(CrashMatrixTest, PrefixTornAndReorderedTails) {
  const IoEngine record_engine = GetParam();
  test::RecordingDevice dev(kBs, kBlocks);
  ASSERT_TRUE(StegFs::Format(&dev, SmallFormat()).ok());
  dev.StartRecording();

  std::vector<Tracked> tracked;
  EventRanges fanout;
  {
    auto fs = StegFs::Mount(&dev, DurableOpts(record_engine));
    ASSERT_TRUE(fs.ok()) << fs.status().ToString();
    RunWorkload(fs->get(), &tracked, &dev, &fanout);
  }
  const size_t total = dev.event_count();
  ASSERT_GT(total, 100u);
  // The large writes reached the device inside the write call itself.
  ASSERT_EQ(fanout.size(), 2u);
  for (const auto& [begin, end] : fanout) {
    ASSERT_GE(end - begin, kFanOutBlocks) << "events " << begin;
  }

  constexpr VerifyLeg kLegs[] = {VerifyLeg::kSync, VerifyLeg::kThreads,
                                 VerifyLeg::kThreadsFile};
  std::map<VerifyLeg, MatrixCell> cells;
  for (VerifyLeg ve : kLegs) {
    cells[ve].record_engine = EngineName(record_engine);
    cells[ve].verify_engine = LegName(ve);
  }

  // Crash points: a stride over the whole stream, about kTargetPoints
  // outside the fanned-out writes (which would otherwise thin the rest
  // out), plus kInside points spread over each fanned-out write's own
  // device writes.
  const size_t kTargetPoints = 48;
  const size_t kInside = 8;
  size_t outside = total;
  for (const auto& [begin, end] : fanout) outside -= end - begin;
  const size_t stride = std::max<size_t>(1, outside / kTargetPoints);
  std::vector<size_t> points;
  for (size_t k = 1; k <= total; k += stride) points.push_back(k);
  for (const auto& [begin, end] : fanout) {
    for (size_t j = 1; j <= kInside; ++j) {
      points.push_back(begin + (end - begin) * j / (kInside + 1));
    }
  }
  std::sort(points.begin(), points.end());
  points.erase(std::unique(points.begin(), points.end()), points.end());
  for (size_t point = 0; point < points.size(); ++point) {
    const size_t k = points[point];
    bool inside = false;
    for (const auto& [begin, end] : fanout) inside |= k > begin && k <= end;
    // Variant rotation: pure prefix, dropped-subset tail, torn write,
    // subset+torn.
    const uint64_t subset_seed = (point % 2 == 1) ? 0x9000 + point : 0;
    const bool torn = point % 3 == 1;
    auto image = dev.Materialize(k, subset_seed, torn);

    std::vector<VerifyLeg> legs = {VerifyLeg::kSync};
    if (point % 4 == 0) legs.push_back(VerifyLeg::kThreads);
    if (point % 8 == 0) legs.push_back(VerifyLeg::kThreadsFile);

    for (VerifyLeg ve : legs) {
      std::string failure = VerifyImage(image, tracked, ve);
      MatrixCell& cell = cells[ve];
      ++cell.crash_states;
      if (torn) ++cell.torn_states;
      if (subset_seed != 0) ++cell.subset_states;
      if (inside) ++cell.fanout_states;
      if (!failure.empty()) {
        ++cell.failures;
        ADD_FAILURE() << "crash state k=" << k << " seed=" << subset_seed
                      << " torn=" << torn << " verify=" << LegName(ve)
                      << " record=" << EngineName(record_engine) << ": "
                      << failure;
      }
    }
  }
  // The final state (no crash) must also verify, on every leg.
  auto image = dev.Materialize(total, 0, false);
  for (VerifyLeg ve : kLegs) {
    std::string failure = VerifyImage(image, tracked, ve);
    ++cells[ve].crash_states;
    if (!failure.empty()) {
      ++cells[ve].failures;
      ADD_FAILURE() << "final state verify=" << LegName(ve) << ": "
                    << failure;
    }
  }
  for (auto& [ve, cell] : cells) Summary().push_back(cell);
}

INSTANTIATE_TEST_SUITE_P(RecordEngines, CrashMatrixTest,
                         ::testing::Values(IoEngine::kSync,
                                           IoEngine::kAuto),
                         [](const ::testing::TestParamInfo<IoEngine>& info) {
                           return EngineName(info.param);
                         });

// ---------------------------------------------------------------------
// Deniability: a crashed-and-recovered volume with an UNOPENED hidden
// level must carry a journal region bit-identical to a plain-only
// volume's — and to a freshly formatted one — with nothing parseable.
// ---------------------------------------------------------------------
std::vector<uint8_t> JournalRegion(BlockDevice* dev) {
  std::vector<uint8_t> buf(kBs);
  auto sb_or = [&] {
    std::vector<uint8_t> b0(kBs);
    (void)dev->ReadBlock(0, b0.data());
    return Superblock::DecodeFrom(b0.data(), b0.size());
  }();
  EXPECT_TRUE(sb_or.ok());
  std::vector<uint8_t> region;
  for (uint32_t j = 0; j < sb_or->journal_blocks; ++j) {
    (void)dev->ReadBlock(sb_or->journal_start + j, buf.data());
    region.insert(region.end(), buf.begin(), buf.end());
  }
  return region;
}

TEST(CrashDeniabilityTest, RecoveredJournalRegionIndistinguishable) {
  // Volume A: plain + hidden traffic, crash mid-run (subset + torn),
  // then recovery with no hidden level opened.
  test::RecordingDevice dev_a(kBs, kBlocks);
  ASSERT_TRUE(StegFs::Format(&dev_a, SmallFormat()).ok());
  dev_a.StartRecording();
  {
    auto fs = StegFs::Mount(&dev_a, DurableOpts(IoEngine::kSync));
    ASSERT_TRUE(fs.ok());
    std::vector<Tracked> tracked;
    RunWorkload(fs->get(), &tracked);
  }
  auto crash_a =
      dev_a.Materialize(dev_a.event_count() * 7 / 10, 0x5eed, true);
  auto recovered_a = test::DeviceFromImage(crash_a, kBs);
  {
    // Plain mount, NO hidden level ever opened: recovery runs at mount.
    auto fs = StegFs::Mount(recovered_a.get(), StegFsOptions());
    ASSERT_TRUE(fs.ok());
  }

  // Volume B: same format entropy, PLAIN-ONLY traffic, crash, recover.
  test::RecordingDevice dev_b(kBs, kBlocks);
  ASSERT_TRUE(StegFs::Format(&dev_b, SmallFormat()).ok());
  dev_b.StartRecording();
  {
    auto fs = StegFs::Mount(&dev_b, DurableOpts(IoEngine::kSync));
    ASSERT_TRUE(fs.ok());
    for (int i = 0; i < 6; ++i) {
      ASSERT_TRUE((*fs)->plain()
                      ->WriteFile("/p" + std::to_string(i), Content(i, 900))
                      .ok());
      ASSERT_TRUE((*fs)->Flush().ok());
    }
  }
  auto crash_b = dev_b.Materialize(dev_b.event_count() / 2, 0xb0b, true);
  auto recovered_b = test::DeviceFromImage(crash_b, kBs);
  {
    auto fs = StegFs::Mount(recovered_b.get(), StegFsOptions());
    ASSERT_TRUE(fs.ok());
  }

  // Volume C: freshly formatted, never mounted.
  MemBlockDevice dev_c(kBs, kBlocks);
  ASSERT_TRUE(StegFs::Format(&dev_c, SmallFormat()).ok());

  auto region_a = JournalRegion(recovered_a.get());
  auto region_b = JournalRegion(recovered_b.get());
  auto region_c = JournalRegion(&dev_c);
  ASSERT_EQ(region_a.size(), static_cast<size_t>(kRing) * kBs);
  // Bit-indistinguishable: identical, in fact — the resting ring is a
  // pure function of the (public) format entropy.
  EXPECT_EQ(region_a, region_b);
  EXPECT_EQ(region_a, region_c);

  // And nothing in any of them parses as a record.
  for (BlockDevice* d :
       {static_cast<BlockDevice*>(recovered_a.get()),
        static_cast<BlockDevice*>(recovered_b.get()),
        static_cast<BlockDevice*>(&dev_c)}) {
    std::vector<uint8_t> b0(kBs);
    ASSERT_TRUE(d->ReadBlock(0, b0.data()).ok());
    auto sb = Superblock::DecodeFrom(b0.data(), b0.size());
    ASSERT_TRUE(sb.ok());
    uint64_t torn = 0;
    auto live = journal::JournalRecovery::Scan(d, *sb, &torn);
    ASSERT_TRUE(live.ok());
    EXPECT_TRUE(live->empty());
    EXPECT_EQ(torn, 0u);
  }
}

// Group commit: with several sessions committing over a device whose
// barriers take real time (followers queue while the leader's barrier
// sleeps), journal records carry MULTIPLE transactions — and a
// torn write on such a record models the leader crashing mid-batch.
// Either the whole batch replays (checksum intact) or none of it does:
// every file must recover to a committed version or absence, never to
// torn content, and the ring must be at rest after recovery.
TEST(CrashGroupCommitTest, LeaderCrashMidBatchKeepsBatchesAtomic) {
  test::RecordingDevice dev(kBs, kBlocks);
  ASSERT_TRUE(StegFs::Format(&dev, SmallFormat()).ok());
  dev.StartRecording();
  constexpr int kWriters = 4;
  constexpr int kRounds = 8;
  auto version = [](int t, int r) { return Content(t * 100 + r, 600 + 83 * r); };
  {
    ThrottledBlockDevice slow(&dev, std::chrono::microseconds(0),
                              std::chrono::microseconds(0),
                              std::chrono::microseconds(400));
    auto fs = StegFs::Mount(&slow, DurableOpts(IoEngine::kSync));
    ASSERT_TRUE(fs.ok()) << fs.status().ToString();
    std::vector<std::thread> workers;
    for (int t = 0; t < kWriters; ++t) {
      workers.emplace_back([&fs, &version, t] {
        for (int r = 0; r < kRounds; ++r) {
          Status s = (*fs)->plain()->WriteFile("/w" + std::to_string(t),
                                               version(t, r));
          EXPECT_TRUE(s.ok()) << s.ToString();
        }
      });
    }
    for (std::thread& w : workers) w.join();
    // The batching must have been real, or this leg tests nothing.
    const journal::JournalMetrics& m = (*fs)->plain()->journal()->metrics();
    EXPECT_LT(m.group_batches.value(), m.group_txns.value());
    ASSERT_TRUE((*fs)->Flush().ok());
  }
  const size_t total = dev.event_count();
  ASSERT_GT(total, 50u);
  const size_t stride = std::max<size_t>(1, total / 24);
  for (size_t k = 1; k <= total; k += stride) {
    auto image = dev.Materialize(k, /*subset_seed=*/0x6ead + k, /*torn=*/true);
    auto mem = test::DeviceFromImage(image, kBs);
    auto fs = StegFs::Mount(mem.get(), DurableOpts(IoEngine::kSync));
    ASSERT_TRUE(fs.ok()) << "k=" << k << ": " << fs.status().ToString();
    for (int t = 0; t < kWriters; ++t) {
      auto content = (*fs)->plain()->ReadFile("/w" + std::to_string(t));
      if (!content.ok()) continue;  // absent: the create never committed
      bool committed = false;
      for (int r = 0; r < kRounds && !committed; ++r) {
        committed = *content == version(t, r);
      }
      EXPECT_TRUE(committed)
          << "/w" << t << " holds non-committed content at crash k=" << k;
    }
    journal::FsckReport report;
    ASSERT_TRUE((*fs)->Fsck(&report).ok());
    EXPECT_EQ(report.journal_live_records, 0u) << "k=" << k;
  }
}

// No hidden file READABLE BEFORE the crash may be lost: the strongest
// single-object guarantee, checked explicitly with a torn primary-header
// write at every hidden commit boundary in the stream.
TEST(CrashDurableHiddenTest, CommittedHiddenObjectNeverLost) {
  test::RecordingDevice dev(kBs, kBlocks);
  ASSERT_TRUE(StegFs::Format(&dev, SmallFormat()).ok());
  dev.StartRecording();
  std::vector<Tracked> tracked;
  {
    auto fs = StegFs::Mount(&dev, DurableOpts(IoEngine::kSync));
    ASSERT_TRUE(fs.ok());
    RunWorkload(fs->get(), &tracked);
  }
  // Torn-write sweep across the whole stream: whatever tears, every
  // hidden object committed before the crash point must reopen at a
  // committed version.
  const size_t total = dev.event_count();
  const size_t stride = std::max<size_t>(1, total / 24);
  for (size_t k = 1; k <= total; k += stride) {
    auto image = dev.Materialize(k, /*subset_seed=*/k, /*torn=*/true);
    auto mem = test::DeviceFromImage(image, kBs);
    auto fs = StegFs::Mount(mem.get(), DurableOpts(IoEngine::kSync));
    ASSERT_TRUE(fs.ok()) << "k=" << k;
    for (const Tracked& t : tracked) {
      if (!t.hidden) continue;
      int ob = Observe(fs->get(), t);
      EXPECT_NE(ob, kGarbage)
          << t.name << " lost/corrupted at crash state k=" << k;
    }
  }
}

}  // namespace
}  // namespace stegfs
