#include "core/stegfs.h"

#include <gtest/gtest.h>

#include "blockdev/mem_block_device.h"
#include "crypto/keys.h"
#include "crypto/sha256.h"
#include "obs/metrics.h"
#include "util/hex.h"
#include "util/random.h"

namespace stegfs {
namespace {

std::string RandomData(size_t n, uint64_t seed) {
  Xoshiro rng(seed);
  std::string s(n, '\0');
  rng.FillBytes(reinterpret_cast<uint8_t*>(s.data()), n);
  return s;
}

// 32 MB volume with small dummies so tests stay fast.
StegFormatOptions FastFormat() {
  StegFormatOptions o;
  o.params.dummy_file_count = 2;
  o.params.dummy_file_avg_bytes = 64 << 10;
  o.entropy = "test-volume";
  return o;
}

class StegFsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dev_ = std::make_unique<MemBlockDevice>(1024, 32768);
    ASSERT_TRUE(StegFs::Format(dev_.get(), FastFormat()).ok());
    auto fs = StegFs::Mount(dev_.get(), StegFsOptions{});
    ASSERT_TRUE(fs.ok()) << fs.status().ToString();
    fs_ = std::move(fs).value();
  }

  void Remount() {
    ASSERT_TRUE(fs_->Flush().ok());
    fs_.reset();
    auto fs = StegFs::Mount(dev_.get(), StegFsOptions{});
    ASSERT_TRUE(fs.ok());
    fs_ = std::move(fs).value();
  }

  std::unique_ptr<MemBlockDevice> dev_;
  std::unique_ptr<StegFs> fs_;
};

TEST_F(StegFsTest, MountRequiresStegFormat) {
  MemBlockDevice plain_dev(1024, 16384);
  ASSERT_TRUE(PlainFs::Format(&plain_dev, FormatOptions{}).ok());
  EXPECT_TRUE(StegFs::Mount(&plain_dev, StegFsOptions{})
                  .status()
                  .IsFailedPrecondition());
}

TEST_F(StegFsTest, PlainApiWorksAlongside) {
  ASSERT_TRUE(fs_->plain()->WriteFile("/readme.txt", "visible data").ok());
  auto data = fs_->plain()->ReadFile("/readme.txt");
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(data.value(), "visible data");
}

TEST_F(StegFsTest, CreateConnectWriteReadDisconnect) {
  ASSERT_TRUE(
      fs_->StegCreate("alice", "budget.xls", "uak-a", HiddenType::kFile).ok());
  ASSERT_TRUE(fs_->StegConnect("alice", "budget.xls", "uak-a").ok());
  ASSERT_TRUE(fs_->HiddenWriteAll("alice", "budget.xls", "Q1: $1m").ok());
  auto data = fs_->HiddenReadAll("alice", "budget.xls");
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(data.value(), "Q1: $1m");

  ASSERT_TRUE(fs_->StegDisconnect("alice", "budget.xls").ok());
  EXPECT_TRUE(fs_->HiddenReadAll("alice", "budget.xls")
                  .status()
                  .IsFailedPrecondition());
}

TEST_F(StegFsTest, HiddenDataSurvivesRemount) {
  std::string content = RandomData(500000, 12);
  ASSERT_TRUE(
      fs_->StegCreate("alice", "vault.bin", "uak-a", HiddenType::kFile).ok());
  ASSERT_TRUE(fs_->StegConnect("alice", "vault.bin", "uak-a").ok());
  ASSERT_TRUE(fs_->HiddenWriteAll("alice", "vault.bin", content).ok());
  ASSERT_TRUE(fs_->DisconnectAll("alice").ok());
  Remount();

  ASSERT_TRUE(fs_->StegConnect("alice", "vault.bin", "uak-a").ok());
  auto data = fs_->HiddenReadAll("alice", "vault.bin");
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(data.value(), content);
}

TEST_F(StegFsTest, WrongUakFindsNothing) {
  ASSERT_TRUE(
      fs_->StegCreate("alice", "secret", "uak-a", HiddenType::kFile).ok());
  EXPECT_TRUE(
      fs_->StegConnect("alice", "secret", "wrong-uak").IsNotFound());
}

TEST_F(StegFsTest, UsersAreIsolated) {
  // Same object name, same UAK string, different uid: distinct objects
  // (physical name = uid || name, paper 3.1).
  ASSERT_TRUE(fs_->StegCreate("alice", "notes", "shared-uak",
                              HiddenType::kFile).ok());
  ASSERT_TRUE(
      fs_->StegCreate("bob", "notes", "shared-uak", HiddenType::kFile).ok());
  ASSERT_TRUE(fs_->StegConnect("alice", "notes", "shared-uak").ok());
  ASSERT_TRUE(fs_->StegConnect("bob", "notes", "shared-uak").ok());
  ASSERT_TRUE(fs_->HiddenWriteAll("alice", "notes", "alice data").ok());
  ASSERT_TRUE(fs_->HiddenWriteAll("bob", "notes", "bob data").ok());
  EXPECT_EQ(fs_->HiddenReadAll("alice", "notes").value(), "alice data");
  EXPECT_EQ(fs_->HiddenReadAll("bob", "notes").value(), "bob data");
}

TEST_F(StegFsTest, StegHideConvertsPlainFile) {
  std::string content = RandomData(100000, 3);
  ASSERT_TRUE(fs_->plain()->WriteFile("/exposed.doc", content).ok());
  ASSERT_TRUE(
      fs_->StegHide("alice", "/exposed.doc", "hidden.doc", "uak-a").ok());

  // Plain file is gone ("the plain source object is deleted").
  EXPECT_FALSE(fs_->plain()->Exists("/exposed.doc"));

  ASSERT_TRUE(fs_->StegConnect("alice", "hidden.doc", "uak-a").ok());
  auto data = fs_->HiddenReadAll("alice", "hidden.doc");
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(data.value(), content);
}

TEST_F(StegFsTest, StegUnhideConvertsBack) {
  ASSERT_TRUE(
      fs_->StegCreate("alice", "h.txt", "uak-a", HiddenType::kFile).ok());
  ASSERT_TRUE(fs_->StegConnect("alice", "h.txt", "uak-a").ok());
  ASSERT_TRUE(fs_->HiddenWriteAll("alice", "h.txt", "now you see me").ok());
  ASSERT_TRUE(fs_->DisconnectAll("alice").ok());

  ASSERT_TRUE(fs_->StegUnhide("alice", "/visible.txt", "h.txt", "uak-a").ok());
  auto data = fs_->plain()->ReadFile("/visible.txt");
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(data.value(), "now you see me");
  // Hidden object gone from the UAK directory.
  EXPECT_TRUE(fs_->StegConnect("alice", "h.txt", "uak-a").IsNotFound());
}

TEST_F(StegFsTest, HideDirectoryRecursively) {
  ASSERT_TRUE(fs_->plain()->MkDir("/project").ok());
  ASSERT_TRUE(fs_->plain()->WriteFile("/project/a.txt", "alpha").ok());
  ASSERT_TRUE(fs_->plain()->MkDir("/project/sub").ok());
  ASSERT_TRUE(fs_->plain()->WriteFile("/project/sub/b.txt", "beta").ok());

  ASSERT_TRUE(fs_->StegHide("alice", "/project", "proj", "uak-a").ok());
  EXPECT_FALSE(fs_->plain()->Exists("/project"));

  // Connecting the directory reveals all offspring (paper API 4).
  ASSERT_TRUE(fs_->StegConnect("alice", "proj", "uak-a").ok());
  auto connected = fs_->ConnectedObjects("alice");
  EXPECT_EQ(connected.size(), 4u);  // proj, proj/a.txt, proj/sub, proj/sub/b.txt
  EXPECT_EQ(fs_->HiddenReadAll("alice", "proj/a.txt").value(), "alpha");
  EXPECT_EQ(fs_->HiddenReadAll("alice", "proj/sub/b.txt").value(), "beta");
}

TEST_F(StegFsTest, UnhideDirectoryRecursively) {
  ASSERT_TRUE(fs_->plain()->MkDir("/d").ok());
  ASSERT_TRUE(fs_->plain()->WriteFile("/d/f1", "one").ok());
  ASSERT_TRUE(fs_->plain()->WriteFile("/d/f2", "two").ok());
  ASSERT_TRUE(fs_->StegHide("alice", "/d", "dirobj", "uak-a").ok());
  ASSERT_TRUE(fs_->StegUnhide("alice", "/restored", "dirobj", "uak-a").ok());
  EXPECT_EQ(fs_->plain()->ReadFile("/restored/f1").value(), "one");
  EXPECT_EQ(fs_->plain()->ReadFile("/restored/f2").value(), "two");
}

TEST_F(StegFsTest, HiddenRemoveFreesSpaceAndEntry) {
  uint64_t free_before = fs_->plain()->bitmap()->free_count();
  ASSERT_TRUE(
      fs_->StegCreate("alice", "temp", "uak-a", HiddenType::kFile).ok());
  ASSERT_TRUE(fs_->StegConnect("alice", "temp", "uak-a").ok());
  ASSERT_TRUE(
      fs_->HiddenWriteAll("alice", "temp", RandomData(200000, 5)).ok());
  ASSERT_TRUE(fs_->DisconnectAll("alice").ok());
  ASSERT_TRUE(fs_->HiddenRemove("alice", "temp", "uak-a").ok());
  EXPECT_TRUE(fs_->StegConnect("alice", "temp", "uak-a").IsNotFound());
  // Some blocks remain for the (now-nonempty) UAK directory itself; the
  // bulk must have been returned.
  uint64_t free_after = fs_->plain()->bitmap()->free_count();
  EXPECT_GT(free_after + 30, free_before);
}

TEST_F(StegFsTest, SharingViaEntryFiles) {
  // Owner alice shares "plans" with recipient bob (paper figure 4).
  auto bob_keys = crypto::RsaGenerateKeyPair(512, "bob-keypair");
  ASSERT_TRUE(bob_keys.ok());

  ASSERT_TRUE(
      fs_->StegCreate("alice", "plans", "uak-a", HiddenType::kFile).ok());
  ASSERT_TRUE(fs_->StegConnect("alice", "plans", "uak-a").ok());
  ASSERT_TRUE(fs_->HiddenWriteAll("alice", "plans", "the master plan").ok());
  ASSERT_TRUE(fs_->DisconnectAll("alice").ok());

  ASSERT_TRUE(fs_->StegGetEntry("alice", "plans", "uak-a", "/entry.bin",
                                bob_keys->public_key, "share-entropy")
                  .ok());
  EXPECT_TRUE(fs_->plain()->Exists("/entry.bin"));

  // Bob imports the entry with his private key under his own UAK. Note the
  // object's physical name embeds ALICE's uid, so bob must read it through
  // the owner's uid (sharing grants access to the owner's object).
  ASSERT_TRUE(fs_->StegAddEntry("alice", "/entry.bin", bob_keys->private_key,
                                "uak-b")
                  .ok());
  EXPECT_FALSE(fs_->plain()->Exists("/entry.bin"));  // ciphertext destroyed

  ASSERT_TRUE(fs_->StegConnect("alice", "plans", "uak-b").ok());
  EXPECT_EQ(fs_->HiddenReadAll("alice", "plans").value(), "the master plan");
}

TEST_F(StegFsTest, RevocationInvalidatesOldFak) {
  ASSERT_TRUE(
      fs_->StegCreate("alice", "doc", "uak-a", HiddenType::kFile).ok());
  ASSERT_TRUE(fs_->StegConnect("alice", "doc", "uak-a").ok());
  ASSERT_TRUE(fs_->HiddenWriteAll("alice", "doc", "v1 content").ok());
  ASSERT_TRUE(fs_->DisconnectAll("alice").ok());

  // Simulate a leaked FAK: capture it via a shared entry in another UAK.
  auto eve_keys = crypto::RsaGenerateKeyPair(512, "eve-keypair");
  ASSERT_TRUE(eve_keys.ok());
  ASSERT_TRUE(fs_->StegGetEntry("alice", "doc", "uak-a", "/leak.bin",
                                eve_keys->public_key, "leak")
                  .ok());
  ASSERT_TRUE(
      fs_->StegAddEntry("alice", "/leak.bin", eve_keys->private_key, "uak-eve")
          .ok());
  ASSERT_TRUE(fs_->StegConnect("alice", "doc", "uak-eve").ok());
  ASSERT_TRUE(fs_->DisconnectAll("alice").ok());

  // Owner revokes: fresh FAK + new name; old FAK must now find nothing.
  ASSERT_TRUE(fs_->RevokeSharing("alice", "doc", "uak-a", "doc-v2").ok());
  EXPECT_TRUE(
      fs_->StegConnect("alice", "doc", "uak-eve").IsNotFound());

  ASSERT_TRUE(fs_->StegConnect("alice", "doc-v2", "uak-a").ok());
  EXPECT_EQ(fs_->HiddenReadAll("alice", "doc-v2").value(), "v1 content");
}

TEST_F(StegFsTest, UakHierarchySelectiveDisclosure) {
  // Three levels: signing in at level 2 reveals levels 1-2 but not 3.
  crypto::UakHierarchy hierarchy("alice-master-key", 3);
  ASSERT_TRUE(fs_->StegCreate("alice", "low", hierarchy.KeyForLevel(1),
                              HiddenType::kFile)
                  .ok());
  ASSERT_TRUE(fs_->StegCreate("alice", "mid", hierarchy.KeyForLevel(2),
                              HiddenType::kFile)
                  .ok());
  ASSERT_TRUE(fs_->StegCreate("alice", "high", hierarchy.KeyForLevel(3),
                              HiddenType::kFile)
                  .ok());

  // Under coercion alice discloses only the level-2 key. The attacker can
  // derive level 1 from it...
  crypto::UakHierarchy disclosed(hierarchy.KeyForLevel(2), 2);
  EXPECT_TRUE(
      fs_->StegConnect("alice", "low", disclosed.KeyForLevel(1)).ok());
  EXPECT_TRUE(
      fs_->StegConnect("alice", "mid", disclosed.KeyForLevel(2)).ok());
  // ...but the level-3 object remains undiscoverable.
  EXPECT_TRUE(fs_->StegConnect("alice", "high", disclosed.KeyForLevel(2))
                  .IsNotFound());
}

TEST_F(StegFsTest, MaintenanceTickChurnsBitmap) {
  ASSERT_TRUE(fs_->Flush().ok());
  // Snapshot the bitmap.
  auto before = fs_->plain()->bitmap()->free_count();
  Status s;
  for (int i = 0; i < 5; ++i) {
    s = fs_->MaintenanceTick();
    ASSERT_TRUE(s.ok()) << s.ToString();
  }
  // Dummy churn must have changed allocation counts at least once across
  // ticks (grow/shrink around the average size).
  auto after = fs_->plain()->bitmap()->free_count();
  EXPECT_NE(before, after);
}

TEST_F(StegFsTest, MaintenanceDoesNotDisturbHiddenData) {
  std::string content = RandomData(300000, 77);
  ASSERT_TRUE(
      fs_->StegCreate("alice", "payload", "uak-a", HiddenType::kFile).ok());
  ASSERT_TRUE(fs_->StegConnect("alice", "payload", "uak-a").ok());
  ASSERT_TRUE(fs_->HiddenWriteAll("alice", "payload", content).ok());
  ASSERT_TRUE(fs_->DisconnectAll("alice").ok());

  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(fs_->MaintenanceTick().ok());
  }

  ASSERT_TRUE(fs_->StegConnect("alice", "payload", "uak-a").ok());
  EXPECT_EQ(fs_->HiddenReadAll("alice", "payload").value(), content);
}

TEST_F(StegFsTest, PlainChurnDoesNotDisturbHiddenData) {
  // The paper's objective (a): no data loss. Hidden blocks are marked in
  // the bitmap, so plain allocation must route around them.
  std::string content = RandomData(400000, 13);
  ASSERT_TRUE(
      fs_->StegCreate("alice", "payload", "uak-a", HiddenType::kFile).ok());
  ASSERT_TRUE(fs_->StegConnect("alice", "payload", "uak-a").ok());
  ASSERT_TRUE(fs_->HiddenWriteAll("alice", "payload", content).ok());
  ASSERT_TRUE(fs_->DisconnectAll("alice").ok());

  // Fill and churn the plain side hard.
  for (int round = 0; round < 8; ++round) {
    std::string path = "/churn" + std::to_string(round % 3);
    if (fs_->plain()->Exists(path)) {
      ASSERT_TRUE(fs_->plain()->Unlink(path).ok());
    }
    ASSERT_TRUE(
        fs_->plain()->WriteFile(path, RandomData(2 << 20, round)).ok());
  }

  ASSERT_TRUE(fs_->StegConnect("alice", "payload", "uak-a").ok());
  EXPECT_EQ(fs_->HiddenReadAll("alice", "payload").value(), content);
}

TEST_F(StegFsTest, SpaceReportAccounts) {
  SpaceReport r = fs_->ReportSpace();
  EXPECT_EQ(r.total_blocks, 32768u);
  EXPECT_GT(r.metadata_blocks, 0u);
  EXPECT_GT(r.allocated_blocks, r.metadata_blocks);  // abandoned + dummies
  EXPECT_EQ(r.allocated_blocks + r.free_blocks, r.total_blocks);
}

TEST_F(StegFsTest, ConnectIsIdempotent) {
  ASSERT_TRUE(
      fs_->StegCreate("alice", "x", "uak-a", HiddenType::kFile).ok());
  ASSERT_TRUE(fs_->StegConnect("alice", "x", "uak-a").ok());
  ASSERT_TRUE(fs_->StegConnect("alice", "x", "uak-a").ok());
  EXPECT_EQ(fs_->ConnectedObjects("alice").size(), 1u);
}

// Every mount used to replay one FAK stream from the fixed default seed,
// so after a remount a "fresh" FAK could be the key of a live object: here
// the second FAK drawn, which the hide gave to d/x. The create then either
// met that object's header (a false AlreadyExists) or, claiming without a
// walk, shadowed it and lost its content.
TEST_F(StegFsTest, FreshFaksDoNotRepeatAcrossMounts) {
  ASSERT_TRUE(fs_->plain()->MkDir("/d").ok());
  ASSERT_TRUE(fs_->plain()->WriteFile("/d/x", "X-content").ok());
  ASSERT_TRUE(fs_->StegHide("alice", "/d", "d", "uak-a").ok());
  Remount();

  ASSERT_TRUE(
      fs_->StegCreate("alice", "zz", "uak-a", HiddenType::kFile).ok());
  Status created = fs_->StegCreate("alice", "d/x", "uak-a", HiddenType::kFile);
  ASSERT_TRUE(created.ok()) << created.ToString();
  ASSERT_TRUE(fs_->StegConnect("alice", "d/x", "uak-a").ok());
  ASSERT_TRUE(fs_->HiddenWriteAll("alice", "d/x", "NEW").ok());
  ASSERT_TRUE(fs_->DisconnectAll("alice").ok());

  ASSERT_TRUE(fs_->StegUnhide("alice", "/d", "d", "uak-a").ok());
  auto data = fs_->plain()->ReadFile("/d/x");
  ASSERT_TRUE(data.ok()) << data.status().ToString();
  EXPECT_EQ(*data, "X-content");
}

// Header walks recorded so far on this mount under one locator series.
uint64_t Walks(StegFs* fs, const std::string& series) {
  const obs::RegistrySnapshot snap =
      fs->plain()->metrics_registry()->Snapshot();
  const obs::HistogramSnapshot* h = snap.histogram(series);
  return h == nullptr ? 0 : h->count;
}

uint64_t NotFoundWalks(StegFs* fs) {
  return Walks(fs, "stegfs_locator_probes_not_found");
}

// A user's first create opens its UAK directory, which does not exist
// yet: one NotFound walk, and the directory is then claimed without a
// second one.
TEST_F(StegFsTest, FirstCreateWalksOnceForTheUakDirectory) {
  const uint64_t before = NotFoundWalks(fs_.get());
  ASSERT_TRUE(
      fs_->StegCreate("alice", "first", "uak-a", HiddenType::kFile).ok());
  EXPECT_EQ(NotFoundWalks(fs_.get()), before + 1);
}

// Creates under a fresh FAK claim without walking: no NotFound walk for
// StegCreate, StegHide (file and directory tree) or RevokeSharing, and
// every object still connects and reads back.
TEST_F(StegFsTest, FreshKeyCreatesWalkNothing) {
  ASSERT_TRUE(
      fs_->StegCreate("alice", "warm", "uak-a", HiddenType::kFile).ok());
  uint64_t walks = NotFoundWalks(fs_.get());

  ASSERT_TRUE(
      fs_->StegCreate("alice", "doc", "uak-a", HiddenType::kFile).ok());
  EXPECT_EQ(NotFoundWalks(fs_.get()), walks) << "StegCreate";

  ASSERT_TRUE(fs_->plain()->WriteFile("/f", "file-content").ok());
  ASSERT_TRUE(fs_->plain()->MkDir("/tree").ok());
  ASSERT_TRUE(fs_->plain()->WriteFile("/tree/leaf", "leaf-content").ok());
  walks = NotFoundWalks(fs_.get());
  ASSERT_TRUE(fs_->StegHide("alice", "/f", "f", "uak-a").ok());
  ASSERT_TRUE(fs_->StegHide("alice", "/tree", "tree", "uak-a").ok());
  EXPECT_EQ(NotFoundWalks(fs_.get()), walks) << "StegHide";

  ASSERT_TRUE(fs_->StegConnect("alice", "doc", "uak-a").ok());
  ASSERT_TRUE(fs_->HiddenWriteAll("alice", "doc", "doc-content").ok());
  ASSERT_TRUE(fs_->DisconnectAll("alice").ok());
  walks = NotFoundWalks(fs_.get());
  ASSERT_TRUE(fs_->RevokeSharing("alice", "doc", "uak-a", "doc-v2").ok());
  EXPECT_EQ(NotFoundWalks(fs_.get()), walks) << "RevokeSharing";

  Remount();
  ASSERT_TRUE(fs_->StegConnect("alice", "doc-v2", "uak-a").ok());
  ASSERT_TRUE(fs_->StegConnect("alice", "f", "uak-a").ok());
  ASSERT_TRUE(fs_->StegConnect("alice", "tree", "uak-a").ok());
  EXPECT_EQ(fs_->HiddenReadAll("alice", "doc-v2").value(), "doc-content");
  EXPECT_EQ(fs_->HiddenReadAll("alice", "f").value(), "file-content");
  EXPECT_EQ(fs_->HiddenReadAll("alice", "tree/leaf").value(), "leaf-content");
}

TEST_F(StegFsTest, DuplicateCreateIsRejectedByTheDirectory) {
  ASSERT_TRUE(
      fs_->StegCreate("alice", "dup", "uak-a", HiddenType::kFile).ok());
  const uint64_t walks = NotFoundWalks(fs_.get());
  EXPECT_TRUE(fs_->StegCreate("alice", "dup", "uak-a", HiddenType::kFile)
                  .IsAlreadyExists());
  EXPECT_EQ(NotFoundWalks(fs_.get()), walks);
}

// The claim-only create still refuses a (name, key) whose header is on
// the volume: the claim steps over it and checks its signature.
TEST_F(StegFsTest, ClaimOnlyCreateRejectsAnExistingHeader) {
  HiddenVolume vol = fs_->VolumeCtx();
  auto first = HiddenObject::Create(vol, "raw-obj", "raw-key",
                                    HiddenType::kFile);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE((*first)->Sync().ok());
  const uint64_t free_before = fs_->plain()->bitmap()->free_count();
  EXPECT_TRUE(HiddenObject::CreateClaimOnly(vol, "raw-obj", "raw-key",
                                            HiddenType::kFile)
                  .status()
                  .IsAlreadyExists());
  EXPECT_EQ(fs_->plain()->bitmap()->free_count(), free_before);
}

// Caller-supplied keys keep the full walks: a raw create of an existing
// (name, key) is refused by a walk that finds its header.
TEST_F(StegFsTest, CallerKeyCreateStillWalks) {
  HiddenVolume vol = fs_->VolumeCtx();
  auto first = HiddenObject::Create(vol, "raw-obj", "raw-key",
                                    HiddenType::kFile);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE((*first)->Sync().ok());
  const uint64_t found = Walks(fs_.get(), "stegfs_locator_probes_found");
  EXPECT_TRUE(
      HiddenObject::Create(vol, "raw-obj", "raw-key", HiddenType::kFile)
          .status()
          .IsAlreadyExists());
  EXPECT_EQ(Walks(fs_.get(), "stegfs_locator_probes_found"), found + 1);
}

// On a durable mount, an object whose primary header is torn lives on in
// its anchor; a create must find that and refuse.
TEST(StegFsDurableCreateTest, CallerKeyCreateFindsAnchorOfTornPrimary) {
  MemBlockDevice dev(1024, 32768);
  StegFormatOptions fo = FastFormat();
  fo.journal_blocks = 64;
  ASSERT_TRUE(StegFs::Format(&dev, fo).ok());
  StegFsOptions so;
  so.mount.durability = Durability::kJournal;
  auto fs = StegFs::Mount(&dev, so);
  ASSERT_TRUE(fs.ok()) << fs.status().ToString();
  HiddenVolume vol = (*fs)->VolumeCtx();
  ASSERT_TRUE(vol.durable);

  uint64_t primary = 0;
  {
    auto obj =
        HiddenObject::Create(vol, "raw-obj", "raw-key", HiddenType::kFile);
    ASSERT_TRUE(obj.ok());
    ASSERT_TRUE((*obj)->WriteAll("anchored").ok());
    ASSERT_TRUE((*obj)->Sync().ok());
    primary = (*obj)->header_block();
    ASSERT_NE((*obj)->anchor_block(), 0u);
  }
  std::vector<uint8_t> noise(1024);
  Xoshiro rng(77);
  rng.FillBytes(noise.data(), noise.size());
  ASSERT_TRUE(vol.cache->Write(primary, noise.data()).ok());

  EXPECT_TRUE(
      HiddenObject::Create(vol, "raw-obj", "raw-key", HiddenType::kFile)
          .status()
          .IsAlreadyExists());
  // A claim-only create passes the torn primary but steps over the anchor
  // on its anchor claim; it refuses and gives back the primary it claimed.
  const uint64_t free_before = vol.bitmap->free_count();
  EXPECT_TRUE(HiddenObject::CreateClaimOnly(vol, "raw-obj", "raw-key",
                                            HiddenType::kFile)
                  .status()
                  .IsAlreadyExists());
  EXPECT_EQ(vol.bitmap->free_count(), free_before);
  auto reopened = HiddenObject::Open(vol, "raw-obj", "raw-key");
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->ReadAll().value(), "anchored");
}

// Format is deterministic in its entropy: the default Table 1 dummy
// population (~10 MiB) on a 16 MiB volume with a journal ring must keep
// producing this exact image. The digest pins the bytes, so a change to
// how Format stages its writes (cache size, eviction order) cannot move a
// single block unnoticed.
TEST(StegFsFormatTest, FormattedImageIsPinned) {
  MemBlockDevice dev(4096, 4096);
  StegFormatOptions o;
  o.entropy = "pinned-image";
  o.journal_blocks = 64;
  ASSERT_TRUE(StegFs::Format(&dev, o).ok());
  crypto::Sha256Digest digest =
      crypto::Sha256::Hash(dev.raw().data(), dev.raw().size());
  EXPECT_EQ(HexEncode(digest.data(), digest.size()),
            "849161bc695218420571b985af4994526ced47728c1b8db6bf77152630b47255");
}

}  // namespace
}  // namespace stegfs
