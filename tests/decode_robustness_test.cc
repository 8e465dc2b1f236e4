// Decode-robustness suite: every on-disk / wire decoder is fed adversarial
// byte soup — random garbage, truncations, and bit-flipped valid encodings.
// Decoders must return clean Status errors (or, for random garbage that
// happens to parse, yield structurally bounded values); they must never
// crash, hang, or over-read. These are deterministic pseudo-fuzz loops — a
// seized disk is attacker-controlled input, so this is part of the threat
// model, not just hygiene.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "blockdev/mem_block_device.h"
#include "cache/buffer_cache.h"
#include "core/backup.h"
#include "core/hidden_directory.h"
#include "core/hidden_header.h"
#include "core/hidden_object.h"
#include "core/redundancy.h"
#include "crypto/block_crypter.h"
#include "crypto/rsa.h"
#include "crypto/sha256.h"
#include "fs/directory.h"
#include "fs/inode.h"
#include "fs/layout.h"
#include "fs/block_store.h"
#include "fs/plain_fs.h"
#include "journal/journal.h"
#include "journal/recovery.h"
#include "util/coding.h"
#include "util/random.h"

namespace stegfs {
namespace {

std::vector<uint8_t> RandomBytes(Xoshiro* rng, size_t n) {
  std::vector<uint8_t> v(n);
  rng->FillBytes(v.data(), n);
  return v;
}

TEST(DecodeRobustnessTest, SuperblockGarbage) {
  Xoshiro rng(1);
  int parsed = 0;
  for (int i = 0; i < 2000; ++i) {
    auto bytes = RandomBytes(&rng, 512);
    auto sb = Superblock::DecodeFrom(bytes.data(), bytes.size());
    if (sb.ok()) ++parsed;  // magic check makes this ~impossible
  }
  EXPECT_EQ(parsed, 0);
}

TEST(DecodeRobustnessTest, SuperblockBitFlips) {
  Superblock good;
  good.block_size = 1024;
  good.num_blocks = 65536;
  good.num_inodes = 1024;
  std::vector<uint8_t> buf(1024);
  ASSERT_TRUE(good.EncodeTo(buf.data(), buf.size()).ok());

  Xoshiro rng(2);
  for (int i = 0; i < 500; ++i) {
    auto copy = buf;
    // Flip 1-4 random bits in the encoded prefix.
    int flips = 1 + rng.Uniform(4);
    for (int f = 0; f < flips; ++f) {
      copy[rng.Uniform(64)] ^= static_cast<uint8_t>(1u << rng.Uniform(8));
    }
    auto sb = Superblock::DecodeFrom(copy.data(), copy.size());
    if (sb.ok()) {
      // If it still parses, the geometry must be self-consistent.
      Layout l = sb->ComputeLayout();
      EXPECT_LT(l.data_start, sb->num_blocks);
      EXPECT_GE(sb->block_size, 512u);
    }
  }
}

TEST(DecodeRobustnessTest, HiddenHeaderGarbage) {
  Xoshiro rng(3);
  for (int i = 0; i < 2000; ++i) {
    auto bytes = RandomBytes(&rng, 512);
    auto h = HiddenHeader::DecodeFrom(bytes.data(), bytes.size());
    if (h.ok()) {
      // 2-in-256 type bytes accept; pool count must then have been sane.
      EXPECT_LE(h->free_pool.size(), kMaxFreePool);
    }
  }
}

TEST(DecodeRobustnessTest, HiddenDirGarbageAndTruncation) {
  Xoshiro rng(4);
  for (int i = 0; i < 2000; ++i) {
    auto bytes = RandomBytes(&rng, 1 + rng.Uniform(256));
    std::string blob(bytes.begin(), bytes.end());
    auto dir = DecodeHiddenDir(blob);
    if (dir.ok()) {
      for (const auto& e : *dir) {
        EXPECT_LE(e.name.size(), blob.size());
        EXPECT_LE(e.fak.size(), blob.size());
      }
    }
  }
}

TEST(DecodeRobustnessTest, HiddenDirHostileCounts) {
  // A count field claiming 2^32-1 entries must not allocate the moon.
  std::string blob;
  blob.push_back('\xff');
  blob.push_back('\xff');
  blob.push_back('\xff');
  blob.push_back('\xff');
  EXPECT_FALSE(DecodeHiddenDir(blob).ok());
}

TEST(DecodeRobustnessTest, BackupImageGarbage) {
  Xoshiro rng(5);
  MemBlockDevice dev(1024, 4096);
  for (int i = 0; i < 200; ++i) {
    auto bytes = RandomBytes(&rng, 1 + rng.Uniform(4096));
    std::string image(bytes.begin(), bytes.end());
    EXPECT_FALSE(StegRecover(&dev, image).ok());
  }
}

TEST(DecodeRobustnessTest, BackupImageTruncations) {
  // A valid image truncated at every (sampled) prefix must fail cleanly.
  MemBlockDevice dev(1024, 16384);
  StegFormatOptions fo;
  fo.params.dummy_file_count = 1;
  fo.params.dummy_file_avg_bytes = 16 << 10;
  fo.entropy = "trunc-test";
  ASSERT_TRUE(StegFs::Format(&dev, fo).ok());
  auto fs = StegFs::Mount(&dev, StegFsOptions{});
  ASSERT_TRUE(fs.ok());
  ASSERT_TRUE((*fs)->plain()->WriteFile("/f", "plain data").ok());
  auto image = StegBackup(fs->get());
  ASSERT_TRUE(image.ok());

  MemBlockDevice target(1024, 16384);
  for (size_t cut = 0; cut < image->size(); cut += 997) {
    EXPECT_FALSE(StegRecover(&target, image->substr(0, cut)).ok())
        << "cut at " << cut;
  }
}

TEST(DecodeRobustnessTest, RsaKeyBlobGarbage) {
  Xoshiro rng(6);
  for (int i = 0; i < 1000; ++i) {
    auto bytes = RandomBytes(&rng, rng.Uniform(128));
    std::string blob(bytes.begin(), bytes.end());
    auto pub = crypto::RsaPublicKey::Deserialize(blob);
    auto priv = crypto::RsaPrivateKey::Deserialize(blob);
    // Parsing may succeed for lucky lengths; using such a key must still
    // be safe (nonzero moduli enforced at decode).
    if (pub.ok()) EXPECT_FALSE(pub->n.IsZero());
    if (priv.ok()) EXPECT_FALSE(priv->n.IsZero());
  }
}

TEST(DecodeRobustnessTest, RsaEnvelopeGarbage) {
  auto keys = crypto::RsaGenerateKeyPair(512, "robustness");
  ASSERT_TRUE(keys.ok());
  Xoshiro rng(7);
  for (int i = 0; i < 500; ++i) {
    auto bytes = RandomBytes(&rng, rng.Uniform(512));
    std::string ct(bytes.begin(), bytes.end());
    EXPECT_FALSE(crypto::RsaDecrypt(keys->private_key, ct).ok());
  }
}

TEST(DecodeRobustnessTest, MountGarbageVolume) {
  // An entirely random device must never mount.
  Xoshiro rng(8);
  MemBlockDevice dev(1024, 4096);
  std::vector<uint8_t> block(1024);
  for (uint64_t b = 0; b < 64; ++b) {  // garbage where metadata would be
    rng.FillBytes(block.data(), block.size());
    ASSERT_TRUE(dev.WriteBlock(b, block.data()).ok());
  }
  EXPECT_FALSE(PlainFs::Mount(&dev, MountOptions{}).ok());
  EXPECT_FALSE(StegFs::Mount(&dev, StegFsOptions{}).ok());
}

// --- Journal ring ---------------------------------------------------------
// The ring's record checksum is an unkeyed SHA-256, so a hostile image can
// carry records that authenticate. Scanning and replaying them must still
// end in OK or a Status.

// Plants a self-authenticating record at ring position `pos` of `ring`
// (a copy of the whole ring, `bs` bytes per block): the descriptor, then
// one random after-image per target, wrapping around the ring.
void PlantRecord(std::vector<uint8_t>* ring, uint32_t bs, uint32_t pos,
                 uint64_t seq, const std::vector<uint64_t>& targets,
                 Xoshiro* rng) {
  const uint32_t ring_blocks = static_cast<uint32_t>(ring->size() / bs);
  const uint32_t count = static_cast<uint32_t>(targets.size());
  auto block = [&](uint32_t i) {
    return ring->data() + static_cast<size_t>((pos + i) % ring_blocks) * bs;
  };
  uint8_t* desc = block(0);
  std::memset(desc, 0, bs);
  EncodeFixed32(desc, journal::kRecordMagic);
  EncodeFixed32(desc + 4, journal::kRecordVersion);
  EncodeFixed64(desc + 8, seq);
  EncodeFixed32(desc + 16, count);
  for (uint32_t i = 0; i < count; ++i) {
    EncodeFixed64(desc + journal::kDescriptorHeaderBytes + i * 8, targets[i]);
    rng->FillBytes(block(1 + i), bs);
  }
  crypto::Sha256 h;
  uint8_t tmp[8];
  EncodeFixed64(tmp, seq);
  h.Update(tmp, 8);
  EncodeFixed32(tmp, count);
  h.Update(tmp, 4);
  for (uint64_t t : targets) {
    EncodeFixed64(tmp, t);
    h.Update(tmp, 8);
  }
  for (uint32_t i = 0; i < count; ++i) h.Update(block(1 + i), bs);
  const crypto::Sha256Digest digest = h.Finish();
  std::memcpy(desc + 24, digest.data(), digest.size());
}

// Random garbage with plausible descriptor headers sprinkled in: counts
// from 0 to 2^32-1 and arbitrary target block numbers.
void FillHostileRing(std::vector<uint8_t>* ring, uint32_t bs, Xoshiro* rng) {
  rng->FillBytes(ring->data(), ring->size());
  const uint32_t ring_blocks = static_cast<uint32_t>(ring->size() / bs);
  for (uint32_t pos = 0; pos < ring_blocks; ++pos) {
    if (rng->Uniform(2) == 0) continue;
    uint8_t* p = ring->data() + static_cast<size_t>(pos) * bs;
    EncodeFixed32(p, journal::kRecordMagic);
    EncodeFixed32(p + 4, journal::kRecordVersion);
    const uint32_t count = rng->Uniform(3) == 0
                               ? static_cast<uint32_t>(rng->Next())
                               : static_cast<uint32_t>(rng->Uniform(24));
    EncodeFixed32(p + 16, count);
  }
}

void FlipBits(std::vector<uint8_t>* bytes, Xoshiro* rng) {
  const int flips = 1 + static_cast<int>(rng->Uniform(4));
  for (int f = 0; f < flips; ++f) {
    (*bytes)[rng->Uniform(bytes->size())] ^=
        static_cast<uint8_t>(1u << rng->Uniform(8));
  }
}

void WriteRing(BlockDevice* dev, uint64_t start,
               const std::vector<uint8_t>& ring) {
  const uint32_t bs = dev->block_size();
  for (size_t i = 0; i < ring.size() / bs; ++i) {
    ASSERT_TRUE(dev->WriteBlock(start + i, ring.data() + i * bs).ok());
  }
}

TEST(DecodeRobustnessTest, JournalRingGarbageAndBitFlips) {
  constexpr uint32_t kRingBs = 512;
  constexpr uint64_t kStart = 8;
  constexpr uint32_t kRing = 16;
  MemBlockDevice dev(kRingBs, 256);
  Xoshiro rng(9);
  std::vector<uint8_t> ring(static_cast<size_t>(kRing) * kRingBs);

  // Records that decode from garbage must still be structurally bounded.
  for (int i = 0; i < 500; ++i) {
    FillHostileRing(&ring, kRingBs, &rng);
    WriteRing(&dev, kStart, ring);
    uint64_t torn = 0;
    auto recs = journal::JournalRecovery::ScanRing(&dev, kStart, kRing, &torn);
    ASSERT_TRUE(recs.ok()) << recs.status().ToString();
    EXPECT_LE(torn, kRing);
    for (const journal::JournalRecord& r : *recs) {
      EXPECT_LT(r.entries.size(), kRing);
      for (const journal::JournalEntry& e : r.entries) {
        EXPECT_LT(e.block, dev.num_blocks());
        EXPECT_EQ(e.image.size(), kRingBs);
      }
    }
  }

  // A flipped authentic record either fails its checksum or, when the
  // flip missed every hashed byte, decodes to exactly what was planted.
  for (int i = 0; i < 500; ++i) {
    rng.FillBytes(ring.data(), ring.size());
    const uint32_t pos = static_cast<uint32_t>(rng.Uniform(kRing));
    std::vector<uint64_t> targets(1 + rng.Uniform(kRing - 1));
    for (uint64_t& t : targets) t = kStart + kRing + rng.Uniform(200);
    const uint64_t seq = rng.Next();
    PlantRecord(&ring, kRingBs, pos, seq, targets, &rng);
    const std::vector<uint8_t> planted = ring;
    if (i == 0) {
      WriteRing(&dev, kStart, ring);
      auto recs = journal::JournalRecovery::ScanRing(&dev, kStart, kRing,
                                                     nullptr);
      ASSERT_TRUE(recs.ok());
      ASSERT_EQ(recs->size(), 1u) << "planted record does not decode";
    }
    FlipBits(&ring, &rng);
    WriteRing(&dev, kStart, ring);
    auto recs =
        journal::JournalRecovery::ScanRing(&dev, kStart, kRing, nullptr);
    ASSERT_TRUE(recs.ok()) << recs.status().ToString();
    ASSERT_LE(recs->size(), 1u);
    if (recs->empty()) continue;
    const journal::JournalRecord& r = recs->front();
    EXPECT_EQ(r.seq, seq);
    EXPECT_EQ(r.ring_pos, pos);
    ASSERT_EQ(r.entries.size(), targets.size());
    for (size_t e = 0; e < targets.size(); ++e) {
      EXPECT_EQ(r.entries[e].block, targets[e]);
      const uint8_t* img =
          planted.data() + ((pos + 1 + e) % kRing) * kRingBs;
      EXPECT_EQ(0, std::memcmp(r.entries[e].image.data(), img, kRingBs));
    }
  }
}

TEST(DecodeRobustnessTest, DurableMountOfHostileRing) {
  constexpr uint32_t kMountBs = 512;
  constexpr uint64_t kMountBlocks = 2048;
  MemBlockDevice pristine(kMountBs, kMountBlocks);
  FormatOptions fo;
  fo.journal_blocks = 16;
  ASSERT_TRUE(PlainFs::Format(&pristine, fo).ok());
  std::vector<uint8_t> block(kMountBs);
  ASSERT_TRUE(pristine.ReadBlock(0, block.data()).ok());
  auto sb = Superblock::DecodeFrom(block.data(), block.size());
  ASSERT_TRUE(sb.ok());
  const uint64_t start = sb->journal_start;
  const uint32_t ring_blocks = sb->journal_blocks;
  const uint64_t data_start = sb->ComputeLayout().data_start;

  MountOptions mo;
  mo.durability = Durability::kJournal;
  mo.cache_blocks = 64;
  Xoshiro rng(10);
  std::vector<uint8_t> ring(static_cast<size_t>(ring_blocks) * kMountBs);
  int mounted = 0;
  for (int i = 0; i < 150; ++i) {
    MemBlockDevice dev(kMountBs, kMountBlocks);
    for (uint64_t b = 0; b < kMountBlocks; ++b) {
      ASSERT_TRUE(pristine.ReadBlock(b, block.data()).ok());
      ASSERT_TRUE(dev.WriteBlock(b, block.data()).ok());
    }
    switch (i % 3) {
      case 0:  // garbage with plausible headers
        FillHostileRing(&ring, kMountBs, &rng);
        break;
      case 1: {  // authentic records that overwrite metadata on replay
        rng.FillBytes(ring.data(), ring.size());
        std::vector<uint64_t> targets(1 + rng.Uniform(ring_blocks - 1));
        for (uint64_t& t : targets) {
          t = rng.Uniform(data_start);  // superblock, bitmap, inode table
        }
        PlantRecord(&ring, kMountBs,
                    static_cast<uint32_t>(rng.Uniform(ring_blocks)),
                    rng.Next(), targets, &rng);
        break;
      }
      default: {  // an authentic record, then bit flips
        rng.FillBytes(ring.data(), ring.size());
        std::vector<uint64_t> targets(1 + rng.Uniform(4));
        for (uint64_t& t : targets) {
          t = start + ring_blocks + rng.Uniform(kMountBlocks - start -
                                                ring_blocks);
        }
        PlantRecord(&ring, kMountBs,
                    static_cast<uint32_t>(rng.Uniform(ring_blocks)),
                    rng.Next(), targets, &rng);
        FlipBits(&ring, &rng);
        break;
      }
    }
    WriteRing(&dev, start, ring);
    auto fs = PlainFs::Mount(&dev, mo);
    if (!fs.ok()) continue;  // a clean Status is an acceptable outcome
    ++mounted;
    // A mounted volume serves its namespace or reports why not.
    (void)(*fs)->List("/");
    journal::FsckReport report;
    (void)(*fs)->Fsck(&report);
  }
  // Only the metadata-overwriting records may leave a volume that cannot
  // mount: garbage never authenticates, and the flipped records target
  // data blocks only.
  EXPECT_GE(mounted, 100);
}

// --- Inode table and plain directories ------------------------------------
// Inode::DecodeFrom takes every byte as it finds it (type, size, block
// pointers), and directory slots carry raw inode numbers and name lengths.
// On a populated volume whose inode table or directory blocks turn
// hostile, mount, List, Stat, ReadFile and Fsck must each end OK or in a
// Status, with every allocation bounded by the volume's geometry.

constexpr uint32_t kPlainBs = 1024;
constexpr uint64_t kPlainBlocks = 4096;

// Where the hostile bytes go: inode-table and directory-data blocks, and
// the live bytes (in-use inode slots, used directory slots) inside them.
struct PlainTargets {
  struct Region {
    uint64_t block;
    uint32_t live_bytes;  // the used prefix of the block
  };
  std::vector<Region> inode_blocks;
  std::vector<Region> dir_blocks;
};

// Formats and populates a plain volume: nested directories, a root
// directory spanning two blocks, files with direct, single- and
// double-indirect extents.
void BuildPopulatedPlainVolume(MemBlockDevice* dev, PlainTargets* targets) {
  ASSERT_TRUE(PlainFs::Format(dev, FormatOptions{}).ok());
  {
    MountOptions mo;
    mo.cache_blocks = 64;
    auto fs = PlainFs::Mount(dev, mo);
    ASSERT_TRUE(fs.ok());
    Xoshiro rng(11);
    ASSERT_TRUE((*fs)->MkDir("/a").ok());
    ASSERT_TRUE((*fs)->MkDir("/a/b").ok());
    const std::pair<const char*, size_t> files[] = {
        {"/a/small", 100}, {"/a/b/indirect", 20 << 10}, {"/big", 300 << 10}};
    for (const auto& [path, size] : files) {
      auto bytes = RandomBytes(&rng, size);
      ASSERT_TRUE((*fs)->WriteFile(path, std::string(bytes.begin(),
                                                     bytes.end())).ok());
    }
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE(
          (*fs)->WriteFile("/f" + std::to_string(i), "file " +
                                                         std::to_string(i))
              .ok());
    }
    ASSERT_TRUE((*fs)->Flush().ok());
  }
  std::vector<uint8_t> block(kPlainBs);
  ASSERT_TRUE(dev->ReadBlock(0, block.data()).ok());
  auto sb = Superblock::DecodeFrom(block.data(), block.size());
  ASSERT_TRUE(sb.ok());
  const Layout layout = sb->ComputeLayout();
  const uint32_t per_block = kPlainBs / kInodeSize;
  for (uint64_t b = 0; b < layout.inode_table_blocks; ++b) {
    ASSERT_TRUE(dev->ReadBlock(layout.inode_table_start + b, block.data())
                    .ok());
    uint32_t live = 0;
    for (uint32_t i = 0; i < per_block; ++i) {
      const Inode ino = Inode::DecodeFrom(block.data() + i * kInodeSize);
      if (!ino.InUse()) continue;
      live = (i + 1) * kInodeSize;
      if (ino.type != InodeType::kDirectory) continue;
      const uint64_t dir_blocks = (ino.size + kPlainBs - 1) / kPlainBs;
      for (uint64_t d = 0; d < dir_blocks && d < kDirectPointers; ++d) {
        const uint64_t used = std::min<uint64_t>(ino.size - d * kPlainBs,
                                                 kPlainBs);
        targets->dir_blocks.push_back(
            {ino.direct[d], static_cast<uint32_t>(used)});
      }
    }
    if (live != 0) {
      targets->inode_blocks.push_back({layout.inode_table_start + b, live});
    }
  }
}

// Lists `path` and everything under it, reading every file. Depth and
// visits are capped: a hostile entry can point a directory at an
// ancestor, and the walk itself must not hang.
void WalkPlainTree(PlainFs* fs, const std::string& path, int depth,
                   int* visits) {
  if (depth > 4) return;
  auto entries = fs->List(path);
  if (!entries.ok()) return;
  for (const DirEntry& e : *entries) {
    if (++*visits > 200) return;
    const std::string child = (path == "/" ? "" : path) + "/" + e.name;
    auto info = fs->Stat(child);
    if (!info.ok()) continue;
    if (info->type == InodeType::kDirectory) {
      WalkPlainTree(fs, child, depth + 1, visits);
    } else {
      (void)fs->ReadFile(child);
    }
  }
}

TEST(DecodeRobustnessTest, HostileInodesAndPlainDirectories) {
  MemBlockDevice pristine(kPlainBs, kPlainBlocks);
  PlainTargets targets;
  BuildPopulatedPlainVolume(&pristine, &targets);
  ASSERT_GE(targets.inode_blocks.size(), 1u);
  ASSERT_GE(targets.dir_blocks.size(), 4u);  // root spans two blocks

  MountOptions mo;
  mo.cache_blocks = 64;
  Xoshiro rng(12);
  std::vector<uint8_t> block(kPlainBs);
  int mounted = 0;
  for (int i = 0; i < 300; ++i) {
    MemBlockDevice dev(kPlainBs, kPlainBlocks);
    for (uint64_t b = 0; b < kPlainBlocks; ++b) {
      ASSERT_TRUE(pristine.ReadBlock(b, block.data()).ok());
      ASSERT_TRUE(dev.WriteBlock(b, block.data()).ok());
    }
    const auto& pool =
        i % 2 == 0 ? targets.inode_blocks : targets.dir_blocks;
    const PlainTargets::Region& t = pool[rng.Uniform(pool.size())];
    ASSERT_TRUE(dev.ReadBlock(t.block, block.data()).ok());
    switch ((i / 2) % 3) {
      case 0:  // the whole block is garbage
        rng.FillBytes(block.data(), block.size());
        break;
      case 1: {  // one live inode or directory slot is garbage
        const uint32_t slot =
            (i % 2 == 0) ? kInodeSize : static_cast<uint32_t>(kDirEntrySize);
        const uint32_t at =
            static_cast<uint32_t>(rng.Uniform(t.live_bytes / slot)) * slot;
        rng.FillBytes(block.data() + at, slot);
        break;
      }
      default: {  // 1-4 bit flips in the live bytes
        std::vector<uint8_t> live(block.begin(),
                                  block.begin() + t.live_bytes);
        FlipBits(&live, &rng);
        std::copy(live.begin(), live.end(), block.begin());
        break;
      }
    }
    ASSERT_TRUE(dev.WriteBlock(t.block, block.data()).ok());

    auto fs = PlainFs::Mount(&dev, mo);
    if (!fs.ok()) continue;  // a clean Status is an acceptable outcome
    ++mounted;
    int visits = 0;
    WalkPlainTree(fs->get(), "/", 0, &visits);
    journal::FsckReport report;
    (void)(*fs)->Fsck(&report);
  }
  // Mount decodes the inode table without judging it, so every run mounts
  // and the walk and fsck above see each hostile image.
  EXPECT_EQ(mounted, 300);
}

// --- Stripe-map chain ------------------------------------------------------
// A redundant object's stripe map lives in a chain of FAK-encrypted blocks,
// [next u32][sum u32][payload], named by the hidden header. `sum` covers
// the payload only. Hostile chain bytes are written two ways: as raw
// ciphertext (what an intruder without the key can do: the block decrypts
// to noise) and as plaintext with a matching sum (what the unkeyed sum's
// 2^-32 collisions, or a key holder, can do), which reaches the decoder
// behind the checksum. Open (RedundancyManager::Load), a following read,
// the scrub fsck runs and a rewrite must each end OK, with coverage
// degraded, or in a clean Status; a read that succeeds returns the data.

constexpr uint32_t kChainBs = 1024;
constexpr uint64_t kChainBlocks = 8192;
constexpr size_t kChainHeader = 8;  // [next u32][sum u32]
const char* const kChainObj = "striped";
const char* const kChainKey = "striped-fak";

// One small volume with a kIda(3,4) object whose map spans two chain
// blocks. Construction is deterministic, so every instance lays the object
// out identically.
struct ChainVolume {
  ChainVolume()
      : layout(Layout::Compute(kChainBs, kChainBlocks, 128)),
        dev(kChainBs, kChainBlocks),
        cache(&dev, 256),
        bitmap(layout),
        rng(31),
        crypter(kChainKey),
        store(&cache, &crypter) {
    vol.cache = &cache;
    vol.bitmap = &bitmap;
    vol.layout = layout;
    vol.params = StegParams{};
    vol.rng = &rng;
    vol.probe_limit = 200;
  }

  // Creates the object, writes `data` and returns the chain's blocks.
  std::vector<uint64_t> Populate(const std::string& data) {
    auto obj = HiddenObject::Create(vol, kChainObj, kChainKey,
                                    HiddenType::kFile,
                                    RedundancyPolicy::Ida(3, 4));
    EXPECT_TRUE(obj.ok()) << obj.status().ToString();
    if (!obj.ok()) return {};
    EXPECT_TRUE((*obj)->WriteAll(data).ok());
    EXPECT_TRUE((*obj)->Sync().ok());
    std::vector<uint8_t> block(kChainBs);
    EXPECT_TRUE(store.ReadBlock((*obj)->header_block(), block.data()).ok());
    auto header = HiddenHeader::DecodeFrom(block.data(), block.size());
    EXPECT_TRUE(header.ok());
    std::vector<uint64_t> chain;
    for (uint64_t b = header.ok() ? header->red_map_block : 0;
         b != 0 && chain.size() < 16; b = DecodeFixed32(block.data())) {
      chain.push_back(b);
      EXPECT_TRUE(store.ReadBlock(b, block.data()).ok());
    }
    return chain;
  }

  std::vector<uint8_t> ReadPlain(uint64_t b) {
    std::vector<uint8_t> block(kChainBs);
    EXPECT_TRUE(store.ReadBlock(b, block.data()).ok());
    return block;
  }
  // Writes a plaintext chain block; with `fix_sum` its sum matches the
  // payload, so the block passes Load's checksum.
  void WritePlain(uint64_t b, std::vector<uint8_t> block, bool fix_sum) {
    if (fix_sum) {
      EncodeFixed32(block.data() + 4,
                    BlockSum32(block.data() + kChainHeader,
                               kChainBs - kChainHeader));
    }
    ASSERT_TRUE(store.WriteBlock(b, block.data()).ok());
  }

  Layout layout;
  MemBlockDevice dev;
  BufferCache cache;
  BlockBitmap bitmap;
  Xoshiro rng;
  crypto::BlockCrypter crypter;
  EncryptedBlockStore store;
  HiddenVolume vol;
};

TEST(DecodeRobustnessTest, HostileStripeMapChain) {
  Xoshiro data_rng(41);
  const std::vector<uint8_t> bytes = RandomBytes(&data_rng, 200 << 10);
  const std::string data(bytes.begin(), bytes.end());
  // 200 blocks make 67 stripes of 24 map bytes each: two chain blocks.
  const size_t entry = 4 * (1 + 1 + 4);  // present, parity, 4 sums
  const size_t stripes_in_head = (kChainBs - kChainHeader - 4) / entry;
  const size_t max_stripes = (2 * (kChainBs - kChainHeader) - 4) / entry;

  Xoshiro rng(42);
  int opened = 0, read_ok = 0;
  for (int i = 0; i < 140; ++i) {
    ChainVolume v;
    const std::vector<uint64_t> chain = v.Populate(data);
    ASSERT_EQ(chain.size(), 2u);
    // Nothing in this harness owns the metadata region, so no outcome may
    // write it.
    ASSERT_TRUE(v.cache.Flush().ok());
    const size_t meta_bytes = v.layout.data_start * kChainBs;
    const std::vector<uint8_t> meta(v.dev.raw().begin(),
                                    v.dev.raw().begin() + meta_bytes);
    const uint64_t target = chain[rng.Uniform(chain.size())];
    std::vector<uint8_t> block = v.ReadPlain(target);
    // Block numbers a hostile pointer aims at: past the end, inside the
    // metadata region, the chain's own blocks.
    const uint32_t hostile_ptrs[] = {
        static_cast<uint32_t>(kChainBlocks + rng.Uniform(1u << 20)),
        static_cast<uint32_t>(rng.Uniform(v.layout.data_start)),
        static_cast<uint32_t>(chain[0]), static_cast<uint32_t>(target),
        static_cast<uint32_t>(rng.Next())};
    const uint32_t hostile =
        hostile_ptrs[rng.Uniform(sizeof(hostile_ptrs) / sizeof(uint32_t))];
    switch (i % 7) {
      case 0: {  // ciphertext garbage
        std::vector<uint8_t> raw = RandomBytes(&rng, kChainBs);
        ASSERT_TRUE(v.cache.Write(target, raw.data()).ok());
        break;
      }
      case 1: {  // ciphertext bit flips
        std::vector<uint8_t> raw(kChainBs);
        ASSERT_TRUE(v.cache.Read(target, raw.data()).ok());
        FlipBits(&raw, &rng);
        ASSERT_TRUE(v.cache.Write(target, raw.data()).ok());
        break;
      }
      case 2:  // authentic garbage: next pointer, stripe count and entries
        rng.FillBytes(block.data(), block.size());
        v.WritePlain(target, block, /*fix_sum=*/true);
        break;
      case 3:  // authentic bit flips anywhere in the block
        FlipBits(&block, &rng);
        v.WritePlain(target, block, /*fix_sum=*/true);
        break;
      case 4: {  // an authentic entry whose parity pointer is hostile
        block = v.ReadPlain(chain[0]);
        // Stripe 0 is the one the rewrite below re-encodes.
        const size_t s = rng.Uniform(2) ? 0 : rng.Uniform(stripes_in_head);
        EncodeFixed32(block.data() + kChainHeader + 4 + s * entry + 4,
                      hostile);
        v.WritePlain(chain[0], block, /*fix_sum=*/true);
        break;
      }
      case 5: {  // a cycle, optionally behind a huge stripe count
        EncodeFixed32(block.data(), static_cast<uint32_t>(
                                        rng.Uniform(2) ? target : chain[0]));
        if (target == chain[0] && rng.Uniform(2)) {
          EncodeFixed32(block.data() + kChainHeader, (1u << 24) - 1);
        }
        v.WritePlain(target, block, /*fix_sum=*/true);
        break;
      }
      default:  // truncated: the head's next pointer is gone or hostile
        block = v.ReadPlain(chain[0]);
        EncodeFixed32(block.data(), rng.Uniform(2) ? 0 : hostile);
        v.WritePlain(chain[0], block, /*fix_sum=*/false);
        break;
    }

    auto obj = HiddenObject::Open(v.vol, kChainObj, kChainKey);
    if (!obj.ok()) continue;  // a clean Status is an acceptable outcome
    ++opened;
    // No more stripes than the two chain blocks hold can come out of the
    // map: more would mean chunks read from outside the chain (a cycle
    // re-reading one block, for instance).
    EXPECT_LE((*obj)->StripeCountForTesting(), max_stripes)
        << "case " << i % 7;
    auto content = (*obj)->ReadAll();
    if (content.ok()) {
      ++read_ok;
      EXPECT_TRUE(*content == data) << "case " << i % 7;
    }
    // Half the runs rewrite before the scrub has replaced what it
    // distrusts, half after.
    RedundancyScrubReport report;
    const bool scrub_first = (i / 7) % 2 == 0;
    if (scrub_first) (void)(*obj)->ScrubShares(&report);
    if ((*obj)->Write(0, "rewritten").ok() && (*obj)->Sync().ok()) {
      auto again = (*obj)->ReadAll();
      if (again.ok()) {
        EXPECT_EQ(again->substr(0, 9), "rewritten") << "case " << i % 7;
        EXPECT_EQ(again->substr(9), data.substr(9)) << "case " << i % 7;
      }
    }
    if (!scrub_first) (void)(*obj)->ScrubShares(&report);
    obj->reset();
    ASSERT_TRUE(v.cache.Flush().ok());
    EXPECT_TRUE(std::equal(meta.begin(), meta.end(), v.dev.raw().begin()))
        << "case " << i % 7 << " wrote the metadata region";
  }
  // The header is untouched, so every run opens, and a map the decoder
  // rejects only costs coverage: the data shares are the file blocks.
  EXPECT_EQ(opened, 140);
  EXPECT_GT(read_ok, 100);
}

}  // namespace
}  // namespace stegfs
