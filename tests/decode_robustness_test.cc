// Decode-robustness suite: every on-disk / wire decoder is fed adversarial
// byte soup — random garbage, truncations, and bit-flipped valid encodings.
// Decoders must return clean Status errors (or, for random garbage that
// happens to parse, yield structurally bounded values); they must never
// crash, hang, or over-read. These are deterministic pseudo-fuzz loops — a
// seized disk is attacker-controlled input, so this is part of the threat
// model, not just hygiene.
#include <gtest/gtest.h>

#include <cstring>

#include "blockdev/mem_block_device.h"
#include "core/backup.h"
#include "core/hidden_directory.h"
#include "core/hidden_header.h"
#include "crypto/rsa.h"
#include "crypto/sha256.h"
#include "fs/layout.h"
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

}  // namespace
}  // namespace stegfs
