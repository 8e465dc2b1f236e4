#include "core/locator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include "blockdev/mem_block_device.h"
#include "core/hidden_header.h"
#include "crypto/keys.h"
#include "util/random.h"

namespace stegfs {
namespace {

class LocatorTest : public ::testing::Test {
 protected:
  LocatorTest()
      : layout_(Layout::Compute(1024, 8192, 256)),
        dev_(layout_.block_size, layout_.num_blocks),
        cache_(&dev_, 256),
        bitmap_(layout_),
        locator_(&cache_, &bitmap_, layout_, 1000) {}

  // Writes a minimal valid header for (name, key) at `block`, encrypted.
  void PlantHeader(const std::string& name, const std::string& key,
                   uint64_t block) {
    HiddenHeader h;
    h.signature = crypto::FileSignature(name, key);
    h.type = HiddenType::kFile;
    std::vector<uint8_t> buf(layout_.block_size);
    ASSERT_TRUE(h.EncodeTo(buf.data(), buf.size()).ok());
    crypto::BlockCrypter crypter(key);
    crypter.EncryptBlock(block, buf.data(), buf.size());
    ASSERT_TRUE(cache_.Write(block, buf.data()).ok());
  }

  Layout layout_;
  MemBlockDevice dev_;
  BufferCache cache_;
  BlockBitmap bitmap_;
  HeaderLocator locator_;
};

TEST_F(LocatorTest, CandidatesStayInDataRegion) {
  CandidateSequence seq("name", "key", layout_);
  for (int i = 0; i < 1000; ++i) {
    uint64_t c = seq.Next();
    EXPECT_GE(c, layout_.data_start);
    EXPECT_LT(c, layout_.num_blocks);
  }
}

TEST_F(LocatorTest, CandidateSequenceIsDeterministic) {
  CandidateSequence a("name", "key", layout_);
  CandidateSequence b("name", "key", layout_);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST_F(LocatorTest, DifferentKeysGiveDifferentSequences) {
  CandidateSequence a("name", "key1", layout_);
  CandidateSequence b("name", "key2", layout_);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LE(same, 2);
}

TEST_F(LocatorTest, ClaimTakesFirstFreeCandidate) {
  CandidateSequence seq("obj", "k", layout_);
  uint64_t first = seq.Next();
  auto claim = locator_.ClaimHeaderBlock("obj", "k");
  ASSERT_TRUE(claim.ok());
  EXPECT_EQ(claim->header_block, first);
  EXPECT_EQ(claim->probes, 1u);
  EXPECT_TRUE(bitmap_.IsAllocated(first));
}

TEST_F(LocatorTest, ClaimSkipsOccupiedCandidates) {
  CandidateSequence seq("obj", "k", layout_);
  uint64_t first = seq.Next();
  uint64_t second = seq.Next();
  ASSERT_TRUE(bitmap_.Allocate(first).ok());
  auto claim = locator_.ClaimHeaderBlock("obj", "k");
  ASSERT_TRUE(claim.ok());
  EXPECT_EQ(claim->header_block, second);
  EXPECT_EQ(claim->probes, 2u);
}

TEST_F(LocatorTest, FindLocatesPlantedHeader) {
  auto claim = locator_.ClaimHeaderBlock("obj", "k");
  ASSERT_TRUE(claim.ok());
  PlantHeader("obj", "k", claim->header_block);

  crypto::BlockCrypter crypter("k");
  auto found = locator_.FindHeader("obj", "k", crypter);
  ASSERT_TRUE(found.ok()) << found.status().ToString();
  EXPECT_EQ(found->header_block, claim->header_block);
}

TEST_F(LocatorTest, FindSkipsForeignAllocatedBlocks) {
  // Occupy the first candidate with somebody else's (random) data.
  CandidateSequence seq("obj", "k", layout_);
  uint64_t first = seq.Next();
  ASSERT_TRUE(bitmap_.Allocate(first).ok());
  std::vector<uint8_t> noise(layout_.block_size, 0x5c);
  ASSERT_TRUE(cache_.Write(first, noise.data()).ok());

  auto claim = locator_.ClaimHeaderBlock("obj", "k");
  ASSERT_TRUE(claim.ok());
  PlantHeader("obj", "k", claim->header_block);

  crypto::BlockCrypter crypter("k");
  auto found = locator_.FindHeader("obj", "k", crypter);
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(found->header_block, claim->header_block);
  EXPECT_EQ(found->probes, 2u);
}

TEST_F(LocatorTest, WrongKeyFindsNothing) {
  auto claim = locator_.ClaimHeaderBlock("obj", "k");
  ASSERT_TRUE(claim.ok());
  PlantHeader("obj", "k", claim->header_block);

  crypto::BlockCrypter wrong("wrong-key");
  EXPECT_TRUE(
      locator_.FindHeader("obj", "wrong-key", wrong).status().IsNotFound());
}

TEST_F(LocatorTest, MissingObjectIsNotFoundWithinProbeLimit) {
  crypto::BlockCrypter crypter("k");
  auto found = locator_.FindHeader("never-created", "k", crypter);
  EXPECT_TRUE(found.status().IsNotFound());
}

TEST_F(LocatorTest, ClaimFailsOnFullVolume) {
  // Allocate every data block.
  for (uint64_t b = layout_.data_start; b < layout_.num_blocks; ++b) {
    ASSERT_TRUE(bitmap_.Allocate(b).ok());
  }
  EXPECT_TRUE(locator_.ClaimHeaderBlock("x", "y").status().IsNoSpace());
}

// A checking claim reads the allocated candidates it steps over and
// refuses, claiming nothing, when one holds this (name, key)'s header.
TEST_F(LocatorTest, CheckingClaimRejectsSteppedOverHeader) {
  auto claim = locator_.ClaimHeaderBlock("obj", "k");
  ASSERT_TRUE(claim.ok());
  PlantHeader("obj", "k", claim->header_block);
  const uint64_t free_before = bitmap_.free_count();

  crypto::BlockCrypter crypter("k");
  EXPECT_TRUE(locator_.ClaimHeaderBlock("obj", "k", &crypter)
                  .status()
                  .IsAlreadyExists());
  EXPECT_EQ(bitmap_.free_count(), free_before);
  // Another key's sequence and signature differ: its claim goes through.
  crypto::BlockCrypter other("k2");
  EXPECT_TRUE(locator_.ClaimHeaderBlock("obj", "k2", &other).ok());
}

TEST_F(LocatorTest, CheckingClaimStepsOverForeignBlocks) {
  CandidateSequence seq("obj", "k", layout_);
  const uint64_t first = seq.Next();
  const uint64_t second = seq.Next();
  ASSERT_TRUE(bitmap_.Allocate(first).ok());
  std::vector<uint8_t> noise(layout_.block_size, 0x5c);
  ASSERT_TRUE(cache_.Write(first, noise.data()).ok());

  crypto::BlockCrypter crypter("k");
  auto claim = locator_.ClaimHeaderBlock("obj", "k", &crypter);
  ASSERT_TRUE(claim.ok()) << claim.status().ToString();
  EXPECT_EQ(claim->header_block, second);
  EXPECT_EQ(claim->probes, 2u);
}

// More stepped-over candidates than one probe batch holds: the batches
// checked on the way (not only the last one) are matched too.
TEST_F(LocatorTest, CheckingClaimSeesHeaderPastOneBatch) {
  CandidateSequence seq("obj", "k", layout_);
  std::vector<uint64_t> run;
  while (run.size() < 600) {
    const uint64_t c = seq.Next();
    if (bitmap_.IsAllocated(c)) continue;  // the sequence may repeat
    ASSERT_TRUE(bitmap_.Allocate(c).ok());
    run.push_back(c);
  }
  PlantHeader("obj", "k", run[100]);
  crypto::BlockCrypter crypter("k");
  EXPECT_TRUE(locator_.ClaimHeaderBlock("obj", "k", &crypter)
                  .status()
                  .IsAlreadyExists());
}

TEST_F(LocatorTest, TwoObjectsCoexistOnOverlappingChains) {
  // Create many objects; all must remain locatable.
  crypto::BlockCrypter crypters[8] = {
      crypto::BlockCrypter("k0"), crypto::BlockCrypter("k1"),
      crypto::BlockCrypter("k2"), crypto::BlockCrypter("k3"),
      crypto::BlockCrypter("k4"), crypto::BlockCrypter("k5"),
      crypto::BlockCrypter("k6"), crypto::BlockCrypter("k7")};
  for (int i = 0; i < 8; ++i) {
    std::string name = "obj" + std::to_string(i);
    std::string key = "k" + std::to_string(i);
    auto claim = locator_.ClaimHeaderBlock(name, key);
    ASSERT_TRUE(claim.ok());
    PlantHeader(name, key, claim->header_block);
  }
  for (int i = 0; i < 8; ++i) {
    std::string name = "obj" + std::to_string(i);
    std::string key = "k" + std::to_string(i);
    EXPECT_TRUE(locator_.FindHeader(name, key, crypters[i]).ok()) << i;
  }
}

// The one-candidate-at-a-time walk that FindHeader's windowed walk
// replaced: every allocated candidate is read through the cache and
// decrypted whole. The reference the windowed walk must match exactly.
StatusOr<LocateResult> SequentialFind(BufferCache* cache, BlockBitmap* bitmap,
                                      const Layout& layout,
                                      uint32_t probe_limit,
                                      const std::string& name,
                                      const std::string& key) {
  crypto::BlockCrypter crypter(key);
  CandidateSequence seq(name, key, layout);
  crypto::Sha256Digest expect = crypto::FileSignature(name, key);
  std::vector<uint8_t> buf(layout.block_size);
  LocateResult result;
  for (uint32_t i = 0; i < probe_limit; ++i) {
    uint64_t candidate = seq.Next();
    ++result.probes;
    if (!bitmap->IsAllocated(candidate)) continue;
    STEGFS_RETURN_IF_ERROR(cache->Read(candidate, buf.data()));
    crypter.DecryptBlock(candidate, buf.data(), buf.size());
    if (std::memcmp(buf.data(), expect.data(), expect.size()) == 0) {
      result.header_block = candidate;
      return result;
    }
  }
  return Status::NotFound("not found");
}

// A volume whose data region is `fill` allocated with seeded foreign
// noise written straight to the device (so probes of it miss the cache),
// behind a 256-block write-back cache.
struct SeededVolume {
  SeededVolume(double fill, uint64_t seed)
      : layout(Layout::Compute(1024, 8192, 256)),
        dev(layout.block_size, layout.num_blocks),
        cache(&dev, 256),
        bitmap(layout) {
    Xoshiro rng(seed);
    std::vector<uint8_t> noise(layout.block_size);
    for (uint64_t b = layout.data_start; b < layout.num_blocks; ++b) {
      if (!rng.Bernoulli(fill)) continue;
      EXPECT_TRUE(bitmap.Allocate(b).ok());
      rng.FillBytes(noise.data(), noise.size());
      EXPECT_TRUE(dev.WriteBlock(b, noise.data()).ok());
    }
  }

  // Writes (name, key)'s encrypted header at `block` through the cache,
  // where it stays a dirty entry until evicted.
  void PlantHeader(const std::string& name, const std::string& key,
                   uint64_t block) {
    HiddenHeader h;
    h.signature = crypto::FileSignature(name, key);
    h.type = HiddenType::kFile;
    std::vector<uint8_t> buf(layout.block_size);
    ASSERT_TRUE(h.EncodeTo(buf.data(), buf.size()).ok());
    crypto::BlockCrypter(key).EncryptBlock(block, buf.data(), buf.size());
    ASSERT_TRUE(cache.Write(block, buf.data()).ok());
  }

  // Plants the header at exactly probe position `p` of (name, key)'s
  // sequence: every earlier candidate becomes allocated foreign noise.
  // Returns 0 when the p-th candidate repeats an earlier one (the header
  // would then be found earlier); callers pick another name.
  uint64_t PlantAtProbe(const std::string& name, const std::string& key,
                        uint32_t p) {
    CandidateSequence seq(name, key, layout);
    std::vector<uint64_t> c(p);
    for (uint64_t& b : c) b = seq.Next();
    for (uint32_t i = 0; i + 1 < p; ++i) {
      if (c[i] == c[p - 1]) return 0;
    }
    std::vector<uint8_t> noise(layout.block_size, 0xa7);
    for (uint32_t i = 0; i + 1 < p; ++i) {
      if (bitmap.IsAllocated(c[i])) continue;
      EXPECT_TRUE(bitmap.Allocate(c[i]).ok());
      EXPECT_TRUE(dev.WriteBlock(c[i], noise.data()).ok());
    }
    if (!bitmap.IsAllocated(c[p - 1])) {
      EXPECT_TRUE(bitmap.Allocate(c[p - 1]).ok());
    }
    PlantHeader(name, key, c[p - 1]);
    return c[p - 1];
  }

  // FindHeader under `probe_limit`, checked against SequentialFind.
  StatusOr<LocateResult> FindChecked(const std::string& name,
                                     const std::string& key,
                                     uint32_t probe_limit) {
    HeaderLocator locator(&cache, &bitmap, layout, probe_limit);
    auto got = locator.FindHeader(name, key, crypto::BlockCrypter(key));
    auto want =
        SequentialFind(&cache, &bitmap, layout, probe_limit, name, key);
    EXPECT_EQ(got.ok(), want.ok()) << name;
    if (!got.ok() || !want.ok()) {
      EXPECT_TRUE(got.status().IsNotFound()) << got.status().ToString();
      EXPECT_TRUE(want.status().IsNotFound()) << want.status().ToString();
      return got;
    }
    EXPECT_EQ(got->header_block, want->header_block) << name;
    EXPECT_EQ(got->probes, want->probes) << name;
    return got;
  }

  Layout layout;
  MemBlockDevice dev;
  BufferCache cache;
  BlockBitmap bitmap;
};

TEST(LocatorWindowTest, MatchesSequentialWalkOnSeededVolumes) {
  for (double fill : {0.5, 0.9, 0.99}) {
    SCOPED_TRACE(fill);
    SeededVolume v(fill, 0x10ca7e);
    HeaderLocator claimer(&v.cache, &v.bitmap, v.layout, 10000);
    for (int i = 0; i < 24; ++i) {
      const std::string name = "obj" + std::to_string(i);
      const std::string key = "k" + std::to_string(i);
      auto claim = claimer.ClaimHeaderBlock(name, key);
      ASSERT_TRUE(claim.ok()) << claim.status().ToString();
      v.PlantHeader(name, key, claim->header_block);
    }
    uint32_t deepest = 0;
    for (int i = 0; i < 24; ++i) {
      const std::string name = "obj" + std::to_string(i);
      auto found = v.FindChecked(name, "k" + std::to_string(i), 10000);
      ASSERT_TRUE(found.ok()) << name;
      deepest = std::max(deepest, found->probes);
    }
    if (fill == 0.99) {
      EXPECT_GT(deepest, 256u);  // past the window cap
    }

    // Walks that end NotFound, and the cache they leave behind.
    const CacheStats before = v.cache.stats();
    const size_t cached = v.cache.size();
    for (int i = 0; i < 4; ++i) {
      HeaderLocator locator(&v.cache, &v.bitmap, v.layout, 10000);
      const std::string name = "absent" + std::to_string(i);
      auto found = locator.FindHeader(name, "k", crypto::BlockCrypter("k"));
      EXPECT_TRUE(found.status().IsNotFound());
    }
    const CacheStats after = v.cache.stats();
    EXPECT_EQ(after.hits, before.hits);
    EXPECT_EQ(after.misses, before.misses);
    EXPECT_EQ(after.evictions, before.evictions);
    EXPECT_EQ(v.cache.size(), cached);
    for (int i = 0; i < 4; ++i) {
      v.FindChecked("absent" + std::to_string(i), "k", 10000);
    }
  }
}

TEST(LocatorWindowTest, HeadersAtWindowEdgesReportTheirProbe) {
  // Windows are 16, 32, 64, ...: probes 16/17 and 48/49 straddle the
  // first two window boundaries.
  for (uint32_t p : {1u, 16u, 17u, 48u, 49u}) {
    SCOPED_TRACE(p);
    SeededVolume v(0.0, p);
    std::string name;
    uint64_t block = 0;
    for (int attempt = 0; block == 0; ++attempt) {
      name = "edge" + std::to_string(p) + "-" + std::to_string(attempt);
      block = v.PlantAtProbe(name, "key", p);
    }
    auto found = v.FindChecked(name, "key", 1000);
    ASSERT_TRUE(found.ok());
    EXPECT_EQ(found->header_block, block);
    EXPECT_EQ(found->probes, p);
  }
}

TEST(LocatorWindowTest, FirstMatchInSequenceOrderWins) {
  // Two valid images of one header inside the same 32-wide window: the
  // earlier sequence position wins, as in the sequential walk.
  SeededVolume v(0.0, 3);
  std::string name;
  uint64_t earlier = 0;
  for (int attempt = 0; earlier == 0; ++attempt) {
    name = "twice-" + std::to_string(attempt);
    CandidateSequence seq(name, "key", v.layout);
    std::vector<uint64_t> c(30);
    for (uint64_t& b : c) b = seq.Next();
    // Probe 20 must be the first visit of its block, and 30 another block.
    if (std::find(c.begin(), c.begin() + 19, c[19]) != c.begin() + 19 ||
        std::find(c.begin(), c.end() - 1, c[29]) != c.end() - 1) {
      continue;
    }
    ASSERT_NE(v.PlantAtProbe(name, "key", 30), 0u);
    earlier = c[19];
  }
  v.PlantHeader(name, "key", earlier);
  auto found = v.FindChecked(name, "key", 1000);
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(found->header_block, earlier);
  EXPECT_EQ(found->probes, 20u);
}

TEST(LocatorWindowTest, ProbeLimitCutsInsideAWindow) {
  // 99 = 16 + 32 + 51: the limit falls inside the 64-wide third window.
  SeededVolume v(0.5, 11);
  std::string name;
  uint64_t block = 0;
  for (int attempt = 0; block == 0; ++attempt) {
    name = "limit-" + std::to_string(attempt);
    block = v.PlantAtProbe(name, "key", 100);
  }
  EXPECT_TRUE(v.FindChecked(name, "key", 99).status().IsNotFound());
  auto found = v.FindChecked(name, "key", 100);
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(found->header_block, block);
  EXPECT_EQ(found->probes, 100u);
}

TEST(LocatorWindowTest, FindsHeaderHeldOnlyAsDirtyCacheEntry) {
  SeededVolume v(0.9, 5);
  HeaderLocator claimer(&v.cache, &v.bitmap, v.layout, 10000);
  auto claim = claimer.ClaimHeaderBlock("dirty", "key");
  ASSERT_TRUE(claim.ok());
  v.PlantHeader("dirty", "key", claim->header_block);
  ASSERT_EQ(v.cache.dirty_count(), 1u);
  // The device never saw the header: its copy carries no signature.
  std::vector<uint8_t> raw(v.layout.block_size);
  ASSERT_TRUE(v.dev.ReadBlock(claim->header_block, raw.data()).ok());
  crypto::BlockCrypter("key").DecryptBlock(claim->header_block, raw.data(),
                                           raw.size());
  const crypto::Sha256Digest sig = crypto::FileSignature("dirty", "key");
  ASSERT_NE(std::memcmp(raw.data(), sig.data(), sig.size()), 0);

  auto found = v.FindChecked("dirty", "key", 10000);
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(found->header_block, claim->header_block);
  EXPECT_EQ(found->probes, claim->probes);
}

TEST(LocatorWindowTest, ConcurrentFindsMatchWhileOthersRead) {
  // Read-parallel probing: many threads walk (found and NotFound) while
  // another thread churns demand reads through the same cache.
  SeededVolume v(0.9, 21);
  HeaderLocator claimer(&v.cache, &v.bitmap, v.layout, 10000);
  std::vector<LocateResult> claims;
  for (int i = 0; i < 8; ++i) {
    auto claim = claimer.ClaimHeaderBlock("c" + std::to_string(i), "key");
    ASSERT_TRUE(claim.ok());
    v.PlantHeader("c" + std::to_string(i), "key", claim->header_block);
    claims.push_back(*claim);
  }
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    std::vector<uint8_t> buf(v.layout.block_size);
    for (uint64_t b = v.layout.data_start; !stop.load(); ++b) {
      if (b >= v.layout.num_blocks) b = v.layout.data_start;
      EXPECT_TRUE(v.cache.Read(b, buf.data()).ok());
    }
  });
  std::vector<std::thread> finders;
  for (int t = 0; t < 4; ++t) {
    finders.emplace_back([&, t] {
      HeaderLocator locator(&v.cache, &v.bitmap, v.layout, 2000);
      for (int round = 0; round < 8; ++round) {
        const int i = (t + round) % 8;
        auto found = locator.FindHeader("c" + std::to_string(i), "key",
                                        crypto::BlockCrypter("key"));
        ASSERT_TRUE(found.ok());
        EXPECT_EQ(found->header_block, claims[i].header_block);
        EXPECT_EQ(found->probes, claims[i].probes);
        EXPECT_TRUE(locator
                        .FindHeader("none" + std::to_string(t), "key",
                                    crypto::BlockCrypter("key"))
                        .status()
                        .IsNotFound());
      }
    });
  }
  for (std::thread& f : finders) f.join();
  stop.store(true);
  reader.join();
}

}  // namespace
}  // namespace stegfs
