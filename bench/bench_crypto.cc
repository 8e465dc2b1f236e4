// Ablation A5: crypto throughput.
//
// Backs the paper's section 5.1 claim that decryption cost is insignificant
// relative to I/O: "a 2 MBytes file can be decrypted in less than 120 ms on
// our test system, whereas the I/Os take at least 2 seconds".
//
// Uses Google Benchmark when the build found it (STEGFS_USE_GBENCH);
// otherwise the plain-chrono harness in chrono_benchmark.h, so this binary
// builds and runs everywhere CI does.
#ifdef STEGFS_USE_GBENCH
#include <benchmark/benchmark.h>
#else
#include "bench/chrono_benchmark.h"
#endif

#include <string>
#include <vector>

#include "crypto/aes.h"
#include "crypto/block_crypter.h"
#include "crypto/prng.h"
#include "crypto/rsa.h"
#include "crypto/sha256.h"

using namespace stegfs;

static void BM_AesEncryptBlock(benchmark::State& state) {
  std::vector<uint8_t> key(32, 0x5a);
  crypto::Aes aes(key.data(), key.size());
  uint8_t block[16] = {0};
  for (auto _ : state) {
    aes.EncryptBlock(block, block);
    benchmark::DoNotOptimize(block);
  }
  state.SetBytesProcessed(state.iterations() * 16);
}
BENCHMARK(BM_AesEncryptBlock);

// The two dispatch tiers head to head on the ECB batch entry point (the
// shape the ESSIV IV derivation and CBC decrypt paths use).
static void BM_AesEcbBatchTier(benchmark::State& state, crypto::AesTier tier) {
  crypto::AesTier saved = crypto::ActiveAesTier();
  if (!crypto::SetAesTier(tier)) {
    state.SkipWithError("tier unsupported on this CPU");
    return;
  }
  std::vector<uint8_t> key(32, 0x5a);
  crypto::Aes aes(key.data(), key.size());
  std::vector<uint8_t> buf(64 * 16, 0x3c);
  for (auto _ : state) {
    aes.EncryptBlocksEcb(buf.data(), buf.data(), 64);
    benchmark::DoNotOptimize(buf.data());
  }
  state.SetBytesProcessed(state.iterations() * buf.size());
  crypto::SetAesTier(saved);
}
static void BM_AesEcbBatch_TTable(benchmark::State& state) {
  BM_AesEcbBatchTier(state, crypto::AesTier::kTable);
}
BENCHMARK(BM_AesEcbBatch_TTable);
static void BM_AesEcbBatch_AesNi(benchmark::State& state) {
  BM_AesEcbBatchTier(state, crypto::AesTier::kAesNi);
}
BENCHMARK(BM_AesEcbBatch_AesNi);

// The batched block path: 16 device blocks per call, the shape
// EncryptedBlockStore issues for a whole extent.
static void BM_BlockCrypterEncryptBatch16(benchmark::State& state) {
  crypto::BlockCrypter crypter("bench-key");
  const size_t kBlock = 4096, kN = 16;
  std::vector<uint8_t> data(kBlock * kN);
  std::vector<crypto::CryptSpan> spans(kN);
  for (size_t i = 0; i < kN; ++i) {
    spans[i] = {1000 + i * 7, data.data() + i * kBlock};
  }
  for (auto _ : state) {
    crypter.EncryptBlocks(spans.data(), kN, kBlock);
    benchmark::DoNotOptimize(data.data());
  }
  state.SetBytesProcessed(state.iterations() * data.size());
}
BENCHMARK(BM_BlockCrypterEncryptBatch16);

static void BM_BlockCrypterDecryptBatch16(benchmark::State& state) {
  crypto::BlockCrypter crypter("bench-key");
  const size_t kBlock = 4096, kN = 16;
  std::vector<uint8_t> data(kBlock * kN);
  std::vector<crypto::CryptSpan> spans(kN);
  for (size_t i = 0; i < kN; ++i) {
    spans[i] = {1000 + i * 7, data.data() + i * kBlock};
  }
  for (auto _ : state) {
    crypter.DecryptBlocks(spans.data(), kN, kBlock);
    benchmark::DoNotOptimize(data.data());
  }
  state.SetBytesProcessed(state.iterations() * data.size());
}
BENCHMARK(BM_BlockCrypterDecryptBatch16);

static void BM_BlockCrypterEncrypt(benchmark::State& state) {
  crypto::BlockCrypter crypter("bench-key");
  std::vector<uint8_t> block(state.range(0));
  for (auto _ : state) {
    crypter.EncryptBlock(7, block.data(), block.size());
    benchmark::DoNotOptimize(block.data());
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BlockCrypterEncrypt)->Arg(512)->Arg(1024)->Arg(4096)->Arg(65536);

static void BM_BlockCrypterDecrypt(benchmark::State& state) {
  crypto::BlockCrypter crypter("bench-key");
  std::vector<uint8_t> block(state.range(0));
  for (auto _ : state) {
    crypter.DecryptBlock(7, block.data(), block.size());
    benchmark::DoNotOptimize(block.data());
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BlockCrypterDecrypt)->Arg(1024)->Arg(65536);

// The paper's example: decrypting a whole 2 MB file.
static void BM_Decrypt2MBFile(benchmark::State& state) {
  crypto::BlockCrypter crypter("bench-key");
  std::vector<uint8_t> file(2 << 20);
  for (auto _ : state) {
    for (size_t off = 0; off < file.size(); off += 1024) {
      crypter.DecryptBlock(off / 1024, file.data() + off, 1024);
    }
    benchmark::DoNotOptimize(file.data());
  }
  state.SetBytesProcessed(state.iterations() * file.size());
}
BENCHMARK(BM_Decrypt2MBFile)->Unit(benchmark::kMillisecond);

// The two SHA-256 tiers head to head. 32 bytes is a hash-chain step or a
// signature, 4080 bytes a hidden-header checksum, the two shapes every
// connect hashes.
static void BM_Sha256Tier(benchmark::State& state, crypto::ShaTier tier) {
  crypto::ShaTier saved = crypto::ActiveShaTier();
  if (!crypto::SetShaTier(tier)) {
    state.SkipWithError("tier unsupported on this CPU");
    return;
  }
  std::string data(state.range(0), 'x');
  for (auto _ : state) {
    auto digest = crypto::Sha256::Hash(data);
    benchmark::DoNotOptimize(digest);
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
  crypto::SetShaTier(saved);
}
static void BM_Sha256_Portable(benchmark::State& state) {
  BM_Sha256Tier(state, crypto::ShaTier::kPortable);
}
BENCHMARK(BM_Sha256_Portable)->Arg(32)->Arg(64)->Arg(1024)->Arg(4080)->Arg(65536);
static void BM_Sha256_ShaNi(benchmark::State& state) {
  BM_Sha256Tier(state, crypto::ShaTier::kShaNi);
}
BENCHMARK(BM_Sha256_ShaNi)->Arg(32)->Arg(64)->Arg(1024)->Arg(4080)->Arg(65536);

// One BlockCrypter construction, as each hidden-object open pays it: two
// HKDF expansions and two AES-256 key schedules.
static void BM_BlockCrypterSetup(benchmark::State& state) {
  const std::string key(32, 'k');
  for (auto _ : state) {
    crypto::BlockCrypter crypter(key);
    benchmark::DoNotOptimize(&crypter);
  }
}
BENCHMARK(BM_BlockCrypterSetup);

static void BM_HashChainPrng(benchmark::State& state) {
  crypto::HashChainPrng prng(crypto::Sha256::Hash("seed"), 1 << 20);
  for (auto _ : state) {
    benchmark::DoNotOptimize(prng.Next());
  }
}
BENCHMARK(BM_HashChainPrng);

static void BM_RsaEncrypt(benchmark::State& state) {
  auto pair = crypto::RsaGenerateKeyPair(512, "bench-keypair");
  if (!pair.ok()) {
    state.SkipWithError("keygen failed");
    return;
  }
  std::string msg = "objname=budget.xls fak=0123456789abcdef0123456789abcdef";
  int i = 0;
  for (auto _ : state) {
    auto ct = crypto::RsaEncrypt(pair->public_key, msg,
                                 "entropy" + std::to_string(i++));
    benchmark::DoNotOptimize(ct);
  }
}
BENCHMARK(BM_RsaEncrypt)->Unit(benchmark::kMillisecond);

static void BM_RsaDecrypt(benchmark::State& state) {
  auto pair = crypto::RsaGenerateKeyPair(512, "bench-keypair");
  if (!pair.ok()) {
    state.SkipWithError("keygen failed");
    return;
  }
  auto ct = crypto::RsaEncrypt(pair->public_key, "shared-entry", "e");
  for (auto _ : state) {
    auto pt = crypto::RsaDecrypt(pair->private_key, ct.value());
    benchmark::DoNotOptimize(pt);
  }
}
BENCHMARK(BM_RsaDecrypt)->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
