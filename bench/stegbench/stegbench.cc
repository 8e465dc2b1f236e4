// stegbench: the repository's end-to-end and per-layer benchmark.
//
// One process runs one closed-loop workload (one client thread per
// session) against fresh StegFS volumes mounted with the C API's policy
// (ShippedMountOptions), checks every read against a seeded content
// oracle, remounts, runs Fsck, reads every object back, and prints one
// JSON result line last on stdout.
//
//   stegbench --workload W --seed N --seconds S --trace 0|1
//             [--trace-json PATH]
//
// --trace 0 reports the end-to-end metrics; --trace 1 reports the
// per-layer metrics (registry deltas over the window, plus slow-op span
// attribution from the second, traced half of the window). The metric
// dictionary and the reason for each workload are in README.md.
#include <cpuid.h>
#include <sys/mman.h>
#include <sys/resource.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "blockdev/file_block_device.h"
#include "blockdev/mem_block_device.h"
#include "blockdev/throttled_block_device.h"
#include "core/stegfs.h"
#include "crypto/aes.h"
#include "crypto/gf256_simd.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/random.h"

using namespace stegfs;

namespace {

constexpr uint32_t kBlockSize = 4096;
constexpr uint64_t kMiB = 1 << 20;
constexpr int kSetupReps = 3;  // setup_s is the median of these
constexpr int kSlices = 5;     // window slices; rates and percentiles are
                               // medians over slices

// ---------------------------------------------------------------------------
// The policy users get: steg_mkfs's journal ring and MountOn's options in
// src/capi/steg_api.cc. A change to that policy needs the same change here
// and a new baseline.
// ---------------------------------------------------------------------------
// The format entropy is fixed, not seeded: every run lays out the same
// volume, and the seed varies only the data and the op streams. Header
// depths are geometric draws, so a seeded layout would move connect
// latency between seeds by more than any change worth measuring.
StegFormatOptions ShippedFormatOptions() {
  StegFormatOptions o;
  o.entropy = "stegbench";
  o.journal_blocks = 64;
  return o;
}

StegFsOptions ShippedMountOptions() {
  StegFsOptions o;
  o.mount.io_engine = IoEngine::kAuto;
  o.mount.readahead_blocks = 16;
  o.mount.durability = Durability::kJournal;
  // cache_blocks (4096) and fault.enabled (the retry layer) keep their
  // defaults, as MountOn leaves them.
  return o;
}

// ---------------------------------------------------------------------------
// Content oracle
// ---------------------------------------------------------------------------
uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// A file as the benchmark models it: a name (hidden object name or plain
// path) and the version of each 4 KiB block.
struct Obj {
  uint64_t id = 0;
  std::string name;
  std::vector<uint32_t> ver;
};

// The bytes of (object, block, version) are a pure function of the seed,
// so every read is checked without keeping a copy of the data.
class Oracle {
 public:
  explicit Oracle(uint64_t seed) : seed_(seed) {}

  // Safe to call from several client threads.
  Obj NewObj(std::string name, uint64_t blocks) {
    return Obj{next_id_.fetch_add(1), std::move(name),
               std::vector<uint32_t>(blocks, 1)};
  }

  // Bytes of blocks [b0, b0 + n) at their current versions.
  std::string Content(const Obj& o, uint64_t b0, uint64_t n) const {
    std::string s(n * kBlockSize, '\0');
    for (uint64_t i = 0; i < n; ++i) {
      const uint64_t key = Key(o, b0 + i);
      for (size_t w = 0; w < kBlockSize / 8; ++w) {
        const uint64_t v = Mix(key + w);
        std::memcpy(&s[i * kBlockSize + w * 8], &v, 8);
      }
    }
    return s;
  }

  bool Matches(const Obj& o, uint64_t b0, uint64_t n,
               const std::string& data) const {
    if (data.size() != n * kBlockSize) return false;
    for (uint64_t i = 0; i < n; ++i) {
      const uint64_t key = Key(o, b0 + i);
      for (size_t w = 0; w < kBlockSize / 8; ++w) {
        uint64_t got;
        std::memcpy(&got, &data[i * kBlockSize + w * 8], 8);
        if (got != Mix(key + w)) return false;
      }
    }
    return true;
  }

 private:
  uint64_t Key(const Obj& o, uint64_t b) const {
    return Mix(seed_ ^ Mix(o.id ^ Mix((b << 32) | o.ver[b])));
  }

  uint64_t seed_;
  std::atomic<uint64_t> next_id_{1};
};

// ---------------------------------------------------------------------------
// Clients and samples
// ---------------------------------------------------------------------------
enum Kind : uint8_t { kRead, kWrite, kSync, kConnect, kCreate, kNumKinds };
const char* const kKindName[kNumKinds] = {"read", "write", "sync", "connect",
                                          "create"};
const char* const kSpanName[kNumKinds] = {"bench.read", "bench.write",
                                          "bench.sync", "bench.connect",
                                          "bench.create"};

struct Sample {
  uint64_t end_ns;
  uint32_t dur_ns;  // clamped at ~4.3 s
  uint16_t probes;  // kConnect: locator probes of the connected object
  Kind kind;
  bool op : 1;  // a top-level operation (nested calls are not)
  bool ok : 1;
};

// One session: a uid, its key, its objects, and its own op stream.
struct Client {
  Client(int i, uint64_t seed)
      : uid("u" + std::to_string(i)),
        uak("uak-" + std::to_string(i)),
        rng(Mix(seed ^ Mix(i + 1))) {}

  std::string uid;
  std::string uak;
  Xoshiro rng;
  std::vector<Obj> objs;
  // A deque grows by fixed chunks, so the benchmark's own memory grows
  // with the op count alone and peak_rss_mb does not jump with vector
  // doubling.
  std::deque<Sample> samples;
  uint64_t loops = 0;
  bool mismatch = false;
};

// Runs fn(client) on one thread per client; returns the first failure.
Status ForEachClient(std::vector<Client>* clients,
                     const std::function<Status(Client*)>& fn) {
  std::vector<Status> st(clients->size());
  std::vector<std::thread> threads;
  for (size_t i = 0; i < clients->size(); ++i) {
    threads.emplace_back([&, i] { st[i] = fn(&(*clients)[i]); });
  }
  for (std::thread& t : threads) t.join();
  for (const Status& s : st) STEGFS_RETURN_IF_ERROR(s);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Volumes
// ---------------------------------------------------------------------------
// Images live in anonymous memory files (memfd, the tmpfs that backs
// /dev/shm) behind the FileBlockDevice users get, so the numbers are this
// host's memory and syscall latency, not a disk's, and no image touches a
// file system. durable_commit uses ThrottledBlockDevice over
// MemBlockDevice instead, to give every barrier a fixed cost.
struct Volume {
  Volume() = default;
  Volume(const Volume&) = delete;
  Volume& operator=(const Volume&) = delete;
  ~Volume() {
    fs.reset();
    throttled.reset();
    raw.reset();
    if (memfd >= 0) close(memfd);
  }

  BlockDevice* device() {
    return throttled ? static_cast<BlockDevice*>(throttled.get()) : raw.get();
  }

  Status Mount() {
    STEGFS_ASSIGN_OR_RETURN(fs, StegFs::Mount(device(), ShippedMountOptions()));
    return Status::OK();
  }

  Status Remount() {
    STEGFS_RETURN_IF_ERROR(fs->Flush());
    fs.reset();
    return Mount();
  }

  int memfd = -1;
  std::unique_ptr<BlockDevice> raw;
  std::unique_ptr<ThrottledBlockDevice> throttled;
  std::unique_ptr<StegFs> fs;
};

StatusOr<std::unique_ptr<Volume>> FileVolume(uint64_t blocks) {
  auto v = std::make_unique<Volume>();
  v->memfd = memfd_create("stegbench", 0);
  if (v->memfd < 0) return Status::IOError("memfd_create failed");
  STEGFS_ASSIGN_OR_RETURN(
      v->raw, FileBlockDevice::Create(
                  "/proc/self/fd/" + std::to_string(v->memfd), kBlockSize,
                  blocks));
  STEGFS_RETURN_IF_ERROR(StegFs::Format(v->raw.get(), ShippedFormatOptions()));
  STEGFS_RETURN_IF_ERROR(v->Mount());
  return v;
}

StatusOr<std::unique_ptr<Volume>> ThrottledVolume(
    uint64_t blocks, std::chrono::microseconds sync_lat) {
  auto v = std::make_unique<Volume>();
  v->raw = std::make_unique<MemBlockDevice>(kBlockSize, blocks);
  STEGFS_RETURN_IF_ERROR(StegFs::Format(v->raw.get(), ShippedFormatOptions()));
  v->throttled = std::make_unique<ThrottledBlockDevice>(
      v->raw.get(), std::chrono::microseconds(0),
      std::chrono::microseconds(0), sync_lat);
  STEGFS_RETURN_IF_ERROR(v->Mount());
  return v;
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------
class Workload {
 public:
  Workload(uint64_t seed, int clients) : oracle_(seed) {
    for (int i = 0; i < clients; ++i) clients_.emplace_back(i, seed);
  }
  virtual ~Workload() = default;

  // Creates, formats, mounts and populates the volume.
  virtual Status Setup() = 0;
  // One closed-loop operation of client `c`.
  virtual void Step(Client* c) = 0;

  // Remounts, runs Fsck and reads every object back against the oracle.
  Status Verify() {
    STEGFS_RETURN_IF_ERROR(vol_->Remount());
    journal::FsckReport rep;
    STEGFS_RETURN_IF_ERROR(fs()->Fsck(&rep));
    if (!rep.clean) return Status::Corruption("fsck reported repairs");
    return ForEachClient(&clients_, [this](Client* c) { return ReadBack(c); });
  }

  StegFs* fs() { return vol_->fs.get(); }
  std::vector<Client>& clients() { return clients_; }
  uint64_t user_bytes() const { return user_bytes_; }
  // Probes a connect should take: the mean of 1/(1 - fill) over the
  // fills the connected objects were created at (0 where nothing is).
  double expected_probes() const { return expected_probes_; }

 protected:
  // Reads every object of `c` back after the remount.
  virtual Status ReadBack(Client* c) = 0;

  // Times fn() as one sample of `kind`. Top-level calls are operations;
  // calls nested inside one are recorded for their own latency only.
  template <typename F>
  Status Timed(Client* c, Kind kind, bool op, F&& fn) {
    const uint64_t t0 = obs::NowNanos();
    Status s;
    {
      obs::Span span(fs()->plain()->trace_recorder(), kSpanName[kind],
                     "bench");
      s = fn();
    }
    const uint64_t t1 = obs::NowNanos();
    const uint32_t dur = static_cast<uint32_t>(
        std::min<uint64_t>(t1 - t0, std::numeric_limits<uint32_t>::max()));
    c->samples.push_back({t1, dur, 0, kind, op, s.ok()});
    return s;
  }

  // Data for blocks [b0, b0 + n) of `o` at their next versions. Made, like
  // every oracle check, outside the timed calls.
  std::string NextContent(Obj* o, uint64_t b0, uint64_t n) {
    for (uint64_t b = b0; b < b0 + n; ++b) ++o->ver[b];
    return oracle_.Content(*o, b0, n);
  }

  void Check(Client* c, const Status& s, const Obj& o, uint64_t b0,
             const std::string& data) {
    if (s.ok() && !oracle_.Matches(o, b0, data.size() / kBlockSize, data)) {
      c->mismatch = true;
    }
  }

  Status HiddenRead(Client* c, const Obj& o, uint64_t b0, uint64_t n,
                    std::string* out) {
    out->clear();
    return fs()->HiddenRead(c->uid, o.name, b0 * kBlockSize, n * kBlockSize,
                            out);
  }

  Status HiddenWrite(Client* c, const Obj& o, uint64_t b0,
                     const std::string& data) {
    return fs()->HiddenWrite(c->uid, o.name, b0 * kBlockSize, data);
  }

  // Creates, connects and fills a hidden object at version 1 (untimed).
  Status CreateHidden(Client* c, const Obj& o) {
    STEGFS_RETURN_IF_ERROR(
        fs()->StegCreate(c->uid, o.name, c->uak, HiddenType::kFile));
    STEGFS_RETURN_IF_ERROR(fs()->StegConnect(c->uid, o.name, c->uak));
    for (uint64_t b = 0; b < o.ver.size(); b += 256) {
      const uint64_t n = std::min<uint64_t>(256, o.ver.size() - b);
      STEGFS_RETURN_IF_ERROR(fs()->HiddenWrite(
          c->uid, o.name, b * kBlockSize, oracle_.Content(o, b, n)));
    }
    return Status::OK();
  }

  // Connects (after the remount) and reads a whole hidden object back.
  Status ReadBackHidden(Client* c, const Obj& o) {
    STEGFS_RETURN_IF_ERROR(fs()->StegConnect(c->uid, o.name, c->uak));
    for (uint64_t b = 0; b < o.ver.size(); b += 256) {
      const uint64_t n = std::min<uint64_t>(256, o.ver.size() - b);
      std::string out;
      STEGFS_RETURN_IF_ERROR(fs()->HiddenRead(c->uid, o.name, b * kBlockSize,
                                              n * kBlockSize, &out));
      if (!oracle_.Matches(o, b, n, out)) {
        return Status::Corruption("read-back mismatch: " + o.name);
      }
    }
    return Status::OK();
  }

  Status ReadBackPlain(const Obj& o) {
    STEGFS_ASSIGN_OR_RETURN(std::string data, fs()->plain()->ReadFile(o.name));
    if (!oracle_.Matches(o, 0, o.ver.size(), data)) {
      return Status::Corruption("read-back mismatch: " + o.name);
    }
    return Status::OK();
  }

  Oracle oracle_;
  std::vector<Client> clients_;
  std::unique_ptr<Volume> vol_;
  uint64_t user_bytes_ = 0;
  double expected_probes_ = 0;
};

// One session streams a 64 MiB hidden file, 4x the 16 MiB cache, in
// sequential 1 MiB calls (3 reads : 1 write) and flushes after every pass.
// Crypto, the async engine, readahead and the device do the work; the
// locator and the locks idle.
class HiddenStream : public Workload {
 public:
  explicit HiddenStream(uint64_t seed) : Workload(seed, 1) {}

  Status Setup() override {
    STEGFS_ASSIGN_OR_RETURN(vol_, FileVolume(kVolumeBlocks));
    Client* c = &clients_[0];
    c->objs.push_back(oracle_.NewObj("stream", kFileBlocks));
    STEGFS_RETURN_IF_ERROR(CreateHidden(c, c->objs[0]));
    user_bytes_ = kFileBlocks * kBlockSize;
    return fs()->Flush();
  }

  void Step(Client* c) override {
    Obj* o = &c->objs[0];
    const uint64_t b0 = next_chunk_ * kChunkBlocks;
    if (c->rng.Uniform(4) == 0) {
      const std::string data = NextContent(o, b0, kChunkBlocks);
      Timed(c, kWrite, true, [&] { return HiddenWrite(c, *o, b0, data); });
    } else {
      std::string out;
      Status s = Timed(c, kRead, true,
                       [&] { return HiddenRead(c, *o, b0, kChunkBlocks, &out); });
      Check(c, s, *o, b0, out);
    }
    if (++next_chunk_ == kFileBlocks / kChunkBlocks) {
      next_chunk_ = 0;
      Timed(c, kSync, true, [&] { return fs()->Flush(); });
    }
  }

 protected:
  Status ReadBack(Client* c) override { return ReadBackHidden(c, c->objs[0]); }

 private:
  static constexpr uint64_t kVolumeBlocks = 128 * kMiB / kBlockSize;
  static constexpr uint64_t kFileBlocks = 64 * kMiB / kBlockSize;
  static constexpr uint64_t kChunkBlocks = kMiB / kBlockSize;
  uint64_t next_chunk_ = 0;
};

// Four sessions each own 32 hidden files of 64 KiB (8 MiB in all, inside
// the cache) and issue random 16 KiB reads and 4 KiB rewrites, 7:1, with
// no flush. The cache hit path, per-op decrypt and the session/object
// locks work; the journal and the device idle, so this is the control
// that I/O-path changes should not move.
class HiddenRandom : public Workload {
 public:
  explicit HiddenRandom(uint64_t seed) : Workload(seed, 4) {}

  Status Setup() override {
    STEGFS_ASSIGN_OR_RETURN(vol_, FileVolume(kVolumeBlocks));
    for (Client& c : clients_) {
      for (int j = 0; j < kObjects; ++j) {
        c.objs.push_back(oracle_.NewObj("r" + std::to_string(j), kObjBlocks));
      }
    }
    STEGFS_RETURN_IF_ERROR(ForEachClient(&clients_, [this](Client* c) {
      for (const Obj& o : c->objs) STEGFS_RETURN_IF_ERROR(CreateHidden(c, o));
      return Status::OK();
    }));
    user_bytes_ = clients_.size() * kObjects * kObjBlocks * kBlockSize;
    return fs()->Flush();
  }

  void Step(Client* c) override {
    Obj* o = &c->objs[c->rng.Uniform(c->objs.size())];
    if (c->rng.Uniform(8) == 0) {
      const uint64_t b0 = c->rng.Uniform(kObjBlocks);
      const std::string data = NextContent(o, b0, 1);
      Timed(c, kWrite, true, [&] { return HiddenWrite(c, *o, b0, data); });
    } else {
      const uint64_t b0 = c->rng.Uniform(kObjBlocks - 3);
      std::string out;
      Status s =
          Timed(c, kRead, true, [&] { return HiddenRead(c, *o, b0, 4, &out); });
      Check(c, s, *o, b0, out);
    }
  }

 protected:
  Status ReadBack(Client* c) override {
    for (const Obj& o : c->objs) STEGFS_RETURN_IF_ERROR(ReadBackHidden(c, o));
    return Status::OK();
  }

 private:
  static constexpr uint64_t kVolumeBlocks = 64 * kMiB / kBlockSize;
  static constexpr int kObjects = 32;
  static constexpr uint64_t kObjBlocks = 16;
};

// The paper's own mechanism, keyed probing. Plain files first fill the
// volume to 90%; then each of four users gets 4 hidden objects, created
// after the fill so their headers sit ~10 probes deep. Each loop connects
// a random own object, reads 4 KiB and disconnects; every 32nd loop also
// creates a fresh object, writes 16 KiB and removes it. A create walks
// probe_limit candidates twice (primary and anchor) to prove the name is
// new, so creates dominate the write latency.
class NamespaceChurn : public Workload {
 public:
  explicit NamespaceChurn(uint64_t seed) : Workload(seed, 4) {}

  Status Setup() override {
    STEGFS_ASSIGN_OR_RETURN(vol_, FileVolume(kVolumeBlocks));
    PlainFs* plain = fs()->plain();
    STEGFS_RETURN_IF_ERROR(plain->MkDir("/fill"));
    for (int i = 0; DataFill() < kFill; ++i) {
      fill_.push_back(
          oracle_.NewObj("/fill/f" + std::to_string(i), kFillFileBlocks));
      const Obj& o = fill_.back();
      STEGFS_RETURN_IF_ERROR(
          plain->WriteFile(o.name, oracle_.Content(o, 0, o.ver.size())));
    }
    for (Client& c : clients_) {
      for (int j = 0; j < kObjects; ++j) {
        c.objs.push_back(oracle_.NewObj("n" + std::to_string(j), kObjBlocks));
      }
    }
    // One at a time, in a fixed round-robin order: the FAKs and header
    // blocks, and so every object's probe depth, are the same in every run.
    const double objects = clients_.size() * kObjects;
    for (int j = 0; j < kObjects; ++j) {
      for (Client& c : clients_) {
        expected_probes_ += 1.0 / (1.0 - DataFill()) / objects;
        STEGFS_RETURN_IF_ERROR(CreateHidden(&c, c.objs[j]));
        STEGFS_RETURN_IF_ERROR(fs()->StegDisconnect(c.uid, c.objs[j].name));
      }
    }
    user_bytes_ = (fill_.size() * kFillFileBlocks +
                   clients_.size() * kObjects * kObjBlocks) *
                  kBlockSize;
    return fs()->Flush();
  }

  void Step(Client* c) override {
    const Obj& o = c->objs[c->rng.Uniform(c->objs.size())];
    const uint64_t b0 = c->rng.Uniform(kObjBlocks);
    std::string out;
    Status s = Timed(c, kRead, true, [&] {
      STEGFS_RETURN_IF_ERROR(Timed(c, kConnect, false, [&] {
        return fs()->StegConnect(c->uid, o.name, c->uak);
      }));
      Sample* connect = &c->samples.back();
      StatusOr<HiddenObject*> obj = fs()->ConnectedForTesting(c->uid, o.name);
      if (obj.ok()) {
        connect->probes = static_cast<uint16_t>(
            std::min<uint32_t>((*obj)->last_probe_count(), UINT16_MAX));
      }
      STEGFS_RETURN_IF_ERROR(HiddenRead(c, o, b0, 1, &out));
      return fs()->StegDisconnect(c->uid, o.name);
    });
    Check(c, s, o, b0, out);
    if (++c->loops % kCreateEvery != 0) return;

    // A name no earlier create of this client used: every create proves
    // absence by walking the whole probe sequence.
    Obj tmp = oracle_.NewObj("t" + std::to_string(c->loops), kObjBlocks);
    const std::string data = NextContent(&tmp, 0, kObjBlocks);
    Timed(c, kWrite, true, [&] {
      STEGFS_RETURN_IF_ERROR(Timed(c, kCreate, false, [&] {
        return fs()->StegCreate(c->uid, tmp.name, c->uak, HiddenType::kFile);
      }));
      STEGFS_RETURN_IF_ERROR(fs()->StegConnect(c->uid, tmp.name, c->uak));
      STEGFS_RETURN_IF_ERROR(HiddenWrite(c, tmp, 0, data));
      return fs()->HiddenRemove(c->uid, tmp.name, c->uak);
    });
  }

 protected:
  Status ReadBack(Client* c) override {
    for (const Obj& o : c->objs) STEGFS_RETURN_IF_ERROR(ReadBackHidden(c, o));
    // The fill files are split across the clients.
    for (size_t i = c - clients_.data(); i < fill_.size();
         i += clients_.size()) {
      STEGFS_RETURN_IF_ERROR(ReadBackPlain(fill_[i]));
    }
    return Status::OK();
  }

 private:
  // Allocated share of the data region, where header candidates lie.
  double DataFill() {
    const Layout& l = fs()->plain()->layout();
    const uint64_t free = fs()->plain()->bitmap()->free_count();
    return 1.0 - static_cast<double>(free) / l.data_blocks();
  }

  static constexpr uint64_t kVolumeBlocks = 64 * kMiB / kBlockSize;
  static constexpr double kFill = 0.9;
  static constexpr uint64_t kFillFileBlocks = 128;
  static constexpr int kObjects = 4;
  static constexpr uint64_t kObjBlocks = 4;
  static constexpr uint64_t kCreateEvery = 32;
  std::vector<Obj> fill_;
};

// Four sessions on a device whose barrier costs 400 us (a stand-in for
// fdatasync, which is too noisy on a shared VM to gate on). 60% journaled
// plain 4 KiB WriteFile (one transaction each), 20% hidden 16 KiB read,
// 20% hidden 16 KiB write followed by StegFs::Flush. The journal, group
// commit and barriers work beside reads; crypto and the locator stay
// light. The reads are hidden: in runs alternating the two kinds, the
// median of plain reads moved 2.5x as far as throughput did as host load
// changed, and that of hidden reads about as far.
class DurableCommit : public Workload {
 public:
  explicit DurableCommit(uint64_t seed) : Workload(seed, 4) {}

  Status Setup() override {
    STEGFS_ASSIGN_OR_RETURN(
        vol_, ThrottledVolume(kVolumeBlocks, std::chrono::microseconds(400)));
    // Each client's objects: kPlainFiles plain files, then its hidden
    // object.
    for (Client& c : clients_) {
      const std::string dir = "/" + c.uid;
      for (int j = 0; j < kPlainFiles; ++j) {
        c.objs.push_back(oracle_.NewObj(dir + "/f" + std::to_string(j), 1));
      }
      c.objs.push_back(oracle_.NewObj("h", kHiddenBlocks));
    }
    STEGFS_RETURN_IF_ERROR(ForEachClient(&clients_, [this](Client* c) {
      STEGFS_RETURN_IF_ERROR(fs()->plain()->MkDir("/" + c->uid));
      for (int j = 0; j < kPlainFiles; ++j) {
        const Obj& o = c->objs[j];
        STEGFS_RETURN_IF_ERROR(
            fs()->plain()->WriteFile(o.name, oracle_.Content(o, 0, 1)));
      }
      return CreateHidden(c, c->objs.back());
    }));
    user_bytes_ = clients_.size() * (kPlainFiles + kHiddenBlocks) * kBlockSize;
    return fs()->Flush();
  }

  void Step(Client* c) override {
    const uint64_t r = c->rng.Uniform(10);
    Obj* h = &c->objs.back();
    const uint64_t b0 = c->rng.Uniform(kHiddenBlocks - 3);
    if (r < 6) {
      Obj* o = &c->objs[c->rng.Uniform(kPlainFiles)];
      const std::string data = NextContent(o, 0, 1);
      Timed(c, kWrite, true,
            [&] { return fs()->plain()->WriteFile(o->name, data); });
    } else if (r < 8) {
      std::string out;
      Status s =
          Timed(c, kRead, true, [&] { return HiddenRead(c, *h, b0, 4, &out); });
      Check(c, s, *h, b0, out);
    } else {
      const std::string data = NextContent(h, b0, 4);
      Timed(c, kSync, true, [&] {
        STEGFS_RETURN_IF_ERROR(HiddenWrite(c, *h, b0, data));
        return fs()->Flush();
      });
    }
  }

 protected:
  Status ReadBack(Client* c) override {
    for (int j = 0; j < kPlainFiles; ++j) {
      STEGFS_RETURN_IF_ERROR(ReadBackPlain(c->objs[j]));
    }
    return ReadBackHidden(c, c->objs.back());
  }

 private:
  static constexpr uint64_t kVolumeBlocks = 64 * kMiB / kBlockSize;
  static constexpr int kPlainFiles = 32;
  static constexpr uint64_t kHiddenBlocks = 16;
};

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       uint64_t seed) {
  if (name == "hidden_stream") return std::make_unique<HiddenStream>(seed);
  if (name == "hidden_random") return std::make_unique<HiddenRandom>(seed);
  if (name == "namespace_churn") return std::make_unique<NamespaceChurn>(seed);
  if (name == "durable_commit") return std::make_unique<DurableCommit>(seed);
  return nullptr;
}

// ---------------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------------
double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// Nearest-rank percentile of exact durations, in microseconds.
double PercentileUs(std::vector<uint64_t> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(q * v.size()));
  rank = std::min(std::max<size_t>(rank, 1), v.size());
  return static_cast<double>(v[rank - 1]) / 1e3;
}

// Samples of one run, filtered to a time range.
class Samples {
 public:
  Samples(const std::vector<Client>& clients, uint64_t t0, uint64_t t1) {
    for (const Client& c : clients) {
      for (const Sample& s : c.samples) {
        if (s.end_ns >= t0 && s.end_ns < t1) all_.push_back(s);
      }
    }
  }

  Samples Range(uint64_t t0, uint64_t t1) const {
    Samples r;
    for (const Sample& s : all_) {
      if (s.end_ns >= t0 && s.end_ns < t1) r.all_.push_back(s);
    }
    return r;
  }

  std::vector<uint64_t> Durations(Kind kind) const {
    std::vector<uint64_t> d;
    for (const Sample& s : all_) {
      if (s.kind == kind) d.push_back(s.dur_ns);
    }
    return d;
  }

  uint64_t ops() const {
    return std::count_if(all_.begin(), all_.end(),
                         [](const Sample& s) { return s.op; });
  }
  uint64_t failed() const {
    return std::count_if(all_.begin(), all_.end(),
                         [](const Sample& s) { return s.op && !s.ok; });
  }
  uint64_t op_ns() const {
    uint64_t sum = 0;
    for (const Sample& s : all_) {
      if (s.op) sum += s.dur_ns;
    }
    return sum;
  }
  double probes_per_connect() const {
    uint64_t probes = 0, n = 0;
    for (const Sample& s : all_) {
      if (s.kind == kConnect && s.ok) {
        probes += s.probes;
        ++n;
      }
    }
    return n == 0 ? 0 : static_cast<double>(probes) / n;
  }

 private:
  Samples() = default;
  std::vector<Sample> all_;
};

// ---------------------------------------------------------------------------
// Slow-op attribution from the trace ring
// ---------------------------------------------------------------------------
constexpr int kTailLayers = 4;
const char* const kTailLayerName[kTailLayers] = {"cache", "store", "journal",
                                                 "fault"};

int TailLayerOf(const char* name) {
  if (std::strcmp(name, "cache.fill") == 0) return 0;
  if (std::strncmp(name, "store.", 6) == 0) return 1;
  if (std::strncmp(name, "journal.", 8) == 0) return 2;
  if (std::strncmp(name, "fault.", 6) == 0) return 3;
  return -1;
}

// Per benchmark op seen in the ring: its kind, duration, and how much of
// its wall time each layer's spans cover (the union of their intervals,
// so overlapping async spans count once).
struct RootCover {
  Kind kind;
  uint64_t dur_ns;
  uint64_t cover_ns[kTailLayers];
};

class TailSampler {
 public:
  // Scans one copy of the ring; ops already seen are skipped.
  void Scan(const std::vector<obs::TraceEvent>& events) {
    std::unordered_map<uint64_t, std::vector<const obs::TraceEvent*>> by_op;
    std::vector<const obs::TraceEvent*> roots;
    for (const obs::TraceEvent& e : events) {
      if (e.parent_span == 0 && std::strcmp(e.cat, "bench") == 0) {
        if (seen_.insert(e.span_id).second) roots.push_back(&e);
      } else {
        by_op[e.op_id].push_back(&e);
      }
    }
    for (const obs::TraceEvent* r : roots) {
      RootCover rc{KindOf(r->name), r->dur_ns, {}};
      const uint64_t lo = r->start_ns, hi = r->start_ns + r->dur_ns;
      for (int layer = 0; layer < kTailLayers; ++layer) {
        std::vector<std::pair<uint64_t, uint64_t>> iv;
        for (const obs::TraceEvent* e : by_op[r->op_id]) {
          if (TailLayerOf(e->name) != layer) continue;
          const uint64_t a = std::max(lo, e->start_ns);
          const uint64_t b = std::min(hi, e->start_ns + e->dur_ns);
          if (a < b) iv.emplace_back(a, b);
        }
        std::sort(iv.begin(), iv.end());
        uint64_t covered = 0, end = 0;
        for (const auto& [a, b] : iv) {
          if (b <= end) continue;
          covered += b - std::max(a, end);
          end = b;
        }
        rc.cover_ns[layer] = covered;
      }
      covers_.push_back(rc);
    }
  }

  // Share of the wall time of ops slower than their kind's p99 (from
  // `p99_ns`) that each layer covers.
  std::vector<double> Shares(const uint64_t p99_ns[kNumKinds]) const {
    uint64_t total = 0, cover[kTailLayers] = {};
    for (const RootCover& rc : covers_) {
      if (rc.dur_ns <= p99_ns[rc.kind]) continue;
      total += rc.dur_ns;
      for (int l = 0; l < kTailLayers; ++l) cover[l] += rc.cover_ns[l];
    }
    std::vector<double> shares(kTailLayers, 0);
    for (int l = 0; l < kTailLayers; ++l) {
      if (total > 0) shares[l] = static_cast<double>(cover[l]) / total;
    }
    return shares;
  }

 private:
  static Kind KindOf(const char* span_name) {
    for (int k = 0; k < kNumKinds; ++k) {
      if (std::strcmp(span_name, kSpanName[k]) == 0) return Kind(k);
    }
    return kRead;
  }

  std::unordered_set<uint64_t> seen_;
  std::vector<RootCover> covers_;
};

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------
struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0;
    char buf[32];
    const std::to_chars_result r = std::to_chars(buf, buf + sizeof(buf), v);
    json += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
            std::string(buf, r.ptr) + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

std::string CpuModel() {
  unsigned int regs[12] = {};
  for (unsigned int i = 0; i < 3; ++i) {
    if (!__get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1],
                     &regs[4 * i + 2], &regs[4 * i + 3])) {
      return "unknown";
    }
  }
  std::string model(reinterpret_cast<const char*>(regs), sizeof(regs));
  model = model.c_str();  // drop trailing NULs
  for (char& ch : model) {
    if (ch == '"' || ch == '\\') ch = ' ';
  }
  const size_t first = model.find_first_not_of(' ');
  return first == std::string::npos ? "unknown" : model.substr(first);
}

// What the run measured on: the host and what the shipped policy resolved
// to here.
void PrintHost(StegFs* fs) {
  struct utsname u;
  const std::string kernel = uname(&u) == 0 ? u.release : "unknown";
  std::printf(
      "host {\"nproc\": %u, \"cpu\": \"%s\", \"kernel\": \"%s\", "
      "\"engine\": \"%s\", \"aes\": \"%s\", \"gf\": \"%s\", "
      "\"readahead_blocks\": %u}\n",
      std::thread::hardware_concurrency(), CpuModel().c_str(), kernel.c_str(),
      fs->plain()->io_engine_name(), crypto::AesTierName(),
      crypto::GfTierName(), fs->plain()->readahead_blocks());
}

double PeakRssMb() {
  struct rusage ru;
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void SleepUntil(uint64_t t_ns) {
  const uint64_t now = obs::NowNanos();
  if (t_ns > now) std::this_thread::sleep_for(std::chrono::nanoseconds(t_ns - now));
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_json;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::strtod(v.c_str(), nullptr);
    } else if (k == "--trace") {
      a->trace = v == "1";
    } else if (k == "--trace-json") {
      a->trace_json = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && a->seconds > 0 &&
         MakeWorkload(a->workload, a->seed) != nullptr;
}

// Registry view over the measured window.
class Delta {
 public:
  Delta(const obs::RegistrySnapshot& a, const obs::RegistrySnapshot& b)
      : a_(a), b_(b) {}
  double Count(const char* name) const {
    return static_cast<double>(b_.counter(name) - a_.counter(name));
  }
  // Histogram sum delta, in microseconds.
  double SumUs(const char* name) const {
    return (Hist(b_, name).sum - Hist(a_, name).sum) / 1e3;
  }

 private:
  static obs::HistogramSnapshot Hist(const obs::RegistrySnapshot& s,
                                     const char* name) {
    const obs::HistogramSnapshot* h = s.histogram(name);
    return h ? *h : obs::HistogramSnapshot();
  }
  const obs::RegistrySnapshot& a_;
  const obs::RegistrySnapshot& b_;
};

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: stegbench --workload hidden_stream|hidden_random|"
                 "namespace_churn|durable_commit --seed N --seconds S "
                 "--trace 0|1 [--trace-json PATH]\n");
    return 2;
  }
  std::printf("stegbench workload=%s seed=%llu seconds=%g trace=%d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);

  // --- Setup, several times: setup_s is the median --------------------
  std::vector<double> setup_s;
  std::unique_ptr<Workload> w;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    w.reset();
    w = MakeWorkload(args.workload, args.seed);
    const uint64_t t0 = obs::NowNanos();
    Status s = w->Setup();
    if (!s.ok()) {
      std::fprintf(stderr, "setup failed: %s\n", s.ToString().c_str());
      return 1;
    }
    setup_s.push_back((obs::NowNanos() - t0) / 1e9);
  }
  PrintHost(w->fs());
  const SpaceReport space = w->fs()->ReportSpace();
  const double space_amp =
      Ratio(static_cast<double>(space.allocated_blocks) * space.block_size,
            static_cast<double>(w->user_bytes()));

  // --- Warm-up, then the measured window -------------------------------
  obs::TraceRecorder* rec = w->fs()->plain()->trace_recorder();
  obs::MetricsRegistry* reg = w->fs()->plain()->metrics_registry();
  const double warmup_s = std::clamp(0.2 * args.seconds, 0.5, 3.0);
  const uint64_t start = obs::NowNanos();
  const uint64_t w0 = start + static_cast<uint64_t>(warmup_s * 1e9);
  const uint64_t w1 = w0 + static_cast<uint64_t>(args.seconds * 1e9);
  const uint64_t mid = w0 + (w1 - w0) / 2;

  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (Client& c : w->clients()) {
    threads.emplace_back([&w, &c, &stop] {
      while (!stop.load(std::memory_order_relaxed)) w->Step(&c);
    });
  }
  SleepUntil(w0);
  const obs::RegistrySnapshot snap0 = reg->Snapshot();
  TailSampler tails;
  if (args.trace) {
    // The first half stays untraced; the second records spans, and the
    // ring is copied every 50 ms so slow ops are caught before it wraps.
    SleepUntil(mid);
    rec->Start();
    while (obs::NowNanos() < w1) {
      SleepUntil(std::min(w1, obs::NowNanos() + 50'000'000));
      tails.Scan(rec->Events());
    }
  } else {
    SleepUntil(w1);
  }
  const obs::RegistrySnapshot snap1 = reg->Snapshot();
  rec->Stop();
  stop.store(true);
  for (std::thread& t : threads) t.join();
  // Before the post-processing below allocates its own copies.
  const double peak_rss_mb = PeakRssMb();

  // --- Metrics ---------------------------------------------------------
  const Samples win(w->clients(), w0, w1);
  const double slice_s = args.seconds / kSlices;
  std::vector<double> rate;
  std::vector<double> lat[kNumKinds][2];  // per kind: p50s, p99s
  for (int i = 0; i < kSlices; ++i) {
    const uint64_t a = w0 + (w1 - w0) * i / kSlices;
    const uint64_t b = w0 + (w1 - w0) * (i + 1) / kSlices;
    const Samples slice = win.Range(a, b);
    rate.push_back(slice.ops() / slice_s);
    for (int k = 0; k < kNumKinds; ++k) {
      std::vector<uint64_t> d = slice.Durations(Kind(k));
      if (d.empty()) continue;
      lat[k][0].push_back(PercentileUs(d, 0.50));
      lat[k][1].push_back(PercentileUs(d, k == kCreate ? 0.90 : 0.99));
    }
  }
  for (int k = 0; k < kNumKinds; ++k) {
    std::printf("# %-8s samples=%zu\n", kKindName[k],
                win.Durations(Kind(k)).size());
  }

  const Delta d(snap0, snap1);
  const double ops = static_cast<double>(win.ops());
  const double hit_ratio =
      Ratio(d.Count("stegfs_cache_hits_total"),
            d.Count("stegfs_cache_hits_total") +
                d.Count("stegfs_cache_misses_total"));
  const double probes = win.probes_per_connect();

  // Regime self-checks: a set-up change that turns a workload trivial
  // shows here first. The streaming check counts blocks that came from the
  // device (misses and prefetches): the hit ratio itself is high there,
  // because every data block's lookup re-reads a cached pointer block.
  const double device_blocks_per_op =
      Ratio(d.Count("stegfs_cache_misses_total") +
                d.Count("stegfs_cache_prefetch_hits_total"),
            ops);
  if (args.workload == "hidden_stream" && device_blocks_per_op < 128) {
    std::fprintf(stderr,
                 "WARN hidden_stream reads %.1f blocks per 1 MiB op from the "
                 "device, under half: the file no longer streams past the "
                 "cache\n",
                 device_blocks_per_op);
  }
  if (args.workload == "hidden_random" && hit_ratio <= 0.9) {
    std::fprintf(stderr, "WARN hidden_random cache hit ratio %.3f <= 0.9\n",
                 hit_ratio);
  }
  if (args.workload == "namespace_churn" &&
      std::fabs(probes - w->expected_probes()) > 0.3 * w->expected_probes()) {
    std::fprintf(stderr,
                 "WARN namespace_churn probes per connect %.2f not within 30%% "
                 "of the mean 1/(1-fill) at create, %.2f\n",
                 probes, w->expected_probes());
  }

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"setup_s", Median(setup_s), "s"},
        {"ops_per_s", Median(rate), "1/s"},
        {"read_p50_us", Median(lat[kRead][0]), "us"},
        {"write_p50_us", Median(lat[kWrite][0]), "us"},
        {"peak_rss_mb", peak_rss_mb, "MB"},
        {"space_amplification", space_amp, "ratio"},
    };
  } else {
    const double per_op_us = 1.0 / std::max(ops, 1.0);
    const double txns = d.Count("stegfs_journal_group_txns_total");
    const double untraced = win.Range(w0, mid).ops();
    const double traced = win.Range(mid, w1).ops();
    uint64_t p99_ns[kNumKinds];
    const Samples traced_half = win.Range(mid, w1);
    for (int k = 0; k < kNumKinds; ++k) {
      p99_ns[k] = static_cast<uint64_t>(
          PercentileUs(traced_half.Durations(Kind(k)), 0.99) * 1e3);
    }
    const std::vector<double> shares = tails.Shares(p99_ns);
    const double layer_us = d.SumUs("stegfs_crypto_encrypt_seconds") +
                            d.SumUs("stegfs_crypto_decrypt_seconds") +
                            d.SumUs("stegfs_cache_fill_seconds") +
                            d.SumUs("stegfs_journal_commit_seconds");
    metrics = {
        {"blockdev.read_blocks_per_op",
         d.Count("stegfs_device_blocks_read_total") * per_op_us, "blocks/op"},
        {"blockdev.write_blocks_per_op",
         d.Count("stegfs_device_blocks_written_total") * per_op_us,
         "blocks/op"},
        {"blockdev.syncs_per_op",
         d.Count("stegfs_device_syncs_total") * per_op_us, "syncs/op"},
        {"blockdev.read_us_per_op",
         d.SumUs("stegfs_device_read_seconds") * per_op_us, "us/op"},
        {"blockdev.write_us_per_op",
         d.SumUs("stegfs_device_write_seconds") * per_op_us, "us/op"},
        {"blockdev.sync_us_per_op",
         d.SumUs("stegfs_device_sync_seconds") * per_op_us, "us/op"},
        {"blockdev.async_batches_per_op",
         d.Count("stegfs_async_submitted_batches_total") * per_op_us,
         "batches/op"},
        {"blockdev.async_wait_us_per_op",
         d.SumUs("stegfs_async_batch_seconds") * per_op_us, "us/op"},
        {"blockdev.coalesced_runs_per_op",
         d.Count("stegfs_device_coalesced_runs_total") * per_op_us, "runs/op"},
        {"cache.hit_ratio", hit_ratio, "ratio"},
        {"cache.evictions_per_op",
         d.Count("stegfs_cache_evictions_total") * per_op_us, "blocks/op"},
        {"cache.writebacks_per_op",
         d.Count("stegfs_cache_writebacks_total") * per_op_us, "blocks/op"},
        {"cache.fill_us_per_op",
         d.SumUs("stegfs_cache_fill_seconds") * per_op_us, "us/op"},
        {"cache.prefetch_hit_ratio",
         Ratio(d.Count("stegfs_cache_prefetch_hits_total"),
               d.Count("stegfs_cache_prefetched_total")),
         "ratio"},
        {"crypto.blocks_decrypted_per_op",
         d.Count("stegfs_crypto_blocks_decrypted_total") * per_op_us,
         "blocks/op"},
        {"crypto.blocks_encrypted_per_op",
         d.Count("stegfs_crypto_blocks_encrypted_total") * per_op_us,
         "blocks/op"},
        {"crypto.decrypt_us_per_op",
         d.SumUs("stegfs_crypto_decrypt_seconds") * per_op_us, "us/op"},
        {"crypto.encrypt_us_per_op",
         d.SumUs("stegfs_crypto_encrypt_seconds") * per_op_us, "us/op"},
        {"core.probes_per_connect", probes, "probes"},
        {"core.hidden_read_us_per_op",
         d.SumUs("stegfs_hidden_read_seconds") * per_op_us, "us/op"},
        {"core.hidden_write_us_per_op",
         d.SumUs("stegfs_hidden_write_seconds") * per_op_us, "us/op"},
        {"fs.write_us_per_op", d.SumUs("stegfs_fs_write_seconds") * per_op_us,
         "us/op"},
        {"fs.read_us_per_op", d.SumUs("stegfs_fs_read_seconds") * per_op_us,
         "us/op"},
        {"fs.flush_us_per_op", d.SumUs("stegfs_fs_flush_seconds") * per_op_us,
         "us/op"},
        {"journal.txns_per_batch",
         Ratio(txns, d.Count("stegfs_journal_group_batches_total")),
         "txns/batch"},
        {"journal.syncs_per_txn",
         Ratio(d.Count("stegfs_journal_barrier_syncs_total"), txns),
         "syncs/txn"},
        {"journal.blocks_per_txn",
         Ratio(d.Count("stegfs_journal_blocks_journaled_total"), txns),
         "blocks/txn"},
        {"journal.commit_us_per_txn",
         Ratio(d.SumUs("stegfs_journal_commit_seconds"), txns), "us/txn"},
        {"journal.record_us_per_txn",
         Ratio(d.SumUs("stegfs_journal_record_seconds"), txns), "us/txn"},
        {"journal.barrier_us_per_txn",
         Ratio(d.SumUs("stegfs_journal_barrier_seconds"), txns), "us/txn"},
        {"journal.checkpoint_us_per_txn",
         Ratio(d.SumUs("stegfs_journal_checkpoint_seconds"), txns), "us/txn"},
        {"concurrency.barrier_arrivals_per_round",
         Ratio(d.Count("stegfs_barrier_arrivals_total"),
               d.Count("stegfs_barrier_rounds_total")),
         "arrivals/round"},
        {"fault.retries_per_op",
         d.Count("stegfs_fault_retries_total") * per_op_us, "retries/op"},
        {"residual_us_per_op", (win.op_ns() / 1e3 - layer_us) * per_op_us,
         "us/op"},
        {"trace.overhead_ratio", Ratio(traced, untraced), "ratio"},
        {"op.read_p99_us", Median(lat[kRead][1]), "us"},
        {"op.write_p99_us", Median(lat[kWrite][1]), "us"},
        {"op.sync_p50_us", Median(lat[kSync][0]), "us"},
        {"op.sync_p99_us", Median(lat[kSync][1]), "us"},
        {"op.connect_p50_us", Median(lat[kConnect][0]), "us"},
        {"op.connect_p99_us", Median(lat[kConnect][1]), "us"},
        {"op.create_p50_us", Median(lat[kCreate][0]), "us"},
        {"op.create_p90_us", Median(lat[kCreate][1]), "us"},
    };
    for (int l = 0; l < kTailLayers; ++l) {
      metrics.push_back({std::string("tail.") + kTailLayerName[l] + "_share",
                         shares[l], "ratio"});
    }
    if (!args.trace_json.empty()) {
      std::FILE* f = std::fopen(args.trace_json.c_str(), "w");
      if (f == nullptr) {
        std::fprintf(stderr, "cannot write %s\n", args.trace_json.c_str());
      } else {
        const std::string json = rec->ExportChromeJson();
        std::fwrite(json.data(), 1, json.size(), f);
        std::fclose(f);
      }
    }
  }
  for (const Metric& m : metrics) {
    std::printf("%-40s %14.3f %s\n", m.name.c_str(), m.value, m.unit);
  }

  // --- Correctness: in-window reads, then remount + fsck + read-back ---
  bool correct = true;
  for (const Client& c : w->clients()) correct = correct && !c.mismatch;
  if (!correct) std::fprintf(stderr, "a read returned wrong bytes\n");
  Status verified = w->Verify();
  if (!verified.ok()) {
    std::fprintf(stderr, "verify failed: %s\n", verified.ToString().c_str());
    correct = false;
  }
  PrintResult(correct, win.ops(), win.failed(), metrics);
  return correct ? 0 : 1;
}
