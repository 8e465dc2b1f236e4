#include "core/stegfs.h"

#include <algorithm>
#include <cassert>

#include "crypto/hmac.h"
#include "crypto/sha256.h"
#include "fs/file_io.h"
#include "util/hex.h"

namespace stegfs {

namespace {

// Dummy hidden files are system objects: their names and keys derive from
// the dummy seed stored in the superblock, which is exactly the paper's
// concession that dummies "could be vulnerable to an attacker with
// administrator privileges" (abandoned blocks remain untraceable).
std::string DummyName(uint32_t i) {
  // Built piecewise: "\x00d..." inside one literal would parse as the hex
  // escape 0x0d and silently eat the 'd'.
  std::string name("\x02system", 7);
  name.push_back('\0');
  name += "dummy-" + std::to_string(i);
  return name;
}

std::string DummyKey(const std::array<uint8_t, 32>& seed, uint32_t i) {
  std::string prk(reinterpret_cast<const char*>(seed.data()), seed.size());
  auto key = crypto::HkdfExpand(prk, "dummy-key-" + std::to_string(i), 32);
  return std::string(key.begin(), key.end());
}

uint64_t SeedFromEntropy(const std::string& entropy, const char* label) {
  crypto::Sha256Digest d = crypto::Sha256::Hash2(entropy, label);
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v = (v << 8) | d[i];
  return v;
}

// Seed of one mount's FAK stream: the configured seed plus a digest of the
// allocation bitmap as mounted. The seed alone would replay F1, F2, ... on
// every mount, so a "fresh" FAK could be the key of a live object created
// by an earlier mount. Every block of a live object is allocated now, and
// unless its mount had first freed all the blocks the object then took,
// one of them was free when that mount started: that mount's bitmap, and
// with it its FAK stream, does not recur while the object lives.
std::string FakSeed(uint64_t steg_rng_seed, const BlockBitmap& bitmap) {
  const std::vector<uint8_t> bits = bitmap.SnapshotBits();
  const crypto::Sha256Digest d =
      crypto::Sha256::Hash(bits.data(), bits.size());
  return "stegfs-fak:" + std::to_string(steg_rng_seed) + ":" +
         HexEncode(d.data(), d.size());
}

}  // namespace

std::string StegFs::PhysicalName(const std::string& uid,
                                 const std::string& objname) {
  return uid + '\0' + objname;
}

std::string StegFs::UakDirName() { return std::string("\x01uakdir", 7); }

StegFs::StegFs(BlockDevice* device, std::unique_ptr<PlainFs> plain,
               const StegFsOptions& options)
    : device_(device),
      plain_(std::move(plain)),
      options_(options),
      steg_rng_(options.steg_rng_seed),
      fak_drbg_(FakSeed(options.steg_rng_seed, *plain_->bitmap())) {
  obs::MetricsRegistry* reg = plain_->metrics_registry();
  red_stats_.RegisterWith(reg);
  locator_stats_.RegisterWith(reg);
  reg->RegisterHistogram("stegfs_hidden_read_seconds",
                         "Hidden object read latency", &hidden_read_ns_);
  reg->RegisterHistogram("stegfs_hidden_write_seconds",
                         "Hidden object write latency", &hidden_write_ns_);
  reg->RegisterHistogram("stegfs_hidden_truncate_seconds",
                         "Hidden object truncate latency",
                         &hidden_truncate_ns_);
}

StegFs::~StegFs() { (void)Flush(); }

HiddenVolume StegFs::VolumeCtx() {
  HiddenVolume vol;
  vol.cache = plain_->cache();
  vol.bitmap = plain_->bitmap();
  vol.layout = plain_->layout();
  vol.params = plain_->superblock().steg;
  vol.rng = &steg_rng_;
  vol.probe_limit = options_.probe_limit;
  vol.alloc_mu = &alloc_mu_;
  vol.readahead = plain_->readahead_blocks();
  vol.device = device_;
  vol.durable = plain_->durable();
  vol.barrier = plain_->commit_barrier();
  vol.red_stats = &red_stats_;
  vol.locator_stats = &locator_stats_;
  vol.trace = plain_->trace_recorder();
  return vol;
}

Status StegFs::Format(BlockDevice* device, const StegFormatOptions& options) {
  const uint32_t bs = device->block_size();
  const uint64_t nb = device->num_blocks();

  // 1. Random-fill every block "so that used blocks do not stand out from
  //    the free blocks" (paper 3.1).
  {
    std::vector<uint8_t> buf(bs);
    if (options.fill_mode == FillMode::kFast) {
      Xoshiro fill(SeedFromEntropy(options.entropy, "fill"));
      for (uint64_t b = 0; b < nb; ++b) {
        fill.FillBytes(buf.data(), buf.size());
        STEGFS_RETURN_IF_ERROR(device->WriteBlock(b, buf.data()));
      }
    } else {
      crypto::CtrDrbg fill("stegfs-fill:" + options.entropy);
      for (uint64_t b = 0; b < nb; ++b) {
        fill.Generate(buf.data(), buf.size());
        STEGFS_RETURN_IF_ERROR(device->WriteBlock(b, buf.data()));
      }
    }
  }

  // 2. Plain file system on top (superblock, bitmap, central directory).
  FormatOptions fo;
  fo.num_inodes = options.num_inodes;
  fo.steg = options.params;
  fo.steg_formatted = true;
  fo.dummy_seed = crypto::Sha256::Hash2("stegfs-dummy-seed:", options.entropy);
  fo.journal_blocks = options.journal_blocks;
  STEGFS_RETURN_IF_ERROR(PlainFs::Format(device, fo));

  // 3. Abandon random blocks and create the dummy hidden files.
  //    This mount only writes the dummy files once and is then dropped, so
  //    one batch of cache is enough. The default 16 MiB cache would be
  //    freed afterwards but stay resident in the allocator for the rest of
  //    the process.
  MountOptions mo;
  mo.rng_seed = SeedFromEntropy(options.entropy, "mount");
  mo.cache_blocks = FileIo::kMaxBatchBlocks;
  STEGFS_ASSIGN_OR_RETURN(std::unique_ptr<PlainFs> plain,
                          PlainFs::Mount(device, mo));

  Xoshiro abandon_rng(SeedFromEntropy(options.entropy, "abandon"));
  const Layout& layout = plain->layout();
  uint64_t abandoned_count = static_cast<uint64_t>(
      static_cast<double>(layout.data_blocks()) *
      options.params.abandoned_fraction);
  for (uint64_t i = 0; i < abandoned_count; ++i) {
    auto b = plain->bitmap()->AllocateByPolicy(AllocPolicy::kRandom,
                                               &abandon_rng);
    if (!b.ok()) return b.status();
    // Content stays as format noise; the block is now untraceable.
  }

  StegFsOptions so;
  so.steg_rng_seed = SeedFromEntropy(options.entropy, "steg-rng");
  Xoshiro dummy_rng(SeedFromEntropy(options.entropy, "dummy-rng"));
  STEGFS_RETURN_IF_ERROR(CreateDummyFiles(plain.get(), &dummy_rng, so));

  STEGFS_RETURN_IF_ERROR(plain->Flush());
  return Status::OK();
}

Status StegFs::CreateDummyFiles(PlainFs* plain, Xoshiro* rng,
                                const StegFsOptions& opts) {
  const Superblock& sb = plain->superblock();
  HiddenVolume vol;
  vol.cache = plain->cache();
  vol.bitmap = plain->bitmap();
  vol.layout = plain->layout();
  vol.params = sb.steg;
  vol.rng = rng;
  vol.probe_limit = opts.probe_limit;

  const uint64_t avg = std::max<uint64_t>(sb.steg.dummy_file_avg_bytes, 1);
  for (uint32_t i = 0; i < sb.steg.dummy_file_count; ++i) {
    STEGFS_ASSIGN_OR_RETURN(
        std::unique_ptr<HiddenObject> dummy,
        HiddenObject::Create(vol, DummyName(i), DummyKey(sb.dummy_seed, i),
                             HiddenType::kFile));
    // Size uniform in [avg/2, 3*avg/2): mean = avg (Table 1).
    uint64_t size = avg / 2 + rng->Uniform(avg);
    std::string content(size, '\0');
    rng->FillBytes(reinterpret_cast<uint8_t*>(content.data()), size);
    STEGFS_RETURN_IF_ERROR(dummy->WriteAll(content));
    STEGFS_RETURN_IF_ERROR(dummy->Sync());
  }
  return plain->PersistMeta();
}

StatusOr<std::unique_ptr<StegFs>> StegFs::Mount(BlockDevice* device,
                                                const StegFsOptions& options) {
  STEGFS_ASSIGN_OR_RETURN(std::unique_ptr<PlainFs> plain,
                          PlainFs::Mount(device, options.mount));
  if (!plain->superblock().steg_formatted) {
    return Status::FailedPrecondition(
        "volume was not steg-formatted (no random fill): refusing to hide "
        "data on it");
  }
  return std::unique_ptr<StegFs>(
      new StegFs(device, std::move(plain), options));
}

std::string StegFs::FreshFak() {
  std::lock_guard<std::mutex> lock(fak_mu_);
  return fak_drbg_.GenerateString(32);
}

StatusOr<std::unique_ptr<HiddenObject>> StegFs::OpenUakDir(
    const std::string& uid, const std::string& uak, bool create_if_missing) {
  std::string name = PhysicalName(uid, UakDirName());
  HiddenVolume vol = VolumeCtx();
  auto opened = HiddenObject::Open(vol, name, uak);
  if (opened.ok() || !opened.status().IsNotFound() || !create_if_missing) {
    return opened;
  }
  // That NotFound already walked the primary (and, on durable mounts, the
  // anchor) sequence: walking them again to create would find nothing.
  return HiddenObject::CreateClaimOnly(vol, name, uak, HiddenType::kDirectory);
}

StatusOr<std::unique_ptr<HiddenObject>> StegFs::OpenByEntry(
    const std::string& uid, const HiddenDirEntry& entry) {
  return HiddenObject::Open(VolumeCtx(), PhysicalName(uid, entry.name),
                            entry.fak);
}

StatusOr<StegFs::ResolvedEntry> StegFs::ResolveEntry(const std::string& uid,
                                                     const std::string& objname,
                                                     const std::string& uak) {
  STEGFS_ASSIGN_OR_RETURN(std::unique_ptr<HiddenObject> uakdir,
                          OpenUakDir(uid, uak, /*create_if_missing=*/false));
  STEGFS_ASSIGN_OR_RETURN(std::vector<HiddenDirEntry> entries,
                          HiddenDirView::Load(uakdir.get()));
  ResolvedEntry resolved;
  for (;;) {
    int idx = HiddenDirView::Find(entries, objname);
    if (idx >= 0) {
      resolved.entry = entries[idx];
      return resolved;
    }
    // Descend into the hidden directory whose name prefixes objname.
    const HiddenDirEntry* next = nullptr;
    for (const HiddenDirEntry& e : entries) {
      if (e.type != HiddenType::kDirectory) continue;
      if (objname.size() > e.name.size() + 1 &&
          objname.compare(0, e.name.size(), e.name) == 0 &&
          objname[e.name.size()] == '/') {
        if (next == nullptr || e.name.size() > next->name.size()) {
          next = &e;
        }
      }
    }
    if (next == nullptr) {
      return Status::NotFound("object not reachable from UAK directory: " +
                              objname);
    }
    HiddenDirEntry parent = *next;
    STEGFS_ASSIGN_OR_RETURN(std::unique_ptr<HiddenObject> dir,
                            OpenByEntry(uid, parent));
    STEGFS_ASSIGN_OR_RETURN(entries, HiddenDirView::Load(dir.get()));
    resolved.in_uak_dir = false;
    resolved.parent = std::move(parent);
  }
}

Status StegFs::RewriteContainer(const std::string& uid,
                                const std::string& uak,
                                const ResolvedEntry& resolved,
                                const HiddenDirEntry* replacement) {
  std::unique_ptr<HiddenObject> container;
  if (resolved.in_uak_dir) {
    STEGFS_ASSIGN_OR_RETURN(container,
                            OpenUakDir(uid, uak, /*create_if_missing=*/false));
  } else {
    STEGFS_ASSIGN_OR_RETURN(container, OpenByEntry(uid, resolved.parent));
  }
  STEGFS_ASSIGN_OR_RETURN(std::vector<HiddenDirEntry> entries,
                          HiddenDirView::Load(container.get()));
  HiddenDirView::Erase(&entries, resolved.entry.name);
  if (replacement != nullptr) {
    HiddenDirView::Upsert(&entries, *replacement);
  }
  STEGFS_RETURN_IF_ERROR(HiddenDirView::Store(container.get(), entries));
  return plain_->PersistMeta();
}

Status StegFs::StegCreate(const std::string& uid, const std::string& objname,
                          const std::string& uak, HiddenType type,
                          RedundancyPolicy redundancy) {
  STEGFS_RETURN_IF_ERROR(plain_->health()->CheckWritable());
  auto session = sessions_.GetOrCreate(uid);
  std::lock_guard<std::mutex> ns_lock(session->ns_mu());
  STEGFS_ASSIGN_OR_RETURN(std::unique_ptr<HiddenObject> uakdir,
                          OpenUakDir(uid, uak, /*create_if_missing=*/true));
  STEGFS_ASSIGN_OR_RETURN(std::vector<HiddenDirEntry> entries,
                          HiddenDirView::Load(uakdir.get()));
  if (HiddenDirView::Find(entries, objname) >= 0) {
    return Status::AlreadyExists("hidden object already registered: " +
                                 objname);
  }

  HiddenDirEntry entry;
  entry.name = objname;
  entry.type = type;
  entry.fak = FreshFak();
  STEGFS_ASSIGN_OR_RETURN(
      std::unique_ptr<HiddenObject> obj,
      HiddenObject::CreateClaimOnly(VolumeCtx(), PhysicalName(uid, objname),
                                    entry.fak, type, redundancy));
  STEGFS_RETURN_IF_ERROR(obj->Sync());

  HiddenDirView::Upsert(&entries, std::move(entry));
  STEGFS_RETURN_IF_ERROR(HiddenDirView::Store(uakdir.get(), entries));
  return plain_->PersistMeta();
}

StatusOr<std::shared_ptr<concurrency::SessionObject>> StegFs::AcquireConnected(
    const std::string& uid, const std::string& objname) {
  auto session = sessions_.Find(uid);
  std::shared_ptr<concurrency::SessionObject> so =
      session == nullptr ? nullptr : session->Find(objname);
  if (so == nullptr) {
    return Status::FailedPrecondition("object not connected: " + objname);
  }
  return so;
}

Status StegFs::StegConnect(const std::string& uid, const std::string& objname,
                           const std::string& uak) {
  // One subtree per connect: the UAK-directory open, the entry lookup and
  // every object open, each with its `locator.find` walk.
  obs::Span span(plain_->trace_recorder(), "hidden.connect", "hidden");
  auto session = sessions_.GetOrCreate(uid);
  std::lock_guard<std::mutex> ns_lock(session->ns_mu());
  STEGFS_ASSIGN_OR_RETURN(ResolvedEntry resolved,
                          ResolveEntry(uid, objname, uak));

  // Connect this object; for directories, recursively connect offspring.
  std::vector<HiddenDirEntry> frontier = {resolved.entry};
  while (!frontier.empty()) {
    HiddenDirEntry entry = std::move(frontier.back());
    frontier.pop_back();
    if (session->Contains(entry.name)) continue;
    STEGFS_ASSIGN_OR_RETURN(std::unique_ptr<HiddenObject> obj,
                            OpenByEntry(uid, entry));
    if (obj->type() == HiddenType::kDirectory) {
      STEGFS_ASSIGN_OR_RETURN(std::vector<HiddenDirEntry> children,
                              HiddenDirView::Load(obj.get()));
      for (HiddenDirEntry& child : children) {
        frontier.push_back(std::move(child));
      }
    }
    session->Insert(entry.name, entry.fak, std::move(obj));
  }
  return Status::OK();
}

Status StegFs::StegDisconnect(const std::string& uid,
                              const std::string& objname) {
  auto session = sessions_.Find(uid);
  std::shared_ptr<concurrency::SessionObject> so =
      session == nullptr ? nullptr : session->Remove(objname);
  if (so == nullptr) {
    return Status::NotFound("object not connected: " + objname);
  }
  {
    std::lock_guard<std::mutex> obj_lock(so->mu);
    STEGFS_RETURN_IF_ERROR(so->object->Sync());
  }
  return plain_->PersistMeta();
}

Status StegFs::DisconnectAll(const std::string& uid) {
  auto session = sessions_.Find(uid);
  if (session == nullptr) return plain_->PersistMeta();
  for (const auto& so : session->RemoveAll()) {
    std::lock_guard<std::mutex> obj_lock(so->mu);
    STEGFS_RETURN_IF_ERROR(so->object->Sync());
  }
  return plain_->PersistMeta();
}

StatusOr<std::string> StegFs::HiddenReadAll(const std::string& uid,
                                            const std::string& objname) {
  obs::Span span(plain_->trace_recorder(), "hidden.read_all", "hidden");
  obs::LatencyTimer timer(&hidden_read_ns_);
  STEGFS_ASSIGN_OR_RETURN(auto so, AcquireConnected(uid, objname));
  std::lock_guard<std::mutex> obj_lock(so->mu);
  if (so->defunct) {
    return Status::FailedPrecondition("object not connected: " + objname);
  }
  return so->object->ReadAll();
}

Status StegFs::HiddenRead(const std::string& uid, const std::string& objname,
                          uint64_t offset, uint64_t n, std::string* out) {
  obs::Span span(plain_->trace_recorder(), "hidden.read", "hidden");
  obs::LatencyTimer timer(&hidden_read_ns_);
  STEGFS_ASSIGN_OR_RETURN(auto so, AcquireConnected(uid, objname));
  std::lock_guard<std::mutex> obj_lock(so->mu);
  if (so->defunct) {
    return Status::FailedPrecondition("object not connected: " + objname);
  }
  return so->object->Read(offset, n, out);
}

// Per-call header persistence after a hidden mutation. On a non-durable
// volume this is the historical cheap header rewrite (one cache write).
// On a DURABLE volume every HiddenObject::Sync is a full dual-header
// commit with real write barriers, so per-call commits would turn every
// write into an O_SYNC transaction; instead the object stays dirty and
// commits at the group boundaries every path already has — StegFs::Flush,
// disconnect, unmount (the object destructor) — exactly a journaling
// file system's fsync contract.
Status StegFs::SyncAfterMutation(HiddenObject* obj) {
  if (plain_->durable()) return Status::OK();
  return obj->Sync();
}

Status StegFs::HiddenWriteAll(const std::string& uid,
                              const std::string& objname,
                              const std::string& data) {
  obs::Span span(plain_->trace_recorder(), "hidden.write_all", "hidden");
  obs::LatencyTimer timer(&hidden_write_ns_);
  STEGFS_RETURN_IF_ERROR(plain_->health()->CheckWritable());
  STEGFS_ASSIGN_OR_RETURN(auto so, AcquireConnected(uid, objname));
  {
    std::lock_guard<std::mutex> obj_lock(so->mu);
    if (so->defunct) {
      return Status::FailedPrecondition("object not connected: " + objname);
    }
    STEGFS_RETURN_IF_ERROR(so->object->WriteAll(data));
    STEGFS_RETURN_IF_ERROR(SyncAfterMutation(so->object.get()));
  }
  return plain_->PersistMeta();
}

Status StegFs::HiddenWrite(const std::string& uid, const std::string& objname,
                           uint64_t offset, const std::string& data) {
  obs::Span span(plain_->trace_recorder(), "hidden.write", "hidden");
  obs::LatencyTimer timer(&hidden_write_ns_);
  STEGFS_RETURN_IF_ERROR(plain_->health()->CheckWritable());
  STEGFS_ASSIGN_OR_RETURN(auto so, AcquireConnected(uid, objname));
  {
    std::lock_guard<std::mutex> obj_lock(so->mu);
    if (so->defunct) {
      return Status::FailedPrecondition("object not connected: " + objname);
    }
    STEGFS_RETURN_IF_ERROR(so->object->Write(offset, data));
    STEGFS_RETURN_IF_ERROR(SyncAfterMutation(so->object.get()));
  }
  return plain_->PersistMeta();
}

Status StegFs::HiddenTruncate(const std::string& uid,
                              const std::string& objname, uint64_t new_size) {
  obs::Span span(plain_->trace_recorder(), "hidden.truncate", "hidden");
  obs::LatencyTimer timer(&hidden_truncate_ns_);
  STEGFS_RETURN_IF_ERROR(plain_->health()->CheckWritable());
  STEGFS_ASSIGN_OR_RETURN(auto so, AcquireConnected(uid, objname));
  {
    std::lock_guard<std::mutex> obj_lock(so->mu);
    if (so->defunct) {
      return Status::FailedPrecondition("object not connected: " + objname);
    }
    STEGFS_RETURN_IF_ERROR(so->object->Truncate(new_size));
    STEGFS_RETURN_IF_ERROR(SyncAfterMutation(so->object.get()));
  }
  return plain_->PersistMeta();
}

StatusOr<uint64_t> StegFs::HiddenSize(const std::string& uid,
                                      const std::string& objname) {
  STEGFS_ASSIGN_OR_RETURN(auto so, AcquireConnected(uid, objname));
  std::lock_guard<std::mutex> obj_lock(so->mu);
  if (so->defunct) {
    return Status::FailedPrecondition("object not connected: " + objname);
  }
  return so->object->size();
}

std::vector<std::string> StegFs::ConnectedObjects(
    const std::string& uid) const {
  auto session = sessions_.Find(uid);
  if (session == nullptr) return {};
  return session->Names();
}

Status StegFs::RemoveTree(const std::string& uid, const HiddenDirEntry& entry,
                          concurrency::Session* session) {
  // If the object is connected, detach it first and destroy it THROUGH the
  // connected instance under its object lock — that drains any in-flight
  // I/O on it before its blocks are released.
  std::shared_ptr<concurrency::SessionObject> so =
      session == nullptr ? nullptr : session->Remove(entry.name);
  std::unique_ptr<HiddenObject> opened;
  HiddenObject* obj = nullptr;
  std::unique_lock<std::mutex> obj_lock;
  if (so != nullptr) {
    obj_lock = std::unique_lock<std::mutex>(so->mu);
    obj = so->object.get();
  } else {
    STEGFS_ASSIGN_OR_RETURN(opened, OpenByEntry(uid, entry));
    obj = opened.get();
  }
  if (obj->type() == HiddenType::kDirectory) {
    STEGFS_ASSIGN_OR_RETURN(std::vector<HiddenDirEntry> children,
                            HiddenDirView::Load(obj));
    for (const HiddenDirEntry& child : children) {
      STEGFS_RETURN_IF_ERROR(RemoveTree(uid, child, session));
    }
  }
  if (so != nullptr) so->defunct = true;
  return obj->Remove();
}

Status StegFs::HiddenRemove(const std::string& uid, const std::string& objname,
                            const std::string& uak) {
  STEGFS_RETURN_IF_ERROR(plain_->health()->CheckWritable());
  auto session = sessions_.GetOrCreate(uid);
  std::lock_guard<std::mutex> ns_lock(session->ns_mu());
  STEGFS_ASSIGN_OR_RETURN(ResolvedEntry resolved,
                          ResolveEntry(uid, objname, uak));
  STEGFS_RETURN_IF_ERROR(RemoveTree(uid, resolved.entry, session.get()));
  return RewriteContainer(uid, uak, resolved, /*replacement=*/nullptr);
}

Status StegFs::HidePlainTree(const std::string& uid,
                             const std::string& plain_path,
                             const std::string& objname,
                             std::vector<HiddenDirEntry>* parent_entries) {
  STEGFS_ASSIGN_OR_RETURN(FileInfo info, plain_->Stat(plain_path));
  HiddenDirEntry entry;
  entry.name = objname;
  entry.fak = FreshFak();

  if (info.type == InodeType::kFile) {
    entry.type = HiddenType::kFile;
    STEGFS_ASSIGN_OR_RETURN(std::string content, plain_->ReadFile(plain_path));
    STEGFS_ASSIGN_OR_RETURN(
        std::unique_ptr<HiddenObject> obj,
        HiddenObject::CreateClaimOnly(VolumeCtx(), PhysicalName(uid, objname),
                                      entry.fak, HiddenType::kFile));
    STEGFS_RETURN_IF_ERROR(obj->WriteAll(content));
    STEGFS_RETURN_IF_ERROR(obj->Sync());
    STEGFS_RETURN_IF_ERROR(plain_->Unlink(plain_path));
  } else {
    entry.type = HiddenType::kDirectory;
    STEGFS_ASSIGN_OR_RETURN(
        std::unique_ptr<HiddenObject> obj,
        HiddenObject::CreateClaimOnly(VolumeCtx(), PhysicalName(uid, objname),
                                      entry.fak, HiddenType::kDirectory));
    STEGFS_ASSIGN_OR_RETURN(std::vector<DirEntry> children,
                            plain_->List(plain_path));
    std::vector<HiddenDirEntry> child_entries;
    for (const DirEntry& child : children) {
      STEGFS_RETURN_IF_ERROR(
          HidePlainTree(uid, plain_path + "/" + child.name,
                        objname + "/" + child.name, &child_entries));
    }
    STEGFS_RETURN_IF_ERROR(HiddenDirView::Store(obj.get(), child_entries));
    STEGFS_RETURN_IF_ERROR(plain_->RmDir(plain_path));
  }
  parent_entries->push_back(std::move(entry));
  return Status::OK();
}

Status StegFs::StegHide(const std::string& uid, const std::string& pathname,
                        const std::string& objname, const std::string& uak) {
  STEGFS_RETURN_IF_ERROR(plain_->health()->CheckWritable());
  auto session = sessions_.GetOrCreate(uid);
  std::lock_guard<std::mutex> ns_lock(session->ns_mu());
  STEGFS_ASSIGN_OR_RETURN(std::unique_ptr<HiddenObject> uakdir,
                          OpenUakDir(uid, uak, /*create_if_missing=*/true));
  STEGFS_ASSIGN_OR_RETURN(std::vector<HiddenDirEntry> entries,
                          HiddenDirView::Load(uakdir.get()));
  if (HiddenDirView::Find(entries, objname) >= 0) {
    return Status::AlreadyExists("hidden object already registered: " +
                                 objname);
  }
  std::vector<HiddenDirEntry> new_entries;
  STEGFS_RETURN_IF_ERROR(HidePlainTree(uid, pathname, objname, &new_entries));
  assert(new_entries.size() == 1);
  HiddenDirView::Upsert(&entries, std::move(new_entries[0]));
  STEGFS_RETURN_IF_ERROR(HiddenDirView::Store(uakdir.get(), entries));
  return plain_->PersistMeta();
}

Status StegFs::UnhideTree(const std::string& uid,
                          const std::string& plain_path,
                          const HiddenDirEntry& entry,
                          concurrency::Session* session) {
  STEGFS_ASSIGN_OR_RETURN(std::unique_ptr<HiddenObject> obj,
                          OpenByEntry(uid, entry));
  if (obj->type() == HiddenType::kFile) {
    STEGFS_ASSIGN_OR_RETURN(std::string content, obj->ReadAll());
    STEGFS_RETURN_IF_ERROR(plain_->WriteFile(plain_path, content));
  } else {
    STEGFS_RETURN_IF_ERROR(plain_->MkDir(plain_path));
    STEGFS_ASSIGN_OR_RETURN(std::vector<HiddenDirEntry> children,
                            HiddenDirView::Load(obj.get()));
    for (const HiddenDirEntry& child : children) {
      // Child names are full object paths; the leaf is the path suffix.
      std::string leaf = child.name.substr(child.name.find_last_of('/') + 1);
      STEGFS_RETURN_IF_ERROR(
          UnhideTree(uid, plain_path + "/" + leaf, child, session));
    }
  }
  // Drop any connected instance (draining its in-flight I/O) before the
  // on-disk object goes away.
  std::shared_ptr<concurrency::SessionObject> so =
      session == nullptr ? nullptr : session->Remove(entry.name);
  if (so != nullptr) {
    std::lock_guard<std::mutex> drain(so->mu);
    so->defunct = true;
  }
  return obj->Remove();
}

Status StegFs::StegUnhide(const std::string& uid, const std::string& pathname,
                          const std::string& objname, const std::string& uak) {
  STEGFS_RETURN_IF_ERROR(plain_->health()->CheckWritable());
  auto session = sessions_.GetOrCreate(uid);
  std::lock_guard<std::mutex> ns_lock(session->ns_mu());
  STEGFS_ASSIGN_OR_RETURN(std::unique_ptr<HiddenObject> uakdir,
                          OpenUakDir(uid, uak, /*create_if_missing=*/false));
  STEGFS_ASSIGN_OR_RETURN(std::vector<HiddenDirEntry> entries,
                          HiddenDirView::Load(uakdir.get()));
  int idx = HiddenDirView::Find(entries, objname);
  if (idx < 0) {
    return Status::NotFound("object not in UAK directory: " + objname);
  }
  STEGFS_RETURN_IF_ERROR(
      UnhideTree(uid, pathname, entries[idx], session.get()));
  HiddenDirView::Erase(&entries, objname);
  STEGFS_RETURN_IF_ERROR(HiddenDirView::Store(uakdir.get(), entries));
  return plain_->PersistMeta();
}

Status StegFs::StegGetEntry(const std::string& uid, const std::string& objname,
                            const std::string& uak,
                            const std::string& entryfile_path,
                            const crypto::RsaPublicKey& recipient_key,
                            const std::string& entropy) {
  auto session = sessions_.GetOrCreate(uid);
  std::lock_guard<std::mutex> ns_lock(session->ns_mu());
  STEGFS_ASSIGN_OR_RETURN(ResolvedEntry resolved,
                          ResolveEntry(uid, objname, uak));
  std::string record = EncodeHiddenDir({resolved.entry});
  STEGFS_ASSIGN_OR_RETURN(std::string ciphertext,
                          crypto::RsaEncrypt(recipient_key, record, entropy));
  return plain_->WriteFile(entryfile_path, ciphertext);
}

Status StegFs::StegAddEntry(const std::string& uid,
                            const std::string& entryfile_path,
                            const crypto::RsaPrivateKey& private_key,
                            const std::string& uak) {
  STEGFS_RETURN_IF_ERROR(plain_->health()->CheckWritable());
  auto session = sessions_.GetOrCreate(uid);
  std::lock_guard<std::mutex> ns_lock(session->ns_mu());
  STEGFS_ASSIGN_OR_RETURN(std::string ciphertext,
                          plain_->ReadFile(entryfile_path));
  STEGFS_ASSIGN_OR_RETURN(std::string record,
                          crypto::RsaDecrypt(private_key, ciphertext));
  STEGFS_ASSIGN_OR_RETURN(std::vector<HiddenDirEntry> incoming,
                          DecodeHiddenDir(record));
  if (incoming.size() != 1) {
    return Status::Corruption("entry file holds an unexpected record count");
  }
  STEGFS_ASSIGN_OR_RETURN(std::unique_ptr<HiddenObject> uakdir,
                          OpenUakDir(uid, uak, /*create_if_missing=*/true));
  STEGFS_ASSIGN_OR_RETURN(std::vector<HiddenDirEntry> entries,
                          HiddenDirView::Load(uakdir.get()));
  HiddenDirView::Upsert(&entries, std::move(incoming[0]));
  STEGFS_RETURN_IF_ERROR(HiddenDirView::Store(uakdir.get(), entries));
  // "...at which time the file information is added to the UAK's directory
  // and the ciphertext is destroyed."
  STEGFS_RETURN_IF_ERROR(plain_->Unlink(entryfile_path));
  return plain_->PersistMeta();
}

Status StegFs::RevokeSharing(const std::string& uid,
                             const std::string& objname,
                             const std::string& uak,
                             const std::string& new_objname) {
  STEGFS_RETURN_IF_ERROR(plain_->health()->CheckWritable());
  auto session = sessions_.GetOrCreate(uid);
  std::lock_guard<std::mutex> ns_lock(session->ns_mu());
  STEGFS_ASSIGN_OR_RETURN(ResolvedEntry resolved,
                          ResolveEntry(uid, objname, uak));
  const HiddenDirEntry& old_entry = resolved.entry;
  if (old_entry.type != HiddenType::kFile) {
    return Status::NotSupported("revocation of shared directories");
  }

  // "StegFS first makes a new copy with a fresh FAK and possibly a
  // different file name, then removes the original file."
  STEGFS_ASSIGN_OR_RETURN(std::unique_ptr<HiddenObject> old_obj,
                          OpenByEntry(uid, old_entry));
  STEGFS_ASSIGN_OR_RETURN(std::string content, old_obj->ReadAll());

  HiddenDirEntry new_entry;
  new_entry.name = new_objname;
  new_entry.type = HiddenType::kFile;
  new_entry.fak = FreshFak();
  STEGFS_ASSIGN_OR_RETURN(
      std::unique_ptr<HiddenObject> new_obj,
      HiddenObject::CreateClaimOnly(VolumeCtx(),
                                    PhysicalName(uid, new_objname),
                                    new_entry.fak, HiddenType::kFile));
  STEGFS_RETURN_IF_ERROR(new_obj->WriteAll(content));
  STEGFS_RETURN_IF_ERROR(new_obj->Sync());
  if (auto so = session->Remove(objname)) {
    std::lock_guard<std::mutex> drain(so->mu);
    so->defunct = true;
  }
  STEGFS_RETURN_IF_ERROR(old_obj->Remove());

  return RewriteContainer(uid, uak, resolved, &new_entry);
}

Status StegFs::MaintenanceTick() {
  STEGFS_RETURN_IF_ERROR(plain_->health()->CheckWritable());
  // One tick at a time; user I/O keeps flowing (the dummies are touched by
  // nobody else, and the shared rng draws below take the allocation lock
  // in short sections, never across an object operation).
  std::lock_guard<std::mutex> maint_lock(maint_mu_);
  const Superblock& sb = plain_->superblock();
  HiddenVolume vol = VolumeCtx();
  const uint64_t avg = std::max<uint64_t>(sb.steg.dummy_file_avg_bytes, 1);
  for (uint32_t i = 0; i < sb.steg.dummy_file_count; ++i) {
    auto dummy =
        HiddenObject::Open(vol, DummyName(i), DummyKey(sb.dummy_seed, i));
    if (!dummy.ok()) return dummy.status();
    HiddenObject* obj = dummy->get();

    uint64_t size = obj->size();
    uint64_t churn = std::max<uint64_t>(avg / 16, vol.layout.block_size);
    std::string noise(churn, '\0');
    bool grow;
    {
      std::lock_guard<std::mutex> alloc_lock(alloc_mu_);
      steg_rng_.FillBytes(reinterpret_cast<uint8_t*>(noise.data()),
                          noise.size());
      grow = steg_rng_.Bernoulli(0.5);
    }
    // Keep the file near its average size while continually allocating and
    // releasing blocks, so bitmap diffs always show churn.
    if (size > avg + avg / 2) {
      STEGFS_RETURN_IF_ERROR(obj->Truncate(size - churn));
    } else if (size < avg / 2 + 1) {
      STEGFS_RETURN_IF_ERROR(obj->Write(size, noise));
    } else if (grow) {
      STEGFS_RETURN_IF_ERROR(obj->Write(size, noise));
    } else {
      STEGFS_RETURN_IF_ERROR(obj->Truncate(size - std::min(size, churn)));
    }
    // Rewrite a random interior range.
    uint64_t new_size = obj->size();
    if (new_size > churn) {
      uint64_t off;
      {
        std::lock_guard<std::mutex> alloc_lock(alloc_mu_);
        off = steg_rng_.Uniform(new_size - churn);
      }
      STEGFS_RETURN_IF_ERROR(obj->Write(off, noise));
    }
    STEGFS_RETURN_IF_ERROR(obj->Sync());
  }
  return plain_->PersistMeta();
}

Status StegFs::Fsck(journal::FsckReport* out) {
  STEGFS_RETURN_IF_ERROR(plain_->Fsck(out));
  // Hidden-side scrub: audit every connected redundant object. The
  // session table holds exactly the keys fsck may use; dirty state a
  // heal produced commits immediately (Sync) so the repaired map chain
  // survives a crash right after fsck.
  for (const auto& session : sessions_.Snapshot()) {
    for (const auto& so : session->Snapshot()) {
      std::lock_guard<std::mutex> obj_lock(so->mu);
      if (so->defunct) continue;
      if (!so->object->redundancy_policy().enabled()) continue;
      out->hidden_objects_scanned++;
      RedundancyScrubReport rep;
      STEGFS_RETURN_IF_ERROR(so->object->ScrubShares(&rep));
      STEGFS_RETURN_IF_ERROR(so->object->Sync());
      out->hidden_stripes_checked += rep.stripes_checked;
      out->hidden_degraded_stripes += rep.degraded_stripes;
      out->hidden_healed_shares += rep.healed_shares;
      out->hidden_unrecoverable_stripes += rep.unrecoverable_stripes;
      if (rep.degraded_stripes != 0 || rep.unrecoverable_stripes != 0) {
        out->clean = false;
      }
    }
  }
  return Status::OK();
}

StatusOr<HiddenObject*> StegFs::ConnectedForTesting(
    const std::string& uid, const std::string& objname) {
  STEGFS_ASSIGN_OR_RETURN(auto so, AcquireConnected(uid, objname));
  return so->object.get();
}

Status StegFs::Flush() {
  for (const auto& session : sessions_.Snapshot()) {
    for (const auto& so : session->Snapshot()) {
      std::lock_guard<std::mutex> obj_lock(so->mu);
      if (so->defunct) continue;
      STEGFS_RETURN_IF_ERROR(so->object->Sync());
    }
  }
  return plain_->Flush();
}

SpaceReport StegFs::ReportSpace() {
  SpaceReport r;
  const Layout& l = plain_->layout();
  r.block_size = l.block_size;
  r.total_blocks = l.num_blocks;
  r.metadata_blocks = l.data_start;
  r.free_blocks = plain_->bitmap()->free_count();
  r.allocated_blocks = l.num_blocks - r.free_blocks;
  r.plain_file_bytes = plain_->TotalPlainBytes();
  return r;
}

}  // namespace stegfs
