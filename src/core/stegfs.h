// StegFs: the steganographic file system (the paper's contribution).
//
// A StegFs volume is a PlainFs volume (superblock, bitmap, central
// directory, plain files) PLUS:
//   - format-time random fill of every block,
//   - abandoned blocks: ~1% of the volume marked allocated but owned by
//     nothing (foils "allocated-but-unlisted => hidden" inference),
//   - dummy hidden files churned by MaintenanceTick() (foils bitmap
//     snapshot differencing),
//   - hidden objects (HiddenObject) located by keyed PRNG probing and
//     encrypted under per-object FAKs,
//   - per-UAK directories of (name, FAK) pairs, themselves hidden files,
//   - the steganographic API of section 4: steg_create/hide/unhide/
//     connect/disconnect/getentry/addentry (backup/recovery live in
//     core/backup.h).
//
// Naming note: the paper's C-style APIs (steg_create, ...) map to
// StegCreate, StegHide, ... methods here; "physical file name" is
// uid + '\0' + object name, exactly the paper's uid||path construction.
//
// Thread-safety: a mounted StegFs is safe for concurrent use by many
// sessions. Distinct uids' namespace operations and distinct connected
// objects' I/O run in parallel; one uid's namespace ops serialize on its
// session lock, one object's I/O on its object lock, and bitmap/free-pool/
// placement-rng mutations on the narrow allocation lock. The full lock
// hierarchy is documented in docs/ARCHITECTURE.md ("Concurrency model").
// Format, Mount, backup and escrow remain whole-volume maintenance flows
// that require quiescence.
#ifndef STEGFS_CORE_STEGFS_H_
#define STEGFS_CORE_STEGFS_H_

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "blockdev/block_device.h"
#include "concurrency/session_manager.h"
#include "core/hidden_directory.h"
#include "core/hidden_object.h"
#include "crypto/prng.h"
#include "crypto/rsa.h"
#include "fs/plain_fs.h"
#include "util/status.h"
#include "util/statusor.h"

namespace stegfs {

// How Format fills the volume with noise.
enum class FillMode {
  kFast,    // xoshiro256** noise — statistically random, fast (benchmarks)
  kCrypto,  // AES-CTR DRBG noise — cryptographically indistinguishable
};

struct StegFormatOptions {
  StegParams params;        // Table 1 knobs
  uint32_t num_inodes = 0;  // 0 = auto
  FillMode fill_mode = FillMode::kFast;
  // Entropy for fill, abandoned-block placement and the dummy seed. Two
  // formats with the same entropy produce identical volumes (tests rely on
  // this; production would pass real entropy).
  std::string entropy = "stegfs-format-entropy";
  // Write-ahead journal ring size (0 = no journal region, the historical
  // format). Required for Durability::kJournal mounts.
  uint32_t journal_blocks = 0;
};

struct StegFsOptions {
  MountOptions mount;            // plain-side: cache size, plain policy
  uint32_t probe_limit = 10000;  // locator probe bound
  uint64_t steg_rng_seed = 0x5745474653ULL;  // hidden placement randomness
};

struct SpaceReport {
  uint64_t block_size = 0;
  uint64_t total_blocks = 0;
  uint64_t metadata_blocks = 0;
  uint64_t allocated_blocks = 0;  // includes metadata
  uint64_t free_blocks = 0;
  uint64_t plain_file_bytes = 0;
};

class StegFs {
 public:
  // Formats `device` as a StegFs volume: random-fills all blocks, lays down
  // the plain file system, abandons random blocks, creates dummy hidden
  // files sized around params.dummy_file_avg_bytes.
  static Status Format(BlockDevice* device, const StegFormatOptions& options);

  static StatusOr<std::unique_ptr<StegFs>> Mount(BlockDevice* device,
                                                 const StegFsOptions& options);

  ~StegFs();
  StegFs(const StegFs&) = delete;
  StegFs& operator=(const StegFs&) = delete;

  // The plain file system view (the standard open/read/write APIs of the
  // paper's figure 5 — "StegFS implements all the standard file system
  // APIs, so it is able to support existing applications").
  PlainFs* plain() { return plain_.get(); }

  // --- API 1: steg_create(objname, UAK, objtype) -----------------------
  // Creates a hidden object with a fresh random FAK and records
  // (objname, FAK) in the UAK's directory (created on first use).
  // `redundancy` fixes the object's extent-protection policy for life:
  // kNone (the paper's behavior), or replicate/IDA shares that let the
  // data path heal blocks lost to plain-side allocation.
  Status StegCreate(const std::string& uid, const std::string& objname,
                    const std::string& uak, HiddenType type,
                    RedundancyPolicy redundancy = RedundancyPolicy());

  // --- API 2: steg_hide(pathname, objname, UAK) -------------------------
  // Converts a plain file/directory into a hidden object (recursively for
  // directories) and deletes the plain source.
  Status StegHide(const std::string& uid, const std::string& pathname,
                  const std::string& objname, const std::string& uak);

  // --- API 3: steg_unhide(pathname, objname, UAK) -----------------------
  // Converts a hidden object back into a plain file/directory at
  // `pathname` and deletes the hidden source.
  Status StegUnhide(const std::string& uid, const std::string& pathname,
                    const std::string& objname, const std::string& uak);

  // --- API 4: steg_connect(objname, UAK) --------------------------------
  // Resolves objname through the UAK directory and makes it visible to the
  // (uid) session. Connecting a hidden directory reveals its offspring too.
  Status StegConnect(const std::string& uid, const std::string& objname,
                     const std::string& uak);

  // --- API 5: steg_disconnect(objname) ----------------------------------
  Status StegDisconnect(const std::string& uid, const std::string& objname);
  // "When the user logs off, all the connected hidden objects are
  // automatically disconnected."
  Status DisconnectAll(const std::string& uid);

  // --- I/O on connected hidden objects ----------------------------------
  StatusOr<std::string> HiddenReadAll(const std::string& uid,
                                      const std::string& objname);
  Status HiddenRead(const std::string& uid, const std::string& objname,
                    uint64_t offset, uint64_t n, std::string* out);
  Status HiddenWriteAll(const std::string& uid, const std::string& objname,
                        const std::string& data);
  Status HiddenWrite(const std::string& uid, const std::string& objname,
                     uint64_t offset, const std::string& data);
  Status HiddenTruncate(const std::string& uid, const std::string& objname,
                        uint64_t new_size);
  StatusOr<uint64_t> HiddenSize(const std::string& uid,
                                const std::string& objname);
  // Names currently visible to the session.
  std::vector<std::string> ConnectedObjects(const std::string& uid) const;

  // Deletes a hidden object and drops it from the UAK directory.
  Status HiddenRemove(const std::string& uid, const std::string& objname,
                      const std::string& uak);

  // --- API 6: steg_getentry(objname, entryfile, publickey) --------------
  // Writes the RSA-encrypted (objname, type, FAK) record to the plain file
  // `entryfile_path`, for transmission to the recipient.
  Status StegGetEntry(const std::string& uid, const std::string& objname,
                      const std::string& uak,
                      const std::string& entryfile_path,
                      const crypto::RsaPublicKey& recipient_key,
                      const std::string& entropy);

  // --- API 7: steg_addentry(objname, entryfile, privatekey) -------------
  // Decrypts `entryfile_path` and adds the particulars to the caller's UAK
  // directory, then destroys the entry file ("the ciphertext is
  // destroyed").
  Status StegAddEntry(const std::string& uid,
                      const std::string& entryfile_path,
                      const crypto::RsaPrivateKey& private_key,
                      const std::string& uak);

  // Revocation (paper 3.2): copies the object under a fresh FAK (and
  // optionally a new name), removes the original, updates the owner's UAK
  // directory. Old shared FAKs become useless.
  Status RevokeSharing(const std::string& uid, const std::string& objname,
                       const std::string& uak,
                       const std::string& new_objname);

  // One round of dummy-hidden-file churn ("StegFS additionally maintains
  // one or more dummy hidden files that it updates periodically").
  Status MaintenanceTick();

  // Persists all state (connected object headers, bitmap, inodes, cache).
  Status Flush();

  // Online recovery/scrub: cross-checks bitmap vs plain reachability,
  // verifies the journal ring is at rest (see PlainFs::Fsck), and audits
  // every CONNECTED redundant hidden object — fsck holds exactly the keys
  // the running sessions hold, so it can verify and re-disperse their
  // shares while everything unconnected stays indistinguishable noise.
  Status Fsck(journal::FsckReport* out);

  // Volume-wide redundancy counters (surfaced through steg_stats).
  const RedundancyStats& redundancy_stats() const { return red_stats_; }

  // Test-only: the connected object's HiddenObject, bypassing the session
  // locks (callers serialize externally).
  StatusOr<HiddenObject*> ConnectedForTesting(const std::string& uid,
                                              const std::string& objname);

  SpaceReport ReportSpace();
  const StegParams& params() const { return plain_->superblock().steg; }
  const StegFsOptions& options() const { return options_; }

  // Volume context for direct HiddenObject use (tests, benchmarks).
  HiddenVolume VolumeCtx();

  // uid || '\0' || objname — the paper's "user id concatenated with the
  // complete path name" collision-avoidance scheme.
  static std::string PhysicalName(const std::string& uid,
                                  const std::string& objname);

 private:
  StegFs(BlockDevice* device, std::unique_ptr<PlainFs> plain,
         const StegFsOptions& options);

  static Status CreateDummyFiles(PlainFs* plain, Xoshiro* rng,
                                 const StegFsOptions& opts);

  // UAK directory bootstrap name (per uid, keyed by the UAK itself).
  static std::string UakDirName();
  StatusOr<std::unique_ptr<HiddenObject>> OpenUakDir(const std::string& uid,
                                                     const std::string& uak,
                                                     bool create_if_missing);
  // Resolves objname -> FAK via the UAK directory and opens the object.
  StatusOr<std::unique_ptr<HiddenObject>> OpenByEntry(
      const std::string& uid, const HiddenDirEntry& entry);

  // An entry plus where it lives: directly in the UAK directory, or inside
  // a (possibly nested) hidden directory reachable from it.
  struct ResolvedEntry {
    HiddenDirEntry entry;
    bool in_uak_dir = true;
    HiddenDirEntry parent;  // valid when !in_uak_dir
  };
  // Finds `objname` in the UAK directory or by descending hidden
  // directories along the name's '/'-prefix path.
  StatusOr<ResolvedEntry> ResolveEntry(const std::string& uid,
                                       const std::string& objname,
                                       const std::string& uak);
  // Rewrites the container of `resolved`: erases the old entry and, unless
  // `replacement` is null, upserts *replacement.
  Status RewriteContainer(const std::string& uid, const std::string& uak,
                          const ResolvedEntry& resolved,
                          const HiddenDirEntry* replacement);

  // 32 bytes from this mount's FAK stream (see FakSeed in stegfs.cc): a key
  // no live object holds, so creates under it run claim-only
  // (HiddenObject::CreateClaimOnly). The stream is unique per mount but
  // not secret: with the default steg_rng_seed it is derived from the
  // volume's bitmap alone.
  std::string FreshFak();

  // Header persistence after one hidden mutation: immediate on legacy
  // mounts, deferred to the group-commit boundaries (Flush, disconnect,
  // unmount) on durable ones — see the definition for the rationale.
  Status SyncAfterMutation(HiddenObject* obj);

  // Looks the object up in the uid's session; FailedPrecondition when not
  // connected. The caller locks the returned object's mu for the operation.
  StatusOr<std::shared_ptr<concurrency::SessionObject>> AcquireConnected(
      const std::string& uid, const std::string& objname);

  // Recursive helpers for hide/unhide of directories. `session` may be
  // null (uid never connected anything).
  Status HidePlainTree(const std::string& uid, const std::string& plain_path,
                       const std::string& objname,
                       std::vector<HiddenDirEntry>* parent_entries);
  Status UnhideTree(const std::string& uid, const std::string& plain_path,
                    const HiddenDirEntry& entry,
                    concurrency::Session* session);
  Status RemoveTree(const std::string& uid, const HiddenDirEntry& entry,
                    concurrency::Session* session);

  BlockDevice* device_;
  std::unique_ptr<PlainFs> plain_;
  StegFsOptions options_;
  // Allocation lock (level 3 of the hierarchy): guards steg_rng_ and every
  // hidden-path bitmap/free-pool mutation. Handed to hidden objects via
  // HiddenVolume::alloc_mu.
  std::mutex alloc_mu_;
  Xoshiro steg_rng_;
  std::mutex fak_mu_;  // guards fak_drbg_
  crypto::CtrDrbg fak_drbg_;
  std::mutex maint_mu_;  // serializes MaintenanceTick rounds
  concurrency::SessionManager sessions_;
  RedundancyStats red_stats_;
  LocatorStats locator_stats_;
  // Hidden-namespace op latencies (registered under stegfs_hidden_* in
  // the plain mount's registry, alongside red_stats_'s instruments).
  obs::Histogram hidden_read_ns_;
  obs::Histogram hidden_write_ns_;
  obs::Histogram hidden_truncate_ns_;
};

}  // namespace stegfs

#endif  // STEGFS_CORE_STEGFS_H_
